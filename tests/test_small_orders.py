"""Every order of at most 6 elements, up to isomorphism (405 orders),
through the whole pipeline.

Each order is written as order text and read back, drawn under `sat` and
under `anneal` with collinearity repair, and each drawing is checked by
`perfbench/checker.py`, which rebuilds the relation from the text on its
own.  `sat` inserts the fewest false comparabilities there are, and
`orddraw dim` answers yes exactly when a brute-force search finds a
realizer of two linear extensions, and exactly when `sat` needs no pass.
The 2,045 orders of 7 elements run under the `nightly` mark.
"""

import io
import sys
from pathlib import Path

import pytest

from orddraw import cli
from orddraw.engine import compute_coordinates, drawing_to_json
from orddraw.ingest import read_order, serialize_order
from orddraw.render import detect_collinear, perturb
from oracles import (brute_two_realizer, min_false_comparabilities,
                     naturally_labeled_posets, order_from_downsets, poset_canonical_form)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checker  # noqa: E402


def orders_up_to_isomorphism(n):
    """One order per isomorphism class on n elements, labeled e0..e(n-1)."""
    classes = {}
    for down in naturally_labeled_posets(n):
        classes.setdefault(poset_canonical_form(down, n), down)
    return [order_from_downsets(down, n) for down in classes.values()]


def repaired(drawing):
    conflicts = detect_collinear(drawing)
    return perturb(drawing, conflicts) if conflicts else drawing


@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63), (6, 318),
                                      pytest.param(7, 2045, marks=pytest.mark.nightly)])
def test_every_order_draws_checked_and_answers_dim(n, count, monkeypatch, capsys):
    orders = orders_up_to_isomorphism(n)
    assert len(orders) == count
    for o in orders:
        text = serialize_order(o)
        assert read_order(text) == o
        labels, less = checker.parse_order(text)
        drawings = {strategy: repaired(compute_coordinates(o, strategy=strategy))
                    for strategy in ("sat", "anneal")}
        for strategy, d in drawings.items():
            problems = checker.check_drawing(labels, less, drawing_to_json(d), d)
            assert problems == [], (text, strategy)
        sat = drawings["sat"].trace
        assert sat.false_comparabilities == min_false_comparabilities(o), text
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["dim", "-i", "-"]) == 0
        answer = capsys.readouterr().out
        assert answer in ("dim<=2: yes\n", "dim<=2: no\n"), text
        assert (answer == "dim<=2: yes\n") == brute_two_realizer(o) == (sat.passes == 0), text
