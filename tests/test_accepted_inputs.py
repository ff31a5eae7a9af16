"""The accepted-input contract through `orddraw.cli.main`: every input
either gives a drawing that `perfbench/checker.py` accepts or exits 1.

Hypothesis draws random orders of 1-14 elements as order text and random
contexts in the compact Burmeister layout (`B`, the two counts, then the
names and rows), labelled with punctuation, accented letters and CJK
ideographs.  15 % of the inputs get one character inserted at a random
place: `<`, `#`, CR, a byte-order mark, `B` or LF.  Each input is drawn
under `sat` and under `anneal`, once to SVG and once to JSON, and answered
by `dim`.  Every run must exit 0 or 1, never 3 (a broken invariant) and
never with an exception.  Every drawing of an exit-0 run is checked by
`checker.check_drawing`, which rebuilds the relation from the text on its
own: against the JSON document, with the SVG's circle centres as the
plane in which no element may lie on a cover edge.  The checker's readers
know neither a byte-order mark, nor CR line ends, nor any layout of a
context but the compact one, so `reference` hands it the text in those
terms.
"""

import contextlib
import io
import json
import random
import re
import string
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from orddraw import cli
from oracles import parse_cxt_reference

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checker  # noqa: E402

# `#` starts a comment, so a label holding it would not say what was
# drawn; it comes in only as an inserted character.  No label holds a
# character that `str.splitlines` breaks at besides LF and CR (VT, FF,
# U+001C-U+001E, U+0085, U+2028, U+2029): `checker.parse_order` splits
# lines with it, while the package ends a line at LF, CR and CRLF alone,
# so the two would read such a label differently.
ALPHABET = (string.punctuation.replace("#", "") + "àéîõüçñøåßæœÆŒ"
            + "日本語中文漢字東京山川水火木金土")
INSERTED = ["<", "#", "\r", "\ufeff", "B", "\n"]
CIRCLE = re.compile(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"')

def labels(rng, count):
    """`count` distinct labels of one to three characters."""
    found = set()
    while len(found) < count:
        found.add("".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3))))
    return rng.sample(sorted(found), count)


def order_text(rng):
    """Order text of a random order on 1-14 elements: pairs i < j along a
    shuffled base, with or without an `elements:` line."""
    n = rng.randint(1, 14)
    base = labels(rng, n)
    density = rng.choice([0.1, 0.3, 0.5, 0.8])
    lines = [f"{base[i]} < {base[j]}" for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    rng.shuffle(lines)
    if rng.random() < 0.5 or not lines:
        lines.insert(0, "elements: " + " ".join(rng.sample(base, n)))
    return "\n".join(lines) + "\n"


def context_text(rng):
    """A random context of 0-5 objects and 0-5 attributes in the compact
    layout."""
    g, m = rng.randint(0, 5), rng.randint(0, 5)
    rows = ["".join(rng.choice("X.x.") for _ in range(m)) for _ in range(g)]
    return "\n".join(["B", str(g), str(m), *labels(rng, g), *labels(rng, m), *rows]) + "\n"


@st.composite
def inputs(draw):
    """Order text (three in five) or a context, 15 % of either with one
    character inserted."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    text = order_text(rng) if rng.random() < 0.6 else context_text(rng)
    if rng.random() < 0.15:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(INSERTED) + text[at:]
    return text


def run_main(argv):
    """main(argv)'s exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def reference(text):
    """The checker's labels and strict pairs of the input, read as a
    context when its first non-blank line is `B` and as order text
    otherwise.  The text goes to the checker as the package reads it: one
    leading byte-order mark dropped and every line ended by LF.  A context
    goes as `oracles.parse_cxt_reference` reads it, written out again in
    the compact layout, the one layout `checker.parse_context` reads."""
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    if next((line.strip() for line in text.split("\n") if line.strip()), "") != "B":
        return checker.reference_relation("order", text)
    ctx = parse_cxt_reference(text)
    rows = ["".join(".X"[cell] for cell in row) for row in ctx.incidence]
    compact = [str(len(ctx.objects)), str(len(ctx.attributes)), *ctx.objects,
               *ctx.attributes, *rows]
    return checker.reference_relation("cxt", "\n".join(["B", *compact]) + "\n")


def svg_plane(svg, order):
    """The SVG's circle centres by label, in the plane's orientation
    (screen y grows downwards)."""
    centres = CIRCLE.findall(svg)
    assert len(centres) == len(order)
    return {label: (Fraction(x), -Fraction(y)) for label, (x, y) in zip(order, centres)}


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(inputs())
def test_every_input_draws_a_checked_drawing_or_exits_1(text):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "input"
        source.write_bytes(text.encode("utf-8"))
        statuses = {}
        for solver in ("sat", "anneal"):
            for suffix in (".svg", ".json"):
                output = Path(tmp) / f"{solver}{suffix}"
                status, _, err = run_main(["draw", "-i", str(source), "-o", str(output),
                                           "--solver", solver])
                assert status in (0, 1), (text, err)
                statuses[solver, suffix] = status
            if statuses[solver, ".svg"] == statuses[solver, ".json"] == 0:
                doc = (Path(tmp) / f"{solver}.json").read_text(encoding="utf-8")
                svg = (Path(tmp) / f"{solver}.svg").read_text(encoding="utf-8")
                names, less = reference(text)
                order = [element["label"] for element in json.loads(doc)["elements"]]
                drawing = SimpleNamespace(plane=svg_plane(svg, order))
                assert checker.check_drawing(names, less, doc, drawing) == [], (text, solver)
        status, out, err = run_main(["dim", "-i", str(source)])
        assert status in (0, 1), (text, err)
        if status == 0:
            assert out in ("dim<=2: yes\n", "dim<=2: no\n"), text
        # every command reads the input with the one reader
        assert set(statuses.values()) == {status}, (text, statuses, status)
