"""SHA-256 of the drawings of the benchmark corpora, one line per workload and seed.

Each item of `perfbench/corpus.py` is drawn the way `orddraw draw` draws
it: parse, `compute_coordinates` with the workload's strategy and seed 0,
collinearity repair, then `emit_svg` and `drawing_to_json`.  One digest per
workload and seed takes each item's SVG bytes and then its JSON text, in
corpus order.  A change that must keep every drawing's bytes prints the
same lines as its parent:

    python tools/corpus_digest.py [--seeds 0 1007]

prints `workload seed items sha256` per pair.  After each `exact` pair it
prints one more line, `exact seed search k=.. lower_bound=..
branch_nodes=.. examined=..`: the exact search's figures summed over
every pass of the corpus (`two_dim` draws with `sat` too, but never
searches).  They come from a second, undigested run of the extension
alone, through a callable strategy that runs `sat` and records its
stats, so a change that must keep the search prints the same totals
too.  The package and the corpus are imported from the checkout that
holds this file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from orddraw.engine import (STRATEGIES, compute_coordinates, drawing_to_json,  # noqa: E402
                            two_dimension_extension)
from orddraw.ingest import concept_lattice, parse_cxt, parse_order_text  # noqa: E402
from orddraw.render import detect_collinear, emit_svg, perturb  # noqa: E402


SEARCH_STATS = ("k", "lower_bound", "branch_nodes", "examined")


def read_order(item: corpus.Item):
    """The order an item's text describes, as `orddraw draw` reads it."""
    if item.fmt == "cxt":
        return concept_lattice(parse_cxt(item.text))
    return parse_order_text(item.text)


def corpus_digest(workload: str, seed: int) -> tuple[int, str]:
    """(item count, hex SHA-256) of one workload's corpus at one seed."""
    items = corpus.build_corpus(workload, seed)
    h = hashlib.sha256()
    for item in items:
        order = read_order(item)
        drawing = compute_coordinates(order, strategy=corpus.STRATEGY[workload], seed=0)
        conflicts = detect_collinear(drawing)
        if conflicts:
            drawing = perturb(drawing, conflicts)
        h.update(emit_svg(drawing))
        h.update(drawing_to_json(drawing).encode("utf-8"))
    return len(items), h.hexdigest()


def search_totals(workload: str, seed: int) -> dict[str, int]:
    """The `sat` search's stats, summed over every pass of every item of
    one workload's corpus at one seed."""
    totals = dict.fromkeys(SEARCH_STATS, 0)

    def recording(tg):
        result = STRATEGIES["sat"](tg, 0)
        for name in SEARCH_STATS:
            totals[name] += result.stats[name]
        return result

    for item in corpus.build_corpus(workload, seed):
        two_dimension_extension(read_order(item), strategy=recording)
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1007],
                        help="corpus seeds (default: 0 1007)")
    ns = parser.parse_args(argv)
    for workload in corpus.WORKLOADS:
        for seed in ns.seeds:
            count, digest = corpus_digest(workload, seed)
            print(f"{workload} {seed} {count} {digest}", flush=True)
            if workload == "exact":
                totals = search_totals(workload, seed)
                print(f"{workload} {seed} search "
                      + " ".join(f"{name}={totals[name]}" for name in SEARCH_STATS), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
