"""SHA-256 of the drawings of the benchmark corpora, one line per workload and seed.

Each item of `perfbench/corpus.py` is drawn the way `orddraw draw` draws
it: parse, `compute_coordinates` with the workload's strategy and seed 0,
collinearity repair, then `emit_svg` and `drawing_to_json`.  One digest per
workload and seed takes each item's SVG bytes and then its JSON text, in
corpus order.  A change that must keep every drawing's bytes prints the
same lines as its parent:

    python tools/corpus_digest.py [--seeds 0 1007]

prints `workload seed items sha256` per pair.  The package and the corpus
are imported from the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from orddraw.engine import compute_coordinates, drawing_to_json  # noqa: E402
from orddraw.ingest import concept_lattice, parse_cxt, parse_order_text  # noqa: E402
from orddraw.render import detect_collinear, emit_svg, perturb  # noqa: E402


def corpus_digest(workload: str, seed: int) -> tuple[int, str]:
    """(item count, hex SHA-256) of one workload's corpus at one seed."""
    items = corpus.build_corpus(workload, seed)
    h = hashlib.sha256()
    for item in items:
        if item.fmt == "cxt":
            order = concept_lattice(parse_cxt(item.text))
        else:
            order = parse_order_text(item.text)
        drawing = compute_coordinates(order, strategy=corpus.STRATEGY[workload], seed=0)
        conflicts = detect_collinear(drawing)
        if conflicts:
            drawing = perturb(drawing, conflicts)
        h.update(emit_svg(drawing))
        h.update(drawing_to_json(drawing).encode("utf-8"))
    return len(items), h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1007],
                        help="corpus seeds (default: 0 1007)")
    ns = parser.parse_args(argv)
    for workload in corpus.WORKLOADS:
        for seed in ns.seeds:
            count, digest = corpus_digest(workload, seed)
            print(f"{workload} {seed} {count} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
