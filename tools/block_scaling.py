"""Time the exact search's block split and search on k disjoint odd blocks.

    python tools/block_scaling.py [CHECKOUT] [--sizes K [K ...]]

builds, for each family and each k, the graph of k vertex-disjoint copies
of one odd block, and times `graphs.odd_blocks` and
`bipartization.min_oct_exact` on it, the package taken from CHECKOUT's
`src/` (by default the checkout that holds this file).  There are two
families:

- `triangles`: triangle i on the vertices 3i, 3i + 1 and 3i + 2.  Its
  BFS layers hold one or two vertices, so the walks take their narrow
  path.  Default k: 1200, 2500 and 5000.
- `twins`: a 5-cycle with each vertex blown up into ten twins, copy i on
  the vertices 50i..50i + 49, vertex 50i + 10p + t being twin t of
  position p; a twin is adjacent to every twin of the two neighbouring
  positions.  Its BFS layers hold 1, 20 and 29 vertices, so the walks
  take their byte path, and its minimum transversal is the ten twins of
  one position.  Default k: 50, 100 and 200.

`--sizes` replaces both families' counts.  Each figure is the best wall
time of three calls.  It prints `family k blocks odd_blocks_s
us_per_block min_oct_exact_s us_per_block` per family and k.  Every
block of a family is the same, so a time per block that grows with k is
work that grows with the width of the graph, not with its blocks.  The
search's result is checked: one vertex of each triangle, the ten twins of
one position of each 5-cycle.  A reader that closes the pipe early
(`| head -1`) ends the run with status 1, without a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from closed_pipe import exits_on_closed_pipe  # noqa: E402


def triangles(k: int) -> list[int]:
    """The neighbour masks of k disjoint triangles, triangle i on 3i..3i+2."""
    masks = []
    for i in range(3 * k):
        first = i - i % 3
        masks.append((0b111 << first) ^ (1 << i))
    return masks


def twins(k: int) -> list[int]:
    """The neighbour masks of k disjoint 5-cycles blown up into ten twins
    per vertex, copy i on 50i..50i+49 and position p on its 10p..10p+9."""
    masks = []
    for v in range(50 * k):
        first, p = v - v % 50, v % 50 // 10
        masks.append((0b1111111111 << first + 10 * ((p + 1) % 5))
                     | (0b1111111111 << first + 10 * ((p - 1) % 5)))
    return masks


def triangle_hit(removed: list[int]) -> bool:
    """Whether the sorted removal set is one vertex of each triangle."""
    return [v // 3 for v in removed] == list(range(len(removed)))


def twins_hit(removed: list[int]) -> bool:
    """Whether the sorted removal set is the ten twins of one position of
    each 5-cycle."""
    positions = [v % 50 // 10 for v in removed[::10]]
    return removed == [50 * i + 10 * p + t for i, p in enumerate(positions) for t in range(10)]


# name: (neighbour masks of k copies, removal check, default k)
FAMILIES = {
    "triangles": (triangles, triangle_hit, [1200, 2500, 5000]),
    "twins": (twins, twins_hit, [50, 100, 200]),
}

REPEATS = 3  # timed calls per figure


def best_seconds(run) -> float:
    """The least wall time of REPEATS calls of run()."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


@exits_on_closed_pipe
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--sizes", type=int, nargs="+",
                        help="block counts k for both families (default: 1200 2500 5000 "
                             "triangles, 50 100 200 twins)")
    ns = parser.parse_args(argv)
    if ns.sizes is not None and min(ns.sizes) < 1:
        parser.error("every size must be at least 1")
    sys.path.insert(0, str(ns.checkout.resolve() / "src"))
    from orddraw.bipartization import min_oct_exact
    from orddraw.graphs import SimpleGraph, odd_blocks

    print("family k blocks odd_blocks_s us_per_block min_oct_exact_s us_per_block")
    for family, (build, hit, sizes) in FAMILIES.items():
        for k in ns.sizes or sizes:
            g = SimpleGraph(build(k))
            blocks = len(odd_blocks(g))
            if blocks != k or not hit(sorted(min_oct_exact(g).removed)):
                print(f"block_scaling.py: wrong blocks or removal set for {family} at k = {k}",
                      file=sys.stderr)
                return 1
            split = best_seconds(lambda: odd_blocks(g))
            search = best_seconds(lambda: min_oct_exact(g))
            print(f"{family} {k} {blocks} {split:.4f} {split / k * 1e6:.1f} "
                  f"{search:.4f} {search / k * 1e6:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
