"""Time the exact search's block split and search on k disjoint triangles.

    python tools/block_scaling.py [CHECKOUT] [--sizes 1200 2500 5000]

builds, for each k, the graph of k vertex-disjoint triangles, triangle i
on the vertices 3i, 3i + 1 and 3i + 2, so that each triangle is one odd
block, and times `graphs.odd_blocks` and `bipartization.min_oct_exact`
on it, the package taken from CHECKOUT's `src/` (by default the checkout
that holds this file).  Each figure is the best wall time of three calls.
It prints `k blocks odd_blocks_s us_per_block min_oct_exact_s
us_per_block` per k.  Every block is the same triangle, so a time per
block that grows with k is work that grows with the width of the graph,
not with its blocks.  The search's result is checked: one vertex of each
triangle.  A reader that closes the pipe early (`| head -1`) ends the run
with status 1, without a traceback.
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
    parser.add_argument("--sizes", type=int, nargs="+", default=[1200, 2500, 5000],
                        help="triangle counts k (default: 1200 2500 5000)")
    ns = parser.parse_args(argv)
    if min(ns.sizes) < 1:
        parser.error("every size must be at least 1")
    sys.path.insert(0, str(ns.checkout.resolve() / "src"))
    from orddraw.bipartization import min_oct_exact
    from orddraw.graphs import SimpleGraph, odd_blocks

    print("k blocks odd_blocks_s us_per_block min_oct_exact_s us_per_block")
    for k in ns.sizes:
        g = SimpleGraph(triangles(k))
        blocks = len(odd_blocks(g))
        removed = min_oct_exact(g).removed
        if blocks != k or sorted(v // 3 for v in removed) != list(range(k)):
            print(f"block_scaling.py: wrong blocks or removal set at k = {k}", file=sys.stderr)
            return 1
        split = best_seconds(lambda: odd_blocks(g))
        search = best_seconds(lambda: min_oct_exact(g))
        print(f"{k} {blocks} {split:.4f} {split / k * 1e6:.1f} "
              f"{search:.4f} {search / k * 1e6:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
