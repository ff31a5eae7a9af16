"""Run the exact strategy on a fixed family of random orders, each under a time cap.

    python tools/exact_fuzz.py [CHECKOUT] [--count N] [--cap S]

extends input i = 0..N-1 (default 200) to dimension two in process with
the `sat` strategy, the package taken from CHECKOUT's `src/` and the
generator from its `perfbench/corpus.py` (by default the checkout that
holds this file).  Input i is `corpus.random_order(Random(i), n, p)`,
with n = randint(12, 30) and then p = uniform(0.1, 0.45) drawn from
`Random(9000 + i)`.  Each extension runs under a `SIGALRM` cap of S
seconds (default 3).  After the cap the alarm repeats every 10 ms until
the extension stops, so the cap holds even when an alarm lands where its
exception cannot propagate, such as a gc callback or a finalizer, which
Python only reports.

It prints a header, then one line per input:

    i n p status k lower_bound branch_nodes walks seconds removal

`status` is `done` or `capped`.  The four figures are the search's stats
summed over the input's passes (`-` where the input was capped, and
`walks` also `-` for a package whose search does not count its walks).  `seconds` is the
wall time of the extension, and `removal` the first twelve hex digits of
the SHA-256 of the sorted removal set of each pass, so two checkouts
that remove the same pairs print the same text.  A summary line follows:
the finished and capped counts, and the sum, p50, p90 and maximum
seconds of the finished inputs.  A reader that closes the pipe early
(`| head -1`) ends the run with status 1, without a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from closed_pipe import exits_on_closed_pipe  # noqa: E402

FIGURES = ("k", "lower_bound", "branch_nodes", "walks")


class Capped(Exception):
    """The cap's alarm went off."""


def fuzz_input(i: int) -> tuple[int, float]:
    """(n, p) of input i, drawn from Random(9000 + i)."""
    draw = random.Random(9000 + i)
    n = draw.randint(12, 30)
    return n, draw.uniform(0.1, 0.45)


def nearest_rank(ordered: list[float], q: float) -> float:
    """The q-quantile of an ascending list by the nearest-rank rule."""
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _alarm(signum, frame):
    raise Capped


@exits_on_closed_pipe
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--count", type=int, default=200, help="inputs (default: 200)")
    parser.add_argument("--cap", type=float, default=3.0,
                        help="seconds per input (default: 3)")
    ns = parser.parse_args(argv)
    if ns.count < 0 or ns.cap <= 0:
        parser.error("--count must be at least 0 and --cap above 0")
    root = ns.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import corpus
    from orddraw.bipartization import TransversalSearch
    from orddraw.engine import STRATEGIES, two_dimension_extension
    # a package from before the search counted its walks prints `-` for them
    counted = FIGURES if hasattr(TransversalSearch, "walks") else FIGURES[:-1]

    print("i n p status k lower_bound branch_nodes walks seconds removal")
    finished: list[float] = []
    capped = 0
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for i in range(ns.count):
            n, p = fuzz_input(i)
            order = corpus.random_order(random.Random(i), n, p)
            totals = dict.fromkeys(counted, 0)

            def recording(tg):
                result = STRATEGIES["sat"](tg)
                for name in counted:
                    totals[name] += result.stats[name]
                return result

            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, ns.cap, 0.01)  # repeats: see above
            try:
                try:
                    trace = two_dimension_extension(order, strategy=recording)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Capped:  # also an alarm that beats the timer's reset
                trace = None
            seconds = time.perf_counter() - start
            if trace is None:
                capped += 1
                figures, status, removal = ["-"] * len(FIGURES), "capped", "-"
            else:
                finished.append(seconds)
                figures = [str(totals.get(name, "-")) for name in FIGURES]
                passes = repr([sorted(removed) for removed in trace.per_pass_removed])
                status, removal = "done", hashlib.sha256(passes.encode()).hexdigest()[:12]
            print(f"{i} {n} {p:.3f} {status} {' '.join(figures)} {seconds:.4f} {removal}",
                  flush=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    finished.sort()
    spread = (f"sum {sum(finished):.3f} p50 {nearest_rank(finished, 0.5):.4f} "
              f"p90 {nearest_rank(finished, 0.9):.4f} max {finished[-1]:.4f}"
              if finished else "sum 0 p50 - p90 - max -")
    print(f"finished {len(finished)} capped {capped} seconds {spread}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
