"""Bytecodes that one benchmark corpus pass executes, in total and by function.

    python tools/op_count.py --workload two_dim --seed 1007 [--top 15]

draws every item of one workload's corpus (`perfbench/corpus.py`) through
the bench's own attempt, `perfbench/measure.draw`, as
`tools/corpus_digest.py` does: once untimed and uncounted as a warm-up,
then once under `sys.settrace` with `f_trace_opcodes` set on every frame.
It prints the total count and the functions with the largest own counts
(the bytecodes executed in their own frames, not in their callees).  The
count is a property of the code and the corpus alone, so it repeats
exactly from run to run: a change can be sized on a noisy host by
comparing the counts of two checkouts.  Tracing makes the pass many times
slower, so the count is no wall time.  Nor does it see work done in C
within one bytecode (float formatting, hashing tuple keys, bisection): a
change that saves such work runs almost as many bytecodes as before, and
is sized with `tools/paired_bench.py` instead.  The package and the
corpus are imported from the checkout that holds this file.  A reader
that closes the pipe early (`| head -1`) ends it with status 1, without a
traceback.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import corpus  # noqa: E402
import measure  # noqa: E402
from closed_pipe import exits_on_closed_pipe  # noqa: E402


def count_opcodes(fn: Callable[[], object]) -> Counter:
    """Bytecodes that fn() executes, keyed by the code object that ran them.

    The garbage collector is off while fn runs: a collection runs the
    Python functions in `gc.callbacks` (a test run's `hypothesis` installs
    one) in the traced frame, whenever an allocation count crosses its
    threshold, so one count could take in a callback that the next does
    not."""
    counts: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return counts


def corpus_pass(workload: str, seed: int) -> Callable[[], None]:
    """One pass that draws every item of one workload's corpus."""
    items = corpus.build_corpus(workload, seed)
    strategy = corpus.STRATEGY[workload]

    def run() -> None:
        for item in items:
            measure.draw(item.fmt, item.text, strategy)

    return run


def describe(code) -> str:
    path = Path(code.co_filename)
    try:
        path = path.relative_to(ROOT)
    except ValueError:
        pass
    name = getattr(code, "co_qualname", code.co_name)  # co_qualname: Python 3.11+
    return f"{name} ({path}:{code.co_firstlineno})"


@exits_on_closed_pipe
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--top", type=int, default=15,
                        help="functions to list by own count (default: 15)")
    ns = parser.parse_args(argv)
    run = corpus_pass(ns.workload, ns.seed)
    run()  # warm-up: first-use work is not counted
    counts = count_opcodes(run)
    print(f"{ns.workload} {ns.seed} bytecodes {sum(counts.values())}")
    for code, count in counts.most_common(ns.top):
        print(f"{count:>12} {describe(code)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
