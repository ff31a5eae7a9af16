"""Alternating bench runs of two checkouts, one workload and seed, N pairs.

Each run is the checkout's own `perfbench/run.py`, started in that checkout
with the current interpreter:

    python tools/paired_bench.py PARENT CHANGE --workload heuristic \
        --seed 1007 --pairs 10

The benchmark is read from CHANGE's `BENCHMARK.json`: its `workloads` are
the choices of `--workload`, every run lasts its `run_seconds`, and its
`end_to_end` metrics are the ones compared.  A pair runs both sides back to
back, the parent first in even pairs and the change first in odd ones, so
a drift of the machine's speed does not favour one side.  The last stdout
line of a run is its JSON result.  The end-to-end times there are scaled by
a calibration kernel timed around each pass; `run.py` also prints the
unscaled `wall drawings_per_s`, `wall draw_p50_s` and `wall draw_p90_s`
lines, and each of those is compared too, in its scaled metric's `better`
direction, so a swing of the calibration shows as a disagreement of the
two.  For each compared metric the script prints each side's median and
quartiles (`statistics.quantiles`, exclusive method), the change's median
less the parent's as a share of the parent's median, the parent's
interquartile range as the same share, and in how many pairs the change
did better (ties count for neither side).  It then prints each side's
attempted and failed counts and how many of its runs reported a wrong
drawing.  A reader that closes the pipe early (`| head -1`) ends the
runs: the script stops and exits with status 1, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from closed_pipe import exits_on_closed_pipe  # noqa: E402


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one `perfbench/run.py --trace 0` run in `checkout`,
    with the run's printed `wall ...` lines added to its metrics."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:  # "  wall drawings_per_s   123.456 1/s"
        words = line.split()
        if len(words) == 4 and words[0] == "wall":
            result["metrics"][f"wall {words[1]}"] = {"value": float(words[2]),
                                                     "unit": words[3]}
    return result


def value(result: dict, name: str) -> float:
    """One metric's value in a run's JSON result."""
    return result["metrics"][name]["value"]


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run repeats itself."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


@exits_on_closed_pipe
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    ns = parser.parse_args(argv)
    if ns.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ns.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if ns.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    # each end-to-end metric, then the unscaled wall time of the scaled ones
    metrics = bench["end_to_end"]
    metrics = metrics + [{**m, "name": f"wall {m['name']}"} for m in metrics]
    sides = ("parent", "change")
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(ns.pairs):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            result = run_once(getattr(ns, side), ns.workload, ns.seed, bench["run_seconds"])
            runs[side].append(result)
            shown = " ".join(f"{m['name'].replace(' ', '_')}={value(result, m['name']):.6g}"
                             for m in metrics if m["name"] in result["metrics"])
            print(f"pair {i + 1} {side}: {shown}", flush=True)
    print(f"\n{ns.workload} seed {ns.seed}, {ns.pairs} pairs (q1 / median / q3)")
    for metric in metrics:
        name = metric["name"]
        if not all(name in r["metrics"] for side in sides for r in runs[side]):
            continue  # a wall figure some checkout's run.py does not print
        values = {side: [value(r, name) for r in runs[side]] for side in sides}
        (p1, parent, p3), (c1, change, c3) = (summary(values[side]) for side in sides)
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        delta = (change - parent) / parent if parent else float("nan")
        iqr = (p3 - p1) / parent if parent else float("nan")
        print(f"  {name:29s} parent {p1:.6g} / {parent:.6g} / {p3:.6g}   "
              f"change {c1:.6g} / {change:.6g} / {c3:.6g}   "
              f"median {delta:+.1%} (parent IQR {iqr:.1%})   "
              f"change better in {wins}/{ns.pairs} pairs ({metric['better']} is better)")
    for side in sides:
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        print(f"  {side}: {failed} of {attempted} attempts failed, "
              f"{wrong} of {ns.pairs} runs drew a wrong drawing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
