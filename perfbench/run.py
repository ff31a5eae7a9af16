"""Benchmark of the orddraw draw pipeline.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 20 --trace 0

Builds the workload's corpus from the seed, then draws its inputs one after
another in this process (closed loop, one caller, one attempt outstanding)
in whole corpus passes, as many as take about `--seconds` on the machine
`measure.PASS_SECONDS` was measured on, and at least 100 attempts.  Every
drawing of the first pass is checked outside the timed part; every later
one must repeat its bytes.  Times are speed-scaled (`measure.CALIBRATION_S`).
The last stdout line is a JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import orddraw, orddraw.cli; "
                "print(time.perf_counter() - t)")
E2E_UNITS = {"drawings_per_s": "1/s", "draw_p50_s": "s", "draw_p90_s": "s",
             "kept_incomparable_share": "share", "peak_rss_mb": "MB", "setup_s": "s"}


def import_seconds(repeats: int) -> float:
    """Median time to import orddraw and orddraw.cli in fresh interpreters,
    speed-scaled like the attempts (see measure.CALIBRATION_S).

    One extra child runs first and is not counted: it writes the bytecode
    cache, which every later command finds in place.
    """
    import measure

    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    times, kernel = [], []
    for _ in range(repeats + 1):
        kernel += [measure.calibration_seconds() for _ in range(5)]
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times[1:]) * measure.CALIBRATION_S / statistics.median(kernel)


def _print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact", "heuristic", "two_dim"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orddraw" / "__init__.py").is_file():
        print(f"run.py: no orddraw sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    import tracing

    bench = measure.Bench(args.workload, args.seed)
    passes = measure.timed_passes(args.workload, len(bench.items), args.seconds)
    print(f"workload {args.workload} seed {args.seed}: {len(bench.items)} inputs, "
          f"strategy {bench.strategy}, cap {measure.CAP_S:g} s, {passes} timed passes")
    if args.trace:
        passes = max(1, round(passes / 2))
        plain = bench.loop(passes)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = bench.loop(passes, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracing.layer_metrics(tracer.spans, passes)
        metrics["trace.overhead"] = (measure.summarize(traced, measure.CAP_S)["drawings_per_s"]
                                     / measure.summarize(plain, measure.CAP_S)["drawings_per_s"])
        units = tracing.UNITS
        print(f"traced {len(traced)} attempts over {passes} passes; per pass:")
        for claim, holds in attribution_checks(args.workload, metrics):
            print(f"  attribution {'holds' if holds else 'FAILS'}: {claim}")
    else:
        attempts = bench.loop(passes)
        summary = measure.summarize(attempts, measure.CAP_S)
        wall = measure.summarize(attempts, measure.CAP_S, scaled=False)
        quality = measure.quality(bench.first_pass, bench.inc_counts)
        print(f"{len(attempts)} attempts over {passes} passes; speed factors "
              + " ".join(f"{a.scale:.3f}" for a in attempts[::len(bench.items)]))
        _print_metrics({"fail_share": summary["fail_share"],
                        "false_comparabilities": quality["false_comparabilities"],
                        "wall drawings_per_s": wall["drawings_per_s"],
                        "wall draw_p50_s": wall["draw_p50_s"],
                        "wall draw_p90_s": wall["draw_p90_s"]},
                       {"fail_share": "share", "false_comparabilities": "count",
                        "wall drawings_per_s": "1/s", "wall draw_p50_s": "s",
                        "wall draw_p90_s": "s"})
        metrics = {
            "drawings_per_s": summary["drawings_per_s"],
            "draw_p50_s": summary["draw_p50_s"],
            "draw_p90_s": summary["draw_p90_s"],
            "kept_incomparable_share": quality["kept_incomparable_share"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_seconds(SETUP_REPEATS),
        }
        units = E2E_UNITS
    _print_metrics(metrics, units)
    failed = sum(not a.ok for a in bench.attempts)
    for problem in bench.problems[:20]:
        print(f"run.py: wrong drawing: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": len(bench.attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def attribution_checks(workload: str, m: dict[str, float]) -> list[tuple[str, bool]]:
    """The traced run against each workload's reason for being."""
    if workload == "exact":
        return [("sat.solve_s >= 0.9 * engine.extension_s",
                 m["sat.solve_s"] >= 0.9 * m["engine.extension_s"])]
    checks = [("sat.calls == 0", m["sat.calls"] == 0)]
    if workload == "two_dim":
        checks.append(("no build_tig calls", m["tig.build_s"] == 0))
    return checks


if __name__ == "__main__":
    sys.exit(main())
