"""Write BENCH_<pr>.json: the bench's runs beside counts that repeat exactly.

    python tools/bench_record.py --pr 49 [--workload exact ...] [--seconds 20] [--out DIR]

runs, in the checkout that holds this file, the programs that size a
change, each unchanged, and writes what they report to one JSON file,
DIR/BENCH_<pr>.json (by default at the checkout's root).  For each
workload (by default every one that `BENCHMARK.json` lists):

- `perfbench/run.py` at seeds 0 and 1007 with `--trace 0`, and at seed 0
  with `--trace 1`, each for `--seconds` (by default `BENCHMARK.json`'s
  `run_seconds`): each run's last stdout line, its JSON result, is kept
  whole, and the traced run's attribution verdicts as printed, `FAILS`
  included;
- `tools/op_count.py` at seed 0: the bytecode total of one corpus pass
  and the TOP functions with the largest own counts;
- `tools/corpus_digest.py`'s lines for the workload at seeds 0 and 1007,
  the search and tig lines included.

Then `tools/sloc.py`'s code lines per module and in total, the physical
lines of the package's modules, and host facts read without changing
anything: the core count, the Python version and the load averages when
the tool starts and when it ends.

On a shared host the timings vary from run to run, while the bytecode
counts, the digests and the line totals repeat exactly, so two files can
size a change where the timings alone cannot.  The tool writes nothing
under `perfbench/`: no bytecode is cached, in this process or in its
children (`perfbench/run.py` writes the traced run's spans under
`.bench_out/`).  It prints one line per step.  A reader that closes the
pipe early (`| head -1`) ends the run with status 1, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

from closed_pipe import exits_on_closed_pipe  # noqa: E402
from corpus_digest import digest_lines  # noqa: E402
from sloc import code_lines  # noqa: E402

SEEDS = (0, 1007)
TOP = 10
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
TOP_LINE = re.compile(r"\s*(\d+) (.+)")  # "      686649 _reach (src/orddraw/graphs.py:143)"


def output_of(*args: str) -> str:
    """The stdout of one of the checkout's scripts, run in the checkout."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, check=True).stdout


def bench_run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    """One `perfbench/run.py` run: its JSON result and, when traced, its
    attribution verdicts as printed."""
    lines = output_of("perfbench/run.py", "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)).strip().splitlines()
    run = {"seed": seed, "trace": trace, "result": json.loads(lines[-1])}
    if trace:
        run["attribution"] = [line.strip() for line in lines[:-1]
                              if line.strip().startswith("attribution ")]
    return run


def op_count(workload: str) -> dict:
    """`tools/op_count.py`'s total and top functions at seed 0."""
    head, *rows = output_of("tools/op_count.py", "--workload", workload, "--seed", "0",
                            "--top", str(TOP)).strip().splitlines()
    top = [TOP_LINE.fullmatch(row).groups() for row in rows]
    return {"seed": 0, "total": int(head.split()[-1]),
            "top": [{"count": int(count), "function": name} for count, name in top]}


def source_lines() -> dict:
    """Code lines per module and in total, as `tools/sloc.py` counts them,
    and the physical lines of the package's modules."""
    modules = sorted((ROOT / "src" / "orddraw").glob("*.py"))
    texts = {path.name: path.read_text(encoding="utf-8") for path in modules}
    sloc = {name: code_lines(text) for name, text in texts.items()}
    return {"sloc": sloc, "sloc_total": sum(sloc.values()),
            "physical_total": sum(len(text.splitlines()) for text in texts.values())}


@exits_on_closed_pipe
def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in the file's name")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="a workload to run (repeatable; default: every one)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="seconds of each bench run (default: BENCHMARK.json's)")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory to write into (default: the checkout's root)")
    ns = parser.parse_args(argv)
    record = {"pr": ns.pr, "seconds": ns.seconds,
              "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "load_start": list(os.getloadavg())},
              "source": source_lines(), "workloads": {}}
    print(f"sloc total {record['source']['sloc_total']}", flush=True)
    for workload in ns.workload or workloads:
        runs = [bench_run(workload, seed, 0, ns.seconds) for seed in SEEDS]
        runs.append(bench_run(workload, SEEDS[0], 1, ns.seconds))
        print(f"{workload}: {len(runs)} bench runs", flush=True)
        counts = op_count(workload)
        print(f"{workload}: {counts['total']} bytecodes", flush=True)
        digests = [line for seed in SEEDS for line in digest_lines(workload, seed)]
        print(f"{workload}: {len(digests)} digest lines", flush=True)
        record["workloads"][workload] = {"runs": runs, "op_count": counts, "digests": digests}
    record["host"]["load_end"] = list(os.getloadavg())
    path = ns.out / f"BENCH_{ns.pr}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
