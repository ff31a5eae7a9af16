"""Import time of `orddraw` and `orddraw.cli` in fresh interpreters.

    python tools/import_cost.py [CHECKOUT] [--runs 15]

Times `import orddraw, orddraw.cli` inside N fresh interpreters started
with the current one, the package taken from CHECKOUT's `src/` (by default
the checkout that holds this file), and prints the median and quartiles
in milliseconds for two cases:

- `no cache`: `PYTHONDONTWRITEBYTECODE=1`, so every child compiles the
  package's sources and writes nothing; the standard library's installed
  bytecode is read as usual.  This is the case of an environment that
  sets that variable, and it holds only while `src/` has no
  `__pycache__` of its own (the script says so when it finds one).
- `cached`: bytecode is written under a temporary `PYTHONPYCACHEPREFIX`,
  so nothing lands in `src/`; one uncounted child writes it first, and
  every counted child reads it.

The two cases alternate child by child, so a drift of the machine's speed
touches both alike.  Times are wall times, not scaled for the machine's
speed.  Then it runs N more children without a cache under
`-X importtime` and prints the ten modules with the largest median
cumulative import time among those the import statement loads, the
package's own modules included; what start-up has loaded already (`site`
and what its `.pth` files import) is not listed.  A reader that closes
the pipe early (`| head -1`) ends the run with status 1, without a
traceback.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from closed_pipe import exits_on_closed_pipe  # noqa: E402

PROBE = ("import time; t = time.perf_counter(); import orddraw, orddraw.cli; "
         "print(time.perf_counter() - t)")
# the imports start-up makes (site and its .pth files) log before the mark
MARK = "-- import orddraw --"
LISTED = f"import sys; print({MARK!r}, file=sys.stderr); import orddraw, orddraw.cli"
TOP = 10  # modules listed by cumulative time


def child(env: dict[str, str], *options: str, probe: str = PROBE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *options, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)


def cumulative_us(stderr: str) -> dict[str, int]:
    """Each module's cumulative time in one `-X importtime` listing, from
    its lines after MARK, which read `import time: self [us] | cumulative | name`."""
    times = {}
    for line in stderr.split(MARK, 1)[1].splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():  # not the header line
            times[name.strip()] = int(cumulative)
    return times


def quartiles_ms(seconds: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
    return f"median {median * 1e3:7.2f} ms  quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f} ms"


@exits_on_closed_pipe
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per case")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "orddraw" / "__init__.py").is_file():
        print(f"import_cost.py: no orddraw sources at {src}", file=sys.stderr)
        return 2
    if any(src.rglob("__pycache__")):
        print(f"import_cost.py: {src} holds __pycache__ directories, so the "
              "'no cache' case reads them", file=sys.stderr)
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    base["PYTHONPATH"] = str(src)
    bare = dict(base, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="import_cost_") as prefix:
        cached = dict(base, PYTHONPYCACHEPREFIX=prefix)
        child(cached)  # writes the cache
        times: dict[str, list[float]] = {"no cache": [], "cached": []}
        for _ in range(args.runs):
            times["no cache"].append(float(child(bare).stdout))
            times["cached"].append(float(child(cached).stdout))
    print(f"import orddraw, orddraw.cli from {src}, {args.runs} fresh interpreters per case")
    for case, seconds in times.items():
        print(f"  {case:9s} {quartiles_ms(seconds)}")

    listings = [cumulative_us(child(bare, "-X", "importtime", probe=LISTED).stderr)
                for _ in range(args.runs)]
    medians = {name: statistics.median(listing.get(name, 0) for listing in listings)
               for name in set().union(*listings)}
    print(f"largest cumulative -X importtime entries, no cache, median of {args.runs}:")
    for name, us in sorted(medians.items(), key=lambda item: -item[1])[:TOP]:
        print(f"  {us / 1e3:8.2f} ms  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
