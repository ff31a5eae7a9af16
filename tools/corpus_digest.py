"""SHA-256 of the drawings of the benchmark corpora, one line per workload and seed.

Each item of `perfbench/corpus.py` is drawn by the bench's own attempt,
`perfbench/measure.draw`, which does what `orddraw draw` does: parse,
`compute_coordinates` with the workload's strategy, collinearity repair,
then `emit_svg` and `drawing_to_json`.  One digest per workload and
seed takes each item's SVG bytes and then its JSON text, in corpus order.
A change that must keep every drawing's bytes prints the same lines as its
parent:

    python tools/corpus_digest.py [--seeds 0 1007]

prints `workload seed items sha256` per pair.  After each `exact` pair it
prints one more line, `exact seed search k=.. lower_bound=..
branch_nodes=.. examined=..`: the exact search's figures summed over
every pass of the corpus (`two_dim` draws with `sat` too, but never
searches).  They come from a second, undigested run of the extension
alone on the orders `orddraw.ingest.read_order` reads, through a
callable strategy that runs `sat` and records its stats, so a change
that must keep the search prints the same totals too.  The package and
the corpus are imported from the checkout that holds this file.  A reader
that closes the pipe early (`| head -3`) ends the run: the tool stops
drawing and exits with status 1, without a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import corpus  # noqa: E402
import measure  # noqa: E402
from closed_pipe import exits_on_closed_pipe  # noqa: E402
from orddraw.engine import STRATEGIES, two_dimension_extension  # noqa: E402
from orddraw.ingest import read_order  # noqa: E402


SEARCH_STATS = ("k", "lower_bound", "branch_nodes", "examined")


def corpus_digest(workload: str, seed: int) -> tuple[int, str]:
    """(item count, hex SHA-256) of one workload's corpus at one seed."""
    items = corpus.build_corpus(workload, seed)
    h = hashlib.sha256()
    for item in items:
        _, svg, json_text = measure.draw(item.fmt, item.text, corpus.STRATEGY[workload])
        h.update(svg)
        h.update(json_text.encode("utf-8"))
    return len(items), h.hexdigest()


def search_totals(workload: str, seed: int) -> dict[str, int]:
    """The `sat` search's stats, summed over every pass of every item of
    one workload's corpus at one seed."""
    totals = dict.fromkeys(SEARCH_STATS, 0)

    def recording(tg):
        result = STRATEGIES["sat"](tg)
        for name in SEARCH_STATS:
            totals[name] += result.stats[name]
        return result

    for item in corpus.build_corpus(workload, seed):
        two_dimension_extension(read_order(item.text), strategy=recording)
    return totals


def digest_lines(workload: str, seed: int) -> Iterator[str]:
    """The printed lines of one workload and seed: the digest line, then
    for `exact` the search line."""
    count, digest = corpus_digest(workload, seed)
    yield f"{workload} {seed} {count} {digest}"
    if workload == "exact":
        totals = search_totals(workload, seed)
        yield (f"{workload} {seed} search "
               + " ".join(f"{name}={totals[name]}" for name in SEARCH_STATS))


@exits_on_closed_pipe
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1007],
                        help="corpus seeds (default: 0 1007)")
    ns = parser.parse_args(argv)
    for workload in corpus.WORKLOADS:
        for seed in ns.seeds:
            for line in digest_lines(workload, seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
