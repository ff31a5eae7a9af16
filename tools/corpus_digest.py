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
branch_nodes=.. examined=.. walks=..`: the exact search's figures summed
over every pass of the corpus, `walks` its `first_odd_cycle` calls
(`two_dim` draws with `sat` too, but never builds a tig).  After each
`exact` and `heuristic` pair it prints `workload seed tigs=N sha256`: the
number of incompatibility graphs (tigs) the passes build, and the hash
of each one's vertex list and neighbour masks in build order.  Both
come from a second, undigested run of the extension alone on the orders
`orddraw.ingest.read_order` reads, through a callable strategy that
records each tig, runs the workload's strategy and records its stats,
so a change that must keep the search or the tigs prints the same
lines too.  The package and the corpus are imported from the checkout
that holds this file.  A reader that closes the pipe early (`| head -3`)
ends the run: the tool stops drawing and exits with status 1, without a
traceback.
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


SEARCH_STATS = ("k", "lower_bound", "branch_nodes", "examined", "walks")


def corpus_digest(workload: str, seed: int) -> tuple[int, str]:
    """(item count, hex SHA-256) of one workload's corpus at one seed."""
    items = corpus.build_corpus(workload, seed)
    h = hashlib.sha256()
    for item in items:
        _, svg, json_text = measure.draw(item.fmt, item.text, corpus.STRATEGY[workload])
        h.update(svg)
        h.update(json_text.encode("utf-8"))
    return len(items), h.hexdigest()


def extension_run(workload: str, seed: int) -> tuple[dict[str, int], int, str]:
    """One run of the extension alone, under the workload's strategy, on
    the orders `read_order` reads from every item of one workload's corpus
    at one seed: the search's stats summed over every pass (0 where the
    strategy reports none), the number of tigs built and the hex SHA-256
    of each tig's vertex list and neighbour masks, in build order."""
    strategy = STRATEGIES[corpus.STRATEGY[workload]]
    totals = dict.fromkeys(SEARCH_STATS, 0)
    tigs = hashlib.sha256()
    count = 0

    def recording(tg):
        nonlocal count
        count += 1
        masks = " ".join(format(mask, "x") for mask in tg.graph.masks)
        tigs.update(f"{tg.vertices}\n{masks}\n".encode("ascii"))
        result = strategy(tg)
        for name in SEARCH_STATS:
            totals[name] += result.stats.get(name, 0)
        return result

    for item in corpus.build_corpus(workload, seed):
        two_dimension_extension(read_order(item.text), strategy=recording)
    return totals, count, tigs.hexdigest()


def search_totals(workload: str, seed: int) -> dict[str, int]:
    """The search's stats, summed over every pass of every item of one
    workload's corpus at one seed (`sat`'s, for `exact`)."""
    return extension_run(workload, seed)[0]


def digest_lines(workload: str, seed: int) -> Iterator[str]:
    """The printed lines of one workload and seed: the digest line, then
    for `exact` the search line, and for `exact` and `heuristic` the tig
    line."""
    count, digest = corpus_digest(workload, seed)
    yield f"{workload} {seed} {count} {digest}"
    if workload == "two_dim":
        return
    totals, tigs, tig_digest = extension_run(workload, seed)
    if workload == "exact":
        yield (f"{workload} {seed} search "
               + " ".join(f"{name}={totals[name]}" for name in SEARCH_STATS))
    yield f"{workload} {seed} tigs={tigs} {tig_digest}"


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
