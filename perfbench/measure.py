"""Attempts of the draw pipeline: the run loop, the cap, and the summary.

An attempt does what `orddraw draw -o x.svg` does, from input text to
bytes.  Library functions are looked up as module attributes at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import signal
import statistics
import time
from dataclasses import dataclass

import checker
import corpus
from orddraw import engine, ingest, render

CAP_S = 10.0  # per-attempt cap; an attempt that overruns it fails
MIN_ATTEMPTS = 100  # p90 then has at least ten attempts beyond it

# Nominal seconds of one corpus pass, measured on a shared 2-core virtual
# machine.  A run of `--seconds` draws that many seconds' worth of whole
# passes, so the work of a run, and with it `attempted` and `failed`,
# depends only on the seed and `--seconds`, never on how fast the machine
# happens to be during the run.
PASS_SECONDS = {"exact": 9.0, "heuristic": 10.0, "two_dim": 11.0}


def timed_passes(workload: str, items: int, seconds: float) -> int:
    """Whole corpus passes that make a run of about `seconds`, at least
    MIN_ATTEMPTS attempts."""
    return max(math.ceil(MIN_ATTEMPTS / items), round(seconds / PASS_SECONDS[workload]))


# The shared host's speed swings by up to half between minutes, for every
# program alike.  A fixed pure-Python kernel (dict inserts and a sort, no
# orddraw code) is timed before every attempt, and each attempt of a pass is
# scaled by CALIBRATION_S / (the pass's median kernel time).  Times then
# read as on the same host at the speed where the kernel takes CALIBRATION_S,
# its calm speed: a change in orddraw's speed shows, a change in the host's
# does not.
CALIBRATION_S = 0.00085


def calibration_kernel() -> int:
    table = {}
    for i in range(3000):
        table[i] = (i * 7919) % 1009
    return sum(sorted(table.values()))


def calibration_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class CapExceeded(Exception):
    """An attempt ran past the per-attempt cap."""


def _on_alarm(signum, frame):
    raise CapExceeded


def draw(fmt: str, text: str, strategy: str):
    """Parse, extend and place, repair collinearity, emit SVG and JSON."""
    if fmt == "cxt":
        order = ingest.concept_lattice(ingest.parse_cxt(text))
    else:
        order = ingest.parse_order_text(text)
    drawing = engine.compute_coordinates(order, strategy=strategy, seed=0)
    conflicts = render.detect_collinear(drawing)
    if conflicts:
        drawing = render.perturb(drawing, conflicts)
    return drawing, render.emit_svg(drawing), engine.drawing_to_json(drawing)


@dataclass(frozen=True)
class Attempt:
    item: int
    seconds: float  # wall time
    error: str | None  # None on success
    scale: float = 1.0  # speed factor of the attempt's pass, see CALIBRATION_S

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def timed(fn, cap: float):
    """(seconds, value, error) of fn() under a SIGALRM cap.

    A raised exception or a cap overrun gives value None and an error text.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CapExceeded:
        return time.perf_counter() - start, None, f"over the {cap:g} s cap"
    except Exception as exc:  # any raise makes the attempt a failure
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, value, None


def ranked_seconds(attempts: list[Attempt], cap: float, scaled: bool = True) -> list[float]:
    """Attempt times with each failure entered at the cap plus its own time,
    so a failure ranks slower than every success and turning one into a
    success can never raise a percentile."""
    times = [(a.scaled if scaled else a.seconds, a.ok) for a in attempts]
    return sorted(t if ok else cap + t for t, ok in times)


def percentile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of an ascending list.

    It weights every order statistic by the chance that it is the sample's
    q-quantile (a Beta((n+1)q, (n+1)(1-q)) law), so one attempt's jitter
    moves it far less than it moves the single nearest-rank value.  The
    weights are never negative: lowering any time never raises it.
    """
    n, steps = len(sorted_values), 16
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((k + 0.5) / (n * steps) for k in range(n * steps))]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, sorted_values)) / sum(weights)


def summarize(attempts: list[Attempt], cap: float, scaled: bool = True) -> dict[str, float]:
    """Throughput and latency of a run; failed attempts' time counts.

    Times are speed-scaled (see CALIBRATION_S) unless `scaled` is false.
    """
    ranked = ranked_seconds(attempts, cap, scaled)
    busy = sum(a.scaled if scaled else a.seconds for a in attempts)
    done = sum(a.ok for a in attempts)
    return {
        "drawings_per_s": done / busy,
        "draw_p50_s": percentile(ranked, 0.5),
        "draw_p90_s": percentile(ranked, 0.9),
        "fail_share": (len(attempts) - done) / len(attempts),
    }


def quality(first_pass: dict[int, int | None], inc_counts: list[int]) -> dict[str, float]:
    """False comparabilities over one corpus pass.

    `first_pass` maps each item to its drawing's false-comparability count,
    or None when the attempt failed; a failure is charged the item's
    unordered incomparable pairs, which is what a linear extension inserts.
    `kept_incomparable_share` averages, over the items, the share of
    incomparable pairs the drawing keeps apart (0 for a failure).
    """
    charged = {i: inc_counts[i] if count is None else count
               for i, count in first_pass.items()}
    kept = [1 - charged[i] / inc_counts[i] if inc_counts[i] else 1.0 for i in charged]
    return {"false_comparabilities": sum(charged.values()),
            "kept_incomparable_share": sum(kept) / len(kept)}


class Bench:
    """A workload's corpus, its references, and every attempt made on it."""

    def __init__(self, workload: str, seed: int):
        self.items = corpus.build_corpus(workload, seed)
        self.strategy = corpus.STRATEGY[workload]
        self.relations = [checker.reference_relation(it.fmt, it.text) for it in self.items]
        self.inc_counts = [checker.incomparable_count(*rel) for rel in self.relations]
        self.attempts: list[Attempt] = []
        self.first_pass: dict[int, int | None] = {}
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []

    def _check(self, i: int, drawing, doc_text: str) -> list[str]:
        problems = checker.check_drawing(*self.relations[i], doc_text, drawing)
        doc = json.loads(doc_text)
        expected = self.items[i].min_false
        if expected is not None:
            got = doc["false_comparabilities"]
            if got < expected or (got != expected and doc["passes"] == 1):
                problems.append(f"{got} false comparabilities, minimum is {expected}")
        return problems

    def attempt(self, i: int, tracer=None):
        item = self.items[i]

        def work():
            return draw(item.fmt, item.text, self.strategy)

        fn = work if tracer is None else (lambda: tracer.run(len(self.attempts), work))
        seconds, value, error = timed(fn, CAP_S)
        self.attempts.append(Attempt(i, seconds, error))
        if value is None:
            self.first_pass.setdefault(i, None)
            return
        drawing, svg, doc_text = value
        digest = hashlib.sha256(svg + doc_text.encode("utf-8")).hexdigest()
        if i not in self.digests:
            self.digests[i] = digest
            self.problems += [f"{item.name}: {p}" for p in self._check(i, drawing, doc_text)]
        elif digest != self.digests[i]:
            self.problems.append(f"{item.name}: output bytes differ between passes")
        if i not in self.first_pass:
            self.first_pass[i] = json.loads(doc_text)["false_comparabilities"]

    def loop(self, passes: int, tracer=None) -> list[Attempt]:
        """`passes` whole corpus passes, in corpus order; their attempts,
        each with its pass's speed factor."""
        start = len(self.attempts)
        for _ in range(passes):
            first, kernel = len(self.attempts), []
            for i in range(len(self.items)):
                kernel.append(calibration_seconds())
                self.attempt(i, tracer)
            scale = CALIBRATION_S / statistics.median(kernel)
            self.attempts[first:] = [dataclasses.replace(a, scale=scale)
                                     for a in self.attempts[first:]]
        return self.attempts[start:]
