"""Spans around the calls into each module, recorded from outside.

`from .x import f` binds `f` in the importing module, so each wrapper is
installed on the module attribute that the caller looks up at call time
(for example `orddraw.engine.build_tig`, not only `orddraw.tig.build_tig`).
Spans stay in memory; `Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module whose attribute callers look up, attribute, span name)
HOOKS = (
    ("orddraw.ingest", "parse_order_text", "ingest.parse"),
    ("orddraw.ingest", "parse_cxt", "ingest.parse"),
    ("orddraw.ingest", "concept_lattice", "ingest.lattice"),
    ("orddraw.orders", "transitive_closure", "orders.closure"),
    ("orddraw.engine", "transitive_closure", "orders.closure"),
    ("orddraw.orientation", "transitive_closure", "orders.closure"),
    ("orddraw.engine", "two_dimension_extension", "engine.extension"),
    ("orddraw.engine", "compute_conjugate_order", "orientation.conjugate"),
    ("orddraw.engine", "realizer_from_conjugate", "orientation.realizer"),
    ("orddraw.engine", "build_tig", "tig.build"),
    ("orddraw.engine", "min_oct_exact", "bipartization.oct"),
    ("orddraw.engine", "oct_anneal", "bipartization.oct"),
    ("orddraw.bipartization", "encode_oct", "bipartization.encode"),
    ("orddraw.bipartization", "solve_cnf", "sat.solve"),
    ("orddraw.bipartization", "peel_to_minimal", "bipartization.peel"),
    ("orddraw.bipartization", "is_bipartite_without", "graphs.coloring"),
    ("orddraw.bipartization", "odd_cycle_census", "graphs.coloring"),
    ("orddraw.render", "detect_collinear", "render.collinear"),
    ("orddraw.render", "perturb", "render.perturb"),
    ("orddraw.render", "emit_svg", "render.emit"),
    ("orddraw.engine", "drawing_to_json", "render.emit"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    attempt: int
    facts: dict = field(default_factory=dict)


def _facts(name: str, args: tuple, result) -> dict:
    """Sizes and verdicts read off a call's arguments and result."""
    if name == "sat.solve":
        cnf = args[0]
        return {"sat": result is not None, "vars": cnf.num_vars,
                "clauses": len(cnf.clauses)}
    if name == "tig.build":
        return {"vertices": len(result.vertices), "edges": result.graph.m}
    if name == "bipartization.oct":
        return {"removed": len(result.removed)}
    if name == "engine.extension":
        return {"passes": result.passes}
    if name == "render.collinear":
        return {"conflicts": len(result)}
    if name == "render.emit" and isinstance(result, bytes):
        return {"bytes": len(result)}
    if name == "ingest.lattice":
        return {"concepts": result.n}
    return {}


class Tracer:
    """Records one span per wrapped call; spans of one attempt share its id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.attempt = -1

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            start = time.perf_counter()
            span = Span(name, start, start, parent, self.attempt)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span.facts = _facts(name, args, result)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # AttributeError if the API moved
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def run(self, attempt: int, fn):
        """Call fn inside a root span for one attempt."""
        self.attempt = attempt
        self._stack.clear()  # a cap overrun can interrupt a wrapper before its push
        return self._wrap(fn, "attempt")()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer totals over the traced attempts, divided by corpus passes.

    Times are inclusive (a span's nested calls count in it), except
    `engine.self_s`, which is the extension loop's own time: insertion and
    trace checks.
    """
    own = self_seconds(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    facts: dict[str, list[dict]] = {}
    for s, self_time in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        count[s.name] = count.get(s.name, 0) + 1
        facts.setdefault(s.name, []).append(s.facts)
        if s.name == "engine.extension":
            total["engine.self"] = total.get("engine.self", 0.0) + self_time

    def seconds(name: str) -> float:
        return total.get(name, 0.0) / passes

    def calls(name: str) -> float:
        return count.get(name, 0) / passes

    def summed(name: str, key: str) -> float:
        return sum(f.get(key, 0) for f in facts.get(name, [])) / passes

    solves = facts.get("sat.solve", [])
    unsat = [i for i, s in enumerate(spans) if s.name == "sat.solve" and not s.facts.get("sat", True)]
    top_collinear = [s.facts.get("conflicts", 0) for s in spans
                     if s.name == "render.collinear" and s.parent is not None
                     and spans[s.parent].name == "attempt"]
    tig_vertices = [f.get("vertices", 0) for f in facts.get("tig.build", [])]
    return {
        "sat.solve_s": seconds("sat.solve"),
        "sat.unsat_s": sum(spans[i].end - spans[i].start for i in unsat) / passes,
        "sat.calls": calls("sat.solve"),
        "sat.unsat_calls": len(unsat) / passes,
        "sat.useful_ratio": (sum(f.get("sat", False) for f in solves) / len(solves)
                             if solves else 0.0),
        "sat.vars_max": max((f.get("vars", 0) for f in solves), default=0),
        "sat.clauses_max": max((f.get("clauses", 0) for f in solves), default=0),
        "bipartization.encode_s": seconds("bipartization.encode"),
        "bipartization.oct_s": seconds("bipartization.oct"),
        "bipartization.peel_s": seconds("bipartization.peel"),
        "bipartization.removed": summed("bipartization.oct", "removed"),
        "graphs.coloring_s": seconds("graphs.coloring"),
        "graphs.coloring_calls": calls("graphs.coloring"),
        "tig.build_s": seconds("tig.build"),
        "tig.vertices": sum(tig_vertices) / passes,
        "tig.edges": summed("tig.build", "edges"),
        "tig.dense_mb": max((2 * v * v for v in tig_vertices), default=0) / 1e6,
        "engine.extension_s": seconds("engine.extension"),
        "engine.self_s": seconds("engine.self"),
        "engine.passes": summed("engine.extension", "passes"),
        "orientation.conjugate_s": seconds("orientation.conjugate"),
        "orientation.conjugate_calls": calls("orientation.conjugate"),
        "orientation.realizer_s": seconds("orientation.realizer"),
        "render.collinear_s": seconds("render.collinear"),
        "render.perturb_s": seconds("render.perturb"),
        "render.emit_s": seconds("render.emit"),
        "render.conflicts": sum(top_collinear) / passes,
        "render.svg_kb": summed("render.emit", "bytes") / 1024,
        "ingest.parse_s": seconds("ingest.parse"),
        "ingest.lattice_s": seconds("ingest.lattice"),
        "ingest.concepts": summed("ingest.lattice", "concepts"),
        "orders.closure_s": seconds("orders.closure"),
        "orders.closure_calls": calls("orders.closure"),
    }


UNITS = {
    "sat.solve_s": "s", "sat.unsat_s": "s", "sat.calls": "count",
    "sat.unsat_calls": "count", "sat.useful_ratio": "ratio",
    "sat.vars_max": "count", "sat.clauses_max": "count",
    "bipartization.encode_s": "s", "bipartization.oct_s": "s",
    "bipartization.peel_s": "s", "bipartization.removed": "count",
    "graphs.coloring_s": "s", "graphs.coloring_calls": "count",
    "tig.build_s": "s", "tig.vertices": "count", "tig.edges": "count",
    "tig.dense_mb": "MB", "engine.extension_s": "s", "engine.self_s": "s",
    "engine.passes": "count", "orientation.conjugate_s": "s",
    "orientation.conjugate_calls": "count", "orientation.realizer_s": "s",
    "render.collinear_s": "s", "render.perturb_s": "s", "render.emit_s": "s",
    "render.conflicts": "count", "render.svg_kb": "KiB",
    "ingest.parse_s": "s", "ingest.lattice_s": "s", "ingest.concepts": "count",
    "orders.closure_s": "s", "orders.closure_calls": "count",
    "trace.overhead": "ratio",
}
