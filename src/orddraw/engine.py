"""The drawing pipeline: two-dimension extension, coordinates, dominance.

Until a conjugate order exists, each pass builds the incompatibility graph
of the current (possibly already extended) order, removes a vertex set that
makes it bipartite, and inserts the reversed removed pairs.  Removal sets
are inclusion-minimal, which guarantees that every intermediate relation
really is an order; this is validated defensively anyway.  New
incompatibilities can appear after an insertion, so more than one pass may
be needed; the trace records how many were.

Coordinates come from the realizer of the extended order: each element's
position in the two linear extensions.  The plane embedding maps grid
coordinates (c1, c2) along the generating vectors (-1, 1) and (1, 1), i.e.
to the point (c2 - c1, c1 + c2), so "greater" always means "higher".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .bipartization import (OctResult, brute_force_oct, min_oct_exact,
                            oct_anneal, oct_genetic, oct_greedy)
from .errors import OrderViolation
from .orders import (IdPair, OrderRelation, Pair, cover_relation,
                     transitive_closure)
from .orientation import compute_conjugate_order, realizer_from_conjugate
from .sat import Backend
from .tig import TigGraph, build_tig

Strategy = Callable[[TigGraph], OctResult]


@dataclass(frozen=True)
class ExtensionTrace:
    """Everything the extension loop did."""

    inserted: frozenset[IdPair]
    passes: int
    per_pass_removed: tuple[frozenset[IdPair], ...]
    extended: OrderRelation
    conjugate: OrderRelation
    strategy: str

    def inserted_labels(self) -> tuple[Pair, ...]:
        lab = self.extended.ground.label
        return tuple(sorted((lab(a), lab(b)) for a, b in self.inserted))


@dataclass(frozen=True)
class GridDrawing:
    """Grid and plane coordinates for an order, plus the trace behind them."""

    order: OrderRelation
    coords: dict[str, tuple[int, int]]
    plane: dict[str, tuple[Fraction, Fraction]]
    cover_edges: tuple[Pair, ...]
    trace: ExtensionTrace


@dataclass(frozen=True)
class DominanceReport:
    """False comparabilities a drawing shows for originally incomparable pairs."""

    count: int
    pairs: tuple[Pair, ...]
    inserted: int
    closure_added: int


def _strategy_for(name_or_fn: str | Strategy, seed: int,
                  backend: Backend | None, k_search: str) -> tuple[Strategy, str]:
    if callable(name_or_fn):
        return name_or_fn, getattr(name_or_fn, "__name__", "custom")
    table: dict[str, Strategy] = {
        "sat": lambda tg: min_oct_exact(tg.graph, search=k_search, backend=backend),
        "greedy": lambda tg: oct_greedy(tg.graph, seed=seed),
        "anneal": lambda tg: oct_anneal(tg.graph, seed=seed),
        "genetic": lambda tg: oct_genetic(tg.graph, seed=seed),
        "brute": lambda tg: brute_force_oct(tg.graph),
    }
    if name_or_fn not in table:
        raise ValueError(f"unknown strategy {name_or_fn!r}")
    return table[name_or_fn], name_or_fn


def _insert_checked(current: OrderRelation, new_pairs: frozenset[IdPair]) -> OrderRelation:
    """Add pairs and verify the result is literally an order already.

    With inclusion-minimal removal sets the union needs no further closure;
    anything else indicates a broken strategy and raises OrderViolation.
    """
    m = current.matrix.copy()
    for a, b in new_pairs:
        m[a, b] = True
    eye = np.eye(current.n, dtype=bool)
    if ((m & m.T) & ~eye).any():
        raise OrderViolation("inserted pairs break antisymmetry")
    if (transitive_closure(m) != m).any():
        raise OrderViolation("inserted pairs are not transitively complete")
    return OrderRelation(current.ground, m, current.generator_pairs)


def two_dimension_extension(o: OrderRelation, strategy: str | Strategy = "sat",
                            seed: int = 0, backend: Backend | None = None,
                            k_search: str = "linear") -> ExtensionTrace:
    """Insert incomparable pairs until the order has dimension at most 2.

    Each pass bipartizes the current incompatibility graph and inserts the
    reversals of the removed vertices.  The returned trace carries the
    final extended order and its conjugate.  `strategy` is one of
    "sat" (exact minimum), "greedy", "anneal", "genetic", or any callable
    from TigGraph to OctResult (removal must be inclusion-minimal).
    """
    run, name = _strategy_for(strategy, seed, backend, k_search)
    max_passes = int(np.count_nonzero(~(o.matrix | o.matrix.T))) // 2 + 1
    current = o
    inserted: set[IdPair] = set()
    per_pass: list[frozenset[IdPair]] = []
    while True:
        conj = compute_conjugate_order(current)
        if conj is not None:
            trace = ExtensionTrace(frozenset(inserted), len(per_pass),
                                   tuple(per_pass), current, conj, name)
            _check_trace(o, trace)
            return trace
        if len(per_pass) >= max_passes:
            raise OrderViolation(f"no two-dimension extension after {max_passes} passes")
        tg = build_tig(current)
        removed_pairs = frozenset(tg.vertices[v] for v in run(tg).removed)
        if not removed_pairs:
            raise OrderViolation("strategy removed nothing although no conjugate exists")
        new_pairs = frozenset((b, a) for a, b in removed_pairs)
        current = _insert_checked(current, new_pairs)
        inserted |= new_pairs
        per_pass.append(removed_pairs)


def _check_trace(o: OrderRelation, t: ExtensionTrace) -> None:
    if not all(o.incomparable_ids(a, b) for a, b in t.inserted):
        raise OrderViolation("inserted pairs must be incomparable in the input")
    if t.inserted & {(b, a) for a, b in t.inserted}:
        raise OrderViolation("inserted pairs contain a pair and its reverse")


def compute_coordinates(o: OrderRelation, strategy: str | Strategy = "sat",
                        seed: int = 0, backend: Backend | None = None,
                        k_search: str = "linear") -> GridDrawing:
    """Grid and plane coordinates realizing all original comparabilities.

    Element x gets grid coordinates (rank in L1, rank in L2) for the
    realizer (L1, L2) of the extended order, so x strictly dominates y in
    the grid exactly when x is above y in the extension.
    """
    trace = two_dimension_extension(o, strategy, seed, backend, k_search)
    l1, l2 = realizer_from_conjugate(trace.extended, trace.conjugate)
    coords: dict[str, tuple[int, int]] = {}
    plane: dict[str, tuple[Fraction, Fraction]] = {}
    for i, label in enumerate(o.ground):
        c1, c2 = l1.ranks[i], l2.ranks[i]
        coords[label] = (c1, c2)
        plane[label] = (Fraction(c2 - c1), Fraction(c1 + c2))
    covers = tuple(sorted(cover_relation(o)))
    return GridDrawing(o, coords, plane, covers, trace)


def weak_dominance_stats(d: GridDrawing, o: OrderRelation | None = None) -> DominanceReport:
    """Count incomparable pairs that the grid nevertheless orders.

    These are exactly the comparabilities the extension added, so the count
    equals |extended| - |original| in ordered-pair terms.
    """
    o = o or d.order
    if o.ground != d.order.ground:
        raise ValueError("report requested against a different ground set")
    lab = o.ground.label
    grid_pos = np.array([d.coords[label] for label in o.ground])
    c1, c2 = grid_pos[:, 0], grid_pos[:, 1]
    below = (c1[:, None] < c1[None, :]) & (c2[:, None] < c2[None, :])
    false_ids = np.argwhere(below & ~(o.matrix | o.matrix.T))  # sorted by (a, b)
    false_pairs = [(lab(int(a)), lab(int(b))) for a, b in false_ids]
    closure_added = int(d.trace.extended.matrix.sum() - o.matrix.sum())
    return DominanceReport(len(false_pairs), tuple(false_pairs),
                           len(d.trace.inserted), closure_added)


def perturbed_labels(d: GridDrawing) -> tuple[str, ...]:
    """Elements whose plane point no longer sits on the exact embedding."""
    moved = []
    for label, (c1, c2) in d.coords.items():
        if d.plane[label] != (Fraction(c2 - c1), Fraction(c1 + c2)):
            moved.append(label)
    return tuple(sorted(moved))


def with_plane(d: GridDrawing, plane: dict[str, tuple[Fraction, Fraction]]) -> GridDrawing:
    return replace(d, plane=dict(plane))


def drawing_to_json(d: GridDrawing) -> str:
    """Stable JSON dump of a drawing (schema documented in the README)."""
    report = weak_dominance_stats(d)
    doc = {
        "elements": [
            {
                "label": label,
                "grid": list(d.coords[label]),
                "plane": [float(d.plane[label][0]), float(d.plane[label][1])],
            }
            for label in d.order.ground
        ],
        "cover_edges": [list(e) for e in d.cover_edges],
        "inserted_pairs": [list(e) for e in d.trace.inserted_labels()],
        "passes": d.trace.passes,
        "strategy": d.trace.strategy,
        "false_comparabilities": report.count,
        "perturbed": list(perturbed_labels(d)),
    }
    return json.dumps(doc, indent=2) + "\n"
