"""The drawing pipeline: two-dimension extension, coordinates, dominance.

Until a conjugate order exists, each pass builds the incompatibility graph
of the current (possibly already extended) order, removes a vertex set that
makes it bipartite, and inserts the reversed removed pairs.  Even an
inclusion-minimal (or minimum) removal set can reverse into pairs whose
union with the order is not transitively closed; the insertion closes the
union, records the pairs the closure added apart from the inserted ones,
and raises OrderViolation only if the closure has a cycle.  The exact
strategy prefers, among the minimum sets its search lists, one whose
reversal is already closed and leaves an order with a conjugate, so it
finishes in one pass with nothing added by closure.  New incompatibilities
can appear after an insertion, so more than one pass may be needed; the
trace records how many were.

Coordinates come from the realizer of the extended order: each element's
position in the two linear extensions.  The plane embedding maps grid
coordinates (c1, c2) along the generating vectors (-1, 1) and (1, 1), i.e.
to the point (c2 - c1, c1 + c2), so "greater" always means "higher".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from .bipartization import OctResult, min_oct_exact, oct_anneal, oct_greedy
from .errors import OrderViolation
from .orders import (IdPair, OrderRelation, Pair, cover_relation,
                     transitive_closure)
from .orientation import compute_conjugate_order, realizer_from_conjugate
from .tig import TigGraph, build_tig

Strategy = Callable[[TigGraph], OctResult]


@dataclass(frozen=True)
class ExtensionTrace:
    """Everything the extension loop did.

    `inserted` holds the reversed removed pairs of every pass and
    `closure_added` the pairs that closing those insertions added on top;
    the two are disjoint, and the extended order is the input plus both.
    """

    inserted: frozenset[IdPair]
    closure_added: frozenset[IdPair]
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
    """False comparabilities a drawing shows for originally incomparable pairs.

    `inserted` and `closure_added` count the trace's two kinds of added
    pairs; against the drawn order they sum to `count`.
    """

    count: int
    pairs: tuple[Pair, ...]
    inserted: int
    closure_added: int


# The named strategies, called with the tig and the seed: the one list of
# names that `two_dimension_extension` and `orddraw draw --solver` accept.
STRATEGIES: dict[str, Callable[[TigGraph, int], OctResult]] = {
    "sat": lambda tg, seed: min_oct_exact(tg.graph, accept=_ends_in_this_pass(tg)),
    "greedy": lambda tg, seed: oct_greedy(tg.graph, seed=seed),
    "anneal": lambda tg, seed: oct_anneal(tg.graph, seed=seed),
}


def _strategy_for(name_or_fn: str | Strategy, seed: int) -> tuple[Strategy, str]:
    if callable(name_or_fn):
        return name_or_fn, getattr(name_or_fn, "__name__", "custom")
    if name_or_fn not in STRATEGIES:
        raise ValueError(f"unknown strategy {name_or_fn!r}")
    return partial(STRATEGIES[name_or_fn], seed=seed), name_or_fn


def _ends_in_this_pass(tg: TigGraph) -> Callable[[frozenset[int]], bool]:
    """Accepts a removal set of tg whose reversal, inserted into tg.order,
    is already transitively closed and leaves an order with a conjugate."""
    def accept(removed: frozenset[int]) -> bool:
        reversal = frozenset((b, a) for a, b in (tg.vertices[v] for v in removed))
        try:
            extended, added = _insert_checked(tg.order, reversal)
        except OrderViolation:
            return False
        return not added and compute_conjugate_order(extended) is not None
    return accept


def _insert_checked(current: OrderRelation, new_pairs: frozenset[IdPair]
                    ) -> tuple[OrderRelation, frozenset[IdPair]]:
    """Add pairs, close the union, and return it with the pairs closure added.

    Inclusion-minimality of the removal set does not make the union
    transitively closed, so the union is closed here; the second result
    holds the pairs in the closure that are neither in `current` nor in
    `new_pairs`.  A closure that breaks antisymmetry (the pairs close a
    cycle) raises OrderViolation.
    """
    m = current.matrix.copy()
    for a, b in new_pairs:
        m[a, b] = True
    closed = transitive_closure(m)
    # the diagonal is the only symmetric part of an order
    if np.count_nonzero(closed & closed.T) != current.n:
        raise OrderViolation("inserted pairs break antisymmetry after closure")
    added = frozenset(map(tuple, np.argwhere(closed & ~m).tolist()))
    return OrderRelation(current.ground, closed, current.generator_pairs), added


def two_dimension_extension(o: OrderRelation, strategy: str | Strategy = "sat",
                            seed: int = 0) -> ExtensionTrace:
    """Insert incomparable pairs until the order has dimension at most 2.

    Each pass bipartizes the current incompatibility graph, inserts the
    reversals of the removed vertices and closes the union; a union whose
    closure has a cycle raises OrderViolation (see _insert_checked).  The
    returned trace carries the inserted and the closure-added pairs, the
    final extended order and its conjugate.  `strategy` is a name in
    STRATEGIES ("sat" is the exact minimum, preferring a set that ends the
    loop in this pass) or any callable from TigGraph to OctResult.
    """
    run, name = _strategy_for(strategy, seed)
    max_passes = int(np.count_nonzero(~(o.matrix | o.matrix.T))) // 2 + 1
    current = o
    inserted: set[IdPair] = set()
    closure_added: set[IdPair] = set()
    per_pass: list[frozenset[IdPair]] = []
    while True:
        conj = compute_conjugate_order(current)
        if conj is not None:
            trace = ExtensionTrace(frozenset(inserted), frozenset(closure_added),
                                   len(per_pass), tuple(per_pass), current, conj,
                                   name)
            _check_trace(o, trace)
            return trace
        if len(per_pass) >= max_passes:
            raise OrderViolation(f"no two-dimension extension after {max_passes} passes")
        tg = build_tig(current)
        removed_pairs = frozenset(tg.vertices[v] for v in run(tg).removed)
        if not removed_pairs:
            raise OrderViolation("strategy removed nothing although no conjugate exists")
        new_pairs = frozenset((b, a) for a, b in removed_pairs)
        current, added = _insert_checked(current, new_pairs)
        inserted |= new_pairs
        closure_added |= added
        per_pass.append(removed_pairs)


def _check_trace(o: OrderRelation, t: ExtensionTrace) -> None:
    if not all(o.incomparable_ids(a, b) for a, b in t.inserted):
        raise OrderViolation("inserted pairs must be incomparable in the input")
    if t.inserted & {(b, a) for a, b in t.inserted}:
        raise OrderViolation("inserted pairs contain a pair and its reverse")


def compute_coordinates(o: OrderRelation, strategy: str | Strategy = "sat",
                        seed: int = 0) -> GridDrawing:
    """Grid and plane coordinates realizing all original comparabilities.

    Element x gets grid coordinates (rank in L1, rank in L2) for the
    realizer (L1, L2) of the extended order, so x strictly dominates y in
    the grid exactly when x is above y in the extension.
    """
    trace = two_dimension_extension(o, strategy, seed)
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
    return DominanceReport(len(false_pairs), tuple(false_pairs),
                           len(d.trace.inserted), len(d.trace.closure_added))


def perturbed_labels(d: GridDrawing) -> tuple[str, ...]:
    """Elements whose plane point no longer sits on the exact embedding."""
    # a Fraction compares equal to an int without building a Fraction for it
    return tuple(sorted(label for label, (c1, c2) in d.coords.items()
                        if d.plane[label] != (c2 - c1, c1 + c2)))


def with_plane(d: GridDrawing, plane: dict[str, tuple[Fraction, Fraction]]) -> GridDrawing:
    return replace(d, plane=dict(plane))


def _json_list(items: list[str], pad: str) -> str:
    """Encoded items as the JSON array json.dumps(indent=2) lays out when
    the array's own line starts at `pad`."""
    if not items:
        return "[]"
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join(items) + "\n" + pad + "]"


def drawing_to_json(d: GridDrawing) -> str:
    """Stable JSON dump of a drawing (schema documented in the README).

    The schema is fixed, so the text is written directly: byte for byte
    what json.dumps(doc, indent=2) + "\n" writes (strings escaped to ASCII,
    numbers by repr), without the pure-Python encoder that indent selects.
    """
    report = weak_dominance_stats(d)
    text = encode_basestring_ascii
    elements = []
    for label in d.order.ground:
        c1, c2 = d.coords[label]
        x, y = d.plane[label]
        elements.append(
            f'{{\n      "label": {text(label)},\n'
            f'      "grid": [\n        {c1!r},\n        {c2!r}\n      ],\n'
            f'      "plane": [\n        {float(x)!r},\n        {float(y)!r}\n      ]\n'
            '    }')

    def pairs(ps: tuple[Pair, ...]) -> str:
        return _json_list([f"[\n      {text(a)},\n      {text(b)}\n    ]"
                           for a, b in ps], "  ")

    return ("{\n"
            f'  "elements": {_json_list(elements, "  ")},\n'
            f'  "cover_edges": {pairs(d.cover_edges)},\n'
            f'  "inserted_pairs": {pairs(d.trace.inserted_labels())},\n'
            f'  "passes": {d.trace.passes!r},\n'
            f'  "strategy": {text(d.trace.strategy)},\n'
            f'  "false_comparabilities": {report.count!r},\n'
            f'  "perturbed": {_json_list([text(p) for p in perturbed_labels(d)], "  ")}\n'
            "}\n")
