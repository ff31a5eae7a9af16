"""The drawing pipeline: two-dimension extension, coordinates, dominance.

Until a conjugate order exists, each pass builds the incompatibility graph
of the current (possibly already extended) order, removes a vertex set that
makes it bipartite, and inserts the reversed removed pairs.  Even an
inclusion-minimal (or minimum) removal set can reverse into pairs whose
union with the order is not transitively closed; the insertion closes the
union and records the pairs the closure added apart from the inserted
ones.  If the closure has a cycle, the pass inserts the reversed pairs one
at a time instead and skips each one that would close a cycle.  The exact
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
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import Callable

from .bipartization import OctResult, min_oct_exact, oct_anneal, oct_greedy
from .errors import OrderViolation
from .orders import (IdPair, OrderRelation, Pair, bits, cover_relation,
                     incomparable_masks, mask_of)
from .orders import transitive_closure  # noqa: F401  unused; perfbench/tracing.py hooks it here
from .orientation import compute_conjugate_order, realizer_from_conjugate
from .tig import TigGraph, build_tig

Strategy = Callable[[TigGraph], OctResult]


@dataclass(frozen=True)
class ExtensionTrace:
    """Everything the extension loop did.

    `inserted` holds the reversed removed pairs of every pass (less any
    that a one-at-a-time insertion skipped) and `closure_added` the pairs
    that closing those insertions added on top; the two are disjoint, and
    the extended order is the input plus both.
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
    "greedy": lambda tg, seed: oct_greedy(tg.graph),
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

    The pairs go into the closed order by their first element: adding
    pairs (a, b1), (a, b2), ... to a closed order relates every x <= a to
    every y above some bi, one OR per element on each side, and the result
    is closed again.  That closes a cycle exactly when some bi <= a already
    holds, and the order of insertion does not change the final closure.
    """
    heads: dict[int, int] = {}
    for a, b in new_pairs:
        heads[a] = heads.get(a, 0) | 1 << b
    up, down = list(current.up), list(current.down)
    for a, ends in heads.items():
        if ends & down[a]:
            raise OrderViolation("inserted pairs break antisymmetry after closure")
        above = 0
        for b in bits(ends):
            above |= up[b]
        above &= ~up[a]  # what is above a already is above everything below it
        if above:
            below = down[a]
            for x in bits(below):
                up[x] |= above
            for y in bits(above):
                down[y] |= below
    added = {(x, y) for x, (old, new) in enumerate(zip(current.up, up)) if new != old
             for y in bits(new & ~old)}
    return OrderRelation(current.ground, up, down), frozenset(added - new_pairs)


def _insert_one_by_one(current: OrderRelation, new_pairs: frozenset[IdPair]
                       ) -> tuple[OrderRelation, frozenset[IdPair], frozenset[IdPair]]:
    """Insert the pairs one at a time in sorted order, closing after each,
    for a set whose union closes a cycle; returns the order, the pairs that
    went in and the pairs closure added.

    A pair that earlier insertions already imply is in the closure-added
    pairs, and a pair whose reverse they imply would close a cycle and is
    skipped.  Every pair reverses an incomparable pair of `current`, so
    the first one goes in and the order grows.
    """
    kept: set[IdPair] = set()
    added: set[IdPair] = set()
    for a, b in sorted(new_pairs):
        if not current.incomparable_ids(a, b):
            continue
        current, more = _insert_checked(current, frozenset([(a, b)]))
        kept.add((a, b))
        added |= more
    return current, frozenset(kept), frozenset(added)


def two_dimension_extension(o: OrderRelation, strategy: str | Strategy = "sat",
                            seed: int = 0) -> ExtensionTrace:
    """Insert incomparable pairs until the order has dimension at most 2.

    Each pass bipartizes the current incompatibility graph, inserts the
    reversals of the removed vertices and closes the union; when that
    closure has a cycle, the reversals go in one at a time and those that
    would close one are skipped (see _insert_one_by_one), unless the
    removal set holds a pair and its reverse, which raises OrderViolation.
    The returned trace carries the inserted and the closure-added pairs,
    the final extended order and its conjugate.  `strategy` is a name in
    STRATEGIES ("sat" is the exact minimum, preferring a set that ends the
    loop in this pass) or any callable from TigGraph to OctResult.
    """
    run, name = _strategy_for(strategy, seed)
    max_passes = sum(mask.bit_count() for mask in incomparable_masks(o)) // 2 + 1
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
        try:
            current, added = _insert_checked(current, new_pairs)
        except OrderViolation:
            if any((b, a) in new_pairs for a, b in new_pairs):
                raise  # the strategy removed a pair and its reverse
            current, new_pairs, added = _insert_one_by_one(current, new_pairs)
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


def _greater(values: list[int]) -> list[int]:
    """Per index i, the mask of the indices j with values[j] > values[i]."""
    greater = [0] * len(values)
    acc = 0
    for _, tied in groupby(sorted(range(len(values)), key=values.__getitem__,
                                  reverse=True), key=values.__getitem__):
        tied = list(tied)
        for i in tied:
            greater[i] = acc
        acc |= mask_of(tied)
    return greater


def weak_dominance_stats(d: GridDrawing) -> DominanceReport:
    """Count incomparable pairs of the drawn order that the grid nevertheless
    orders.

    These are exactly the comparabilities the extension added, so the count
    equals |extended| - |original| in ordered-pair terms.
    """
    o = d.order
    lab = o.ground.label
    grid_pos = [d.coords[label] for label in o.ground]
    above1 = _greater([c1 for c1, _ in grid_pos])
    above2 = _greater([c2 for _, c2 in grid_pos])
    false_pairs = [(lab(a), lab(b))
                   for a, (inc, x, y) in enumerate(zip(incomparable_masks(o), above1, above2))
                   for b in bits(inc & x & y)]  # sorted by (a, b)
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


def drawing_to_json(d: GridDrawing, report: DominanceReport | None = None) -> str:
    """Stable JSON dump of a drawing (schema documented in the README).

    The schema is fixed, so the text is written directly: byte for byte
    what json.dumps(doc, indent=2) + "\n" writes (strings escaped to ASCII,
    numbers by repr), without the pure-Python encoder that indent selects.
    `report` is weak_dominance_stats(d), computed here when not given.
    """
    if report is None:
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
