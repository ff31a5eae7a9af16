"""The drawing pipeline: two-dimension extension, coordinates, JSON.

Until a conjugate order exists, each pass builds the incompatibility graph
of the current (possibly already extended) order, removes a vertex set that
makes it bipartite, and inserts the reversed removed pairs.  Even an
inclusion-minimal (or minimum) removal set can reverse into pairs whose
union with the order is not transitively closed, or closes a cycle.  The
insertion takes the pairs in sorted order, skips each one whose reverse
already holds, closes the rest in and records the pairs the closure added
apart from the inserted ones.  The exact strategy prefers, among the
minimum sets its search lists, one whose reversal goes in whole, is
already closed and leaves an order with a conjugate, so it finishes in
one pass with nothing added by closure; the check and the pass share one
memoized step (_extend), so the accepted set is worked out once.  New
incompatibilities can appear after an insertion, so more than one pass may
be needed; the trace records how many were.

Coordinates come from the realizer of the extended order: each element's
position in the two linear extensions.  The plane embedding maps grid
coordinates (c1, c2) along the generating vectors (-1, 1) and (1, 1), i.e.
to the point (c2 - c1, c1 + c2), so "greater" always means "higher".
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterator

from .bipartization import OctResult, min_oct_exact, oct_anneal
from .errors import OrderViolation
from .orders import (IdPair, OrderRelation, Pair, bits, cover_relation,
                     incomparable_masks)
from .orders import transitive_closure  # noqa: F401  unused; perfbench/tracing.py hooks it here
from .orientation import compute_conjugate_order, realizer_from_conjugate
from .records import Record
from .tig import TigGraph, build_tig

Strategy = Callable[[TigGraph], OctResult]


class ExtensionTrace(Record):
    """Everything the extension loop did.

    `inserted` holds the reversed removed pairs of every pass, less those
    the insertion skipped because their reverse held, and `closure_added`
    the pairs that closing those insertions added on top; the two are
    disjoint, and the extended order is the input plus both.

    Together they are the drawing's false comparabilities, the incomparable
    pairs that the grid orders: the grid holds each element's ranks in a
    realizer of the extended order, so grid dominance is that order.
    `false_comparabilities` and `passes` are counted off these fields.
    """

    __slots__ = ("inserted", "closure_added", "per_pass_removed",
                 "extended", "conjugate", "strategy")

    def __init__(self, inserted: frozenset[IdPair], closure_added: frozenset[IdPair],
                 per_pass_removed: tuple[frozenset[IdPair], ...],
                 extended: OrderRelation, conjugate: OrderRelation, strategy: str):
        self._fill(inserted, closure_added, per_pass_removed,
                   extended, conjugate, strategy)

    @property
    def passes(self) -> int:
        return len(self.per_pass_removed)

    @property
    def false_comparabilities(self) -> int:
        return len(self.inserted) + len(self.closure_added)

    def inserted_labels(self) -> tuple[Pair, ...]:
        lab = self.extended.ground.label
        return tuple(sorted((lab(a), lab(b)) for a, b in self.inserted))


class GridDrawing(Record):
    """Grid and plane coordinates for an order, plus the trace behind them.

    Each plane point is the int pair plane[label] over `denominator`, a
    positive int all points share: 1 until render.perturb refines it.
    `d.replace(cover_edges=...)` copies a drawing with fields changed.
    """

    __slots__ = ("order", "coords", "plane", "cover_edges", "trace", "denominator")

    def __init__(self, order: OrderRelation, coords: dict[str, tuple[int, int]],
                 plane: dict[str, tuple[int, int]],
                 cover_edges: tuple[Pair, ...], trace: ExtensionTrace,
                 denominator: int = 1):
        self._fill(order, coords, plane, cover_edges, trace, denominator)


# The named strategies: the one list of names that
# `two_dimension_extension` and `orddraw draw --solver` accept.
STRATEGIES: dict[str, Strategy] = {
    "sat": lambda tg: min_oct_exact(tg.graph, accept=_ends_in_this_pass(tg)),
    "anneal": lambda tg: oct_anneal(tg.graph),
}


def _strategy_for(name_or_fn: str | Strategy) -> tuple[Strategy, str]:
    if callable(name_or_fn):
        return name_or_fn, getattr(name_or_fn, "__name__", "custom")
    if name_or_fn not in STRATEGIES:
        raise ValueError(f"unknown strategy {name_or_fn!r}")
    return STRATEGIES[name_or_fn], name_or_fn


def _ends_in_this_pass(tg: TigGraph) -> Callable[[frozenset[int]], bool]:
    """Accepts a removal set of tg whose whole reversal goes into tg.order,
    is already transitively closed and leaves an order with a conjugate."""
    def accept(removed: frozenset[int]) -> bool:
        reversal = frozenset((b, a) for a, b in (tg.vertices[v] for v in removed))
        _, kept, added, conj = _extend(tg.order, reversal)
        return kept == reversal and not added and conj is not None
    return accept


@lru_cache(maxsize=1)
def _extend(current: OrderRelation, reversal: frozenset[IdPair]
            ) -> tuple[OrderRelation, frozenset[IdPair], frozenset[IdPair],
                       OrderRelation | None]:
    """The insertion of `reversal` into `current` (see _insert) and the
    extended order's conjugate, or None.  It keeps its last answer, keyed
    by the values of its arguments (an OrderRelation is a frozen record
    that compares its ground set and up masks), so a pass that inserts the
    set its accept check just took reads that answer, as does an equal
    order built anew."""
    extended, kept, added = _insert(current, reversal)
    return extended, kept, added, compute_conjugate_order(extended)


def _insert(current: OrderRelation, pairs: frozenset[IdPair]
            ) -> tuple[OrderRelation, frozenset[IdPair], frozenset[IdPair]]:
    """Add pairs and close them in, skipping each pair whose reverse holds;
    returns the order, the pairs that went in and the pairs closure added.

    The pairs go into the closed order one at a time, in sorted order.  A
    pair (a, b) whose reverse b <= a holds is skipped.  Any other relates
    every x <= a to every y above b that is not above a already, one OR per
    element on each side, and the result is closed again.  When no pair is
    skipped the result is the closure of the union whatever the order.  A
    pair that earlier ones imply counts as inserted; the closure-added
    pairs are the new comparabilities beyond the inserted ones.

    The sorted pairs that share a first element a are consecutive, and
    inserting them one at a time is inserting their union at once: down[a]
    changes only when a goes above some b, which a kept pair (a, b) never
    does, so each pair of the run is skipped or kept on the same test, and
    a kept b, not below a, keeps its up[b].  So a run ORs its kept pairs'
    up masks and walks down[a] once.
    """
    up, down = list(current.up), list(current.down)
    kept: set[IdPair] = set()
    for a, run in groupby(sorted(pairs), key=itemgetter(0)):
        below, reach = down[a], 0
        for _, b in run:
            if not below >> b & 1:
                kept.add((a, b))
                reach |= up[b]
        above = reach & ~up[a]
        if above:
            for x in bits(below):
                up[x] |= above
            for y in bits(above):
                down[y] |= below
    added = {(x, y) for x, (old, new) in enumerate(zip(current.up, up)) if new != old
             for y in bits(new & ~old)}
    return OrderRelation(current.ground, up, down), frozenset(kept), frozenset(added - kept)


def two_dimension_extension(o: OrderRelation,
                            strategy: str | Strategy = "sat") -> ExtensionTrace:
    """Insert incomparable pairs until the order has dimension at most 2.

    Each pass bipartizes the current incompatibility graph and inserts the
    reversals of the removed vertices in sorted order, closing them in and
    skipping each one whose reverse already holds (see _insert), so a
    removal set that closes a cycle or holds a pair and its reverse still
    extends the order.  The returned trace carries the inserted and the
    closure-added pairs, the final extended order and its conjugate.
    `strategy` is a name in STRATEGIES ("sat" is the exact minimum,
    preferring a set that ends the loop in this pass) or any callable from
    TigGraph to OctResult.
    """
    run, name = _strategy_for(strategy)
    max_passes = sum(mask.bit_count() for mask in incomparable_masks(o)) // 2 + 1
    current = o
    inserted: set[IdPair] = set()
    closure_added: set[IdPair] = set()
    per_pass: list[frozenset[IdPair]] = []
    conj = compute_conjugate_order(current)
    while conj is None:
        if len(per_pass) >= max_passes:
            raise OrderViolation(f"no two-dimension extension after {max_passes} passes")
        tg = build_tig(current)
        removed_pairs = frozenset(tg.vertices[v] for v in run(tg).removed)
        if not removed_pairs:
            raise OrderViolation("strategy removed nothing although no conjugate exists")
        current, kept, added, conj = _extend(current, frozenset((b, a) for a, b in removed_pairs))
        inserted |= kept
        closure_added |= added
        per_pass.append(removed_pairs)
    trace = ExtensionTrace(frozenset(inserted), frozenset(closure_added),
                           tuple(per_pass), current, conj, name)
    _check_trace(o, trace)
    return trace


def _check_trace(o: OrderRelation, t: ExtensionTrace) -> None:
    if not all(o.incomparable_ids(a, b) for a, b in t.inserted):
        raise OrderViolation("inserted pairs must be incomparable in the input")
    if t.inserted & {(b, a) for a, b in t.inserted}:
        raise OrderViolation("inserted pairs contain a pair and its reverse")


def compute_coordinates(o: OrderRelation, strategy: str | Strategy = "sat",
                        *, seed: int = 0) -> GridDrawing:
    """Grid and plane coordinates realizing all original comparabilities.

    Element x gets grid coordinates (rank in L1, rank in L2) for the
    realizer (L1, L2) of the extended order, so x strictly dominates y in
    the grid exactly when x is above y in the extension.

    Every strategy is deterministic.  `seed` is ignored: it is kept only
    because the benchmark's `perfbench/measure.py` still passes `seed=0`,
    and it goes when the benchmark stops passing it.
    """
    trace = two_dimension_extension(o, strategy)
    l1, l2 = realizer_from_conjugate(trace.extended, trace.conjugate)
    coords: dict[str, tuple[int, int]] = {}
    plane: dict[str, tuple[int, int]] = {}
    for i, label in enumerate(o.ground):
        c1, c2 = l1.ranks[i], l2.ranks[i]
        coords[label] = (c1, c2)
        plane[label] = (c2 - c1, c1 + c2)
    covers = tuple(sorted(cover_relation(o)))
    return GridDrawing(o, coords, plane, covers, trace)


def _moved_labels(d: GridDrawing) -> Iterator[str]:
    """Elements whose plane point no longer sits on the exact embedding,
    lazily, in coords order."""
    den, plane = d.denominator, d.plane
    return (label for label, (c1, c2) in d.coords.items()
            if plane[label] != ((c2 - c1) * den, (c1 + c2) * den))


def perturbed_labels(d: GridDrawing) -> tuple[str, ...]:
    """Elements whose plane point no longer sits on the exact embedding,
    sorted."""
    return tuple(sorted(_moved_labels(d)))


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
    A plane coordinate X / denominator is an int true division, correctly
    rounded: the float of the rational coordinate.
    `false_comparabilities` counts the trace's added pairs (ExtensionTrace).
    """
    text = encode_basestring_ascii
    den = d.denominator
    elements = []
    for label in d.order.ground:
        c1, c2 = d.coords[label]
        x, y = d.plane[label]
        elements.append(
            f'{{\n      "label": {text(label)},\n'
            f'      "grid": [\n        {c1!r},\n        {c2!r}\n      ],\n'
            f'      "plane": [\n        {x / den!r},\n        {y / den!r}\n      ]\n'
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
            f'  "false_comparabilities": {d.trace.false_comparabilities!r},\n'
            f'  "perturbed": {_json_list([text(p) for p in perturbed_labels(d)], "  ")}\n'
            "}\n")
