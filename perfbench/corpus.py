"""Seeded input corpora for the benchmark workloads.

Every input comes from a generator in the package (standard families,
intersections of linear extensions, concept lattices of contexts) or from
the seeded random orders and contexts below, and is serialized to `.order`
or `.cxt` text during set-up, so each attempt starts from text exactly as
`orddraw draw` does.  Sizes are fixed by generator parameters; the seed only
picks the random realizations.  Structural filters (incomparable pairs,
cover count, minimum removals, concept count) are applied to random
candidates; nothing is filtered on time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checker
from orddraw.ingest import FormalContext, concept_lattice, serialize_order
from orddraw.orders import (GroundSet, OrderRelation, boolean_lattice,
                            build_order, cover_relation, grid, inc_id_pairs,
                            intersect_linear, linear_from_sequence, standard_example)

WORKLOADS = ("exact", "heuristic", "two_dim")

# Strategy per workload: `sat` is the CLI default (built-in CDCL, linear k
# search); `anneal` runs with the CLI's default seed 0.
STRATEGY = {"exact": "sat", "heuristic": "anneal", "two_dim": "sat"}

# Random exact inputs need exactly EXACT_K removals and have at most
# 100 ordered incomparable pairs (tig vertices), so they take similar times
# and the median falls among many like inputs.  Their time grows with the
# pair count, so each input comes from a fixed band of pair counts (the
# band most inputs of its kind and size fall in): the mix of bands, and
# with it the median, then moves little with the seed.  The median falls
# in the middle of the 21 inputs of the middle band.  The standard
# examples carry the growth in k (k = 1..6, up to 128 pairs).  The largest
# comes in eight fixed element orders (the order changes the CNF variable
# order and so the solver's run): these eight inputs are the slowest tenth,
# so p90 measures them and not one seed's slowest random draw.
EXACT_K = 3
_LOW, _MID, _HIGH = range(40, 60), range(60, 80), range(80, 101)
# (n, band) of the random orders, density 0.3
EXACT_ORDERS = ((10, _LOW), (11, _MID), (12, _MID), (13, _MID), (14, _HIGH),
                (15, _HIGH), (16, _HIGH)) * 4
# (objects, attributes, band) of the random contexts, density 0.5
EXACT_CONTEXTS = ((5, 5, _LOW), (6, 5, _LOW), (7, 5, _MID), (5, 6, _LOW),
                  (6, 6, _MID), (7, 6, _MID)) * 3


@dataclass(frozen=True)
class Item:
    """One benchmark input: a name, its format and its text."""

    name: str
    fmt: str  # "order" | "cxt"
    text: str
    min_false: int | None = None  # fewest false comparabilities, where known


def random_order(rng: random.Random, n: int, density: float) -> OrderRelation:
    """Order generated by random forward arcs over a shuffled base sequence."""
    perm = list(range(n))
    rng.shuffle(perm)
    labels = [f"x{i}" for i in range(n)]
    pairs = [(labels[perm[i]], labels[perm[j]])
             for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return build_order(labels, pairs)


def random_context(rng: random.Random, objects: int, attributes: int,
                   density: float) -> FormalContext:
    rows = [[rng.random() < density for _ in range(attributes)] for _ in range(objects)]
    return FormalContext(tuple(f"g{i}" for i in range(objects)),
                         tuple(f"m{j}" for j in range(attributes)), rows)


def context_text(ctx: FormalContext) -> str:
    """Burmeister `.cxt` text of a context."""
    lines = ["B", str(len(ctx.objects)), str(len(ctx.attributes))]
    lines += ctx.objects
    lines += ctx.attributes
    lines += ["".join("X" if cell else "." for cell in row) for row in ctx.incidence]
    return "\n".join(lines) + "\n"


def order_context(o: OrderRelation) -> FormalContext:
    """The context (X, X, <=); its concept lattice is o when o is a lattice."""
    names = tuple(f"e{i}" for i in range(o.n))
    return FormalContext(names, names, o.matrix)


def _exact_item(name: str, fmt: str, text: str, pairs: range) -> Item | None:
    """The input with its optimum, if it suits the exact workload and has
    an ordered incomparable-pair count in `pairs`."""
    labels, less = checker.reference_relation(fmt, text)
    if 2 * checker.incomparable_count(labels, less) not in pairs:
        return None
    try:
        k = checker.min_removals(labels, less, up_to=EXACT_K)
    except checker.BudgetExceeded:
        return None
    return Item(name, fmt, text, k) if k == EXACT_K else None


def _lattice_context(rng: random.Random, objects: int, attributes: int,
                     density: float, pairs: range | None) -> FormalContext:
    """A random context whose lattice has at most 60 concepts and, when
    `pairs` is given, an ordered incomparable-pair count in that range."""
    while True:
        ctx = random_context(rng, objects, attributes, density)
        o = concept_lattice(ctx)
        if o.n <= 60 and (pairs is None or len(inc_id_pairs(o)) in pairs):
            return ctx


def _element_orders(o: OrderRelation) -> list[list[str]]:
    """Eight fixed orders of a ground set made of two halves A and B:
    A+B, B+A, A and B interleaved either way, and each of these reversed."""
    labels = list(o.ground)
    a, b = labels[:len(labels) // 2], labels[len(labels) // 2:]
    orders = [a + b, b + a, [x for p in zip(a, b) for x in p],
              [x for p in zip(b, a) for x in p]]
    return orders + [order[::-1] for order in orders]


def _exact(rng: random.Random) -> list[Item]:
    items = [Item(f"standard_example({k})", "order",
                  serialize_order(standard_example(k)), min_false=k - 2)
             for k in range(3, 8)]
    covers = serialize_order(standard_example(8)).split("\n", 1)[1]
    for i, labels in enumerate(_element_orders(standard_example(8))):
        text = "elements: " + " ".join(labels) + "\n" + covers
        items.append(Item(f"standard_example(8)/{i}", "order", text, min_false=6))
    for n, pairs in EXACT_ORDERS:
        item = None
        while item is None:
            text = serialize_order(random_order(rng, n, 0.3))
            item = _exact_item(f"random_order(n={n})#{len(items)}", "order", text, pairs)
        items.append(item)
    for g, m, pairs in EXACT_CONTEXTS:
        item = None
        while item is None:
            text = context_text(random_context(rng, g, m, 0.5))
            item = _exact_item(f"context({g}x{m})#{len(items)}", "cxt", text, pairs)
        items.append(item)
    return items


# Heuristic inputs, in fixed numbers per kind so that the outcome mix moves
# little with the seed.  Dense random orders (density 0.45 and 0.5) and
# small lattices draw under anneal.  Sparse random orders, the larger
# lattices and boolean_lattice(5) raise OrderViolation (the extension loop
# does not close the inserted pairs).  They stay in and make up about 60 % of
# the inputs, as on mid-size inputs generally, so the median attempt is a
# failure until that is fixed.  Entries are (n, density, window of ordered
# incomparable pairs or None): the sparse orders hold the largest tigs,
# which set peak RSS, and their windows keep those at a steady size.
HEURISTIC_ORDERS = (tuple((n, density, None) for density in (0.45, 0.5)
                          for n in range(20, 61, 5))
                    + ((40, 0.1, range(1100, 1201)),) * 10
                    + ((60, 0.15, range(1500, 1601)),) * 3)
# (objects, attributes, density, window of ordered incomparable pairs) of
# the random contexts, whose lattices have at most 60 concepts.  The windows
# keep the largest tigs, which set peak RSS, at a steady size.
HEURISTIC_CONTEXTS = (((8, 6, 0.3, None),) * 2 + ((12, 9, 0.4, range(600, 801)),) * 12
                      + ((14, 10, 0.4, range(1000, 1201)),) * 4
                      + ((16, 12, 0.3, range(1000, 1601)),) * 2)


def _heuristic(rng: random.Random) -> list[Item]:
    items = [Item("boolean_lattice(5)", "order", serialize_order(boolean_lattice(5)))]
    for n, density, pairs in HEURISTIC_ORDERS:
        o = random_order(rng, n, density)
        while pairs is not None and len(inc_id_pairs(o)) not in pairs:
            o = random_order(rng, n, density)
        items.append(Item(f"random_order(n={n},p={density})#{len(items)}", "order",
                          serialize_order(o)))
    for g, m, density, pairs in HEURISTIC_CONTEXTS:
        ctx = _lattice_context(rng, g, m, density, pairs)
        items.append(Item(f"context({g}x{m})#{len(items)}", "cxt", context_text(ctx)))
    return items


GRIDS = ((3, 4), (5, 5), (7, 6), (10, 10))
# Cover counts of the n = 60 inputs, among which the median attempt falls:
# the middle two fifths of random draws.  Collinearity repair, the largest
# share of the time, grows with the cover count, so the window keeps the
# median steady across seeds.
TWO_DIM_COVERS_60 = range(160, 172)


def _two_dim(rng: random.Random) -> list[Item]:
    items = []
    # Eight extra inputs at n = 60 put the median attempt in the middle of
    # like inputs (26 inputs are smaller, 25 larger); three extra at n = 100
    # make the eight slowest inputs, so p90 falls among them.
    for n in tuple(range(20, 101, 10)) * 5 + (60,) * 8 + (100,) * 3:
        ground = GroundSet([f"x{i}" for i in range(n)])
        while True:
            seqs = [rng.sample(range(n), n) for _ in range(2)]
            o = intersect_linear(linear_from_sequence(ground, s) for s in seqs)
            if n != 60 or len(cover_relation(o)) in TWO_DIM_COVERS_60:
                break
        items.append(Item(f"intersect_linear(n={n})#{len(items)}", "order",
                          serialize_order(o)))
    for r, c in GRIDS:
        g = grid(r, c)
        items.append(Item(f"grid({r},{c})", "order", serialize_order(g)))
        items.append(Item(f"grid_context({r},{c})", "cxt", context_text(order_context(g))))
    return items


def build_corpus(workload: str, seed: int) -> list[Item]:
    """The inputs of a workload; the same seed gives the same texts."""
    makers = {"exact": _exact, "heuristic": _heuristic, "two_dim": _two_dim}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return makers[workload](random.Random(f"{workload}:{seed}"))
