"""Vertex bipartization (minimum odd cycle transversal).

The exact route is combinatorial: odd cycles never cross a bridge, so the
graph splits into the components left after its bridges are removed, and
each of those is searched in place, on vertex masks of the whole graph,
by branching on the vertices of an odd cycle.  The search starts from the
larger of two lower bounds, a greedy count of vertex-disjoint odd cycles
and a greedy packing of vertex-disjoint cliques K_t (t >= 4, each needing
t - 2 removals), and deepens from there.  It lists minimum removal sets
in a fixed order and the caller may pick among them.  The CNF reduction (encode_oct) is only exported, by `orddraw cnf`,
for a solver the user runs.  The greedy and annealing heuristics trade
optimality for speed; each one repairs its answer to validity and peels
it to inclusion-minimality.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator

from .graphs import (SimpleGraph, bridges, is_bipartite_without,
                     odd_cycle_census, two_coloring_mask)
from .orders import bits, mask_of
from .sat import CnfInstance, sinz_at_most_k
from .sat import solve_cnf  # noqa: F401  unused; perfbench/tracing.py hooks it here


@dataclass(frozen=True)
class OctResult:
    """A vertex set whose removal leaves the graph bipartite."""

    removed: frozenset[int]
    method: str
    optimal: bool
    stats: dict = field(default_factory=dict, compare=False)


def _checked(g: SimpleGraph, removed: frozenset[int], method: str,
             optimal: bool, stats: dict) -> OctResult:
    if not is_bipartite_without(g, removed):  # an explicit raise survives python -O
        raise AssertionError(f"{method} produced a non-solution")
    return OctResult(removed, method, optimal, stats)


def encode_oct(g: SimpleGraph, k: int) -> CnfInstance:
    """CNF satisfiable iff removing at most k vertices makes g bipartite.

    Vertex i (0-based) gets side variables i+1 and n+i+1 and a removal
    variable 2n+i+1, and the counter's register (i, j) is 3n+(i-1)k+j;
    every vertex must take a role, adjacent vertices may not share a side,
    and the counter bounds the removal variables by k.  A model's removal
    set is the vertices whose removal variable is true.

    Sizes for n >= 2, k >= 1 are exactly (n-1)(k+3)+3 variables and
    2m + 2nk + 2n - 3k - 1 clauses.  With k = 0 the counter is replaced by
    one negating unit per removal variable, keeping the semantics exact.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = g.n
    side1 = lambda i: i + 1
    side2 = lambda i: n + i + 1
    gone = lambda i: 2 * n + i + 1
    clauses: list[tuple[int, ...]] = []
    for i in range(n):
        clauses.append((side1(i), side2(i), gone(i)))
    for u, v in g.edges:
        clauses.append((-side1(u), -side1(v)))
        clauses.append((-side2(u), -side2(v)))
    counter = sinz_at_most_k([gone(i) for i in range(n)], k, 3 * n + 1)
    clauses.extend(tuple(cl) for cl in counter)
    num_aux = (n - 1) * k if (k >= 1 and n >= 2) else 0
    return CnfInstance(3 * n + num_aux, tuple(clauses))


def _bridge_blocks(g: SimpleGraph) -> list[int]:
    """The vertex masks of the non-bipartite components of g minus its
    bridges, in the order of their lowest vertices.

    Every cycle avoids the bridges, so g minus a vertex set is bipartite
    exactly when every block minus it is, and the minimum odd cycle
    transversals of g are the unions of one minimum transversal per block.
    No bridge joins two vertices of one block, so a block is g with every
    vertex outside it removed.
    """
    masks = list(g.masks)
    for u, v in bridges(g):
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
    everything = unseen = (1 << g.n) - 1
    blocks = []
    while unseen:
        block = frontier = unseen & -unseen
        while frontier:  # a breadth-first search, a layer at a time
            reach = 0
            for u in bits(frontier):
                reach |= masks[u]
            frontier = reach & ~block
            block |= frontier
        unseen ^= block
        if block.bit_count() >= 3 and two_coloring_mask(g, everything ^ block)[1]:
            blocks.append(block)
    return blocks


def _clique_bound(g: SimpleGraph, block: int) -> int:
    """The sum of t - 2 over vertex-disjoint cliques K_t with t >= 4 in
    the block, packed greedily.

    A K_t minus fewer than t - 2 of its vertices keeps a triangle, so every
    transversal of the block holds at least this many vertices.  Each free
    vertex in ascending order roots a clique, which grows by the common
    neighbour with the most neighbours among the common neighbours (the
    lowest on ties) until none is left; a clique of four or more vertices
    is kept and its vertices are no longer free.
    """
    masks = g.masks
    bound = 0
    free = block
    for v in bits(block):
        if not free >> v & 1:
            continue
        common = masks[v] & free
        if common.bit_count() < 3:
            continue
        clique, size = 1 << v, 1
        while common:
            most = -1
            rest = common
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                inside = (masks[u] & common).bit_count()
                if inside > most:
                    most, w = inside, u
            clique |= 1 << w
            size += 1
            common &= masks[w]
        if size >= 4:
            bound += size - 2
            free ^= clique
    return bound


def _disjoint_odd_cycles(g: SimpleGraph, removed: int, limit: int,
                         known: dict[int, tuple[int, ...] | None]
                         ) -> list[tuple[int, ...]]:
    """Vertex-disjoint odd cycles of g minus the vertex mask `removed`,
    found greedily, at most limit + 1 of them.  Every transversal needs one
    vertex of each, so their count bounds the minimum from below; the first
    is the cycle that two_coloring reports for g minus `removed`.  `known`
    maps each vertex mask already tried to two_coloring's cycle for g minus
    it: the search meets the same sets again, at other nodes and at each
    larger k."""
    gone = removed
    cycles: list[tuple[int, ...]] = []
    while len(cycles) <= limit:
        if gone not in known:
            known[gone] = two_coloring_mask(g, gone)[1]
        cycle = known[gone]
        if cycle is None:
            break
        cycles.append(cycle)
        gone |= mask_of(cycle)
    return cycles


def _lazy_product(sources: list[Iterator[int]]) -> Iterator[tuple[int, ...]]:
    """The tuples of itertools.product(*sources), in its order (the last
    source varies fastest), drawing each source only as far as needed."""
    drawn: list[list[int]] = [[] for _ in sources]

    def has(i: int, j: int) -> bool:
        if j == len(drawn[i]):
            item = next(sources[i], None)
            if item is None:
                return False
            drawn[i].append(item)
        return True

    if not all(has(i, 0) for i in range(len(sources))):
        return
    at = [0] * len(sources)
    while True:
        yield tuple(d[j] for d, j in zip(drawn, at))
        i = len(sources) - 1
        while i >= 0 and not has(i, at[i] + 1):
            at[i] = 0
            i -= 1
        if i < 0:
            return
        at[i] += 1


# A transversal search lists at most this many sets.
MAX_TRANSVERSALS = 64


class TransversalSearch:
    """Distinct minimum odd cycle transversals of g, lazily, at most
    MAX_TRANSVERSALS of them; no SAT call.

    Each bridge block is searched in place, on g with the vertices outside
    it removed, by iterative deepening on k from its lower bound: the
    larger of its count of greedily found vertex-disjoint odd cycles and
    its greedy clique packing bound.  No transversal is smaller than
    either, so the rounds this skips would have found nothing.  A node
    removes a vertex set and branches on the vertices of one odd cycle of
    the rest, since every transversal contains one of them; it fails when
    more disjoint odd cycles remain than its budget.  A node already
    searched at the current k is not searched again: before the first set
    this skips exactly the nodes that failed, and after it a repeat could
    only yield sets already yielded.  The first k that yields anything is
    the block's minimum, and the block's sets come in depth-first order.
    Vertex sets are held as masks while the search runs.  The sets of g
    are unions of one set per block, in product order.

    After the first set, `k` is the minimum size; `lower_bound` sums the
    blocks' starting bounds and `branch_nodes` counts the nodes searched
    so far; they accumulate, so iterate a search once.  A bipartite graph
    yields the empty set alone.
    """

    def __init__(self, g: SimpleGraph):
        self.g = g
        self.k = self.lower_bound = self.branch_nodes = 0

    def __iter__(self) -> Iterator[frozenset[int]]:
        per_block = [self._block(block) for block in _bridge_blocks(self.g)]
        for parts in islice(_lazy_product(per_block), MAX_TRANSVERSALS):
            union = 0
            for part in parts:
                union |= part
            yield frozenset(bits(union))

    def _block(self, block: int) -> Iterator[int]:
        g = self.g
        outside = ((1 << g.n) - 1) ^ block
        known: dict[int, tuple[int, ...] | None] = {}
        lower = max(len(_disjoint_odd_cycles(g, outside, g.n, known)),
                    _clique_bound(g, block))
        self.lower_bound += lower
        k = lower
        while True:
            searched: set[int] = set()

            def search(removed: int, budget: int) -> Iterator[int]:
                searched.add(removed)
                self.branch_nodes += 1
                cycles = _disjoint_odd_cycles(g, removed, budget, known)
                if not cycles:
                    yield removed ^ outside
                elif len(cycles) <= budget:
                    for v in cycles[0]:
                        child = removed | 1 << v
                        if child not in searched:
                            yield from search(child, budget - 1)

            found = search(outside, k)
            first = next(found, None)
            if first is not None:
                self.k += k
                yield first
                yield from found
                return
            k += 1


def min_oct_exact(g: SimpleGraph,
                  accept: Callable[[frozenset[int]], bool] | None = None) -> OctResult:
    """Minimum odd cycle transversal: the first set of the transversal
    search that `accept` takes, or its first set if `accept` is None or
    takes none of them.  Stats count the sets examined."""
    search = TransversalSearch(g)
    examined: list[frozenset[int]] = []
    for removed in search:
        examined.append(removed)
        if accept is None or accept(removed):
            break
    else:
        removed = examined[0]
    return _checked(g, removed, "sat", True, {
        "k": search.k, "lower_bound": search.lower_bound,
        "branch_nodes": search.branch_nodes, "examined": len(examined)})


def peel_to_minimal(g: SimpleGraph, removed: frozenset[int]) -> frozenset[int]:
    """Drop vertices from a valid removal set until it is inclusion-minimal.

    One ascending pass returns each vertex whose return leaves the rest
    bipartite.  A vertex the pass keeps stays needed: the set only shrinks
    afterwards, so the graph it would rejoin only grows and keeps its odd
    cycle; a second pass would drop nothing.  The kept graph is held as a
    union-find in which each vertex stores its colour relative to its
    parent, seeded by one breadth-first search over the neighbour masks that
    hangs every kept vertex straight off its component's root with its
    colour.  A vertex may return when, within each component, its kept
    neighbours all have one colour; it then joins those components with the
    other colour, so each check costs its degree rather than a two-colouring
    of the graph.  A set whose rest is not bipartite comes back unchanged.
    """
    removed = frozenset(removed)
    masks = g.masks
    parent = list(range(g.n))
    # colour relative to the parent, read only below a root
    parity = [0] * g.n
    gone = mask_of(removed)
    unseen = ((1 << g.n) - 1) & ~gone
    colours = [0, 0]  # the kept vertices by colour relative to their root
    while unseen:
        root = (unseen & -unseen).bit_length() - 1
        unseen ^= 1 << root
        colours[0] |= 1 << root
        found = [root]
        for u in found:  # grows while it is walked: a breadth-first search
            colour = parity[u]
            if masks[u] & colours[colour]:
                return removed  # a monochromatic kept edge
            new = masks[u] & unseen
            if new:
                unseen ^= new
                colours[colour ^ 1] |= new
                while new:
                    low = new & -new
                    new ^= low
                    w = low.bit_length() - 1
                    parent[w], parity[w] = root, colour ^ 1
                    found.append(w)

    def find(v: int) -> tuple[int, int]:
        """(root, colour relative to the root) of v, compressing its path."""
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        colour = 0
        for x in reversed(path):
            colour ^= parity[x]
            parity[x], parent[x] = colour, v
        return v, colour

    for v in sorted(removed):
        sides: dict[int, int] = {}  # root -> colour of v's neighbours there
        kept = masks[v] & ~gone
        while kept:
            low = kept & -kept
            kept ^= low
            root, colour = find(low.bit_length() - 1)
            if sides.setdefault(root, colour) != colour:
                break
        else:
            gone ^= 1 << v
            for root, colour in sides.items():
                parent[root], parity[root] = v, colour ^ 1
    return frozenset(bits(gone))


def _repair(g: SimpleGraph, removed: set[int]) -> set[int]:
    """Grow a removal set until the rest of the graph is bipartite."""
    while True:
        census = odd_cycle_census(g, removed)
        if census is None:
            return removed
        # most-hit vertex, lowest id on ties
        pick = min(census, key=lambda v: (-census[v], v))
        removed.add(pick)


def oct_greedy(g: SimpleGraph) -> OctResult:
    """Repeatedly remove the vertex on the most odd-cycle witnesses."""
    removed = _repair(g, set())
    iterations = len(removed)
    final = peel_to_minimal(g, frozenset(removed))
    return _checked(g, final, "greedy", False, {"iterations": iterations})


# The labels an annealing move may give a vertex, by its current label.
_OTHER_LABELS = ((1, 2), (0, 2), (0, 1))


# The annealing schedule: the temperature starts at _T0 and is multiplied
# by _ALPHA after each of the _STEPS moves.
_T0 = 1.0
_ALPHA = 0.995
_STEPS = 10_000


def _cold_steps() -> tuple[int, int]:
    """(hot, quiet) for the schedule, by replaying its temperatures.

    The temperature never rises: from step `hot` on, exp(-1/temp) is 0.0,
    and from step `quiet` on, temp <= 1e-12.
    """
    temp, step = _T0, 0
    while step < _STEPS and temp > 1e-12 and math.exp(-1.0 / temp) > 0.0:
        temp *= _ALPHA
        step += 1
    hot = step
    while step < _STEPS and temp > 1e-12:
        temp *= _ALPHA
        step += 1
    return hot, step


_HOT, _QUIET = _cold_steps()


def oct_anneal(g: SimpleGraph, seed: int = 0) -> OctResult:
    """Simulated annealing over (side, side, removed) vertex labelings.

    Energy counts removals plus a heavy penalty per monochromatic edge, so
    low energy means a clean two-coloring with few removals.  The vertices
    under each label are kept as three masks: a step reads its energy
    change off the popcounts of the moved vertex's neighbour mask ANDed
    with them, and an accepted move updates two of them.
    The initial labels, and the vertex and the new label of a move, are
    drawn inline with the getrandbits rejection draws that randrange and
    choice make, so the random stream is theirs.

    An uphill move raises the energy by an integer delta >= 1, so once
    exp(-1/temp) underflows to 0.0 its acceptance test uniform() <
    exp(-delta/temp) fails whatever uniform() returns, and it keeps failing
    while the temperature falls.  From that step on (`_HOT`) the
    loop accepts exactly the moves with delta <= 0, which it reads off the
    counts with no exp; it still calls uniform() on each rejection while
    temp > 1e-12, as the hot loop does, so the stream and the moves are
    those of the hot loop run to the end.

    The final state is repaired, unless its kept vertices are already
    properly coloured, and peeled, so the result is always valid and
    inclusion-minimal, just not necessarily optimal.
    """
    rng = random.Random(seed)
    n = g.n
    if n == 0 or is_bipartite_without(g):
        return OctResult(frozenset(), "anneal", g.m == 0, {"steps": 0})
    weight = n + 1
    getrandbits, uniform, exp = rng.getrandbits, rng.random, math.exp
    labels = []  # 0/1 sides, 2 removed; each drawn as randrange(3) draws it
    for _ in range(n):
        label = getrandbits(2)
        while label == 3:
            label = getrandbits(2)
        labels.append(label)
    # under[label]: the vertices under label, so (masks[v] & under[label])
    # holds v's neighbours under it
    under = [0, 0, 0]
    for v, label in enumerate(labels):
        under[label] |= 1 << v
    masks = g.masks

    width = n.bit_length()
    temp = _T0
    accepted = 0
    for _ in range(_HOT):
        # rng.randrange(n), then rng.choice of a pair, as CPython draws them:
        # fresh k-bit draws until one falls below the bound
        v = getrandbits(width)
        while v >= n:
            v = getrandbits(width)
        pick = getrandbits(2)
        while pick >= 2:
            pick = getrandbits(2)
        old = labels[v]
        new = _OTHER_LABELS[old][pick]
        nbrs = masks[v]
        # a removed vertex (label 2) costs nothing
        delta = weight * (((nbrs & under[new]).bit_count() if new != 2 else 0)
                          - ((nbrs & under[old]).bit_count() if old != 2 else 0))
        delta += (1 if new == 2 else 0) - (1 if old == 2 else 0)
        if delta <= 0 or (temp > 1e-12 and uniform() < exp(-delta / temp)):
            labels[v] = new
            accepted += 1
            under[old] ^= 1 << v
            under[new] |= 1 << v
        temp *= _ALPHA
    for draws, count in ((True, _QUIET - _HOT), (False, _STEPS - _QUIET)):
        for _ in range(count):
            v = getrandbits(width)
            while v >= n:
                v = getrandbits(width)
            pick = getrandbits(2)
            while pick >= 2:
                pick = getrandbits(2)
            old = labels[v]
            new = _OTHER_LABELS[old][pick]
            nbrs = masks[v]
            # delta <= 0: the weight exceeds the +-1 of a removal, so only
            # the conflict counts decide, and a tie decides for a side swap
            # and for a return but against a removal
            if new == 2:
                downhill = nbrs & under[old] != 0
            elif old == 2:
                downhill = nbrs & under[new] == 0
            else:
                downhill = (nbrs & under[new]).bit_count() <= (nbrs & under[old]).bit_count()
            if downhill:
                labels[v] = new
                accepted += 1
                under[old] ^= 1 << v
                under[new] |= 1 << v
            elif draws:
                uniform()
    removed = {v for v in range(n) if labels[v] == 2}
    if any(label != 2 and masks[v] & under[label] for v, label in enumerate(labels)):
        removed = _repair(g, removed)
    final = peel_to_minimal(g, frozenset(removed))
    return _checked(g, final, "anneal", False,
                    {"steps": _STEPS, "accepted": accepted})
