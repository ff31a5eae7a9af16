"""Vertex bipartization (minimum odd cycle transversal).

The exact route is combinatorial: odd cycles never cross a bridge, so each
odd block is searched in place, on vertex masks of the whole graph, by
branching on the vertices of an odd cycle; `graphs.odd_blocks` reads the
blocks off the breadth-first layers that every walk here uses.  The
search starts from the larger of two lower bounds, a greedy count of
vertex-disjoint odd cycles and a greedy packing of vertex-disjoint
cliques K_t (t >= 4, each needing t - 2 removals), and deepens from
there.  A node's count stops one cycle past its budget, and each cycle
is the first that `graphs.odd_cycles` reads off the BFS layers.  It
lists minimum removal sets in a fixed order and the caller may pick
among them.  encode_oct builds the CNF reduction for a backend that
the caller runs through sat.solve_cnf.  One heuristic, oct_anneal, trades
optimality for speed: it improves a 2-colouring by local search, covers
the edges left monochromatic, recounting a vertex's edges only when it
comes up for the cover, and peels the cover to inclusion-minimality.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Callable, Iterator

from .graphs import (SimpleGraph, bfs_layers, is_bipartite_without, odd_blocks,
                     odd_cycles)
from .graphs import odd_cycle_census  # noqa: F401  unused; perfbench/tracing.py hooks it here
from .orders import bits, mask_of
from .records import Record
from .sat import CnfInstance, sinz_at_most_k
from .sat import solve_cnf  # noqa: F401  unused; perfbench/tracing.py hooks it here


class OctResult(Record):
    """A vertex set whose removal leaves the graph bipartite.

    `stats` defaults to a new empty dict, and equality ignores it.
    """

    __slots__ = ("removed", "method", "optimal", "stats")

    def __init__(self, removed: frozenset[int], method: str, optimal: bool,
                 stats: dict | None = None):
        self._fill(removed, method, optimal, {} if stats is None else stats)

    def _key(self) -> tuple:
        return self.removed, self.method, self.optimal


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
                         known: dict[int, tuple[int, ...] | None]) -> list[tuple[int, ...]]:
    """Vertex-disjoint odd cycles of g minus the vertex mask `removed`,
    found greedily, at most limit + 1 of them.  Every transversal needs one
    vertex of each, so their count bounds the minimum from below; the first
    is the first cycle of `graphs.odd_cycles` for g minus `removed`, and
    each later one is that cycle for g minus the cycles before it too.
    `known` maps each vertex mask already tried to that first cycle, or to
    None when none is left: the search meets the same sets again, at other
    nodes and at each larger k."""
    gone = removed
    cycles: list[tuple[int, ...]] = []
    while len(cycles) <= limit:
        if gone not in known:
            known[gone] = next(odd_cycles(g, gone), None)
        cycle = known[gone]
        if cycle is None:
            break
        cycles.append(cycle)
        gone |= mask_of(cycle)
    return cycles


def _lazy_product(sources: list[Iterator[int]]) -> Iterator[tuple[int, ...]]:
    """The tuples of itertools.product(*sources), in its order (the last
    source varies fastest), drawing each source only as far as needed:
    an odometer that draws a source's next item only when it first moves
    past the last item drawn, and stops at the first empty source."""
    drawn = []
    for source in sources:
        first = next(source, None)
        if first is None:
            return
        drawn.append([first])
    at = [0] * len(sources)
    while True:
        yield tuple(items[j] for items, j in zip(drawn, at))
        for i in reversed(range(len(sources))):
            at[i] += 1
            if at[i] == len(drawn[i]):
                drawn[i].append(next(sources[i], None))  # None ends it, drawn once
            if drawn[i][at[i]] is not None:
                break
            at[i] = 0
        else:
            return


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
    the rest, the first of `graphs.odd_cycles`, since every transversal
    contains one of them; it fails when more disjoint odd cycles remain
    than its budget (see _disjoint_odd_cycles).  A node already searched
    at the current k is not searched again: before the first set this
    skips exactly the nodes that failed, and after it a repeat could only
    yield sets already yielded.  The first k that yields anything is the block's
    minimum, and the block's sets come in depth-first order.  Vertex sets
    are held as masks while the search runs.  The sets of g are unions of
    one set per block, in product order.

    After the first set, `k` is the minimum size; `lower_bound` sums the
    blocks' starting bounds and `branch_nodes` counts the nodes searched
    so far; they accumulate, so iterate a search once.  A bipartite graph
    yields the empty set alone.
    """

    def __init__(self, g: SimpleGraph):
        self.g = g
        self.k = self.lower_bound = self.branch_nodes = 0

    def __iter__(self) -> Iterator[frozenset[int]]:
        per_block = [self._block(block) for block in odd_blocks(self.g)]
        for parts in islice(_lazy_product(per_block), MAX_TRANSVERSALS):
            yield frozenset(bits(sum(parts)))  # disjoint blocks: sum is union

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
    cycle; a second pass would drop nothing.  The kept graph is held as the
    vertex masks of its components of more than one vertex and one mask of
    the vertices coloured 1, built from the layers of `bfs_layers`: a
    component is the OR of its layers, and its odd layers are coloured 1.
    A kept vertex outside those masks is alone in its component, so it
    can take either colour.  A vertex may return when, within each
    component, its kept neighbours all have one colour: one AND per
    component gives its neighbours there, and one more those coloured 1.
    It then joins those components, and the kept neighbours alone in
    theirs, into one component in which it is coloured 0: a component whose
    neighbours of it are coloured 0 has its colours flipped, and the lone
    neighbours are coloured 1.  So a check costs an AND per component of
    more than one vertex, rather than a two-colouring of the graph.  A
    bipartite component has two colourings, one the flip of the other, so
    every check, and the result, depends only on the graph and the set.
    A set whose rest is not bipartite comes back unchanged.
    """
    removed = frozenset(removed)
    masks = g.masks
    gone = mask_of(removed)
    comps = []  # the components of more than one vertex
    ones = 0  # the kept vertices coloured 1
    for depth, layer, clash in bfs_layers(g, gone):
        if clash:
            return removed  # a monochromatic kept edge
        if not depth:
            root = layer
        elif depth == 1:
            comps.append(root | layer)
        else:
            comps[-1] |= layer
        if depth & 1:
            ones |= layer
    kept = ((1 << g.n) - 1) ^ gone
    needed = []
    for v in sorted(removed):
        rest = masks[v] & kept  # v's kept neighbours not yet met in comps
        merged = bit = 1 << v
        flip = 0
        for comp in comps:
            part = rest & comp
            if part:
                side = part & ones
                if side != part:
                    if side:  # both colours: v would close an odd cycle
                        needed.append(v)
                        break
                    flip |= comp
                merged |= comp
                rest ^= part
        else:
            kept |= bit
            ones = ones ^ flip | rest
            if merged != bit or rest:
                comps = [comp for comp in comps if not comp & merged]
                comps.append(merged | rest)
    return frozenset(needed)


def oct_anneal(g: SimpleGraph) -> OctResult:
    """A small removal set, not always a minimum one: a vertex cover of the
    monochromatic edges of a 2-colouring found by local search.

    It starts from the breadth-first colouring of `bfs_layers`, each vertex
    coloured with its layer's parity.  Sweeps in ascending vertex order
    move each vertex with more neighbours on its side than on the other,
    until a sweep moves none (each move loses monochromatic edges, so the
    descent ends).  A sweep checks only the vertices that are due, those
    with a neighbour moved onto their side since their last check: a
    vertex checked and left, or just moved, has fewer than half its
    neighbours on its side until a neighbour joins it, and a neighbour that
    leaves only lowers that count, so a sweep over every vertex would make
    the same moves in the same order.  Before the first sweep the due
    vertices are those of the layers' clash masks, the vertices on a
    monochromatic edge: any other vertex has no neighbour on its side
    until a neighbour joins it, and that move makes it due.  The due
    vertices are held as two masks, those above the last one checked and
    the others; the walk takes the lowest of the first, and when none is
    left there it goes on from the lowest of the others, which starts the
    next sweep.  Each check keeps the vertex's count of neighbours on its
    side after the check.  A count only falls until the vertex's next
    check, so when no vertex is due each count bounds the vertex's
    monochromatic edges from above.  Then the vertex on the most of those,
    the lowest on ties, is removed until none is left: the bounds key a
    heap, and a popped vertex is recounted against the final colouring
    less the removed vertices and pushed back with its count unless that
    matches its key.  Counts only fall, so a vertex whose count matches its
    key is on the most edges.  The cover is then peeled.  The result is
    valid and inclusion-minimal, and `optimal` only when it is empty.  No
    annealing runs: the benchmark in perfbench/ selects and traces it by
    this name.
    """
    n, masks = g.n, g.masks
    ones = 0  # the vertices coloured 1
    ahead = 0  # the due vertices above the last check: first those on a monochromatic edge
    for depth, layer, clash in bfs_layers(g):
        if depth & 1:
            ones |= layer
        ahead |= clash
    zeros = ((1 << n) - 1) ^ ones
    degrees = list(map(int.bit_count, masks))
    counts = [0] * n  # each vertex's count of same-side neighbours at its last check
    behind = 0  # the other due vertices
    while ahead:
        bit = ahead & -ahead
        ahead ^= bit
        v = bit.bit_length() - 1
        nbrs = masks[v]
        same = nbrs & (ones if ones & bit else zeros)
        count = same.bit_count()
        if 2 * count > degrees[v]:
            ones ^= bit
            zeros ^= bit
            joined = nbrs ^ same  # only the neighbours on v's new side gain
            below = joined & (bit - 1)
            behind |= below
            ahead |= joined ^ below
            count = degrees[v] - count
        counts[v] = count
        if not ahead:  # the sweep ends; the next starts at the lowest due vertex
            ahead, behind = behind, 0
    # v - d * n orders by most conflicts d first, then lowest vertex v
    heap = [v - d * n for v, d in enumerate(counts) if d]
    heapq.heapify(heap)
    cover = []
    while heap:  # a vertex has at most one entry, so a covered one has none
        key = heapq.heappop(heap)
        v = key % n
        bit = 1 << v
        count = (masks[v] & (ones if ones & bit else zeros)).bit_count()
        if key != v - count * n:
            if count:  # stale: counts only fall, so push the current one
                heapq.heappush(heap, v - count * n)
            continue
        cover.append(v)
        ones &= ~bit  # a covered vertex is on neither side
        zeros &= ~bit
    final = peel_to_minimal(g, frozenset(cover))
    return _checked(g, final, "anneal", not final, {"covered": len(cover)})
