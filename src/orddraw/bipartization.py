"""Vertex bipartization (minimum odd cycle transversal).

The exact route is combinatorial: odd cycles never cross a bridge, so the
graph splits into the components left after its bridges are removed, and
each of those is searched by branching on the vertices of an odd cycle,
from a lower bound of vertex-disjoint odd cycles upwards.  The search
lists minimum removal sets in a fixed order and the caller may pick among
them.  The CNF reduction (encode_oct) is only exported, by `orddraw cnf`,
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

import numpy as np

from .graphs import (SimpleGraph, bridges, is_bipartite_without,
                     odd_cycle_census, two_coloring)
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


def _bridge_blocks(g: SimpleGraph) -> list[tuple[SimpleGraph, tuple[int, ...]]]:
    """The non-bipartite components of g minus its bridges, each relabelled
    to 0..b-1 in ascending vertex order (so neighbour order is kept), with
    the vertices of g that the local labels stand for.

    Every cycle avoids the bridges, so g minus a vertex set is bipartite
    exactly when every block minus it is, and the minimum odd cycle
    transversals of g are the unions of one minimum transversal per block.
    """
    cut = bridges(g)
    rest = SimpleGraph(g.n, [e for e in g.edges if e not in cut])
    seen = [False] * g.n
    blocks = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        found = [root]
        for u in found:  # grows while it is walked: a breadth-first search
            for w in rest.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    found.append(w)
        vertices = tuple(sorted(found))
        local = {v: i for i, v in enumerate(vertices)}
        h = SimpleGraph(len(found), [(local[u], local[w]) for u in found
                                     for w in rest.neighbors(u) if u < w])
        if not is_bipartite_without(h):
            blocks.append((h, vertices))
    return blocks


def _disjoint_odd_cycles(g: SimpleGraph, removed: frozenset[int],
                         limit: int) -> list[tuple[int, ...]]:
    """Vertex-disjoint odd cycles of g minus `removed`, found greedily, at
    most limit + 1 of them.  Every transversal needs one vertex of each, so
    their count bounds the minimum from below; the first is the cycle that
    two_coloring reports for g minus `removed`."""
    gone = set(removed)
    cycles: list[tuple[int, ...]] = []
    while len(cycles) <= limit:
        cycle = two_coloring(g, gone)[1]
        if cycle is None:
            break
        cycles.append(cycle)
        gone.update(cycle)
    return cycles


def _lazy_product(sources: list[Iterator[frozenset[int]]]) \
        -> Iterator[tuple[frozenset[int], ...]]:
    """The tuples of itertools.product(*sources), in its order (the last
    source varies fastest), drawing each source only as far as needed."""
    drawn: list[list[frozenset[int]]] = [[] for _ in sources]

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

    Each bridge block is searched by iterative deepening on k from its
    lower bound of greedily found vertex-disjoint odd cycles.  A node
    removes a vertex set and branches on the vertices of one odd cycle of
    the rest, since every transversal contains one of them; it fails when
    more disjoint odd cycles remain than its budget.  A node already
    searched at the current k is not searched again: before the first set
    this skips exactly the nodes that failed, and after it a repeat could
    only yield sets already yielded.  The first k that yields anything is
    the block's minimum, and the block's sets come in depth-first order.
    The sets of g are unions of one set per block, in product order.

    After the first set, `k` is the minimum size; `lower_bound` sums the
    blocks' disjoint-cycle bounds and `branch_nodes` counts the nodes
    searched so far; they accumulate, so iterate a search once.  A
    bipartite graph yields the empty set alone.
    """

    def __init__(self, g: SimpleGraph):
        self.g = g
        self.k = self.lower_bound = self.branch_nodes = 0

    def __iter__(self) -> Iterator[frozenset[int]]:
        per_block = [self._block(h, vertices) for h, vertices in _bridge_blocks(self.g)]
        for parts in islice(_lazy_product(per_block), MAX_TRANSVERSALS):
            yield frozenset().union(*parts)

    def _block(self, g: SimpleGraph, vertices: tuple[int, ...]) -> Iterator[frozenset[int]]:
        lower = len(_disjoint_odd_cycles(g, frozenset(), g.n))
        self.lower_bound += lower
        k = lower
        while True:
            searched: set[frozenset[int]] = set()

            def search(removed: frozenset[int], budget: int) -> Iterator[frozenset[int]]:
                searched.add(removed)
                self.branch_nodes += 1
                cycles = _disjoint_odd_cycles(g, removed, budget)
                if not cycles:
                    yield frozenset(vertices[v] for v in removed)
                elif len(cycles) <= budget:
                    for v in cycles[0]:
                        child = removed | {v}
                        if child not in searched:
                            yield from search(child, budget - 1)

            found = search(frozenset(), k)
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
    parent, seeded by one breadth-first search over the neighbour lists that
    hangs every kept vertex straight off its component's root with its
    colour.  A vertex may return when, within each component, its kept
    neighbours all have one colour; it then joins those components with the
    other colour, so each check costs its degree rather than a two-colouring
    of the graph.  A set whose rest is not bipartite comes back unchanged.
    """
    removed = frozenset(removed)
    parent = list(range(g.n))
    # colour relative to the parent, read only below a root: None until the
    # search reaches a kept vertex, 2 for a removed one
    parity: list[int | None] = [None] * g.n
    for v in removed:
        parity[v] = 2
    for root in range(g.n):
        if parity[root] is not None:
            continue
        parity[root] = 0
        found = [root]
        for u in found:  # grows while it is walked: a breadth-first search
            colour = parity[u]
            for w in g.neighbors(u):
                side = parity[w]
                if side is None:
                    parent[w], parity[w] = root, colour ^ 1
                    found.append(w)
                elif side == colour:
                    return removed  # a monochromatic kept edge

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

    cur = set(removed)
    for v in sorted(removed):
        sides: dict[int, int] = {}  # root -> colour of v's neighbours there
        for w in g.neighbors(v):
            if w not in cur:
                root, colour = find(w)
                if sides.setdefault(root, colour) != colour:
                    break
        else:
            cur.discard(v)
            for root, colour in sides.items():
                parent[root], parity[root] = v, colour ^ 1
    return frozenset(cur)


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
    low energy means a clean two-coloring with few removals.  Each vertex
    keeps the count of its neighbours under each label (one bincount over
    the edge arrays); a step reads its energy change off those counts, and
    only an accepted move updates them, over the moved vertex's neighbours.
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
    # same[label][v]: the neighbours of v under label
    us, vs = g.edge_arrays()
    at = np.array(labels, dtype=np.intp)
    same = np.bincount(np.concatenate([at[vs] * n + us, at[us] * n + vs]),
                       minlength=3 * n).reshape(3, n).tolist()
    nbrs = [g.neighbors(v) for v in range(n)]

    bits = n.bit_length()
    temp = _T0
    accepted = 0
    for _ in range(_HOT):
        # rng.randrange(n), then rng.choice of a pair, as CPython draws them:
        # fresh k-bit draws until one falls below the bound
        v = getrandbits(bits)
        while v >= n:
            v = getrandbits(bits)
        pick = getrandbits(2)
        while pick >= 2:
            pick = getrandbits(2)
        old = labels[v]
        new = _OTHER_LABELS[old][pick]
        # a removed vertex (label 2) costs nothing
        delta = weight * ((same[new][v] if new != 2 else 0) - (same[old][v] if old != 2 else 0))
        delta += (1 if new == 2 else 0) - (1 if old == 2 else 0)
        if delta <= 0 or (temp > 1e-12 and uniform() < exp(-delta / temp)):
            labels[v] = new
            accepted += 1
            leave, join = same[old], same[new]
            for w in nbrs[v]:
                leave[w] -= 1
                join[w] += 1
        temp *= _ALPHA
    for draws, count in ((True, _QUIET - _HOT), (False, _STEPS - _QUIET)):
        for _ in range(count):
            v = getrandbits(bits)
            while v >= n:
                v = getrandbits(bits)
            pick = getrandbits(2)
            while pick >= 2:
                pick = getrandbits(2)
            old = labels[v]
            new = _OTHER_LABELS[old][pick]
            # delta <= 0: the weight exceeds the +-1 of a removal, so only
            # the conflict counts decide, and a tie decides for a side swap
            # and for a return but against a removal
            if new == 2:
                downhill = same[old][v] > 0
            elif old == 2:
                downhill = same[new][v] == 0
            else:
                downhill = same[new][v] <= same[old][v]
            if downhill:
                labels[v] = new
                accepted += 1
                leave, join = same[old], same[new]
                for w in nbrs[v]:
                    leave[w] -= 1
                    join[w] += 1
            elif draws:
                uniform()
    removed = {v for v in range(n) if labels[v] == 2}
    if any(label != 2 and same[label][v] for v, label in enumerate(labels)):
        removed = _repair(g, removed)
    final = peel_to_minimal(g, frozenset(removed))
    return _checked(g, final, "anneal", False,
                    {"steps": _STEPS, "accepted": accepted})
