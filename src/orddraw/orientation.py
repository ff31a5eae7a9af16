"""Transitive orientation, conjugate orders, and two-extension realizers.

A conjugate order of (X, <=) is any order on X whose comparability graph is
exactly the incomparability graph of <=.  One exists precisely when that
graph is transitively orientable, and in that case

    L1 = <= union <=c        L2 = <= union >=c

are linear orders with L1 intersect L2 == <=, giving a two-dimensional
realizer.  Orientation uses implication-class forcing: two edges sharing an
endpoint whose far ends are non-adjacent must agree in direction at the
shared endpoint.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np

from .errors import EdgeMismatch, GroundMismatch, NotLinear
from .graphs import SimpleGraph
from .orders import LinearExtension, OrderRelation, transitive_closure

Arc = tuple[int, int]


def comparability_graph(o: OrderRelation) -> SimpleGraph:
    strict = o.matrix & ~np.eye(o.n, dtype=bool)
    both = strict | strict.T
    edges = [(int(i), int(j)) for i, j in np.argwhere(np.triu(both))]
    return SimpleGraph(o.n, edges)


def cocomparability_graph(o: OrderRelation) -> SimpleGraph:
    """One edge per incomparable (unordered) pair."""
    inc = ~(o.matrix | o.matrix.T)
    edges = [(int(i), int(j)) for i, j in np.argwhere(np.triu(inc))]
    return SimpleGraph(o.n, edges)


def transitive_orientation(g: SimpleGraph) -> frozenset[Arc] | None:
    """A transitive orientation of g, or None if none exists.

    Processes one implication class per round: the lexicographically
    smallest unoriented edge is seeded low id -> high id, forced directions
    are propagated through the remaining (not yet classified) edges, and
    the settled class is removed before the next seed.  A direction forced
    both ways means g has no transitive orientation.  The result is checked
    with verify_orientation before being returned, so a successful return
    value is always a genuine strict order on the edge set.
    """
    if g.n == 0 or g.m == 0:
        return frozenset()
    # neighbours along edges not yet in a settled class
    remaining = [set(g.neighbors(v)) for v in range(g.n)]
    arcs: list[Arc] = []

    for seed in g.edges:
        s, t = seed
        if t not in remaining[s]:
            continue
        # the class so far, as the arcs leaving and entering each vertex
        out: defaultdict[int, set[int]] = defaultdict(set)
        into: defaultdict[int, set[int]] = defaultdict(set)
        out[s].add(t)
        into[t].add(s)
        queue: deque[Arc] = deque([seed])
        while queue:
            a, b = queue.popleft()
            # a->b and edge {a,c} with b,c non-adjacent: both must leave a;
            # edge {c,b} with a,c non-adjacent: both must enter b
            leave = remaining[a] - remaining[b]
            leave.discard(b)
            enter = remaining[b] - remaining[a]
            enter.discard(a)
            if not (leave.isdisjoint(into[a]) and enter.isdisjoint(out[b])):
                return None
            for c in leave - out[a]:
                out[a].add(c)
                into[c].add(a)
                queue.append((a, c))
            for c in enter - into[b]:
                out[c].add(b)
                into[b].add(c)
                queue.append((c, b))
        for x, heads in out.items():
            arcs.extend((x, y) for y in heads)
            remaining[x] -= heads
        for y, tails in into.items():
            remaining[y] -= tails

    result = frozenset(arcs)
    return result if verify_orientation(g, result) else None


def verify_orientation(g: SimpleGraph, arcs: frozenset[Arc]) -> bool:
    """True iff arcs form an acyclic, transitively closed orientation of g.

    Raises EdgeMismatch when the arcs do not cover the edge set exactly
    once (that is a malformed input, not merely a failed property).
    """
    if len(arcs) != g.m:
        raise EdgeMismatch(f"{len(arcs)} arcs for {g.m} edges")
    for x, y in arcs:
        if x == y or not g.adjacent(x, y):
            raise EdgeMismatch(f"arc ({x}, {y}) is not an edge")
        if (y, x) in arcs:
            raise EdgeMismatch(f"edge ({x}, {y}) oriented both ways")

    out: list[list[int]] = [[] for _ in range(g.n)]
    indeg = [0] * g.n
    for x, y in arcs:
        out[x].append(y)
        indeg[y] += 1
    for a in range(g.n):
        for b in out[a]:
            for c in out[b]:
                if (a, c) not in arcs:
                    return False
    # acyclicity (implied by the above plus single orientation, but cheap)
    queue = deque(v for v in range(g.n) if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == g.n


def compute_conjugate_order(o: OrderRelation) -> OrderRelation | None:
    """An order whose comparabilities are exactly o's incomparabilities.

    Returns None when none exists (equivalently, the order dimension of o
    exceeds 2).  A linear input yields the trivial diagonal-only order.
    """
    arcs = transitive_orientation(cocomparability_graph(o))
    if arcs is None:
        return None
    m = np.eye(o.n, dtype=bool)
    for x, y in arcs:
        m[x, y] = True
    conj = OrderRelation(o.ground, m)
    conj.validate()
    return conj


def _linear_or_raise(ground, m: np.ndarray) -> LinearExtension:
    eye = np.eye(m.shape[0], dtype=bool)
    if ((m & m.T) & ~eye).any():
        raise NotLinear("union relation is not antisymmetric")
    if (transitive_closure(m) != m).any():
        raise NotLinear("union relation is not transitive")
    return LinearExtension(OrderRelation(ground, m))


def realizer_from_conjugate(o: OrderRelation, conj: OrderRelation) \
        -> tuple[LinearExtension, LinearExtension]:
    """The two linear extensions (o + conj, o + reversed conj).

    Their intersection is exactly o; NotLinear is raised if either union
    fails to be a linear order (i.e. conj was not a conjugate of o).
    """
    if o.ground != conj.ground:
        raise GroundMismatch("order and conjugate on different ground sets")
    l1 = _linear_or_raise(o.ground, o.matrix | conj.matrix)
    l2 = _linear_or_raise(o.ground, o.matrix | conj.matrix.T)
    return l1, l2
