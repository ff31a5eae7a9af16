"""Transitive orientation, conjugate orders, and two-extension realizers.

A conjugate order of (X, <=) is any order on X whose comparability graph is
exactly the incomparability graph of <=.  One exists precisely when that
graph is transitively orientable (Dushnik & Miller 1941), and in that case

    L1 = <= union <=c        L2 = <= union >=c

are linear orders with L1 intersect L2 == <=, giving a two-dimensional
realizer.

Orientation uses implication-class forcing (Golumbic 1977): two edges
sharing an endpoint whose far ends are non-adjacent must agree in direction
at the shared endpoint.  One class is forced at a time from the
lexicographically smallest edge not yet in a class, seeded low id -> high
id, and is then removed from the graph; a class that forces some edge both
ways means there is no transitive orientation.  A class is the closure of
its seed under forcing, so the order in which forced arcs are visited does
not change it.  Every vertex set is a Python int with one bit per vertex:
the edges not yet in a class at each vertex (rem), and the arcs forced so
far leaving (out) and entering (into) it.  The arcs that a queued arc
a -> b forces and that are not forced yet are one mask expression at each
end, rem[a] & ~rem[b] & ~out[a] leaving a and rem[b] & ~rem[a] & ~into[b]
entering b, and only those are tested for a conflict, against into[a] and
out[b].  That finds every conflict: an arc is registered at both of its
ends at once and is tested when it is, so no vertex ever has a neighbour
in both out[v] and into[v].  An arc forced before therefore never meets
into[a] or out[b], and testing the whole of rem[a] & ~rem[b] and
rem[b] & ~rem[a] would find a conflict exactly when the new arcs do.
A finished class is removed from the graph at each vertex it touches, in
one mask operation per vertex: the arcs forced so far at that vertex are
the class's own and those of classes already removed.

The conjugate found for an order is checked once, by `is_linear_order` on
both unions L1 = <= | C and L2 = <= | C^T (the latter through its
transpose >= | C, whose rows are the order's down masks ORed with C's
rows; O(n log n), no closure).  That check accepts exactly the conjugates:

- If L1 and L2 are linear, C relates no comparable pair x < y: (x, y) in C
  puts both (x, y) and (y, x) in L2, and (y, x) in C puts both in L1.  An
  incomparable pair is in L1 only through C, so totality and antisymmetry
  of L1 make C orient it exactly once.  Off the diagonal C is therefore
  L1 intersect the inverse of L2, an intersection of two strict linear
  orders, so it is transitive and acyclic: C is a conjugate.
- Conversely, both unions are linear for every conjugate (Dushnik & Miller),
  so no conjugate is lost by the check.
"""

from __future__ import annotations

from .errors import GroundMismatch
from .orders import (LinearExtension, OrderRelation, bits, incomparable_masks,
                     is_linear_order)
from .orders import transitive_closure  # noqa: F401  unused; perfbench/tracing.py hooks it here


def _force_classes(adj: list[int]) -> tuple[list[int], list[int]] | None:
    """Successor and predecessor masks (bit y of out[x] and bit x of
    into[y]: arc x -> y) of the orientation that forces every implication
    class of the graph with neighbour masks `adj`, or None when some class
    forces an edge both ways."""
    n = len(adj)
    rem = list(adj)  # edges not yet in a settled class
    out = [0] * n  # the arcs forced so far, leaving and entering each vertex
    into = [0] * n
    for s in range(n):
        while above := rem[s] >> (s + 1):
            t = s + (above & -above).bit_length()
            out[s] |= 1 << t
            into[t] |= 1 << s
            touched = 1 << s | 1 << t  # the endpoints of the class's arcs
            queue = [(s, t)]
            for a, b in queue:  # walks the arcs appended below too
                # a->b and edge {a,c} with b,c non-adjacent: both must leave a;
                # edge {c,b} with a,c non-adjacent: both must enter b.  Only
                # the arcs not forced yet can conflict (module docstring);
                # b and a, forced by a->b itself, are not among them.  Arcs
                # of settled classes lie outside rem, so a conflict is
                # always within the current class
                ra, rb = rem[a], rem[b]
                new = ra & ~rb & ~out[a]
                if new:
                    if new & into[a]:
                        return None
                    out[a] |= new
                    touched |= new
                    bit = 1 << a
                    while new:
                        low = new & -new
                        c = low.bit_length() - 1
                        into[c] |= bit
                        queue.append((a, c))
                        new ^= low
                new = rb & ~ra & ~into[b]
                if new:
                    if new & out[b]:
                        return None
                    into[b] |= new
                    touched |= new
                    bit = 1 << b
                    while new:
                        low = new & -new
                        c = low.bit_length() - 1
                        out[c] |= bit
                        queue.append((c, b))
                        new ^= low
            # settle the class at each of its vertices: the class's arcs at v
            # are all in out[v] | into[v], and every other arc there belongs
            # to a settled class, already gone from rem
            for v in bits(touched):
                rem[v] &= ~(out[v] | into[v])
    return out, into


def compute_conjugate_order(o: OrderRelation) -> OrderRelation | None:
    """An order whose comparabilities are exactly o's incomparabilities.

    Returns None when none exists (equivalently, the order dimension of o
    exceeds 2).  A linear input yields the trivial diagonal-only order.
    The result is returned only if both unions with o are linear orders,
    which holds exactly for conjugates (see the module docstring).
    """
    forced = _force_classes(incomparable_masks(o))
    if forced is None:
        return None
    up = [arcs | 1 << i for i, arcs in enumerate(forced[0])]
    # L2 = <= | C^T is linear iff its transpose >= | C is: that one's rows
    # are o's down masks ORed with C's rows
    if not (is_linear_order([a | c for a, c in zip(o.up, up)])
            and is_linear_order([b | c for b, c in zip(o.down, up)])):
        return None
    return OrderRelation(o.ground, up, [arcs | 1 << i for i, arcs in enumerate(forced[1])])


def realizer_from_conjugate(o: OrderRelation, conj: OrderRelation) \
        -> tuple[LinearExtension, LinearExtension]:
    """The two linear extensions (o + conj, o + reversed conj).

    Their intersection is exactly o; NotLinear is raised if either union
    fails to be a linear order (i.e. conj was not a conjugate of o).
    """
    if o.ground != conj.ground:
        raise GroundMismatch("order and conjugate on different ground sets")
    # the columns of <= | C and of <= | C^T are o's down masks ORed with
    # C's columns and C's rows
    return (LinearExtension(OrderRelation(o.ground, [a | b for a, b in zip(o.up, conj.up)],
                                          [a | b for a, b in zip(o.down, conj.down)])),
            LinearExtension(OrderRelation(o.ground, [a | b for a, b in zip(o.up, conj.down)],
                                          [a | b for a, b in zip(o.down, conj.up)])))
