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
the edges not yet in a class at each vertex, and the arcs forced so far
leaving and entering it, so one forcing step is a few word operations.

The conjugate found for an order is checked once, by `is_linear_order` on
both unions L1 = <= | C and L2 = <= | C^T (O(n^2), no closure).  That check
accepts exactly the conjugates:

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

from typing import Iterator

import numpy as np

from .errors import GroundMismatch
from .orders import LinearExtension, OrderRelation, is_linear_order
from .orders import transitive_closure  # noqa: F401  unused; perfbench/tracing.py hooks it here


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_masks(adj: np.ndarray) -> list[int]:
    """Row i of a square boolean matrix as an int with bit j = adj[i, j]."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little")
            for i in range(adj.shape[0])]


def _mask_matrix(masks: list[int]) -> np.ndarray:
    """The boolean matrix whose row i has the bits of masks[i]."""
    n = len(masks)
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(bool)


def _force_classes(adj: list[int]) -> list[int] | None:
    """Successor masks (bit y of entry x: arc x -> y) of the orientation
    that forces every implication class of the graph with neighbour masks
    `adj`, or None when some class forces an edge both ways."""
    n = len(adj)
    rem = list(adj)  # edges not yet in a settled class
    out = [0] * n  # the arcs forced so far, leaving and entering each vertex
    into = [0] * n
    for s in range(n):
        while above := rem[s] >> (s + 1):
            t = s + (above & -above).bit_length()
            out[s] |= 1 << t
            into[t] |= 1 << s
            queue = [(s, t)]
            for a, b in queue:  # walks the arcs appended below too
                # a->b and edge {a,c} with b,c non-adjacent: both must leave a;
                # edge {c,b} with a,c non-adjacent: both must enter b.  leave
                # holds b and enter holds a, which a->b already accounts for;
                # arcs of settled classes lie outside rem, so out and into
                # meet leave and enter only in the current class
                leave = rem[a] & ~rem[b]
                enter = rem[b] & ~rem[a]
                if leave & into[a] or enter & out[b]:
                    return None
                new = leave & ~out[a]
                if new:
                    out[a] |= new
                    for c in _bits(new):
                        into[c] |= 1 << a
                        queue.append((a, c))
                new = enter & ~into[b]
                if new:
                    into[b] |= new
                    for c in _bits(new):
                        out[c] |= 1 << b
                        queue.append((c, b))
            for a, b in queue:  # settle the class
                rem[a] &= ~out[a]
                rem[b] &= ~into[b]
    return out


def compute_conjugate_order(o: OrderRelation) -> OrderRelation | None:
    """An order whose comparabilities are exactly o's incomparabilities.

    Returns None when none exists (equivalently, the order dimension of o
    exceeds 2).  A linear input yields the trivial diagonal-only order.
    The result is returned only if both unions with o are linear orders,
    which holds exactly for conjugates (see the module docstring).
    """
    m = o.matrix
    succ = _force_classes(_row_masks(~(m | m.T)))
    if succ is None:
        return None
    conj = _mask_matrix(succ) | np.eye(o.n, dtype=bool)
    if not (is_linear_order(m | conj) and is_linear_order(m | conj.T)):
        return None
    return OrderRelation(o.ground, conj)


def realizer_from_conjugate(o: OrderRelation, conj: OrderRelation) \
        -> tuple[LinearExtension, LinearExtension]:
    """The two linear extensions (o + conj, o + reversed conj).

    Their intersection is exactly o; NotLinear is raised if either union
    fails to be a linear order (i.e. conj was not a conjugate of o).
    """
    if o.ground != conj.ground:
        raise GroundMismatch("order and conjugate on different ground sets")
    return (LinearExtension(OrderRelation(o.ground, o.matrix | conj.matrix)),
            LinearExtension(OrderRelation(o.ground, o.matrix | conj.matrix.T)))
