"""The incompatibility graph over incomparable pairs.

Vertices are the ordered incomparable pairs of an order.  Inserting the
pair (a, b) forces every pair it "enforces" (everything in the closure of
<= plus (a, b)); two pairs are incompatible when inserting both would
create a cycle.  Both tests reduce to four incidence lookups:

    (a, b) enforces (c, d)        iff  c <= a and b <= d
    (a, b), (c, d) incompatible   iff  d <= a and b <= c

The order has dimension <= 2 exactly when this graph is bipartite, which
is what the drawing engine exploits.

build_tig applies the second test to a whole vertex at once, on masks over
the vertex ids.  With F[c] the vertices whose first element is c (one
contiguous run, since the vertices come in lexicographic order) and S[d]
those whose second element is d, let UF[b] be the OR of F[c] over all
c >= b and DS[a] the OR of S[d] over all d <= a.  The neighbours of (a, b)
are then UF[b] & DS[a]: one AND per vertex, after about one OR per
comparable pair of the order.  The neighbour masks are the graph; the
build holds no |inc| x |inc| matrix, and its size is known up front.
"""

from __future__ import annotations

from .errors import TooLarge
from .graphs import SimpleGraph
from .orders import IdPair, OrderRelation, bits, incomparable_masks

# The most incomparable pairs (tig vertices) build_tig accepts.  A
# neighbour mask holds up to one bit per vertex, so at this bound the
# masks take at most 40,000^2 / 8 bytes = 200 MB.
MAX_TIG_VERTICES = 40_000


class TigGraph:
    """Incompatibility graph of an order; vertex i is the incomparable id
    pair vertices[i], in lexicographic order."""

    __slots__ = ("order", "vertices", "graph")

    def __init__(self, order: OrderRelation, vertices: tuple[IdPair, ...],
                 graph: SimpleGraph):
        self.order = order
        self.vertices = vertices
        self.graph = graph

    def __repr__(self) -> str:
        return f"TigGraph({len(self.vertices)} pairs, {self.graph.m} conflicts)"


def build_tig(o: OrderRelation) -> TigGraph:
    """Incompatibility graph of o.

    Raises TooLarge, before building anything, when o has more than
    MAX_TIG_VERTICES incomparable pairs.
    """
    inc = incomparable_masks(o)
    size = sum(mask.bit_count() for mask in inc)
    if size > MAX_TIG_VERTICES:
        raise TooLarge(f"{size} incomparable pairs; the incompatibility graph "
                       f"takes at most {MAX_TIG_VERTICES}")
    verts: list[IdPair] = []
    firsts = [0] * o.n  # F[c]
    seconds = [0] * o.n  # S[d]
    for a, mask in enumerate(inc):
        start = len(verts)
        for b in bits(mask):
            seconds[b] |= 1 << len(verts)
            verts.append((a, b))
        firsts[a] = ((1 << (len(verts) - start)) - 1) << start
    above_firsts = []  # UF[b]
    for row in o.up:
        acc = 0
        for c in bits(row):
            acc |= firsts[c]
        above_firsts.append(acc)
    below_seconds = []  # DS[a]
    for col in o.down:
        acc = 0
        for d in bits(col):
            acc |= seconds[d]
        below_seconds.append(acc)
    nbrs = [above_firsts[b] & below_seconds[a] for a, b in verts]
    return TigGraph(o, tuple(verts), SimpleGraph(nbrs))
