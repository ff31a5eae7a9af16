"""The incompatibility graph over incomparable pairs.

Vertices are the ordered incomparable pairs of an order.  Inserting the
pair (a, b) forces every pair it "enforces" (everything in the closure of
<= plus (a, b)); two pairs are incompatible when inserting both would
create a cycle.  Both tests reduce to four incidence lookups:

    (a, b) enforces (c, d)        iff  c <= a and b <= d
    (a, b), (c, d) incompatible   iff  d <= a and b <= c

The order has dimension <= 2 exactly when this graph is bipartite, which
is what the drawing engine exploits.

build_tig applies the second test to all pairs at once: two gathers from
the <= matrix give reach[i, j] (second of i <= first of j), reach AND its
transpose is the adjacency matrix, and SimpleGraph.from_matrix indexes it
into neighbour lists and two arrays of edge ends.  The vertex pairs come
from one tolist() of each id array, and no Python object is made per edge
unless a caller reads the graph's `edges`.  That allocates about
2 |inc|^2 bytes (the gather and the adjacency matrix; from_matrix checks
symmetry on the sorted arc list); the matrix stays because it tests every
pair in a few vectorised passes, and a sparse build that bounds the memory
is still open.
"""

from __future__ import annotations

from .errors import NotIncomparable
from .graphs import SimpleGraph
from .orders import OrderRelation, inc_id_arrays

IncPair = tuple[int, int]


class TigGraph:
    """Incompatibility graph of an order.

    Vertices are kept in lexicographic id-pair order so that downstream
    CNF variable numbering is reproducible.
    """

    __slots__ = ("order", "vertices", "index", "graph")

    def __init__(self, order: OrderRelation, vertices: tuple[IncPair, ...],
                 graph: SimpleGraph):
        self.order = order
        self.vertices = vertices
        self.index = {p: i for i, p in enumerate(vertices)}
        self.graph = graph

    def __repr__(self) -> str:
        return f"TigGraph({len(self.vertices)} pairs, {self.graph.m} conflicts)"


def _require_incomparable(o: OrderRelation, p: IncPair) -> None:
    if not o.incomparable_ids(p[0], p[1]):
        raise NotIncomparable(f"pair {p} is not incomparable")


def enforces(p: IncPair, q: IncPair, o: OrderRelation) -> bool:
    """True iff inserting p forces q, i.e. q lies in the closure of <= + p."""
    _require_incomparable(o, p)
    _require_incomparable(o, q)
    return o.le_ids(q[0], p[0]) and o.le_ids(p[1], q[1])


def incompatible(p: IncPair, q: IncPair, o: OrderRelation) -> bool:
    """True iff inserting both p and q would create a cycle."""
    _require_incomparable(o, p)
    _require_incomparable(o, q)
    return o.le_ids(q[1], p[0]) and o.le_ids(p[1], q[0])


def build_tig(o: OrderRelation) -> TigGraph:
    """Incompatibility graph of o; quadratic in the incomparable pair count."""
    firsts, seconds = inc_id_arrays(o)
    verts = tuple(zip(firsts.tolist(), seconds.tolist()))
    # reach[i, j] == (second of vertex i <= first of vertex j); two plain
    # takes gather it about 8x faster than one np.ix_ index
    reach = o.matrix[seconds][:, firsts]
    return TigGraph(o, verts, SimpleGraph.from_matrix(reach & reach.T))
