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

from dataclasses import dataclass
from typing import Iterable

from .errors import NotIncomparable
from .graphs import SimpleGraph, two_coloring
from .orders import OrderRelation, inc_id_arrays

IncPair = tuple[int, int]


@dataclass(frozen=True)
class Bipartition:
    """Either a two-part split of the vertices or an odd-cycle witness."""

    parts: tuple[frozenset[IncPair], frozenset[IncPair]] | None
    odd_cycle: tuple[IncPair, ...] | None

    @property
    def is_bipartite(self) -> bool:
        return self.parts is not None


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

    def vertex_name(self, vi: int) -> str:
        a, b = self.vertices[vi]
        return f"{self.order.ground.label(a)},{self.order.ground.label(b)}"

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


def bipartite_check(g: TigGraph, removed: Iterable[IncPair] = ()) -> Bipartition:
    """Two-color g minus `removed` or produce an odd closed walk."""
    removed_idx = set()
    for p in removed:
        vi = g.index.get(tuple(p))
        if vi is None:
            raise ValueError(f"{p} is not a vertex of the incompatibility graph")
        removed_idx.add(vi)
    colors, cycle = two_coloring(g.graph, removed_idx)
    if cycle is not None:
        return Bipartition(None, tuple(g.vertices[v] for v in cycle))
    assert colors is not None
    p1 = frozenset(g.vertices[v] for v in range(len(g.vertices)) if colors[v] == 0)
    p2 = frozenset(g.vertices[v] for v in range(len(g.vertices)) if colors[v] == 1)
    return Bipartition((p1, p2), None)


def to_dot(g: TigGraph) -> str:
    """Graphviz text for eyeballing small incompatibility graphs."""
    lines = ["graph tig {"]
    for vi in range(len(g.vertices)):
        lines.append(f'  "{g.vertex_name(vi)}";')
    for u, v in g.graph.edges:
        lines.append(f'  "{g.vertex_name(u)}" -- "{g.vertex_name(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
