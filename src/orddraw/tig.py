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
are then UF[b] & DS[a]: one AND per vertex.  UF is built in one sweep
from the top, each element ORing the UF of its covers only, since the UF
of a cover already holds everything above it; DS likewise from the
bottom.  That is one OR per cover of the order, not one per comparable
pair.  The neighbour masks are the graph; the build holds no
|inc| x |inc| matrix, and its size is known up front.
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


def _fold_above(up: tuple[int, ...], down: tuple[int, ...],
                leaf: list[int]) -> list[int]:
    """Per element b, the OR of leaf[c] over the c in up[b].

    The elements are swept from the top, sorted by the size of their up-set
    (an element strictly below another has the larger one), so every c
    above b is done before b.  Row b ORs the result of a minimal element c
    of what is left of its strict up-set, found by stepping down within
    it, and then drops all of up[c], which that result already covers.
    Each pick is a cover of b, so a row pays one OR per cover, not one
    per element above it; every element stepped over lies above the pick
    and drops with it, so the steps of a row are at most its up-set.
    With `up` and `down` swapped this folds over the down-sets, from the
    bottom.
    """
    strictly_below = [col ^ 1 << i for i, col in enumerate(down)]
    sizes = list(map(int.bit_count, up))
    folded = [0] * len(up)
    for b in sorted(range(len(up)), key=sizes.__getitem__):
        acc, rest = leaf[b], up[b] ^ 1 << b
        while rest:
            c = rest.bit_length() - 1
            lower = strictly_below[c] & rest
            while lower:
                c = lower.bit_length() - 1
                lower = strictly_below[c] & rest
            acc |= folded[c]
            rest &= ~up[c]
        folded[b] = acc
    return folded


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
    above_firsts = _fold_above(o.up, o.down, firsts)  # UF[b]
    below_seconds = _fold_above(o.down, o.up, seconds)  # DS[a]
    nbrs = [above_firsts[b] & below_seconds[a] for a, b in verts]
    return TigGraph(o, tuple(verts), SimpleGraph(nbrs))
