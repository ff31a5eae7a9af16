"""Undirected simple graphs, their BFS two-colourings and their odd blocks.

Vertices are 0..n-1, and each vertex's neighbours are one Python-int mask
over them.  One breadth-first search, `bfs_layers`, colours a graph minus
a vertex set a whole layer per step, and a vertex's colour is its layer's
parity: the next layer is the OR of the layer's neighbour masks, read a
byte of the layer at a time, less the vertices already seen, and each
layer comes with its clash mask, the vertices of the layer on an edge
inside it.  It serves `is_bipartite_without` and, in `bipartization`, the
start of `oct_anneal`'s local search (its colouring and its first due
vertices) and the component masks that `peel_to_minimal` starts from.
`odd_cycles` reads an odd cycle off those layers for each edge inside a
layer, climbing from both ends to their lowest neighbours one layer up:
it serves `odd_cycle_census` and the exact search, which takes its first
cycle.  `odd_blocks` finds the non-bipartite blocks between the bridges
in one depth-first search on masks.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

from .orders import bits, mask_of


class SimpleGraph:
    """Immutable undirected graph without loops or parallel edges.

    `masks[u]` has bit v set when u and v are adjacent; the edge tuples are
    read off these masks.  The masks must be symmetric (v in masks[u] iff u
    in masks[v]); that is the caller's to keep, since checking it costs a
    pass over every edge.  A neighbour out of range or a loop raises
    ValueError naming the first vertex that has one, in one pass over the
    masks.
    """

    __slots__ = ("n", "masks", "_m", "_edges")

    def __init__(self, masks: Iterable[int]):
        self.masks: tuple[int, ...] = tuple(masks)
        self.n = n = len(self.masks)
        for u, mask in enumerate(self.masks):
            if mask < 0 or mask >> n:
                raise ValueError(f"neighbour mask of vertex {u} out of range")
            if mask >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        self._m: int | None = None
        self._edges: tuple[tuple[int, int], ...] | None = None

    @property
    def m(self) -> int:
        """The edge count, counted on first read."""
        if self._m is None:
            self._m = sum(map(int.bit_count, self.masks)) // 2
        return self._m

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v) with u < v, sorted; built when encode_oct first reads them."""
        if self._edges is None:
            self._edges = tuple((u, v) for u, mask in enumerate(self.masks)
                                for v in bits(mask & ~((2 << u) - 1)))
        return self._edges

    def __repr__(self) -> str:
        return f"SimpleGraph({self.n} vertices, {self.m} edges)"


def odd_blocks(g: SimpleGraph) -> list[int]:
    """The vertex masks of the non-bipartite components of g minus its
    bridges, in the order of their lowest vertices.

    Every cycle avoids the bridges, so g minus a vertex set is bipartite
    exactly when every block minus it is, and the minimum odd cycle
    transversals of g are the unions of one minimum transversal per block.
    No bridge joins two vertices of one block, so a block is g with every
    vertex outside it removed.  One iterative Tarjan low-link search closes
    each block once low[u] == order[u] at u's finish: the block is the
    discovered vertices still open then less those open when u was found.
    The search runs on masks, with no step per edge.  The next tree child
    of u is the lowest undiscovered neighbour, the order of an ascending
    neighbour walk.  A discovered neighbour of a vertex just found is an
    ancestor, since an undirected depth-first search has no cross edges,
    so only the edges into the path are walked, to set low[u].  The depth
    parities colour the tree edges, so the block is odd when one of its
    non-tree edges joins equal parities: u is marked when it has a
    discovered neighbour of its own parity.
    """
    masks = g.masks
    order = [0] * g.n  # discovery time
    low = [0] * g.n
    before = [0] * g.n  # the open vertices when each vertex was found
    unseen = (1 << g.n) - 1
    sides = [0, 0]  # the discovered vertices of even and of odd depth
    path = 0  # the vertices on the depth-first path
    open_ = 0  # discovered vertices whose block is still open
    odd = 0  # the vertices with a discovered neighbour of their depth parity
    blocks = []
    clock = 0
    while unseen:
        bit = unseen & -unseen
        u, above = bit.bit_length() - 1, 0  # above: the parent's bit
        stack = []  # the path; a vertex's depth is its index
        while True:
            unseen ^= bit
            order[u] = low[u] = clock
            clock += 1
            nbrs = masks[u]
            parity = len(stack) & 1
            if nbrs & sides[parity]:
                odd |= bit
            sides[parity] |= bit
            back = nbrs & (path ^ above)  # the other ends of the edges into the path
            while back:
                end = back & -back
                back ^= end
                reached = order[end.bit_length() - 1]
                if reached < low[u]:
                    low[u] = reached
            path |= bit
            before[u] = open_
            open_ |= bit
            stack.append(u)
            child = nbrs & unseen
            while not child and stack:  # u finishes
                stack.pop()
                path ^= 1 << u
                if low[u] == order[u]:
                    if (open_ ^ before[u]) & odd:
                        blocks.append(open_ ^ before[u])
                    open_ = before[u]
                if stack:
                    parent = stack[-1]
                    low[parent] = min(low[parent], low[u])
                    u = parent
                    child = masks[u] & unseen
            if not child:
                break
            above = 1 << u
            bit = child & -child
            u = bit.bit_length() - 1
    return sorted(blocks, key=lambda block: block & -block)


def _bit_offsets() -> tuple[tuple[int, ...], ...]:
    """The positions of the set bits of each byte value, lowest first.  The
    entries of the values below 2 ** (bit + 1) are those below 2 ** bit,
    then each of them with `bit` added."""
    table: tuple[tuple[int, ...], ...] = ((),)
    for bit in range(8):
        table += tuple(offsets + (bit,) for offsets in table)
    return table


_OFFSETS = _bit_offsets()


def bfs_layers(g: SimpleGraph, gone: int = 0) -> Iterator[tuple[int, int, int]]:
    """The breadth-first layers of g minus the vertices in the mask `gone`,
    as (depth, layer mask, clash mask), component by component.

    Each component starts at its lowest kept vertex, which alone is its
    layer at depth 0; the next layer is the OR of the current layer's
    neighbour masks less the vertices seen so far, so a vertex's layer is
    its distance from the start, and each vertex is coloured with its
    layer's parity.  An edge joins two vertices of one layer or of adjacent
    layers, so a kept vertex's neighbours of its own colour are those in
    its own layer, and the clash mask, the layer AND the OR of its
    neighbour masks, holds the vertices of the layer on a monochromatic
    edge: the colouring has one exactly when some clash mask is not 0, and
    `odd_cycles` reads an odd cycle off the layers for each such edge.  A
    layer of one vertex reads that vertex's mask.  A wider layer is walked
    a byte at a time: its bytes come from `int.to_bytes`,
    `itertools.compress` skips the zero bytes in C, and a 256-entry table
    gives the set bits of each other byte.  So a step costs an OR per
    vertex of the layer, not a step per edge, and no operation as wide as
    g per vertex of the layer.
    """
    masks = g.masks
    unseen = ((1 << g.n) - 1) & ~gone
    bases = range(0, g.n, 8)  # the first vertex of each byte
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        depth = 0
        while layer:
            if layer.bit_count() == 1:
                reach = masks[layer.bit_length() - 1]
            else:
                reach = 0
                data = layer.to_bytes((layer.bit_length() + 7) >> 3, "little")
                for base, byte in compress(zip(bases, data), data):
                    for offset in _OFFSETS[byte]:
                        reach |= masks[base + offset]
            yield depth, layer, reach & layer
            layer = reach & unseen
            unseen ^= layer
            depth += 1


def odd_cycles(g: SimpleGraph, gone: int = 0) -> Iterator[tuple[int, ...]]:
    """One odd cycle per edge inside a layer of `bfs_layers` for g minus
    the vertices in the mask `gone`, in the order of the layers, then of
    the edge's lower end u, then of its upper end w; each edge comes once.

    Both ends lie in one layer, so the cycle steps up from both in
    lockstep, each to its lowest neighbour in the layer above, until the
    two meet: it runs from u up to the meeting vertex and down to w, an
    odd cycle with no repeated vertex.  Every vertex below depth 0 has a
    neighbour in the layer above, so a step is one AND and a lowest bit.
    The layers of the current component are kept, so a cycle costs a
    step per layer it climbs, and the first one costs the layers up to
    the first that clashes.
    """
    masks = g.masks
    for depth, layer, clash in bfs_layers(g, gone):
        if not depth:
            layers = []
        layers.append(layer)
        while clash:
            low = clash & -clash
            clash ^= low
            u = low.bit_length() - 1
            ends = masks[u] & layer & -(low << 1)  # u's neighbours above it in the layer
            while ends:
                high = ends & -ends
                ends ^= high
                up, down, above = [u], [high.bit_length() - 1], depth
                while up[-1] != down[-1]:
                    above -= 1
                    a = masks[up[-1]] & layers[above]
                    b = masks[down[-1]] & layers[above]
                    up.append((a & -a).bit_length() - 1)
                    down.append((b & -b).bit_length() - 1)
                # up ends at the meeting vertex; down's copy of it is dropped
                yield tuple(up + down[-2::-1])


def is_bipartite_without(g: SimpleGraph, removed: Iterable[int] = ()) -> bool:
    """Whether g minus `removed` is bipartite: every clash mask of
    `bfs_layers` is 0, so no BFS layer holds an edge."""
    return not any(clash for _, _, clash in bfs_layers(g, mask_of(removed)))


def odd_cycle_census(g: SimpleGraph, removed: Iterable[int] = ()) \
        -> dict[int, int] | None:
    """Count, per vertex, the BFS odd-cycle witnesses it lies on.

    No strategy calls it; the benchmark's tracer hooks it in bipartization.

    Every monochromatic edge under the BFS colouring that pushes past
    conflicts contributes its cycle from `odd_cycles`, which yields each
    such edge once.  Returns None when the remainder is bipartite.
    """
    counts: dict[int, int] = {}
    for cycle in odd_cycles(g, mask_of(removed)):
        for x in cycle:
            counts[x] = counts.get(x, 0) + 1
    return counts or None
