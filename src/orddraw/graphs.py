"""Undirected simple graphs, their BFS two-colourings and their odd blocks.

Vertices are 0..n-1, and each vertex's neighbours are one Python-int mask
over them.  A breadth-first search colours a graph minus a vertex set a
whole layer per step, and a vertex's colour is its layer's parity: the
next layer is the OR of the layer's neighbour masks (`_reach`) less the
vertices already seen.  Two walks run it, one per job.  `first_odd_cycle`
is the bipartiteness test, which `is_bipartite_without` and the exact
search read: one plain loop that stops at the first layer holding an edge
and reads an odd cycle off the layers, climbing from both ends of the
edge to their lowest neighbours one layer up (`_climb`).  `bfs_layers`
yields every layer with its clash mask, the vertices of the layer on an
edge inside it, for the callers that want the layers themselves:
`odd_blocks`, `odd_cycle_census` (one `_climb` cycle per edge inside a
layer) and, in `bipartization`, the start of `oct_anneal`'s local search
(its colouring and its first due vertices) and the component masks that
`peel_to_minimal` starts from.  `odd_blocks` reads the non-bipartite
blocks between the bridges off the layers of the whole graph, from the
deepest up, each vertex hanging off its highest neighbour one layer up.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

from .orders import bits, mask_of


class SimpleGraph:
    """Immutable undirected graph without loops or parallel edges.

    It holds `n` and `masks` and nothing else: `masks[u]` has bit v set
    when u and v are adjacent, and the edge count and edge tuples are read
    off these masks on each read.  The masks must be symmetric (v in
    masks[u] iff u in masks[v]); that is the caller's to keep, since
    checking it costs a pass over every edge.  A neighbour out of range or
    a loop raises ValueError naming the first vertex that has one, in one
    pass over the masks.
    """

    __slots__ = ("n", "masks")

    def __init__(self, masks: Iterable[int]):
        self.masks: tuple[int, ...] = tuple(masks)
        self.n = n = len(self.masks)
        for u, mask in enumerate(self.masks):
            if mask < 0 or mask >> n:
                raise ValueError(f"neighbour mask of vertex {u} out of range")
            if mask >> u & 1:
                raise ValueError(f"loop at vertex {u}")

    @property
    def m(self) -> int:
        """The edge count, half the masks' summed popcounts, counted on each
        read.  No drawing reads it: `__repr__`, the tig's repr and the
        benchmark's tig facts do."""
        return sum(map(int.bit_count, self.masks)) // 2

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v) with u < v, sorted, read off the masks on each read;
        `encode_oct` reads them once per CNF, and no drawing reads them."""
        return tuple((u, v) for u, mask in enumerate(self.masks)
                     for v in bits(mask & ~((2 << u) - 1)))

    def __repr__(self) -> str:
        return f"SimpleGraph({self.n} vertices, {self.m} edges)"


def odd_blocks(g: SimpleGraph) -> list[int]:
    """The vertex masks of the non-bipartite components of g minus its
    bridges, in the order of their lowest vertices.

    Every cycle avoids the bridges, so g minus a vertex set is bipartite
    exactly when every block minus it is, and the minimum odd cycle
    transversals of g are the unions of one minimum transversal per block.
    No bridge joins two vertices of one block, so a block is g with every
    vertex outside it removed.  The blocks are read off the layers of
    `bfs_layers` in one pass, from the deepest layer up.  Each vertex below
    depth 0 hangs off its highest neighbour in the layer above, its parent
    p, and ORs its subtree and that subtree's neighbours into p's.  A
    bridge is a tree edge, and the tree edge (p, v) is one exactly when
    the only neighbour of v's subtree outside it is p: an edge spans at
    most one layer, so v is p's only neighbour in that subtree.  A root,
    or a vertex below a bridge, closes its block: its subtree less the
    blocks already closed, those below the bridges inside the subtree.
    A block is odd exactly when it meets a clash mask: an edge inside a
    layer closes an odd cycle and is no bridge, and the layer parities
    colour the rest of the block properly.  Every mask of a component is
    shifted down by its lowest vertex, its root, so a small component at
    high ids costs no step per bit below it.
    """
    masks = g.masks
    layers, blocks = [], []
    for depth, layer, clash in bfs_layers(g):
        if not depth:
            s = layer.bit_length() - 1  # the component's root
        layers.append((depth, layer >> s, clash >> s, s))
    # each vertex's subtree so far and its neighbours, shifted as its component
    tree, reach = [0] * g.n, [0] * g.n
    odd = shut = 0  # the clash vertices and closed blocks of this component so far
    for i in reversed(range(len(layers))):
        depth, layer, clash, s = layers[i]
        odd |= clash
        while layer:
            v = layer.bit_length() - 1
            bit = 1 << v
            layer ^= bit
            below = tree[v + s] | bit
            near = reach[v + s] | masks[v + s] >> s
            if depth:
                # v's subtree meets the layer above only through v
                p = (near & layers[i - 1][1]).bit_length() - 1 + s
                tree[p] |= below
                reach[p] |= near
                if (near & ~below).bit_count() > 1:
                    continue  # (p, v) is no bridge: v's block goes on into p's
            block = below & ~shut
            shut |= block
            if block & odd:
                blocks.append(block << s)
        if not depth:
            odd = shut = 0  # the root closed the component
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


def _reach(masks: tuple[int, ...], layer: int) -> int:
    """The OR of the neighbour masks of the vertices in the mask `layer`.

    A layer of at most eight vertices is walked from its top bit, one
    vertex's mask per step, so a small layer of high vertices costs no step
    per byte below it.  A wider layer is walked a byte at a time: its bytes
    come from `int.to_bytes`, `itertools.compress` skips the zero bytes in
    C, and a 256-entry table gives the set bits of each other byte.  So a
    step costs an OR per vertex of the layer, not a step per edge.
    """
    reach = 0
    if layer.bit_count() <= 8:
        while layer:
            v = layer.bit_length() - 1
            layer ^= 1 << v
            reach |= masks[v]
    else:
        data = layer.to_bytes((layer.bit_length() + 7) >> 3, "little")
        for base, byte in compress(zip(range(0, len(data) << 3, 8), data), data):
            for offset in _OFFSETS[byte]:
                reach |= masks[base + offset]
    return reach


def bfs_layers(g: SimpleGraph, gone: int = 0) -> Iterator[tuple[int, int, int]]:
    """The breadth-first layers of g minus the vertices in the mask `gone`,
    as (depth, layer mask, clash mask), component by component.

    Each component starts at its lowest kept vertex, which alone is its
    layer at depth 0; the next layer is the OR of the current layer's
    neighbour masks (`_reach`) less the vertices seen so far, so a vertex's
    layer is its distance from the start, and each vertex is coloured with
    its layer's parity.  An edge joins two vertices of one layer or of
    adjacent layers, so a kept vertex's neighbours of its own colour are
    those in its own layer, and the clash mask, the layer AND the OR of
    its neighbour masks, holds the vertices of the layer on a
    monochromatic edge: the colouring has one exactly when some clash mask
    is not 0, and `odd_cycle_census` reads an odd cycle off the layers for
    each such edge.  A layer of one vertex has that vertex's mask as its OR,
    read directly.
    """
    masks = g.masks
    unseen = ((1 << g.n) - 1) & ~gone
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        depth = 0
        while layer:
            if layer & (layer - 1):
                reach = _reach(masks, layer)
            else:  # one vertex: its mask
                reach = masks[layer.bit_length() - 1]
            yield depth, layer, reach & layer
            layer = reach & unseen
            unseen ^= layer
            depth += 1


def _climb(masks: tuple[int, ...], layers: list[int], u: int, w: int) \
        -> tuple[tuple[int, ...], int]:
    """The odd cycle through the edge (u, w) inside the last of the BFS
    layers `layers` of one component, and its vertex mask.

    Both ends lie in one layer, so the cycle steps up from both in
    lockstep, each to its lowest neighbour in the layer above, until the
    two meet: it runs from u up to the meeting vertex and down to w, an
    odd cycle with no repeated vertex.  Every vertex below depth 0 has a
    neighbour in the layer above, so a step is one AND and a lowest bit.
    """
    up, down = [u], [w]
    mask = 1 << u | 1 << w
    depth = len(layers) - 1
    while u != w:
        depth -= 1
        a = masks[u] & layers[depth]
        b = masks[w] & layers[depth]
        a &= -a
        b &= -b
        mask |= a | b
        u = a.bit_length() - 1
        w = b.bit_length() - 1
        up.append(u)
        down.append(w)
    # up ends at the meeting vertex; down's copy of it is dropped
    return tuple(up + down[-2::-1]), mask


def first_odd_cycle(g: SimpleGraph, gone: int = 0) -> tuple[tuple[int, ...], int] | None:
    """The first odd cycle of g minus the vertices in the mask `gone` and
    its vertex mask, or None when that graph is bipartite.

    One plain loop over the same layers as `bfs_layers`, which stops at
    the first layer that holds an edge: its lowest vertex u on one and u's
    lowest neighbour in the layer (all of them lie above u) are the ends
    `_climb` starts from.  A layer of one vertex holds no edge, and its
    next layer is that vertex's mask, read directly; a wider layer is
    expanded by `_reach`.
    """
    masks = g.masks
    unseen = ((1 << g.n) - 1) & ~gone
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        layers = []
        while layer:
            layers.append(layer)
            if layer & (layer - 1):
                reach = _reach(masks, layer)
                clash = reach & layer
                if clash:
                    u = (clash & -clash).bit_length() - 1
                    ends = masks[u] & layer
                    return _climb(masks, layers, u, (ends & -ends).bit_length() - 1)
            else:
                reach = masks[layer.bit_length() - 1]
            layer = reach & unseen
            unseen ^= layer
    return None


def is_bipartite_without(g: SimpleGraph, removed: Iterable[int] = ()) -> bool:
    """Whether g minus `removed` is bipartite: `first_odd_cycle` finds no
    odd cycle in it."""
    return first_odd_cycle(g, mask_of(removed)) is None


def odd_cycle_census(g: SimpleGraph, removed: Iterable[int] = ()) \
        -> dict[int, int] | None:
    """Count, per vertex, the BFS odd-cycle witnesses it lies on, or None
    when g minus `removed` is bipartite.

    No strategy calls it; the benchmark's tracer hooks it in bipartization.

    Each edge inside a layer of `bfs_layers` (a monochromatic edge of the
    colouring by layer parity) is one witness, taken in the order of the
    layers, then of its lower end u, then of its upper end w: the cycle
    `_climb` reads off the layers of the current component, kept as they
    come, so a witness costs a step per layer it climbs.
    """
    masks = g.masks
    counts: dict[int, int] = {}
    for depth, layer, clash in bfs_layers(g, mask_of(removed)):
        if not depth:
            layers = []
        layers.append(layer)
        for u in bits(clash):
            for w in bits(masks[u] & layer & -(2 << u)):  # u's neighbours above it in the layer
                for x in _climb(masks, layers, u, w)[0]:
                    counts[x] = counts.get(x, 0) + 1
    return counts or None
