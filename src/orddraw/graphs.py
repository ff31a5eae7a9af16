"""Undirected simple graphs, their two-colourings and their odd blocks.

Vertices are 0..n-1, and each vertex's neighbours are one Python-int mask
over them.  Two breadth-first searches colour a graph minus a vertex set.
`bfs_layers` only colours: it advances a whole layer per step, the OR of
the layer's neighbour masks less the vertices already seen, and a vertex's
colour is its layer's parity.  It serves `is_bipartite_without` and, in
`bipartization`, the start of `oct_anneal`'s local search and the
union-find that `peel_to_minimal` starts from.  `_colour_conflicts` visits
one vertex per step, pushes past monochromatic edges and yields each one it
meets with its queue-order parents in place, so the edge's tree cycle can
be read off: it serves `two_coloring` (the first such edge closes an odd
walk), `odd_cycle_census` (each such edge counts its BFS-tree cycle) and
the odd cycles of the exact search, which colours into lists it allocates
once and reuses: a call reads only the entries it has written itself.
Both searches start each component at its lowest kept vertex, so a
vertex's layer is its BFS depth in `_colour_conflicts` and the two give it
the same colour.  `odd_blocks` finds the non-bipartite blocks between the
bridges in one depth-first search.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .orders import bits, mask_of


class SimpleGraph:
    """Immutable undirected graph without loops or parallel edges.

    `masks[u]` has bit v set when u and v are adjacent; the neighbour
    tuples and the edge tuples are read off these masks.
    """

    __slots__ = ("n", "m", "masks", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._set(masks)

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> SimpleGraph:
        """The graph whose vertex u has the neighbours in masks[u].

        The masks must be symmetric (v in masks[u] iff u in masks[v]); that
        is the caller's to keep, since checking it costs a pass over every
        edge.  A loop or a neighbour out of range raises ValueError.
        """
        masks = list(masks)
        n = len(masks)
        for u, mask in enumerate(masks):
            if mask < 0 or mask >> n:
                raise ValueError(f"neighbour mask of vertex {u} out of range")
            if mask >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        g = cls.__new__(cls)
        g._set(masks)
        return g

    def _set(self, masks: list[int]) -> None:
        self.n = len(masks)
        self.masks: tuple[int, ...] = tuple(masks)
        self.m = sum(mask.bit_count() for mask in masks) // 2
        self._edges: tuple[tuple[int, int], ...] | None = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v) with u < v, sorted; built when encode_oct first reads them."""
        if self._edges is None:
            self._edges = tuple((u, v) for u, mask in enumerate(self.masks)
                                for v in bits(mask & ~((2 << u) - 1)))
        return self._edges

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbours of u in ascending order."""
        return tuple(bits(self.masks[u]))

    def __repr__(self) -> str:
        return f"SimpleGraph({self.n} vertices, {self.m} edges)"


def odd_blocks(g: SimpleGraph) -> list[int]:
    """The vertex masks of the non-bipartite components of g minus its
    bridges, in the order of their lowest vertices.

    Every cycle avoids the bridges, so g minus a vertex set is bipartite
    exactly when every block minus it is, and the minimum odd cycle
    transversals of g are the unions of one minimum transversal per block.
    No bridge joins two vertices of one block, so a block is g with every
    vertex outside it removed.  One iterative Tarjan low-link search pops
    each block off its stack of discovered vertices once low[u] == order[u]
    at u's finish.  The depth parities colour the block's tree edges, so
    the block is odd when one of its non-tree edges joins equal parities.
    """
    masks = g.masks
    order = [-1] * g.n  # discovery time
    low = [0] * g.n
    depth = [0] * g.n
    stack: list[int] = []  # discovered vertices whose block is still open
    odd = 0  # the ends of non-tree edges that join equal depth parities
    blocks = []
    clock = 0
    for root in range(g.n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = clock
        clock += 1
        stack.append(root)
        frames = [(root, -1, iter(bits(masks[root])), 0)]  # (u, parent, neighbours, stack height)
        while frames:
            u, parent, it, at = frames[-1]
            for w in it:
                if order[w] < 0:
                    order[w] = low[w] = clock
                    clock += 1
                    depth[w] = depth[u] + 1
                    frames.append((w, u, iter(bits(masks[w])), len(stack)))
                    stack.append(w)
                    break
                if w != parent:
                    low[u] = min(low[u], order[w])
                    if not (depth[u] ^ depth[w]) & 1:
                        odd |= 1 << u
            else:
                frames.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[u])
                if low[u] == order[u]:
                    block = mask_of(stack[at:])
                    del stack[at:]
                    if block & odd:
                        blocks.append(block)
    return sorted(blocks, key=lambda block: block & -block)


def _tree_cycle(parent: list[int], depth: list[int], u: int, v: int) -> tuple[int, ...]:
    """Closed walk through BFS-tree paths of u and v plus the edge (u, v)."""
    pu, pv = [u], [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
        pu.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        pv.append(b)
    while a != b:
        a, b = parent[a], parent[b]
        pu.append(a)
        pv.append(b)
    # pu ends at the common ancestor; pv's copy of it is dropped
    return tuple(pu + pv[-2::-1])


def _colour_conflicts(g: SimpleGraph, gone: int, color: list[int | None],
                      parent: list[int], depth: list[int]) -> Iterator[tuple[int, int]]:
    """BFS 2-colouring of g minus the vertices in the mask `gone` into the
    caller's lists, which may hold stale entries: only those of the
    vertices coloured so far are read.

    Run to the end, it gives every kept vertex a 0/1 colour from its BFS
    tree even when the graph is not bipartite; removed vertices' entries
    are left as they were.
    Yields each monochromatic edge (u, w) when the search meets it, from
    u's side: both ends have their final colour, parent and depth then, so
    the tree cycle of the edge is fixed.  A monochromatic edge is met once
    from each end.  The search keeps the uncoloured kept vertices and each
    colour class as masks, so a vertex costs two ANDs with its neighbour
    mask and a step per newly coloured neighbour, not a step per edge.
    """
    masks = g.masks
    unseen = ((1 << g.n) - 1) & ~gone
    sides = [0, 0]  # the vertices coloured 0 and 1
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        unseen ^= 1 << start
        color[start] = 0
        depth[start] = 0
        sides[0] |= 1 << start
        queue = [start]
        for u in queue:  # grows while it is walked: a breadth-first search
            cu = color[u]
            nbrs = masks[u]
            clash = nbrs & sides[cu]
            while clash:
                low = clash & -clash
                clash ^= low
                yield u, low.bit_length() - 1
            new = nbrs & unseen
            if new:
                unseen ^= new
                sides[1 - cu] |= new
                du = depth[u] + 1
                while new:
                    low = new & -new
                    w = low.bit_length() - 1
                    new ^= low
                    color[w] = 1 - cu
                    parent[w] = u
                    depth[w] = du
                    queue.append(w)


def two_coloring(g: SimpleGraph, removed: Iterable[int] = ()) \
        -> tuple[list[int | None] | None, tuple[int, ...] | None]:
    """BFS 2-coloring of g minus `removed`.

    Returns (colors, None) on success, where colors[v] is 0 or 1 and None
    for removed vertices; or (None, cycle) where cycle is an odd closed
    walk (vertex tuple, no repeated endpoint) witnessing non-bipartiteness.
    """
    color: list[int | None] = [None] * g.n
    parent = [-1] * g.n
    depth = [0] * g.n
    for u, w in _colour_conflicts(g, mask_of(removed), color, parent, depth):
        return None, _tree_cycle(parent, depth, u, w)
    return color, None


def bfs_layers(g: SimpleGraph, gone: int = 0) -> Iterator[tuple[int, int, bool]]:
    """The breadth-first layers of g minus the vertices in the mask `gone`,
    as (depth, layer mask, clash), component by component.

    Each component starts at its lowest kept vertex, which alone is its
    layer at depth 0; the next layer is the OR of the current layer's
    neighbour masks less the vertices seen so far.  Colouring each vertex
    with its layer's parity is the colouring `_colour_conflicts` gives,
    since a vertex's layer is its distance from the start.  An edge joins
    two vertices of one layer or of adjacent layers, so the colouring has a
    monochromatic edge exactly when some layer's `clash` is true: the
    layer meets its own neighbour masks.  A step costs an OR per vertex of
    the layer, not a step per edge.
    """
    masks = g.masks
    unseen = ((1 << g.n) - 1) & ~gone
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        depth = 0
        while layer:
            reach = 0
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= masks[low.bit_length() - 1]
            yield depth, layer, bool(reach & layer)
            layer = reach & unseen
            unseen ^= layer
            depth += 1


def is_bipartite_without(g: SimpleGraph, removed: Iterable[int] = ()) -> bool:
    """Whether g minus `removed` is bipartite: no BFS layer holds an edge."""
    return not any(clash for _, _, clash in bfs_layers(g, mask_of(removed)))


def odd_cycle_census(g: SimpleGraph, removed: Iterable[int] = ()) \
        -> dict[int, int] | None:
    """Count, per vertex, the BFS odd-cycle witnesses it lies on.

    No strategy calls it; the benchmark's tracer hooks it in bipartization.

    Every monochromatic edge under the BFS colouring that pushes past
    conflicts contributes one BFS-tree cycle.  Returns None when the
    remainder is bipartite.
    """
    color: list[int | None] = [None] * g.n
    parent = [-1] * g.n
    depth = [0] * g.n
    counts: dict[int, int] = {}
    for u, w in _colour_conflicts(g, mask_of(removed), color, parent, depth):
        if u < w:  # each edge once
            for x in _tree_cycle(parent, depth, u, w):
                counts[x] = counts.get(x, 0) + 1
    return counts or None
