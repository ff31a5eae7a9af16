"""Undirected simple graphs and the two-coloring primitive.

Vertices are 0..n-1.  One breadth-first colouring, which pushes past
monochromatic edges and yields each one it meets, serves both
`two_coloring` (the first such edge closes an odd walk, the witness of
non-bipartiteness) and `odd_cycle_census` (every such edge counts its
BFS-tree cycle); the bipartization strategies build on those two.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

import numpy as np


class SimpleGraph:
    """Immutable undirected graph without loops or parallel edges."""

    __slots__ = ("n", "m", "_nbrs", "_lower", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            norm.add((u, v) if u < v else (v, u))
        ends = np.array(sorted(norm), dtype=np.intp).reshape(-1, 2)
        arcs = np.concatenate([ends, ends[:, ::-1]])
        arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]  # by tail, then head
        self._index(n, arcs[:, 0], arcs[:, 1])

    @classmethod
    def from_matrix(cls, adj: np.ndarray) -> SimpleGraph:
        """The graph of a square, symmetric boolean matrix with a false
        diagonal; no Python object is made per edge until `edges`."""
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency matrix of shape {adj.shape} is not square")
        if adj.diagonal().any():
            raise ValueError(f"loop at vertex {int(np.argmax(adj.diagonal()))}")
        # flat indices come in row-major order, so the arcs come sorted by
        # tail and then head; one flat scan is about 4x faster than np.nonzero
        n = adj.shape[0]
        flat = np.flatnonzero(adj)
        tails, heads = divmod(flat, n)
        # symmetric iff the reversed arcs are the same set: an O(E log E)
        # test with no second n x n temporary
        if not np.array_equal(np.sort(heads * n + tails), flat):
            raise ValueError("adjacency matrix is not symmetric")
        g = cls.__new__(cls)
        g._index(n, tails, heads)
        return g

    def _index(self, n: int, tails: np.ndarray, heads: np.ndarray) -> None:
        """Set every field from both arcs of each edge, sorted by tail and
        then head.  The edge tuples wait for the first read of `edges`."""
        self.n = n
        lower = tails < heads
        self._lower = (tails[lower], heads[lower])
        for ends in self._lower:
            ends.setflags(write=False)
        self.m = len(self._lower[0])
        self._edges: tuple[tuple[int, int], ...] | None = None
        cut = np.searchsorted(tails, np.arange(n + 1)).tolist()
        # one tolist() allocates the neighbour ints in adjacency order; BFS
        # walks read them about 10 % faster than ints shared with the edges
        heads = heads.tolist()
        self._nbrs = tuple(tuple(heads[i:j]) for i, j in zip(cut, cut[1:]))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v) with u < v, sorted; built on the first read."""
        if self._edges is None:
            us, vs = self._lower
            self._edges = tuple(zip(us.tolist(), vs.tolist()))
        return self._edges

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The two ends of each edge as arrays, in the order of `edges`."""
        return self._lower

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbours of u in ascending order."""
        return self._nbrs[u]

    def __repr__(self) -> str:
        return f"SimpleGraph({self.n} vertices, {self.m} edges)"


def bridges(g: SimpleGraph) -> set[tuple[int, int]]:
    """Edges (u < v) on no cycle, by an iterative Tarjan low-link pass."""
    order = [-1] * g.n  # discovery time
    low = [0] * g.n
    found: set[tuple[int, int]] = set()
    clock = 0
    for root in range(g.n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = clock
        clock += 1
        # frames: (vertex, parent, iterator over its neighbours)
        stack = [(root, -1, iter(g.neighbors(root)))]
        while stack:
            u, parent, it = stack[-1]
            for w in it:
                if order[w] < 0:
                    order[w] = low[w] = clock
                    clock += 1
                    stack.append((w, u, iter(g.neighbors(w))))
                    break
                if w != parent:
                    low[u] = min(low[u], order[w])
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[u])
                    if low[u] > order[parent]:
                        found.add((parent, u) if parent < u else (u, parent))
    return found


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


def _colour_conflicts(g: SimpleGraph, removed: Iterable[int], color: list[int | None],
                      parent: list[int], depth: list[int]) -> Iterator[tuple[int, int]]:
    """BFS 2-colouring of g minus `removed` into the caller's lists.

    Run to the end, it gives every kept vertex a 0/1 colour from its BFS
    tree even when the graph is not bipartite; removed vertices stay None.
    Yields each monochromatic edge (u, w) when the search meets it, from
    u's side: both ends have their final colour, parent and depth then, so
    the tree cycle of the edge is fixed.  A monochromatic edge is met once
    from each end.
    """
    gone = set(removed)
    nbrs = g._nbrs
    for start in range(g.n):
        if start in gone or color[start] is not None:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            cu = color[u]
            for w in nbrs[u]:
                if w in gone:
                    continue
                cw = color[w]
                if cw is None:
                    color[w] = 1 - cu
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
                elif cw == cu:
                    yield u, w


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
    for u, w in _colour_conflicts(g, removed, color, parent, depth):
        return None, _tree_cycle(parent, depth, u, w)
    return color, None


def is_bipartite_without(g: SimpleGraph, removed: Iterable[int] = ()) -> bool:
    return two_coloring(g, removed)[1] is None


def odd_cycle_census(g: SimpleGraph, removed: Iterable[int] = ()) \
        -> dict[int, int] | None:
    """Count, per vertex, the BFS odd-cycle witnesses it lies on.

    Every monochromatic edge under the BFS colouring that pushes past
    conflicts contributes one BFS-tree cycle.  Returns None when the
    remainder is bipartite.
    """
    color: list[int | None] = [None] * g.n
    parent = [-1] * g.n
    depth = [0] * g.n
    counts: dict[int, int] = {}
    for u, w in _colour_conflicts(g, removed, color, parent, depth):
        if u < w:  # each edge once
            for x in _tree_cycle(parent, depth, u, w):
                counts[x] = counts.get(x, 0) + 1
    return counts or None
