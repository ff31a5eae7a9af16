"""Finite ordered sets on a dense boolean incidence matrix.

Construction always applies the reflexive-transitive closure to the given
generator pairs and rejects cycles, so every `OrderRelation` in the system
is a genuine order.  Elements are referred to by string label at the API
surface and by dense integer id (position in the ground set) in the
algorithmic code paths.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CycleError, GroundMismatch, NotLinear, UnknownLabel

Pair = tuple[str, str]
IdPair = tuple[int, int]


class GroundSet:
    """Ordered universe of distinct element labels with ids 0..n-1."""

    __slots__ = ("labels", "index")

    def __init__(self, labels: Iterable[str]):
        self.labels: tuple[str, ...] = tuple(labels)
        self.index: dict[str, int] = {}
        for i, lab in enumerate(self.labels):
            if lab in self.index:
                raise ValueError(f"duplicate label {lab!r}")
            self.index[lab] = i

    def id(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"


def transitive_closure(matrix: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean relation.

    Squares the reflexive relation, (f @ f) > 0 on float32 copies, until
    the number of true entries stops growing: after k squarings every path
    of up to 2^k arcs is closed, so about log2(n) BLAS products suffice.
    Each entry of f @ f counts the paths of two arcs, at most n < 2^24, so
    float32 holds it exactly.  The temporaries are a float32 copy and its
    float32 product, about 9 n^2 bytes with the boolean result.
    """
    m = np.array(matrix, dtype=bool)
    np.fill_diagonal(m, True)
    count = np.count_nonzero(m)
    while True:
        f = m.astype(np.float32)
        m = (f @ f) > 0
        # a reflexive relation only grows when squared, so equal counts
        # mean an equal relation
        grown = np.count_nonzero(m)
        if grown == count:
            return m
        count = grown


def is_linear_order(m: np.ndarray) -> bool:
    """True iff the square boolean relation m is a reflexive linear order.

    Total (m | m.T all true, the diagonal included) with exactly
    n + n(n-1)/2 true entries is antisymmetric as well, a tournament off
    the diagonal; a tournament is transitive iff its score sequence is
    0..n-1.  Both counts come from the column sums (each 1 + the number of
    elements below): sorted, they must be exactly 1..n.  O(n^2) work and no
    closure.
    """
    n = m.shape[0]
    return bool((m | m.T).all()
                and (np.sort(m.sum(axis=0)) == np.arange(1, n + 1)).all())


class OrderRelation:
    """A reflexive, antisymmetric, transitive relation on a GroundSet.

    Instances are immutable; the incidence matrix is dense boolean and
    always transitively closed.  Use :func:`build_order` to construct one
    from generator pairs.
    """

    __slots__ = ("ground", "_leq")

    def __init__(self, ground: GroundSet, leq: np.ndarray):
        self.ground = ground
        m = np.array(leq, dtype=bool)
        m.setflags(write=False)
        self._leq = m

    @property
    def n(self) -> int:
        return len(self.ground)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only boolean incidence; matrix[i, j] means i <= j."""
        return self._leq

    def le(self, a: str, b: str) -> bool:
        return bool(self._leq[self.ground.id(a), self.ground.id(b)])

    def lt(self, a: str, b: str) -> bool:
        i, j = self.ground.id(a), self.ground.id(b)
        return i != j and bool(self._leq[i, j])

    def lt_ids(self, i: int, j: int) -> bool:
        return i != j and bool(self._leq[i, j])

    def incomparable(self, a: str, b: str) -> bool:
        return self.incomparable_ids(self.ground.id(a), self.ground.id(b))

    def incomparable_ids(self, i: int, j: int) -> bool:
        return i != j and not self._leq[i, j] and not self._leq[j, i]

    def is_linear(self) -> bool:
        return is_linear_order(self._leq)

    def strict_pair_count(self) -> int:
        """Number of pairs a < b with a != b."""
        return int(self._leq.sum()) - self.n

    def validate(self) -> None:
        """Raise ValueError unless reflexive, antisymmetric and closed."""
        m = self._leq
        n = self.n
        if m.shape != (n, n):
            raise ValueError("incidence shape does not match ground set")
        if not m.diagonal().all():
            raise ValueError("relation is not reflexive")
        eye = np.eye(n, dtype=bool)
        if ((m & m.T) & ~eye).any():
            raise ValueError("relation is not antisymmetric")
        if (transitive_closure(m) != m).any():
            raise ValueError("relation is not transitively closed")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OrderRelation)
                and self.ground == other.ground
                and bool((self._leq == other._leq).all()))

    def __hash__(self) -> int:
        return hash((self.ground, self._leq.tobytes()))

    def __repr__(self) -> str:
        return f"OrderRelation({self.n} elements, {self.strict_pair_count()} strict pairs)"


def _bfs_path(adj: list[list[int]], src: int, dst: int) -> list[int]:
    """Shortest arc path src -> dst; assumes one exists."""
    parent = {src: -1}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            path = [u]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            return path[::-1]
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    raise AssertionError("no path despite closure hit")


def _raise_on_cycle(closed: np.ndarray, generators: np.ndarray, ground: GroundSet) -> None:
    n = closed.shape[0]
    eye = np.eye(n, dtype=bool)
    bad = closed & closed.T & ~eye
    if not bad.any():
        return
    i, j = (int(x) for x in np.argwhere(bad)[0])
    adj = [[int(w) for w in np.flatnonzero(generators[v]) if w != v] for v in range(n)]
    walk = _bfs_path(adj, i, j) + _bfs_path(adj, j, i)[1:]
    raise CycleError([ground.label(v) for v in walk])


def build_order(labels: Iterable[str], pairs: Iterable[Pair]) -> OrderRelation:
    """Order generated by `pairs` over `labels`.

    The pairs are generators, not the full relation: the reflexive-transitive
    closure is applied.  Raises CycleError (with a witness cycle) if the
    pairs are cyclic, UnknownLabel if a pair mentions an undeclared element,
    and ValueError for an empty or duplicated ground set.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("ground set must not be empty")
    ground = GroundSet(labels)
    n = len(ground)
    m = np.eye(n, dtype=bool)
    for a, b in pairs:
        m[ground.id(a), ground.id(b)] = True
    closed = transitive_closure(m)
    _raise_on_cycle(closed, m, ground)
    return OrderRelation(ground, closed)


def cover_relation(o: OrderRelation) -> frozenset[Pair]:
    """Pairs a < b with nothing strictly between (the diagram edges)."""
    strict = o.matrix.astype(np.float32)
    np.fill_diagonal(strict, 0)
    # one BLAS product counts the elements strictly between each pair
    cov = (strict > 0) & ((strict @ strict) == 0)
    lab = o.ground.labels
    return frozenset((lab[i], lab[j]) for i, j in np.argwhere(cov).tolist())


def incomparable_pairs(o: OrderRelation) -> frozenset[Pair]:
    """All ordered pairs (a, b), a != b, with neither a <= b nor b <= a."""
    lab = o.ground.label
    return frozenset((lab(i), lab(j)) for i, j in inc_id_pairs(o))


def inc_id_arrays(o: OrderRelation) -> tuple[np.ndarray, np.ndarray]:
    """First and second ids of the incomparable ordered pairs, in
    lexicographic order."""
    return np.nonzero(~(o.matrix | o.matrix.T))


def inc_id_pairs(o: OrderRelation) -> list[IdPair]:
    """Incomparable ordered id pairs in lexicographic order."""
    firsts, seconds = inc_id_arrays(o)
    return list(zip(firsts.tolist(), seconds.tolist()))


class LinearExtension:
    """A linear order plus its rank function (position 0..n-1 per id)."""

    __slots__ = ("order", "ranks")

    def __init__(self, order: OrderRelation):
        if not is_linear_order(order.matrix):
            raise NotLinear("relation is not a linear order")
        self.order = order
        # rank = number of strictly smaller elements
        self.ranks: tuple[int, ...] = tuple(int(c) - 1 for c in order.matrix.sum(axis=0))

    def sequence(self) -> tuple[str, ...]:
        """Labels from bottom to top."""
        by_rank = sorted(range(len(self.ranks)), key=self.ranks.__getitem__)
        return tuple(self.order.ground.label(i) for i in by_rank)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearExtension) and self.order == other.order

    def __repr__(self) -> str:
        return "LinearExtension(" + " < ".join(self.sequence()) + ")"


def linear_from_sequence(ground: GroundSet,
                         seq: Sequence[int | str]) -> LinearExtension:
    """Linear extension placing elements (ids or labels) bottom to top."""
    ids = [ground.id(x) if isinstance(x, str) else x for x in seq]
    if sorted(ids) != list(range(len(ground))):
        raise ValueError("sequence must mention every element exactly once")
    ranks = np.empty(len(ids), dtype=int)
    for pos, i in enumerate(ids):
        ranks[i] = pos
    m = ranks[:, None] <= ranks[None, :]
    return LinearExtension(OrderRelation(ground, m))


def intersect_linear(extensions: Iterable[LinearExtension]) -> OrderRelation:
    """Intersection of linear extensions over one ground set."""
    exts = list(extensions)
    if not exts:
        raise ValueError("need at least one linear extension")
    ground = exts[0].order.ground
    m = exts[0].order.matrix.copy()
    for e in exts[1:]:
        if e.order.ground != ground:
            raise GroundMismatch("extensions on different ground sets")
        m &= e.order.matrix
    return OrderRelation(ground, m)


# ---------------------------------------------------------------------------
# standard example families


def chain(n: int) -> OrderRelation:
    """Total order x1 < x2 < ... < xn."""
    if n < 1:
        raise ValueError("n must be positive")
    labels = [f"x{i}" for i in range(1, n + 1)]
    return build_order(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def antichain(n: int) -> OrderRelation:
    """n pairwise incomparable elements."""
    if n < 1:
        raise ValueError("n must be positive")
    return build_order([f"x{i}" for i in range(1, n + 1)], [])


def standard_example(n: int) -> OrderRelation:
    """Elements a1..an, b1..bn with ai < bj exactly when i != j.

    The classic family whose order dimension is n (for n >= 3); handy as a
    hard test input because no pair ai, bi is comparable.
    """
    if n < 1:
        raise ValueError("n must be positive")
    labels = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
    pairs = [(f"a{i}", f"b{j}")
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return build_order(labels, pairs)


def _subset_label(mask: int) -> str:
    return "{" + ",".join(str(b + 1) for b in range(mask.bit_length()) if mask >> b & 1) + "}"


def boolean_lattice(n: int) -> OrderRelation:
    """Subsets of {1..n} ordered by inclusion, labeled like '{1,3}'."""
    if n < 0:
        raise ValueError("n must be >= 0")
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    labels = [_subset_label(m) for m in masks]
    pairs = [(_subset_label(m), _subset_label(m | (1 << b)))
             for m in masks for b in range(n) if not m >> b & 1]
    return build_order(labels, pairs)


def grid(rows: int, cols: int) -> OrderRelation:
    """Product of two chains; element i,j is below i',j' componentwise."""
    if rows < 1 or cols < 1:
        raise ValueError("grid sides must be positive")
    labels = [f"{i},{j}" for i in range(1, rows + 1) for j in range(1, cols + 1)]
    pairs = []
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if i < rows:
                pairs.append((f"{i},{j}", f"{i + 1},{j}"))
            if j < cols:
                pairs.append((f"{i},{j}", f"{i},{j + 1}"))
    return build_order(labels, pairs)
