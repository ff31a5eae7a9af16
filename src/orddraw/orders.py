"""Finite ordered sets on integer bitsets.

An order on n elements is two tuples of Python ints: `up[i]` has bit j set
when i <= j (the elements above i, i included) and `down[j]` has bit i set
when i <= j (the elements below j).  An `OrderRelation` is a frozen
record built as `OrderRelation(ground, up, down)` with both masks, which
are always transitively closed, so the set operations of the pipeline
(incomparable pairs, inserting a pair, the conjugate test) are a few word
operations per element.
The builders (`build_order`, `linear_from_sequence` and the readers of
`orddraw.ingest`) all hand their generator rows to one step,
`_close_generators`, which closes the rows into both masks in one sweep of
Kahn's topological sort.  A sort that cannot order every element has met a
cycle, which one walk over the rows names, so every order they build is a
genuine order and a cyclic input costs one sweep and one walk.  Elements are
referred to by string label at the API surface and by dense integer id
(position in the ground set) in the algorithmic code paths.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import CycleError, GroundMismatch, NotLinear, UnknownLabel
from .records import Record

Pair = tuple[str, str]
IdPair = tuple[int, int]


def bits(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative mask, lowest first."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def mask_of(positions: Iterable[int]) -> int:
    """The mask with the given bits set; the inverse of bits."""
    mask = 0
    for i in positions:
        mask |= 1 << i
    return mask


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


def transitive_closure(rows: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """Reflexive-transitive closure of a relation given by row masks (bit j
    of rows[i]: i relates to j), as `(up, down)`: the closure's row masks
    and its column masks (bit i of down[j]: i relates to j).  None when the
    relation has a cycle (loops i -> i aside), which no order contains.

    The relation is closed against one topological order (Kahn's
    algorithm), with each row walked once: `down` is pushed forward while
    the order is built (an element's column is complete once it is
    reached, so it is ORed into each successor's), and `up` is closed in
    reverse order (each row is its own bit ORed with the closed rows of
    its successors).  That is about one OR per generator pair and
    direction.  The elements on a cycle, and those above one, never reach
    indegree 0, so the sort orders fewer than n exactly when there is one.
    """
    n = len(rows)
    succ = [bits(row & ~(1 << i)) for i, row in enumerate(rows)]
    indegree = [0] * n
    for heads in succ:
        for w in heads:
            indegree[w] += 1
    order = [v for v in range(n) if not indegree[v]]
    down = [1 << v for v in range(n)]
    for v in order:  # grows while it is walked
        col = down[v]
        for w in succ[v]:
            down[w] |= col
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    if len(order) < n:
        return None
    up = [0] * n
    for v in reversed(order):
        row = 1 << v
        for w in succ[v]:
            row |= up[w]
        up[v] = row
    return up, down


def is_linear_order(rows: Sequence[int]) -> bool:
    """True iff the square relation with row masks `rows` is a reflexive
    linear order.

    Sorted by size, the rows of a linear order are nested: each is the
    row before it plus its own bit, starting from the top element's own
    bit.  Checking that takes O(n log n) work and no closure.
    """
    above = 0
    sizes = list(map(int.bit_count, rows))
    for i in sorted(range(len(rows)), key=sizes.__getitem__):
        above |= 1 << i
        if rows[i] != above:
            return False
    return True


class OrderRelation(Record):
    """A reflexive, antisymmetric, transitive relation on a GroundSet.

    Built as `OrderRelation(ground, up, down)` with both masks, always
    transitively closed: `up[i]` is the mask of the elements j with
    i <= j, `down[j]` the mask of the i with i <= j, so `down` is the
    transpose of `up`.  A frozen record; two orders are equal when their
    ground sets and up masks are.  Use :func:`build_order` to construct an
    order from generator pairs.
    """

    __slots__ = ("ground", "up", "down")

    def __init__(self, ground: GroundSet, up: Iterable[int], down: Iterable[int]):
        self._fill(ground, tuple(up), tuple(down))

    def _key(self) -> tuple:
        return self.ground, self.up

    @property
    def n(self) -> int:
        return len(self.ground)

    @property
    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        """The incidence as rows of booleans; matrix[i][j] means i <= j."""
        n = self.n
        return tuple(tuple(row >> j & 1 == 1 for j in range(n)) for row in self.up)

    def lt(self, a: str, b: str) -> bool:
        return self.lt_ids(self.ground.id(a), self.ground.id(b))

    def lt_ids(self, i: int, j: int) -> bool:
        return i != j and self.up[i] >> j & 1 == 1

    def incomparable_ids(self, i: int, j: int) -> bool:
        return i != j and not (self.up[i] >> j & 1 or self.up[j] >> i & 1)

    def is_linear(self) -> bool:
        return is_linear_order(self.up)

    def strict_pair_count(self) -> int:
        """Number of pairs a < b with a != b."""
        return sum(row.bit_count() for row in self.up) - self.n

    def __repr__(self) -> str:
        return f"OrderRelation({self.n} elements, {self.strict_pair_count()} strict pairs)"


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
    generators = [0] * len(ground)
    for a, b in pairs:
        generators[ground.id(a)] |= 1 << ground.id(b)
    return _close_generators(ground, generators)


def _close_generators(ground: GroundSet, generators: list[int]) -> OrderRelation:
    """The order generated on `ground` by the generator rows (bit j of
    generators[i]: a pair i < j; bit i of generators[i] adds nothing).

    Every builder that starts from generators returns through this step:
    one `transitive_closure` sweep, against one topological order, gives
    both `up` and `down`.  Raises CycleError with `_cycle_witness`'s cycle
    when the sweep finds the rows cyclic."""
    closed = transitive_closure(generators)
    if closed is None:
        raise CycleError([ground.label(v) for v in _cycle_witness(generators)])
    return OrderRelation(ground, *closed)


def _cycle_witness(generators: Sequence[int]) -> list[int]:
    """A simple cycle along the generator pairs of cyclic rows, as ids
    from its lowest element round to it again.

    A depth-first search from the lowest id, taking each element's
    successors lowest first, stops at the first successor that is on its
    path: the path from there closes the cycle.  Each element is entered
    once and each pair looked at once, so the walk takes O(n + pairs)
    steps.  On rows with one cycle the witness is that cycle from its
    lowest element."""
    state = bytearray(len(generators))  # 0 unseen, 1 on the path, 2 finished
    for root in range(len(generators)):
        if state[root]:
            continue
        path, rests = [root], [generators[root] & ~(1 << root)]
        state[root] = 1
        while path:
            rest = rests[-1]
            if not rest:
                state[path.pop()] = 2
                rests.pop()
                continue
            low = rest & -rest
            rests[-1] = rest ^ low
            w = low.bit_length() - 1
            if state[w] == 1:
                cycle = path[path.index(w):]
                k = cycle.index(min(cycle))
                return cycle[k:] + cycle[:k + 1]
            if not state[w]:
                path.append(w)
                rests.append(generators[w] & ~low)
                state[w] = 1
    raise AssertionError("no cycle in rows that Kahn's sort could not order")


def _upper_covers(o: OrderRelation) -> list[list[int]]:
    """Per element id a, the ids of the elements that cover a.

    The covers of a are the minimal elements of the set strictly above a.
    From the highest-id candidate, stepping to the highest-id candidate
    strictly below, while there is one, ends at a minimal one: a cover.
    Everything above that cover is then not minimal and leaves the
    candidates, so each step either descends or finds a new cover, and no
    cover of a lies above another.  (An element above a and strictly below
    a candidate is itself one: were it above a cover found, so would the
    candidate be.)  This is the one cover walk of the package:
    cover_relation names its pairs and build_tig folds along them.
    """
    up = o.up
    strictly_below = [col & ~(1 << i) for i, col in enumerate(o.down)]
    covers = []
    for a, row in enumerate(up):
        rest, found = row & ~(1 << a), []
        while rest:
            c = rest.bit_length() - 1
            lower = strictly_below[c] & rest
            while lower:
                c = lower.bit_length() - 1
                lower = strictly_below[c] & rest
            found.append(c)
            rest &= ~up[c]
        covers.append(found)
    return covers


def cover_relation(o: OrderRelation) -> frozenset[Pair]:
    """Pairs a < b with nothing strictly between (the diagram edges): the
    labels of _upper_covers' id pairs."""
    lab = o.ground.labels
    return frozenset((x, lab[c]) for x, found in zip(lab, _upper_covers(o)) for c in found)


def incomparable_masks(o: OrderRelation) -> list[int]:
    """Per element a, the mask of the elements incomparable to it."""
    full = (1 << o.n) - 1
    return [full & ~(u | d) for u, d in zip(o.up, o.down)]


def inc_id_pairs(o: OrderRelation) -> list[IdPair]:
    """Incomparable ordered id pairs in lexicographic order."""
    return [(a, b) for a, mask in enumerate(incomparable_masks(o)) for b in bits(mask)]


class LinearExtension:
    """A linear order plus its rank function (position 0..n-1 per id)."""

    __slots__ = ("order", "ranks")

    def __init__(self, order: OrderRelation):
        if not order.is_linear():
            raise NotLinear("relation is not a linear order")
        self.order = order
        # rank = number of strictly smaller elements
        sizes = map(int.bit_count, order.up)
        self.ranks: tuple[int, ...] = tuple(map(order.n.__sub__, sizes))

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
    """Linear extension placing elements (ids or labels) bottom to top: the
    order that the chain of each element below the next one generates."""
    ids = [ground.id(x) if isinstance(x, str) else x for x in seq]
    if sorted(ids) != list(range(len(ground))):
        raise ValueError("sequence must mention every element exactly once")
    successors = [0] * len(ids)
    for i, j in zip(ids, ids[1:]):
        successors[i] = 1 << j
    return LinearExtension(_close_generators(ground, successors))


def intersect_linear(extensions: Iterable[LinearExtension]) -> OrderRelation:
    """Intersection of linear extensions over one ground set."""
    exts = list(extensions)
    if not exts:
        raise ValueError("need at least one linear extension")
    ground = exts[0].order.ground
    up, down = list(exts[0].order.up), list(exts[0].order.down)
    for e in exts[1:]:
        if e.order.ground != ground:
            raise GroundMismatch("extensions on different ground sets")
        up = [a & b for a, b in zip(up, e.order.up)]
        down = [a & b for a, b in zip(down, e.order.down)]
    return OrderRelation(ground, up, down)


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
