"""Shared brute-force oracles and generators used across the test suite,
and `failing_after`, the timer that caps a test's running time.

Everything here is deliberately naive and independent of the library's fast
paths, so the two can disagree only when one of them is wrong.
"""

import contextlib
import itertools
import json
import math
import random
import signal
from collections import defaultdict, deque
from fractions import Fraction

import networkx as nx
import numpy as np

from orddraw import graphs
from orddraw.bipartization import MAX_TRANSVERSALS, _clique_bound, _lazy_product
from orddraw.errors import ParseError
from orddraw.graphs import SimpleGraph
from orddraw.ingest import FormalContext, _lines
from orddraw.orders import (GroundSet, OrderRelation, _close_generators, bits,
                            intersect_linear, linear_from_sequence)


def dense(o: OrderRelation) -> np.ndarray:
    """The boolean incidence matrix of o; dense(o)[i, j] means i <= j."""
    return np.array(o.matrix, dtype=bool).reshape(o.n, o.n)


def graph_from_edges(n: int, edges=()) -> SimpleGraph:
    """The graph on vertices 0..n-1 with the given undirected edges; an
    edge may come in either direction and more than once."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return SimpleGraph(masks)


def row_masks(matrix) -> list[int]:
    """Row i of a square boolean matrix as an int with bit j = matrix[i, j]."""
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in np.asarray(matrix, dtype=bool)]


def order_from_matrix(ground: GroundSet, matrix) -> OrderRelation:
    """The OrderRelation whose incidence is the given (closed) boolean matrix."""
    m = np.asarray(matrix, dtype=bool)
    return OrderRelation(ground, row_masks(m), row_masks(m.T))


def blas_closure(matrix) -> np.ndarray:
    """Reflexive-transitive closure by repeated float32 BLAS squaring,
    (f @ f) > 0, until the count of true entries stops growing; the dense
    closure the bitset `transitive_closure` replaced."""
    m = np.array(matrix, dtype=bool)
    np.fill_diagonal(m, True)
    count = np.count_nonzero(m)
    while True:
        f = m.astype(np.float32)
        m = (f @ f) > 0
        grown = np.count_nonzero(m)
        if grown == count:
            return m
        count = grown


def cover_relation_by_blas(o: OrderRelation) -> frozenset:
    """Cover pairs from one float32 product counting the elements strictly
    between each pair; the dense cover relation the bitset one replaced."""
    strict = dense(o).astype(np.float32)
    np.fill_diagonal(strict, 0)
    cov = (strict > 0) & ((strict @ strict) == 0)
    lab = o.ground.labels
    return frozenset((lab[i], lab[j]) for i, j in np.argwhere(cov).tolist())


def dense_tig(o: OrderRelation):
    """(vertices, adjacency matrix) of the incompatibility graph of o from
    two gathers of the <= matrix, reach[i, j] = second of i <= first of j,
    ANDed with its transpose; the dense build the bitset build_tig replaced."""
    m = dense(o)
    firsts, seconds = np.nonzero(~(m | m.T))
    reach = m[seconds][:, firsts]
    return tuple(zip(firsts.tolist(), seconds.tolist())), reach & reach.T


def dense_is_linear_order(m) -> bool:
    """Total, and column sums exactly 1..n (a tournament is transitive iff
    its scores are 0..n-1)."""
    m = np.asarray(m, dtype=bool)
    n = m.shape[0]
    return bool((m | m.T).all()
                and (np.sort(m.sum(axis=0)) == np.arange(1, n + 1)).all())


def dense_conjugate(o: OrderRelation):
    """compute_conjugate_order on boolean matrices: the orientation that
    forces every implication class of the incomparability graph, kept only
    if both unions with <= are linear; None otherwise."""
    from orddraw.orientation import _force_classes
    m = dense(o)
    forced = _force_classes(row_masks(~(m | m.T)))
    if forced is None:
        return None
    conj = np.array([[bool(row >> j & 1) for j in range(o.n)] for row in forced[0]],
                    dtype=bool).reshape(o.n, o.n) | np.eye(o.n, dtype=bool)
    if not (dense_is_linear_order(m | conj) and dense_is_linear_order(m | conj.T)):
        return None
    return order_from_matrix(o.ground, conj)


def dense_insert(current: OrderRelation, new_pairs):
    """(closed matrix, inserted pairs, closure-added pairs) of current plus
    new_pairs taken in sorted order: a pair whose reverse holds is skipped,
    any other is set and the matrix closed by BLAS; the dense reference for
    the bitset `engine._insert`."""
    m = dense(current)
    kept = set()
    for a, b in sorted(new_pairs):
        if m[b, a]:
            continue
        m[a, b] = True
        m = blas_closure(m)
        kept.add((a, b))
    union = dense(current)
    for a, b in kept:
        union[a, b] = True
    return m, frozenset(kept), frozenset(map(tuple, np.argwhere(m & ~union).tolist()))


def dense_false_pairs(d) -> list:
    """The false comparabilities of a drawing by one grid-dominance matrix
    ANDed with the incomparability matrix; the reference for the extension
    trace's inserted and closure-added pairs."""
    o = d.order
    grid_pos = np.array([d.coords[label] for label in o.ground]).reshape(o.n, 2)
    c1, c2 = grid_pos[:, 0], grid_pos[:, 1]
    below = (c1[:, None] < c1[None, :]) & (c2[:, None] < c2[None, :])
    m = dense(o)
    return [(o.ground.label(int(a)), o.ground.label(int(b)))
            for a, b in np.argwhere(below & ~(m | m.T))]


def warshall_closure(matrix) -> np.ndarray:
    """Reflexive-transitive closure by Warshall's n outer-product sweeps."""
    m = np.array(matrix, dtype=bool)
    n = m.shape[0]
    m |= np.eye(n, dtype=bool)
    for k in range(n):
        # anything reaching k reaches everything k reaches
        m |= np.outer(m[:, k], m[k, :])
    return m


def closure_masks(closed):
    """What `transitive_closure` returns for a relation whose reflexive-
    transitive closure is the boolean matrix `closed`: None when two
    distinct elements reach each other (the relation has a cycle), else the
    closure's row masks and column masks."""
    closed = np.asarray(closed, dtype=bool)
    if (closed & closed.T & ~np.eye(len(closed), dtype=bool)).any():
        return None
    return row_masks(closed), row_masks(closed.T)


@contextlib.contextmanager
def failing_after(seconds):
    """Raise TimeoutError inside the block once `seconds` have passed, and
    again every 10 ms until it ends (where the platform has interval
    timers), so a runaway loop fails, not hangs, even when one alarm lands
    in a gc callback, where the exception is only reported."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.01)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rational_plane(d) -> dict:
    """The drawing's plane points as exact rationals, plane / denominator."""
    return {label: (Fraction(x, d.denominator), Fraction(y, d.denominator))
            for label, (x, y) in d.plane.items()}


def with_rational_plane(d, plane: dict, **changes):
    """A copy of d whose points are the rationals `plane`, held as integers
    over their least common denominator, with other fields changed too."""
    den = math.lcm(*(Fraction(c).denominator for p in plane.values() for c in p))
    return d.replace(plane={label: (int(x * den), int(y * den))
                            for label, (x, y) in plane.items()},
                     denominator=den, **changes)


def drawing_to_json_by_dumps(d) -> str:
    """The drawing document built as a dict and written by json.dumps,
    each plane coordinate the float of its exact rational."""
    from orddraw.engine import perturbed_labels
    plane = rational_plane(d)
    doc = {
        "elements": [
            {
                "label": label,
                "grid": list(d.coords[label]),
                "plane": [float(plane[label][0]), float(plane[label][1])],
            }
            for label in d.order.ground
        ],
        "cover_edges": [list(e) for e in d.cover_edges],
        "inserted_pairs": [list(e) for e in d.trace.inserted_labels()],
        "passes": d.trace.passes,
        "strategy": d.trace.strategy,
        "false_comparabilities": len(dense_false_pairs(d)),
        "perturbed": list(perturbed_labels(d)),
    }
    return json.dumps(doc, indent=2) + "\n"


def random_order(rng: random.Random, n: int, density: float | None = None) -> OrderRelation:
    """Random order on n elements: random DAG edges over a shuffled base, closed."""
    if density is None:
        density = rng.uniform(0.0, 0.9)
    perm = list(range(n))
    rng.shuffle(perm)
    m = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                m[perm[i], perm[j]] = True
    return order_from_matrix(GroundSet([f"x{i}" for i in range(n)]),
                             warshall_closure(m))


def brute_concepts(ctx) -> set[frozenset[int]]:
    """Extents of the concepts of a FormalContext, as sets of object indices,
    found by closing every subset A of its objects: A'' is the set of objects
    having every attribute that all of A share."""
    objects = range(len(ctx.objects))
    attributes = range(len(ctx.attributes))
    extents = set()
    for size in range(len(ctx.objects) + 1):
        for subset in itertools.combinations(objects, size):
            shared = [m for m in attributes if all(ctx.incidence[g][m] for g in subset)]
            extents.add(frozenset(g for g in objects
                                  if all(ctx.incidence[g][m] for m in shared)))
    return extents


def parse_order_text_reference(text: str) -> OrderRelation:
    """Read an order from `a < b` lines, giving each label its id through a
    `note` closure and a `try/except KeyError` around the lookup of a
    line's two labels, and filling the generator rows as the lines are
    read: the reference that `ingest.parse_order_text` is tested against.

    Blank lines and `#` comments are skipped.  An optional
    `elements: a b c` line declares labels up front (useful for isolated
    elements); otherwise labels are collected in order of appearance.
    `a < a` lines are allowed and add nothing.
    """
    index: dict[str, int] = {}  # label -> id, in order of appearance
    generators: list[int] = []  # bit j of generators[i]: a line i < j

    def note(labels) -> None:
        """Give each label not seen before the next id, with no pairs yet."""
        for label in labels:
            index.setdefault(label, len(index))
        generators.extend([0] * (len(index) - len(generators)))

    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            labels = line[len("elements:"):].split()
            if "<" in labels:
                raise ParseError(lineno, "'<' cannot be used as a label")
            note(labels)
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "<":
            raise ParseError(lineno, f"expected 'a < b', got {line!r}")
        a, _, b = tokens
        if a == "<" or b == "<":
            raise ParseError(lineno, "'<' cannot be used as a label")
        try:
            i, j = index[a], index[b]
        except KeyError:
            note((a, b))
            i, j = index[a], index[b]
        generators[i] |= 1 << j
    if not index:
        raise ParseError(0, "no elements found")
    return _close_generators(GroundSet(index), generators)


def parse_cxt_reference(text: str) -> FormalContext:
    """Read a context in Burmeister .cxt format with one cursor that three
    closures share, line by line: the reference that `ingest.parse_cxt` is
    tested against.  It differs from parse_cxt on one shape of file only:
    an integer name line before two counts, a blank line and exactly the
    names and rows, which it reads as the object count.

    The format is a `B` line, two counts (blank lines in between are
    tolerated), one line per object name, one per attribute name, then one
    row of `X`/`.` per object.  `x` is accepted for `X`.  A line between
    `B` and the counts that is not an integer is the context's name, and
    is skipped.  A blank line after the counts is skipped when the file
    holds exactly one line more than the names and rows need, as in the
    common layout; otherwise it is a name, which may be empty.  Lines end
    in LF, CRLF or CR alone, so a name may hold any other character.
    """
    lines = _lines(text)
    pos = 0

    def next_content() -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines):
            line = lines[pos]
            pos += 1
            if line.strip():
                return pos, line
        raise ParseError(len(lines), "unexpected end of file")

    lineno, header = next_content()
    if header.strip() != "B":
        raise ParseError(lineno, f"expected header 'B', got {header.strip()!r}")

    def count(kind: str, lineno: int, raw: str) -> int:
        text = raw.strip()
        try:
            return int(text)
        except ValueError:
            raise ParseError(lineno, f"expected {kind} count, got {text!r}") from None

    lineno, raw = next_content()
    try:
        int(raw)
    except ValueError:  # the context's name
        lineno, raw = next_content()
    n_objects = count("object", lineno, raw)
    lineno, raw = next_content()
    n_attributes = count("attribute", lineno, raw)
    if n_objects < 0 or n_attributes < 0:
        raise ParseError(lineno, "counts must be non-negative")
    if (len(lines) - pos == 2 * n_objects + n_attributes + 1
            and not lines[pos].strip()):
        pos += 1  # the blank line of the common layout

    def take_name(kind: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(len(lines), f"missing {kind} name")
        name = lines[pos]
        pos += 1
        return name

    objects = tuple(take_name("object") for _ in range(n_objects))
    attributes = tuple(take_name("attribute") for _ in range(n_attributes))
    # the table is built from rows already read, so the counts alone cannot
    # make it allocate more than the text holds
    rows = []
    for i in range(n_objects):
        if pos >= len(lines):
            raise ParseError(len(lines), f"missing incidence row for {objects[i]!r}")
        row = lines[pos]
        pos += 1
        if len(row) != n_attributes:
            raise ParseError(pos, f"row for {objects[i]!r} has {len(row)} cells, "
                                  f"expected {n_attributes}")
        for cell in row:
            if cell not in "Xx.":
                raise ParseError(pos, f"unexpected cell {cell!r}")
        rows.append([cell in "Xx" for cell in row])
    return FormalContext(objects, attributes, rows)


def blocked_two_dimensional(blocks: int, size: int, seed: int):
    """Intersection of two seeded linear orders that each list `blocks`
    runs of `size` consecutive ids, runs and ids within them shuffled: each
    run is a module, so the incomparability graph has many implication
    classes (51 for 20 runs of 6 at seed 3, against 1-5 for plain random
    permutations of 100-120 elements)."""
    rng = random.Random(seed)
    ground = GroundSet([f"v{i}" for i in range(blocks * size)])
    extensions = []
    for _ in range(2):
        runs = list(range(blocks))
        rng.shuffle(runs)
        seq = []
        for b in runs:
            run = list(range(b * size, (b + 1) * size))
            rng.shuffle(run)
            seq += run
        extensions.append(linear_from_sequence(ground, seq))
    return intersect_linear(extensions)


def strict_pairs(o: OrderRelation) -> list[tuple[int, int]]:
    m = o.matrix
    return [(i, j) for i in range(o.n) for j in range(o.n)
            if i != j and m[i][j]]


def all_linear_extensions(o: OrderRelation, limit: int | None = None):
    """Yield every linear extension (deterministic backtracking order).

    Intended for small orders; the count is factorial in the worst case.
    `limit` truncates the enumeration when given.
    """
    n = o.n
    strict = dense(o) & ~np.eye(n, dtype=bool)
    pred_mask = [int(sum(1 << int(i) for i in np.flatnonzero(strict[:, j]))) for j in range(n)]
    seq: list[int] = []
    emitted = 0

    def walk(placed: int):
        nonlocal emitted
        if len(seq) == n:
            emitted += 1
            yield linear_from_sequence(o.ground, seq)
            return
        for v in range(n):
            if placed >> v & 1 or (pred_mask[v] & ~placed):
                continue
            seq.append(v)
            yield from walk(placed | (1 << v))
            seq.pop()
            if limit is not None and emitted >= limit:
                return

    yield from walk(0)


def brute_two_realizer(o: OrderRelation) -> bool:
    """Does any pair of linear extensions intersect to exactly o?

    The only possible partner of an extension L1 agrees with o on its
    comparable pairs and reverses L1 on every incomparable pair, so one set
    lookup per extension stands in for the search over all pairs.
    """
    n = o.n
    m = dense(o)
    target = inc = 0
    for i in range(n):
        for j in range(n):
            if i != j and m[i, j]:
                target |= 1 << (i * n + j)
            elif not m[i, j] and not m[j, i]:
                inc |= 1 << (i * n + j)
    masks = set()
    for ext in all_linear_extensions(o):
        r = ext.ranks
        mask = 0
        for i in range(n):
            for j in range(n):
                if r[i] < r[j]:
                    mask |= 1 << (i * n + j)
        masks.add(mask)
    return any(target | (inc & ~m) in masks for m in masks)


def incompatible(p: tuple[int, int], q: tuple[int, int], o: OrderRelation) -> bool:
    """The four-lookup incompatibility rule of two incomparable pairs (see
    the tig module docstring): inserting both closes a cycle iff
    q[1] <= p[0] and p[1] <= q[0]; the definition build_tig is checked
    against."""
    return o.up[q[1]] >> p[0] & 1 == 1 and o.up[p[1]] >> q[0] & 1 == 1


def has_cycle_with(o: OrderRelation, p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Definition-level incompatibility: cycle in the relation with p, q added."""
    n = o.n
    succ = [0] * n
    for i, j in strict_pairs(o):
        succ[i] |= 1 << j
    succ[p[0]] |= 1 << p[1]
    succ[q[0]] |= 1 << q[1]
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if succ[i] & bit:
                succ[i] |= succ[k]
    return any(succ[i] >> i & 1 for i in range(n))


def literally_an_order(matrix: np.ndarray) -> bool:
    eye = np.eye(len(matrix), dtype=bool)
    if not matrix[eye].all():
        return False
    if ((matrix & matrix.T) & ~eye).any():
        return False
    return bool((warshall_closure(matrix) == matrix).all())


def assert_order(o: OrderRelation) -> None:
    """Asserts that o is a well-formed order: n up and n down masks within
    the ground set, each down mask the column of the up masks, and the
    incidence reflexive, antisymmetric and transitively closed."""
    n = o.n
    assert len(o.up) == len(o.down) == n, "mask count does not match the ground set"
    assert not any(mask >> n for mask in o.up + o.down), "a mask reaches past the ground set"
    m = dense(o)
    assert o.down == tuple(row_masks(m.T)), "down masks are not the transpose of the up masks"
    assert literally_an_order(m), "relation is not reflexive, antisymmetric and closed"


def brute_min_extension(o: OrderRelation, dim2_test) -> int:
    """Smallest |C|, C a set of incomparable pairs with (X, <= u C) an order
    of dimension <= 2.  `dim2_test` maps OrderRelation -> bool."""
    base = dense(o)
    inc = [(i, j) for i in range(o.n) for j in range(o.n)
           if i != j and not base[i, j] and not base[j, i]]
    for size in range(len(inc) + 1):
        for combo in itertools.combinations(inc, size):
            m = base.copy()
            for a, b in combo:
                m[a, b] = True
            if not literally_an_order(m):
                continue
            if dim2_test(order_from_matrix(o.ground, m)):
                return size
    raise AssertionError("some extension must reach dimension <= 2")


def downset_steps(o: OrderRelation) -> list[tuple[int, int]]:
    """Every step (S, x) from a down-set S of o to the down-set S + x, as
    (mask, element), the down-sets by size from the empty one, so all the
    steps into S come before the steps out of it.  A linear extension is a
    walk of n steps from the empty set."""
    n = o.n
    m = dense(o)
    below = [sum(1 << i for i in range(n) if i != j and m[i, j]) for j in range(n)]
    steps, downsets, seen = [], [0], {0}
    for s in downsets:  # grows while it is walked
        for x in range(n):
            if not s >> x & 1 and not below[x] & ~s:
                steps.append((s, x))
                if s | 1 << x not in seen:
                    seen.add(s | 1 << x)
                    downsets.append(s | 1 << x)
    return steps


def count_linear_extensions(o: OrderRelation) -> int:
    """The number of linear extensions of o: walks over its down-sets."""
    walks = defaultdict(int, {0: 1})
    for s, x in downset_steps(o):
        walks[s | 1 << x] += walks[s]
    return walks[(1 << o.n) - 1]


def min_false_comparabilities(o: OrderRelation) -> int:
    """The fewest false comparabilities of any two-dimensional extension of
    o: the least number of incomparable pairs of o that two linear
    extensions L1 and L2 of o order alike.  Their intersection is then the
    extension, and every two-dimensional extension is such an intersection.

    For each L1, the best L2 comes from a dynamic program over the
    down-sets of o: L2 is laid from the bottom up, and placing x right
    after the down-set S costs the elements of S that are incomparable to
    x and lie below x in L1.  The work is the number of linear extensions
    times the number of down-set steps, so keep o small.
    """
    n = o.n
    m = dense(o)
    incomparable = [sum(1 << i for i in range(n) if not m[i, j] and not m[j, i])
                    for j in range(n)]
    steps = downset_steps(o)
    nexts = defaultdict(list)
    for s, x in steps:
        nexts[s].append(x)
    full = (1 << n) - 1

    def extensions(s: int, seq: list[int]):
        if s == full:
            yield seq
        for x in nexts[s]:
            yield from extensions(s | 1 << x, seq + [x])

    def best_partner(l1: list[int]) -> int:
        charged, lower = [0] * n, 0  # lower: the elements before x in L1
        for x in l1:
            charged[x] = incomparable[x] & lower
            lower |= 1 << x
        cost = {0: 0}
        for s, x in steps:
            c = cost[s] + (s & charged[x]).bit_count()
            if c < cost.get(s | 1 << x, c + 1):
                cost[s | 1 << x] = c
        return cost[full]

    return min(best_partner(l1) for l1 in extensions(0, []))


def brute_orientation_exists(n: int, edges: list[tuple[int, int]]) -> bool:
    """Backtracking search for a transitive orientation of the given graph."""
    adj = [[False] * n for _ in range(n)]
    order = [tuple(sorted(e)) for e in sorted(set(map(tuple, map(sorted, edges))))]
    for u, v in order:
        adj[u][v] = adj[v][u] = True
    # arcs[(u, v)] = True means u -> v, for u < v edge keys
    arcs: dict[tuple[int, int], bool] = {}

    def arrow(u, v):
        """None if edge uv unoriented, else True iff currently u -> v."""
        key, flip = ((u, v), False) if u < v else ((v, u), True)
        got = arcs.get(key)
        if got is None:
            return None
        return got != flip

    def bad() -> bool:
        for a in range(n):
            for b in range(n):
                if arrow(a, b) is not True:
                    continue
                for c in range(n):
                    if c == a or arrow(b, c) is not True:
                        continue
                    # a -> b -> c forces a -> c along an existing edge
                    if not adj[a][c] or arrow(a, c) is False:
                        return True
        return False

    def rec(i: int) -> bool:
        if i == len(order):
            return not bad()
        e = order[i]
        for direction in (True, False):
            arcs[e] = direction
            if not bad() and rec(i + 1):
                return True
        del arcs[e]
        return False

    return rec(0)


def collinear_points(u, v, w) -> bool:
    """Exact rational oracle: w strictly inside segment uv via parametric t."""
    ux, uy = u
    vx, vy = v
    wx, wy = w
    dx, dy = vx - ux, vy - uy
    if dx == 0 and dy == 0:
        return False
    # solve u + t*(v-u) = w over the rationals if possible
    if dx != 0:
        t = Fraction(wx - ux, dx)
        if uy + t * dy != wy:
            return False
    else:
        if wx != ux:
            return False
        t = Fraction(wy - uy, dy)
    return 0 < t < 1


def naturally_labeled_posets(n: int):
    """Yield strict down-set masks for every naturally labeled poset on 0..n-1."""
    def rec(i, down):
        if i == n:
            yield tuple(down)
            return
        for mask in range(1 << i):
            ok = True
            m = mask
            while m:
                j = (m & -m).bit_length() - 1
                if down[j] & ~mask:
                    ok = False
                    break
                m &= m - 1
            if ok:
                down.append(mask)
                yield from rec(i + 1, down)
                down.pop()

    yield from rec(0, [])


def poset_is_lattice(down: tuple[int, ...], n: int) -> bool:
    below = [down[i] | (1 << i) for i in range(n)]
    above = [0] * n
    for i in range(n):
        for j in range(n):
            if below[j] >> i & 1:
                above[i] |= 1 << j
    for a, b in itertools.combinations(range(n), 2):
        ups = above[a] & above[b]
        downs = below[a] & below[b]
        if not ups or not downs:
            return False
        if not any(ups >> u & 1 and not ups & ~above[u] for u in range(n)):
            return False
        if not any(downs >> d & 1 and not downs & ~below[d] for d in range(n)):
            return False
    return True


def poset_canonical_form(down: tuple[int, ...], n: int) -> int:
    """Canonical bitstring of the strict relation under relabeling."""
    lt = [[bool(down[i] >> j & 1) for i in range(n)] for j in range(n)]
    # lt[j][i]: j strictly below i

    def height(j):
        below = [k for k in range(n) if lt[k][j]]
        return 1 + max((height(k) for k in below), default=0)

    sig = [(height(j), sum(lt[j]), sum(lt[k][j] for k in range(n)))
           for j in range(n)]
    groups: dict[tuple, list[int]] = {}
    for j in range(n):
        groups.setdefault(sig[j], []).append(j)
    pools = [groups[k] for k in sorted(groups)]
    best = -1
    for parts in itertools.product(*[itertools.permutations(p) for p in pools]):
        flat = [x for part in parts for x in part]
        perm = [0] * n
        for newid, old in enumerate(flat):
            perm[old] = newid
        bits = 0
        for j in range(n):
            for i in range(n):
                if lt[j][i]:
                    bits |= 1 << (perm[j] * n + perm[i])
        if bits > best:
            best = bits
    return best


# A 9-element height-1 order on which a legitimate (inclusion-minimal)
# first-pass removal choice forces a second pass: found by seeded search,
# frozen as a regression input.  The scripted removal set is bipartizing
# and inclusion-minimal for the initial incompatibility graph, but the
# reversed insertions create a fresh odd cycle.
MULTIPASS_LABELS = ["l0", "l1", "l2", "l3", "u0", "u1", "u2", "u3", "u4"]
MULTIPASS_RELATIONS = [
    ("l0", "u0"), ("l0", "u1"),
    ("l1", "u1"), ("l1", "u2"), ("l1", "u4"),
    ("l2", "u4"),
    ("l3", "u0"), ("l3", "u1"), ("l3", "u3"), ("l3", "u4"),
]
MULTIPASS_SCRIPTED_REMOVAL = (("u1", "l2"), ("u3", "l1"))


def multipass_order() -> OrderRelation:
    from orddraw.orders import build_order
    return build_order(MULTIPASS_LABELS, MULTIPASS_RELATIONS)


def scripted_then_exact(removal_labels):
    """Strategy whose first call removes exactly the given label pairs.

    Later calls defer to the exact solver.  Returns (strategy, call_log).
    """
    from orddraw.bipartization import OctResult, min_oct_exact
    calls: list[int] = []

    def run(tg):
        calls.append(len(tg.vertices))
        if len(calls) == 1:
            gid = tg.order.ground.id
            removed = frozenset(tg.vertices.index((gid(a), gid(b)))
                                for a, b in removal_labels)
            return OctResult(removed, "scripted", False, {})
        return min_oct_exact(tg.graph)

    return run, calls


def order_from_downsets(down: tuple[int, ...], n: int) -> OrderRelation:
    m = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if down[i] >> j & 1:
                m[j, i] = True
    return order_from_matrix(GroundSet([f"e{i}" for i in range(n)]), m)


def build_tig_by_edge_list(o: OrderRelation):
    """Incompatibility graph of o from the dense adjacency of `dense_tig`
    and a Python list of its upper-triangle edges; the reference for
    build_tig."""
    from orddraw.tig import TigGraph
    verts, adjacency = dense_tig(o)
    edges = [(int(i), int(j)) for i, j in np.argwhere(np.triu(adjacency, 1))]
    return TigGraph(o, verts, graph_from_edges(len(verts), edges))


def brute_force_oct(g, max_vertices=20):
    """Smallest removal set by subset enumeration; the reference for the
    exact search.  Raises TooLarge above `max_vertices` vertices."""
    from orddraw.bipartization import OctResult
    from orddraw.errors import TooLarge
    if g.n > max_vertices:
        raise TooLarge(f"{g.n} vertices exceeds the brute-force bound {max_vertices}")
    tested = 0
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            tested += 1
            if bipartite_without(g, subset):
                return OctResult(frozenset(subset), "brute", True,
                                 {"subsets_tested": tested})
    raise AssertionError("unreachable: removing every vertex is bipartite")


def reference_transversals(g):
    """The sets TransversalSearch(g) lists, in its order, by the search it
    replaced: each bridge block is relabelled to a graph of its own and
    searched with frozenset keys from its disjoint-odd-cycle bound alone,
    every block's sets are listed in full, and the first MAX_TRANSVERSALS
    tuples of their itertools.product give the unions."""
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    cut = {(min(u, w), max(u, w)) for u, w in nx.bridges(ref)}
    rest = [[w for w in bits(g.masks[u]) if (min(u, w), max(u, w)) not in cut]
            for u in range(g.n)]
    seen = [False] * g.n
    blocks = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        found = [root]
        for u in found:
            for w in rest[u]:
                if not seen[w]:
                    seen[w] = True
                    found.append(w)
        vertices = tuple(sorted(found))
        local = {v: i for i, v in enumerate(vertices)}
        h = graph_from_edges(len(found), [(local[u], local[w]) for u in found
                                          for w in rest[u] if u < w])
        if not bipartite_without(h):
            blocks.append((h, vertices))

    def disjoint_odd_cycles(h, removed, limit, known):
        gone, cycles = removed, []
        while len(cycles) <= limit:
            if gone not in known:
                known[gone] = first_odd_cycle(h, gone)
            if known[gone] is None:
                break
            cycles.append(known[gone])
            gone = gone.union(known[gone])
        return cycles

    def block_sets(h, vertices):
        known = {}
        k = len(disjoint_odd_cycles(h, frozenset(), h.n, known))
        while True:
            searched, sets = set(), []

            def search(removed, budget):
                searched.add(removed)
                cycles = disjoint_odd_cycles(h, removed, budget, known)
                if not cycles:
                    sets.append(frozenset(vertices[v] for v in removed))
                elif len(cycles) <= budget:
                    for v in cycles[0]:
                        child = removed | {v}
                        if child not in searched:
                            search(child, budget - 1)

            search(frozenset(), k)
            if sets:
                return sets
            k += 1

    per_block = [block_sets(h, vertices) for h, vertices in blocks]
    return [frozenset().union(*parts) for parts in
            itertools.islice(itertools.product(*per_block), MAX_TRANSVERSALS)]


class WalkOnlySearch:
    """TransversalSearch as it was before its blocks kept a pool of found
    odd cycles: each node counts its disjoint odd cycles by walks alone,
    `graphs.first_odd_cycle` of g minus the removed mask and the cycles
    before it, remembered per mask.  The reference for the pooled search:
    a pool cycle only ever cuts a node that yields nothing, so both list
    the same sets in the same order, with the same `k` and `lower_bound`;
    only `branch_nodes` may differ."""

    def __init__(self, g):
        self.g = g
        self.k = self.lower_bound = self.branch_nodes = 0

    @staticmethod
    def disjoint_odd_cycles(g, removed, limit, known):
        gone, cycles = removed, []
        while len(cycles) <= limit:
            if gone not in known:
                known[gone] = graphs.first_odd_cycle(g, gone)
            if known[gone] is None:
                break
            cycles.append(known[gone][0])
            gone |= known[gone][1]
        return cycles

    def __iter__(self):
        per_block = [self.block(block) for block in graphs.odd_blocks(self.g)]
        for parts in itertools.islice(_lazy_product(per_block), MAX_TRANSVERSALS):
            yield frozenset(bits(sum(parts)))

    def block(self, block):
        g = self.g
        outside = ((1 << g.n) - 1) ^ block
        known = {}
        k = max(len(self.disjoint_odd_cycles(g, outside, g.n, known)),
                _clique_bound(g, block))
        self.lower_bound += k
        while True:
            searched = set()

            def search(removed, budget):
                searched.add(removed)
                self.branch_nodes += 1
                cycles = self.disjoint_odd_cycles(g, removed, budget, known)
                if not cycles:
                    yield removed ^ outside
                elif len(cycles) <= budget:
                    for v in cycles[0]:
                        child = removed | 1 << v
                        if child not in searched:
                            yield from search(child, budget - 1)

            found = search(outside, k)
            first = next(found, None)
            if first is not None:
                self.k += k
                yield first
                yield from found
                return
            k += 1


def kept_graph(g, removed=()):
    """g minus `removed` as a networkx graph on the kept vertex ids."""
    gone = set(removed)
    kept = nx.Graph()
    kept.add_nodes_from(v for v in range(g.n) if v not in gone)
    kept.add_edges_from((u, v) for u, v in g.edges if u not in gone and v not in gone)
    return kept


def greedy_clique_packing(g, block):
    """The sum of t - 2 over the cliques K_t, t >= 4, of the greedy packing
    in the vertex mask `block`, run on every block: each free vertex in
    ascending order roots a clique that grows by the common neighbour with
    the most neighbours among the common neighbours, the lowest on ties.
    The reference for bipartization._clique_bound."""
    free, bound = block, 0
    for v in bits(block):
        if not free >> v & 1:
            continue
        common, clique = bits(g.masks[v] & free), [v]
        while common:
            w = max(common, key=lambda u: (sum(g.masks[u] >> x & 1 for x in common), -u))
            clique.append(w)
            common = [x for x in common if g.masks[w] >> x & 1]
        if len(clique) >= 4:
            bound += len(clique) - 2
            free &= ~sum(1 << x for x in clique)
    return bound


def has_k4_by_networkx(g, block):
    """Whether the subgraph of g on the vertex mask `block` has clique
    number at least 4, by networkx's maximal cliques."""
    sub = kept_graph(g, [v for v in range(g.n) if not block >> v & 1])
    return any(len(clique) >= 4 for clique in nx.find_cliques(sub))


def forced_coloring(g, removed=()):
    """(colors, parent, depth) of a BFS colouring of g minus `removed` that
    pushes past conflicts, read off networkx distances: each component is
    measured from its lowest kept vertex, a kept vertex's depth is its
    distance and its colour the distance's parity, and its parent is its
    lowest neighbour one step closer (-1 at the start).  Removed vertices
    stay None; monochromatic edges are left as they fall."""
    kept = kept_graph(g, removed)
    color = [None] * g.n
    parent = [-1] * g.n
    depth = [0] * g.n
    for component in nx.connected_components(kept):
        distances = nx.single_source_shortest_path_length(kept, min(component))
        for v, d in distances.items():
            color[v], depth[v] = d & 1, d
    for v in kept:
        if depth[v]:
            parent[v] = min(w for w in kept[v] if depth[w] == depth[v] - 1)
    return color, parent, depth


def tree_cycle(parent, depth, u, w):
    """The closed walk of the BFS-tree paths of u and w plus the edge
    (u, w): u's path up to their lowest common ancestor, then w's path
    back down from below it."""
    up, down = [u], [w]
    while depth[up[-1]] > depth[down[-1]]:
        up.append(parent[up[-1]])
    while depth[down[-1]] > depth[up[-1]]:
        down.append(parent[down[-1]])
    while up[-1] != down[-1]:
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    return tuple(up + down[-2::-1])


def odd_cycles_by_distance(g, removed=()):
    """The odd cycles of g minus `removed` that odd_cycles yields, in its
    order: one per kept edge whose ends lie at one depth of forced_coloring,
    its tree cycle from the lower end, ordered by the lowest vertex of the
    component, then the depth, then the lower end, then the upper end."""
    color, parent, depth = forced_coloring(g, removed)
    root = list(range(g.n))
    for v in sorted(range(g.n), key=depth.__getitem__):
        if parent[v] >= 0:
            root[v] = root[parent[v]]
    clashes = sorted((root[u], depth[u], u, w) for u, w in g.edges
                     if color[u] is not None and color[u] == color[w])
    return [tree_cycle(parent, depth, u, w) for _, _, u, w in clashes]


def first_odd_cycle(g, removed=()):
    """The first cycle of odd_cycles_by_distance, None when g minus
    `removed` is bipartite: the lowest clash vertex u of the first layer
    that holds an edge and u's lowest neighbour in that layer, each
    climbing to its lowest neighbour one layer up until the two meet."""
    return next(iter(odd_cycles_by_distance(g, removed)), None)


def odd_cycle_census_after_coloring(g, removed=()):
    """The odd-cycle census read off a finished forced_coloring: for each
    monochromatic kept edge, from its lower end in ascending order, count
    every vertex of its BFS-tree cycle; None when there is no such edge.
    The reference for odd_cycle_census."""
    color, parent, depth = forced_coloring(g, removed)
    counts = {}
    for u in range(g.n):
        if color[u] is None:
            continue
        for v in bits(g.masks[u]):
            if v > u and color[v] == color[u]:
                for x in tree_cycle(parent, depth, u, v):
                    counts[x] = counts.get(x, 0) + 1
    return counts or None


def monochromatic_edges(g, colors):
    """Edges whose ends carry the same 0/1 colour (None = removed)."""
    return sum(1 for u, v in g.edges if colors[u] is not None and colors[u] == colors[v])


def bipartite_without(g, removed=()):
    """Whether g minus `removed` is bipartite: its forced_coloring leaves no
    kept edge monochromatic.  The reference for is_bipartite_without."""
    return monochromatic_edges(g, forced_coloring(g, removed)[0]) == 0


def peel_to_minimal_by_bfs(g, removed):
    """Inclusion-minimal peel by rounds of full two-colourings: drop each
    vertex, in ascending order, whose return leaves the rest bipartite, and
    repeat until a round drops nothing."""
    cur = set(removed)
    changed = True
    while changed:
        changed = False
        for v in sorted(cur):
            rest = cur - {v}
            if bipartite_without(g, rest):
                cur = rest
                changed = True
    return frozenset(cur)


def ascending_sweeps_by_recount(g):
    """(colours, the vertices each sweep moved) of oct_anneal's descent on
    plain lists: start from forced_coloring and sweep every vertex in
    ascending order, recounting a vertex's same-side and other-side
    neighbours before each move, until a sweep moves none (the last list
    is empty)."""
    color = forced_coloring(g)[0]
    sweeps = []
    while not sweeps or sweeps[-1]:
        sweeps.append([])
        for v in range(g.n):
            same = sum(1 for w in bits(g.masks[v]) if color[w] == color[v])
            if same > g.masks[v].bit_count() - same:
                color[v] = 1 - color[v]
                sweeps[-1].append(v)
    return color, sweeps


def anneal_cover_by_recount(g):
    """The cover that oct_anneal peels, on plain lists: the colouring of
    ascending_sweeps_by_recount; then, until no monochromatic edge is left,
    rescan every kept vertex's count of same-side kept neighbours and
    remove the highest (lowest id on ties)."""
    color = ascending_sweeps_by_recount(g)[0]
    cover = set()
    while True:
        degree = {v: sum(1 for w in bits(g.masks[v])
                         if w not in cover and color[w] == color[v])
                  for v in range(g.n) if v not in cover}
        best = max(degree, key=lambda v: (degree[v], -v), default=None)
        if best is None or degree[best] == 0:
            return frozenset(cover)
        cover.add(best)


def anneal_by_recount(g):
    """The removal set of oct_anneal: anneal_cover_by_recount peeled by
    rounds of two-colourings; the reference for oct_anneal."""
    return peel_to_minimal_by_bfs(g, anneal_cover_by_recount(g))


def transitive_orientation_by_sets(g):
    """The arcs of g's implication classes forced one class at a time with
    one Python set per vertex, or None when a class forces an edge both
    ways; the reference for orientation's bitset forcing.  No final check.
    """
    remaining = [set(bits(g.masks[v])) for v in range(g.n)]
    arcs = []
    for seed in g.edges:
        s, t = seed
        if t not in remaining[s]:
            continue
        out = defaultdict(set)
        into = defaultdict(set)
        out[s].add(t)
        into[t].add(s)
        queue = deque([seed])
        while queue:
            a, b = queue.popleft()
            leave = remaining[a] - remaining[b]
            leave.discard(b)
            enter = remaining[b] - remaining[a]
            enter.discard(a)
            if not (leave.isdisjoint(into[a]) and enter.isdisjoint(out[b])):
                return None
            for c in leave - out[a]:
                out[a].add(c)
                into[c].add(a)
                queue.append((a, c))
            for c in enter - into[b]:
                out[c].add(b)
                into[b].add(c)
                queue.append((c, b))
        for x, heads in out.items():
            arcs.extend((x, y) for y in heads)
            remaining[x] -= heads
        for y, tails in into.items():
            remaining[y] -= tails
    return frozenset(arcs)


def solve_by_milp(cnf):
    """A model of `cnf` (signed literals, ascending variables) or None,
    decided by scipy's integer program solver: one row per clause over
    binary variables, the clause's positive literals minus its negative
    ones summing to at least 1 - (number of negative literals)."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    nv = cnf.num_vars
    rows = np.zeros((len(cnf.clauses), nv))
    lower = np.zeros(len(rows))
    for r, cl in enumerate(cnf.clauses):
        for lit in cl:
            rows[r, abs(lit) - 1] += 1 if lit > 0 else -1
        lower[r] = 1 - sum(lit < 0 for lit in cl)
    res = milp(np.zeros(nv), integrality=np.ones(nv), bounds=Bounds(0, 1),
               constraints=LinearConstraint(rows, lower, np.inf))
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return [v if res.x[v - 1] > 0.5 else -v for v in range(1, nv + 1)]


def removal_set(n, model):
    """The vertices of an n-vertex graph that a model of encode_oct's CNF
    removes: those whose removal variable 2n+i+1 is true.  The model lists
    one signed literal per variable, in ascending order."""
    return frozenset(i for i in range(n) if model[2 * n + i] > 0)


def screen_geometry_by_fractions(d, scale, margin):
    """SVG width, height and screen point per label at `scale` units per
    grid step inside `margin`, each float taken of the exact rational
    distance to the plane's left or top edge."""
    plane = rational_plane(d)
    xs = [p[0] for p in plane.values()]
    ys = [p[1] for p in plane.values()]
    min_x, max_y = min(xs), max(ys)
    width = float(max(xs) - min_x) * scale + 2 * margin
    height = float(max_y - min(ys)) * scale + 2 * margin
    screen = {label: (float(x - min_x) * scale + margin,
                      float(max_y - y) * scale + margin)
              for label, (x, y) in plane.items()}
    return width, height, screen
