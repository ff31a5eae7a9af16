"""Tests for transitive orientation, conjugates, and realizers."""

import random

import pytest

from orddraw.errors import GroundMismatch, NotLinear
from orddraw.graphs import SimpleGraph
from orddraw.orders import (OrderRelation, antichain, boolean_lattice,
                            build_order, chain, grid, intersect_linear,
                            standard_example)
import numpy as np

from orddraw import orientation
from orddraw.orders import incomparable_masks, transpose
from orddraw.orientation import (_force_classes, compute_conjugate_order,
                                 realizer_from_conjugate)
from oracles import (blocked_two_dimensional, brute_orientation_exists,
                     graph_from_edges, order_from_matrix, random_order, strict_pairs,
                     transitive_orientation_by_sets)


def cycle_graph(k):
    return graph_from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def transitive_orientation(g):
    """The arcs that the forcing core gives g, or None when it finds no
    transitive orientation."""
    forced = _force_classes(list(g.masks))
    if forced is None:
        return None
    succ, pred = forced
    arcs = frozenset((x, y) for x in range(g.n) for y in range(g.n) if succ[x] >> y & 1)
    assert arcs == frozenset((x, y) for y in range(g.n) for x in range(g.n) if pred[y] >> x & 1)
    return arcs


def is_transitive_orientation(g, arcs):
    """Each edge oriented once, no arc off the edges, and a -> b -> c
    always with a -> c."""
    edges = {frozenset(e) for e in g.edges}
    return (len(arcs) == g.m and {frozenset(a) for a in arcs} == edges
            and all((a, c) in arcs for a, b in arcs for b2, c in arcs if b == b2))


def cocomparability_graph(o):
    return SimpleGraph(incomparable_masks(o))


def lexicographic_sum(skeleton, parts):
    """The order on the pairs (q, i), i an element of parts[q], with
    (q, i) < (r, j) iff q < r in the skeleton, or q = r and i < j in
    parts[q]: each part is a module of the sum."""
    labels = [f"{q}.{i}" for q, part in enumerate(parts) for i in range(part.n)]
    pairs = [(f"{q}.{i}", f"{r}.{j}") for q, r in strict_pairs(skeleton)
             for i in range(parts[q].n) for j in range(parts[r].n)]
    pairs += [(f"{q}.{i}", f"{q}.{j}") for q, part in enumerate(parts)
              for i, j in strict_pairs(part)]
    return build_order(labels, pairs)


def random_sum(rng, depth):
    """A series, parallel or lexicographic sum (over a small two-dimensional
    skeleton) whose parts are chains, antichains, small two-dimensional
    orders or, depth allowing, such sums again; now and then a part is the
    three-dimensional standard example S3, and the sum has no transitive
    orientation."""
    skeleton = rng.choice([chain(2), antichain(2),
                           blocked_two_dimensional(rng.randint(2, 5), 1, rng.randrange(10**6))])
    parts = []
    for _ in range(skeleton.n):
        kind = rng.choices(["sum", "chain", "antichain", "2d", "s3"],
                           [3 if depth > 1 else 0, 2, 2, 2, 0.3])[0]
        if kind == "sum":
            parts.append(random_sum(rng, depth - 1))
        elif kind == "2d":
            parts.append(blocked_two_dimensional(rng.randint(2, 6), 1, rng.randrange(10**6)))
        elif kind == "s3":
            parts.append(standard_example(3))
        else:
            parts.append((chain if kind == "chain" else antichain)(rng.randint(1, 4)))
    return lexicographic_sum(skeleton, parts)


class TestTransitiveOrientation:
    def test_known_graphs(self):
        assert transitive_orientation(cycle_graph(5)) is None
        assert transitive_orientation(cycle_graph(7)) is None
        for g in (cycle_graph(3), cycle_graph(4), cycle_graph(6),
                  graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])):
            arcs = transitive_orientation(g)
            assert arcs is not None
            assert is_transitive_orientation(g, arcs)

    def test_empty_and_edgeless(self):
        assert transitive_orientation(graph_from_edges(0)) == frozenset()
        assert transitive_orientation(graph_from_edges(5)) == frozenset()

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(37)
        yes = no = 0
        for t in range(300):
            n = rng.randint(1, 7) if t % 2 else rng.randint(5, 8)
            p = rng.choice([0.25, 0.35, 0.5, 0.75])
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p]
            g = graph_from_edges(n, edges)
            arcs = transitive_orientation(g)
            expect = brute_orientation_exists(n, edges)
            assert (arcs is not None) == expect, f"n={n} edges={edges}"
            if arcs is None:
                no += 1
            else:
                yes += 1
                assert is_transitive_orientation(g, arcs)
        assert yes > 50 and no > 20, "suite should exercise both outcomes"

    def test_matches_the_set_loop_on_random_graphs(self):
        rng = random.Random(53)
        yes = no = 0
        for _ in range(400):
            n = rng.randint(1, 12)
            p = rng.uniform(0.25, 0.75)
            g = graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p])
            expect = transitive_orientation_by_sets(g)
            assert transitive_orientation(g) == expect, g.edges
            yes += expect is not None
            no += expect is None
        assert yes > 100 and no > 100, "suite should exercise both outcomes"

    def test_matches_the_set_loop_on_cocomparability_graphs(self):
        rng = random.Random(59)
        orders = [random_order(rng, rng.randint(2, 120), rng.uniform(0.05, 0.9))
                  for _ in range(12)]
        # size-1 runs are plain random permutations
        orders += [blocked_two_dimensional(rng.randint(2, 120), 1, seed)
                   for seed in range(12)]
        orders += [blocked_two_dimensional(blocks, size, seed)
                   for seed, (blocks, size) in enumerate([(20, 6), (40, 3), (12, 10), (4, 30)])]
        yes = 0
        for o in orders:
            expect = transitive_orientation_by_sets(cocomparability_graph(o))
            assert transitive_orientation(cocomparability_graph(o)) == expect
            conj = compute_conjugate_order(o)
            if expect is None:
                assert conj is None
            else:
                assert frozenset(strict_pairs(conj)) == expect
                yes += 1
        assert yes >= 16

    def test_matches_the_set_loop_on_sums_of_modules(self):
        # the incomparabilities inside a module and those leaving it fall
        # into different implication classes, so a sum has many classes
        # and later ones start at vertices where earlier ones were settled
        rng = random.Random(61)
        yes = no = 0
        for _ in range(60):
            g = cocomparability_graph(random_sum(rng, 3))
            expect = transitive_orientation_by_sets(g)
            assert transitive_orientation(g) == expect
            yes += expect is not None
            no += expect is None
        assert yes >= 40 and no >= 3, "suite should exercise both outcomes"


class TestConjugate:
    def test_linear_order_has_trivial_conjugate(self):
        conj = compute_conjugate_order(chain(4))
        assert conj is not None
        assert conj.strict_pair_count() == 0

    def test_antichain_conjugate_is_linear(self):
        conj = compute_conjugate_order(antichain(5))
        assert conj is not None
        assert conj.is_linear()

    def test_two_dimensional_families(self):
        for o in (boolean_lattice(2), grid(3, 4), grid(2, 5)):
            conj = compute_conjugate_order(o)
            assert conj is not None
            # comparabilities of the conjugate == incomparabilities of o
            for i in range(o.n):
                for j in range(o.n):
                    if i == j:
                        continue
                    assert (conj.lt_ids(i, j) or conj.lt_ids(j, i)) \
                        == o.incomparable_ids(i, j)

    def test_higher_dimensional_families(self):
        assert compute_conjugate_order(standard_example(3)) is None
        assert compute_conjugate_order(boolean_lattice(3)) is None

    def test_matches_realizer_search_on_random_orders(self):
        from oracles import brute_two_realizer
        rng = random.Random(41)
        for _ in range(150):
            o = random_order(rng, rng.randint(1, 8))
            assert (compute_conjugate_order(o) is not None) \
                == brute_two_realizer(o)

    @staticmethod
    def _edit_first_arc(monkeypatch, edit):
        """Make the forcing core hand back its result with edit(succ, x, y)
        applied to its first arc x -> y."""
        real = orientation._force_classes

        def core(adj):
            succ, _ = real(adj)
            x = next(v for v, mask in enumerate(succ) if mask)
            edit(succ, x, (succ[x] & -succ[x]).bit_length() - 1)
            return succ, transpose(succ)
        monkeypatch.setattr(orientation, "_force_classes", core)

    def test_a_flipped_arc_is_rejected(self, monkeypatch):
        assert compute_conjugate_order(grid(3, 4)) is not None

        def flip(succ, x, y):
            succ[x] ^= 1 << y
            succ[y] |= 1 << x
        self._edit_first_arc(monkeypatch, flip)
        assert compute_conjugate_order(grid(3, 4)) is None

    @pytest.mark.parametrize("succ", [[0b010, 0b100, 0], [0, 0b001, 0b010]])
    def test_an_intransitive_orientation_is_rejected(self, monkeypatch, succ):
        # x0 < x2 and x1 incomparable to both: the path x0 -> x1 -> x2 (or
        # its reverse) makes one union linear and the other cyclic
        monkeypatch.setattr(orientation, "_force_classes",
                            lambda adj: (list(succ), transpose(succ)))
        assert compute_conjugate_order(build_order(["x0", "x1", "x2"], [("x0", "x2")])) is None

    def test_a_dropped_arc_is_rejected(self, monkeypatch):
        def drop(succ, x, y):
            succ[x] ^= 1 << y
        self._edit_first_arc(monkeypatch, drop)
        assert compute_conjugate_order(grid(3, 4)) is None


class TestRealizer:
    def test_intersection_recovers_the_order(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(150):
            o = random_order(rng, rng.randint(1, 7))
            conj = compute_conjugate_order(o)
            if conj is None:
                continue
            l1, l2 = realizer_from_conjugate(o, conj)
            assert intersect_linear([l1, l2]) == o
            checked += 1
        assert checked > 80

    def test_non_conjugate_is_rejected(self):
        o = boolean_lattice(2)
        diagonal = [1 << i for i in range(o.n)]
        trivial = OrderRelation(o.ground, diagonal, diagonal)
        with pytest.raises(NotLinear):
            realizer_from_conjugate(o, trivial)

    @pytest.mark.parametrize("pairs, arcs", [
        ([], [(0, 1), (1, 2), (2, 0)]),  # a 3-cycle on an antichain
        ([("x0", "x1")], [(2, 0), (2, 1), (0, 1)]),  # orders the comparable pair
        ([("x0", "x1")], [(2, 0)]),  # misses the incomparable pair {x1, x2}
    ])
    def test_a_relation_that_is_no_conjugate_is_rejected(self, pairs, arcs):
        o = build_order(["x0", "x1", "x2"], pairs)
        m = np.eye(3, dtype=bool)
        for x, y in arcs:
            m[x, y] = True
        with pytest.raises(NotLinear):
            realizer_from_conjugate(o, order_from_matrix(o.ground, m))

    def test_ground_mismatch(self):
        other = build_order(["p", "q"], [("p", "q")])
        with pytest.raises(GroundMismatch):
            realizer_from_conjugate(chain(2), compute_conjugate_order(other))
