"""Tests for the core order-relation machinery."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orddraw.errors import (CycleError, GroundMismatch, NotLinear,
                            UnknownLabel)
from orddraw.orders import (GroundSet, LinearExtension, OrderRelation,
                            _upper_covers, antichain, boolean_lattice, build_order, chain,
                            cover_relation, grid, inc_id_pairs, intersect_linear,
                            is_linear_order, linear_from_sequence,
                            standard_example, transitive_closure)
from oracles import (all_linear_extensions, assert_order, cover_relation_by_blas,
                     closure_masks, dense, literally_an_order, order_from_matrix,
                     random_order, row_masks, successor_lists, warshall_closure)


@st.composite
def boolean_relations(draw, max_n=40):
    """Random square boolean relations, cycles and loops allowed, n >= 0."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.15, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.random((n, n)) < density


@st.composite
def random_orders(draw, max_n=25):
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))
    return random_order(random.Random(draw(st.integers(0, 2 ** 32 - 1))), n, density)


def naive_closure(matrix):
    n = len(matrix)
    m = [[bool(matrix[i][j]) or i == j for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    continue
                if any(m[i][k] and m[k][j] for k in range(n)):
                    m[i][j] = True
                    changed = True
    return np.array(m, dtype=bool)


class TestGroundSet:
    def test_ids_and_labels_round_trip(self):
        g = GroundSet(["p", "q", "r"])
        assert len(g) == 3
        assert [g.id(x) for x in g] == [0, 1, 2]
        assert [g.label(i) for i in range(3)] == ["p", "q", "r"]

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(["a", "b", "a"])

    def test_unknown_label(self):
        g = GroundSet(["a"])
        with pytest.raises(UnknownLabel):
            g.id("z")

    def test_equality_is_by_label_sequence(self):
        assert GroundSet(["a", "b"]) == GroundSet(["a", "b"])
        assert GroundSet(["a", "b"]) != GroundSet(["b", "a"])
        assert hash(GroundSet(["a", "b"])) == hash(GroundSet(["a", "b"]))


class TestClosure:
    def test_matches_naive_closure_on_random_relations(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 7)
            raw = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.3:
                        raw[i, j] = True
            assert (transitive_closure(successor_lists(row_masks(raw)))
                    == closure_masks(naive_closure(raw)))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(boolean_relations())
    def test_matches_warshall(self, raw):
        succ = successor_lists(row_masks(raw))
        before = [list(heads) for heads in succ]
        closed = transitive_closure(succ)
        assert closed == closure_masks(warshall_closure(raw))
        if closed is not None:
            up, down = closed
            assert len(up) == len(down) == len(raw)
            assert all(type(row) is int for row in up + down)
        assert succ == before

    def test_small_and_cyclic_relations(self):
        assert transitive_closure([]) == ([], [])
        assert transitive_closure([[]]) == ([1], [1])
        # repeated successors add nothing; a directed 5-cycle, or a 2-cycle, is
        # no order
        assert transitive_closure([[], [0]]) == ([0b01, 0b11], [0b11, 0b10])
        assert transitive_closure([[], [0, 0]]) == ([0b01, 0b11], [0b11, 0b10])
        assert transitive_closure([[(i + 1) % 5] for i in range(5)]) is None
        assert transitive_closure([[1], [0], []]) is None
        # a path of 130 arcs closes to every later element, across words
        up, down = transitive_closure([[i + 1] if i < 129 else [] for i in range(130)])
        assert up == [((1 << 130) - 1) & ~((1 << i) - 1) for i in range(130)]
        assert down == [(1 << (i + 1)) - 1 for i in range(130)]

    def test_idempotent(self):
        rng = random.Random(12)
        for _ in range(20):
            o = random_order(rng, rng.randint(1, 8))
            assert transitive_closure(successor_lists(o.up)) == (list(o.up), list(o.down))


class TestBuildOrder:
    def test_closure_is_applied(self):
        o = build_order("abc", [("a", "b"), ("b", "c")])
        assert o.lt("a", "c")
        assert o.matrix[0][0]  # a <= a
        assert not o.lt("c", "a")

    def test_cycle_reports_witness_walk(self):
        with pytest.raises(CycleError) as info:
            build_order("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        walk = info.value.cycle
        assert walk[0] == walk[-1] or len(set(walk)) == len(walk)
        assert set(walk) <= {"a", "b", "c"}
        assert len(walk) >= 2

    def test_two_cycle(self):
        with pytest.raises(CycleError):
            build_order("ab", [("a", "b"), ("b", "a")])

    def test_unknown_label_in_pair(self):
        with pytest.raises(UnknownLabel):
            build_order("ab", [("a", "z")])

    def test_empty_ground_set_rejected(self):
        with pytest.raises(ValueError):
            build_order([], [])

    def test_validate_accepts_all_constructions(self):
        rng = random.Random(13)
        for _ in range(30):
            assert_order(random_order(rng, rng.randint(1, 8)))

    def test_matrix_is_read_only(self):
        # the masks and the matrix are tuples; the matrix is built anew on
        # each read, so no caller shares a mutable copy
        o = chain(3)
        with pytest.raises(TypeError):
            o.matrix[0][1] = False
        with pytest.raises(TypeError):
            o.up[0] = 0
        assert o.matrix == ((True, True, True), (False, True, True), (False, False, True))
        assert (o.up, o.down) == ((0b111, 0b110, 0b100), (0b001, 0b011, 0b111))

    def test_fields_cannot_be_assigned(self):
        o = chain(3)
        for name, value in (("ground", GroundSet("xyz")), ("up", (0b111, 0b010, 0b100)),
                            ("down", (0b001, 0b010, 0b100))):
            with pytest.raises(AttributeError):
                setattr(o, name, value)
        assert o == chain(3) and o.down == (0b001, 0b011, 0b111)


class TestQueries:
    def test_comparability_predicates(self):
        o = build_order("abcd", [("a", "b"), ("c", "d")])
        assert o.lt("a", "b") and not o.lt("b", "a")
        assert not o.lt("a", "c") and not o.lt("c", "a")
        assert not o.incomparable_ids(0, 0)
        assert o.incomparable_ids(0, 2)

    def test_strict_pair_count(self):
        assert chain(5).strict_pair_count() == 10
        assert antichain(5).strict_pair_count() == 0
        assert boolean_lattice(3).strict_pair_count() == 19

    def test_is_linear(self):
        assert chain(4).is_linear()
        assert not antichain(2).is_linear()
        assert not boolean_lattice(2).is_linear()

    def test_incomparable_pair_census(self):
        rng = random.Random(14)
        for _ in range(30):
            o = random_order(rng, rng.randint(1, 8))
            pairs = set(inc_id_pairs(o))
            assert len(pairs) == o.n * (o.n - 1) - 2 * o.strict_pair_count()
            assert all((b, a) in pairs for a, b in pairs)

    def test_inc_id_pairs_lexicographic(self):
        o = standard_example(3)
        ids = inc_id_pairs(o)
        assert ids == sorted(ids)
        assert ids == [(i, j) for i in range(o.n) for j in range(o.n)
                       if o.incomparable_ids(i, j)]


class TestCovers:
    def test_chain_covers_are_consecutive(self):
        assert cover_relation(chain(4)) == {("x1", "x2"), ("x2", "x3"), ("x3", "x4")}

    def test_boolean_lattice_cover_count(self):
        # one cover per (subset, added bit): n * 2^(n-1)
        assert cover_relation(boolean_lattice(0)) == frozenset()
        for n in range(1, 5):
            assert len(cover_relation(boolean_lattice(n))) == n * 2 ** (n - 1)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(random_orders())
    def test_matches_the_definition(self, o):
        # a < b with no c such that a < c < b
        n = o.n
        want = {(o.ground.label(a), o.ground.label(b))
                for a in range(n) for b in range(n)
                if o.lt_ids(a, b)
                and not any(o.lt_ids(a, c) and o.lt_ids(c, b) for c in range(n))}
        assert cover_relation(o) == want

    def test_covers_regenerate_the_order(self):
        rng = random.Random(15)
        for _ in range(30):
            o = random_order(rng, rng.randint(1, 8))
            rebuilt = build_order(o.ground.labels, sorted(cover_relation(o)))
            assert rebuilt == o


def assert_lists_the_covers(o):
    """_upper_covers(o) lists each element's covers once each, exactly the
    covers of the dense oracle, and no two of one list are comparable."""
    covers = _upper_covers(o)
    lab = o.ground.labels
    pairs = [(lab[a], lab[c]) for a, found in enumerate(covers) for c in found]
    assert len(covers) == o.n
    assert len(pairs) == len(set(pairs)) and set(pairs) == cover_relation_by_blas(o)
    for found in covers:
        assert not any(o.lt_ids(c, other) for c in found for other in found)
    return pairs


class TestCoverWalk:
    def test_families(self):
        assert assert_lists_the_covers(chain(6)) == [(f"x{i}", f"x{i + 1}") for i in range(1, 6)]
        assert assert_lists_the_covers(antichain(5)) == []
        assert len(assert_lists_the_covers(boolean_lattice(4))) == 4 * 2 ** 3

    def test_random_orders_up_to_three_words_wide(self):
        rng = random.Random(211)
        sizes = [1, 2, 7, 30, 63, 64, 65, 100, 128, 129, 130]
        for n in sizes:
            for density in (0.02, 0.1, 0.3):
                assert_lists_the_covers(random_order(rng, n, density))


class TestLinearExtensions:
    def test_not_linear_raises(self):
        with pytest.raises(NotLinear):
            LinearExtension(antichain(2))

    def test_total_but_intransitive_relation_raises(self):
        m = np.eye(3, dtype=bool)
        m[0, 1] = m[1, 2] = m[2, 0] = True
        with pytest.raises(NotLinear):
            LinearExtension(order_from_matrix(GroundSet(["a", "b", "c"]), m))

    def test_linear_order_check_matches_the_definition(self):
        rng = random.Random(61)
        yes = 0
        for _ in range(1500):
            n = rng.randint(1, 6)
            m = np.eye(n, dtype=bool)
            for i in range(n):
                for j in range(i + 1, n):
                    m[i, j] = rng.random() < 0.5
                    m[j, i] = not m[i, j]
            # a random tournament; one or two flipped cells can leave a pair
            # out, double one or clear the diagonal, and two can keep the
            # number of true cells
            for _ in range(rng.choice([0, 0, 1, 2])):
                i, j = rng.randrange(n), rng.randrange(n)
                m[i, j] = not m[i, j]
            expect = bool((m | m.T).all()) and literally_an_order(m)
            assert is_linear_order(row_masks(m)) == expect, m
            yes += expect
        assert 300 < yes < 1000

    def test_ranks_and_sequence(self):
        ext = LinearExtension(chain(3))
        assert ext.ranks == (0, 1, 2)
        assert ext.sequence() == ("x1", "x2", "x3")

    def test_linear_from_sequence_labels_and_ids(self):
        g = GroundSet(["a", "b", "c"])
        by_label = linear_from_sequence(g, ["c", "a", "b"])
        by_id = linear_from_sequence(g, [2, 0, 1])
        assert by_label == by_id
        assert by_label.sequence() == ("c", "a", "b")

    def test_linear_from_sequence_rejects_bad_permutations(self):
        g = GroundSet(["a", "b", "c"])
        with pytest.raises(ValueError):
            linear_from_sequence(g, ["a", "b"])
        with pytest.raises(ValueError):
            linear_from_sequence(g, ["a", "a", "b"])

    def test_enumeration_counts(self):
        assert sum(1 for _ in all_linear_extensions(antichain(4))) == 24
        assert sum(1 for _ in all_linear_extensions(chain(5))) == 1
        assert sum(1 for _ in all_linear_extensions(boolean_lattice(2))) == 2
        # 2 free choices among {1},{2},{3} layers interleaved: known value 48
        assert sum(1 for _ in all_linear_extensions(boolean_lattice(3))) == 48

    def test_enumeration_limit(self):
        got = list(all_linear_extensions(antichain(4), limit=5))
        assert len(got) == 5

    def test_every_enumerated_extension_respects_the_order(self):
        rng = random.Random(16)
        for _ in range(20):
            o = random_order(rng, rng.randint(1, 5))
            seen = set()
            for ext in all_linear_extensions(o):
                seen.add(ext.sequence())
                for i in range(o.n):
                    for j in range(o.n):
                        if o.lt_ids(i, j):
                            assert ext.ranks[i] < ext.ranks[j]
            assert len(seen) == len(list(all_linear_extensions(o)))

    def test_intersection_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            o = random_order(rng, rng.randint(1, 5))
            exts = list(all_linear_extensions(o))
            assert intersect_linear(exts) == o

    def test_intersection_errors(self):
        with pytest.raises(ValueError):
            intersect_linear([])
        a = LinearExtension(chain(2))
        b = linear_from_sequence(GroundSet(["y1", "y2"]), ["y1", "y2"])
        with pytest.raises(GroundMismatch):
            intersect_linear([a, b])


class TestFamilies:
    def test_chain_antichain_arguments(self):
        with pytest.raises(ValueError):
            chain(0)
        with pytest.raises(ValueError):
            antichain(0)
        with pytest.raises(ValueError):
            standard_example(0)
        with pytest.raises(ValueError):
            boolean_lattice(-1)
        with pytest.raises(ValueError):
            grid(0, 2)

    def test_standard_example_structure(self):
        o = standard_example(3)
        assert o.n == 6
        for i in "123":
            assert not o.lt(f"a{i}", f"b{i}") and not o.lt(f"b{i}", f"a{i}")
            for j in "123":
                if i != j:
                    assert o.lt(f"a{i}", f"b{j}")
        assert o.strict_pair_count() == 6

    def test_boolean_lattice_structure(self):
        o = boolean_lattice(3)
        assert o.n == 8
        assert o.lt("{}", "{1,2,3}")
        assert o.lt("{1}", "{1,3}")
        assert not o.lt("{1}", "{2,3}") and not o.lt("{2,3}", "{1}")

    def test_grid_structure(self):
        o = grid(2, 3)
        assert o.n == 6
        assert o.lt("1,1", "2,3")
        assert not o.lt("1,3", "2,1") and not o.lt("2,1", "1,3")
        assert len(cover_relation(o)) == 2 * (3 - 1) + 3 * (2 - 1)

    def test_grid_2x2_matches_boolean_lattice_2(self):
        g = grid(2, 2)
        b = boolean_lattice(2)
        assert g.strict_pair_count() == b.strict_pair_count()
        assert len(cover_relation(g)) == len(cover_relation(b))
