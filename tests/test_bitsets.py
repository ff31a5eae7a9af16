"""The integer-bitset pipeline against its dense numpy references.

The orders, the closure, the cover relation, the incomparable pairs, the
tig, the conjugate test and the extension loop's insertion all run on
Python-int masks.  Each is checked here against the dense boolean-matrix
version it replaced (kept in `oracles`), at sizes on both sides of the
64-bit word and of the n = 128 at which the BLAS products of the dense
versions change speed.  No benchmark input has n >= 128, so these tests
are the only check there.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from orddraw.engine import _insert
from orddraw.orders import (GroundSet, bits, cover_relation,
                            inc_id_pairs, intersect_linear, linear_from_sequence,
                            mask_of, transitive_closure, transpose)
from orddraw.orientation import compute_conjugate_order, realizer_from_conjugate
from orddraw.tig import build_tig
from oracles import (assert_order, blas_closure, cover_relation_by_blas,
                     dense, dense_conjugate, dense_insert,
                     dense_tig, random_order, row_masks)

SIZES = (1, 2, 63, 64, 65, 127, 128, 150)

SETTINGS = settings(max_examples=24, deadline=None, derandomize=True, database=None)


@st.composite
def relations(draw):
    """Square boolean relations at the boundary sizes, cycles allowed."""
    n = draw(st.sampled_from(SIZES))
    density = draw(st.sampled_from([0.0, 0.01, 0.03, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.random((n, n)) < density


@st.composite
def orders(draw):
    """Random orders at the boundary sizes; the densities keep the
    incomparable pairs of the larger ones to a few thousand, so the dense
    tig stays small."""
    n = draw(st.sampled_from(SIZES))
    density = draw(st.sampled_from([0.15, 0.3, 0.6]))
    return random_order(random.Random(draw(st.integers(0, 2 ** 32 - 1))), n, density)


def permutations(rng, n, count):
    return [rng.sample(range(n), n) for _ in range(count)]


@st.composite
def two_dimensional(draw, extensions=2):
    """Intersections of `extensions` random linear orders at the boundary
    sizes (two give a two-dimensional order)."""
    n = draw(st.sampled_from(SIZES))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    ground = GroundSet([f"v{i}" for i in range(n)])
    return intersect_linear(linear_from_sequence(ground, seq)
                            for seq in permutations(rng, n, extensions))


class TestMasks:
    @SETTINGS
    @given(relations())
    def test_bits_and_transpose(self, raw):
        rows = row_masks(raw)
        assert [bits(row) for row in rows] == [np.flatnonzero(r).tolist() for r in raw]
        assert [mask_of(np.flatnonzero(r).tolist()) for r in raw] == rows
        assert transpose(rows) == row_masks(raw.T)


class TestClosure:
    @SETTINGS
    @given(relations())
    def test_matches_the_blas_closure(self, raw):
        closed = blas_closure(raw)
        assert transitive_closure(row_masks(raw)) == (row_masks(closed), row_masks(closed.T))

    @SETTINGS
    @given(orders())
    def test_order_masks_match_the_matrix(self, o):
        m = dense(o)
        assert list(o.up) == row_masks(m)
        assert list(o.down) == row_masks(m.T)
        assert_order(o)


class TestOrderQueries:
    @SETTINGS
    @given(st.one_of(orders(), two_dimensional(), two_dimensional(3)))
    def test_cover_relation_matches_the_blas_product(self, o):
        assert cover_relation(o) == cover_relation_by_blas(o)

    @SETTINGS
    @given(st.one_of(orders(), two_dimensional()))
    def test_incomparable_pairs_match_the_matrix(self, o):
        m = dense(o)
        assert inc_id_pairs(o) == [tuple(p) for p in np.argwhere(~(m | m.T)).tolist()]


class TestTig:
    @SETTINGS
    @given(orders())
    def test_neighbour_sets_match_the_dense_build(self, o):
        tg = build_tig(o)
        vertices, adjacency = dense_tig(o)
        assert tg.vertices == vertices
        assert tg.graph.masks == tuple(row_masks(adjacency))
        assert tg.graph.m == int(np.count_nonzero(adjacency)) // 2


class TestConjugate:
    @SETTINGS
    @given(st.one_of(two_dimensional(), two_dimensional(3), orders()))
    def test_matches_the_dense_check(self, o):
        got, want = compute_conjugate_order(o), dense_conjugate(o)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.up == want.up
            assert got.down == tuple(transpose(got.up))


class TestInsertion:
    @SETTINGS
    @given(orders(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 20, 60, 200]))
    def test_matches_the_dense_sorted_insertion(self, o, seed, size):
        # the incomparable pairs come in both directions, so a larger sample
        # holds pairs with their reverses and sets that close cycles
        pairs = inc_id_pairs(o)
        chosen = frozenset(random.Random(seed).sample(pairs, min(size, len(pairs))))
        extended, kept, added = _insert(o, chosen)
        want, want_kept, want_added = dense_insert(o, chosen)
        assert dense(extended).tolist() == want.tolist()
        assert (kept, added) == (want_kept, want_added)
        assert not kept & added
        assert_order(extended)

    @SETTINGS
    @given(orders(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 20, 200]))
    def test_insert_checked_matches_one_dense_closure(self, o, seed, size):
        # pairs that all point up one linear extension of o close no cycle,
        # so none is skipped and the result is one closure of the union
        rank = {i: (bin(o.down[i]).count("1"), i) for i in range(o.n)}
        pairs = [(a, b) for a, b in inc_id_pairs(o) if rank[a] < rank[b]]
        chosen = frozenset(random.Random(seed).sample(pairs, min(size, len(pairs))))
        extended, kept, added = _insert(o, chosen)
        union = dense(o)
        for a, b in chosen:
            union[a, b] = True
        closed = blas_closure(union)
        assert dense(extended).tolist() == closed.tolist()
        assert kept == chosen
        assert added == frozenset(map(tuple, np.argwhere(closed & ~union).tolist()))
        assert_order(extended)

    @SETTINGS
    @given(orders(), st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 20, 60]))
    def test_one_by_one_matches_dense_closures(self, o, seed, size):
        # the batch is the single-pair insertions in sorted order, and each
        # of those is one dense closure or, with its reverse holding, a skip
        pairs = inc_id_pairs(o)
        chosen = frozenset(random.Random(seed).sample(pairs, min(size, len(pairs))))
        current, want_kept, step_added = o, set(), set()
        for a, b in sorted(chosen):
            m = dense(current)
            current, kept, added = _insert(current, frozenset({(a, b)}))
            if m[b, a]:
                assert dense(current).tolist() == m.tolist()
                assert not kept and not added
                continue
            m[a, b] = True
            closed = blas_closure(m)
            assert dense(current).tolist() == closed.tolist()
            assert kept == {(a, b)}
            assert added == frozenset(map(tuple, np.argwhere(closed & ~m).tolist()))
            want_kept.add((a, b))
            step_added |= added
        extended, kept, added = _insert(o, chosen)
        assert extended.up == current.up and extended.down == current.down
        assert kept == want_kept and added == step_added - want_kept
        assert_order(extended)


class TestDownMasks:
    @SETTINGS
    @given(two_dimensional(), st.integers(0, 2 ** 32 - 1))
    def test_built_orders_carry_the_transpose_of_their_up_masks(self, o, seed):
        # each of these builds its down masks beside its up masks, by ORs
        # of columns, rather than by transposing them
        conj = compute_conjugate_order(o)
        l1, l2 = realizer_from_conjugate(o, conj)
        pairs = inc_id_pairs(o)
        chosen = frozenset(random.Random(seed).sample(pairs, min(20, len(pairs))))
        extended, _, _ = _insert(o, chosen)
        for built in (conj, l1.order, l2.order, extended):
            assert built.down == tuple(transpose(built.up))
