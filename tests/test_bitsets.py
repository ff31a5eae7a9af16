"""The integer-bitset pipeline against its dense numpy references.

The orders, the closure, the cover relation, the incomparable pairs, the
tig, the conjugate test, the dominance count and the extension loop's
insertion all run on Python-int masks.  Each is checked here against the
dense boolean-matrix version it replaced (kept in `oracles`), at sizes on
both sides of the 64-bit word and of the n = 128 at which the BLAS products
of the dense versions change speed.  No benchmark input has n >= 128, so
these tests are the only check there.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orddraw.engine import (_insert_checked, _insert_one_by_one,
                            compute_coordinates, weak_dominance_stats)
from orddraw.errors import OrderViolation
from orddraw.orders import (GroundSet, OrderRelation, bits, cover_relation,
                            inc_id_pairs, intersect_linear, linear_from_sequence,
                            mask_of, transitive_closure, transpose)
from orddraw.orientation import compute_conjugate_order
from orddraw.tig import build_tig
from oracles import (blas_closure, cover_relation_by_blas, dense,
                     dense_conjugate, dense_false_pairs, dense_insert,
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
        assert transitive_closure(row_masks(raw)) == row_masks(blas_closure(raw))

    @SETTINGS
    @given(orders())
    def test_order_masks_match_the_matrix(self, o):
        m = dense(o)
        assert list(o.up) == row_masks(m)
        assert list(o.down) == row_masks(m.T)
        o.validate()


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


class TestDominance:
    @SETTINGS
    @given(two_dimensional(), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_matches_the_dense_count(self, o, seed, ties):
        # the drawing of o puts every pair of o in grid order; against a
        # suborder (o cut by a third linear order) the extra pairs are false
        # comparabilities, and coarse random coordinates add ties
        rng = random.Random(seed)
        third = linear_from_sequence(o.ground, rng.sample(range(o.n), o.n))
        suborder = OrderRelation(o.ground, [a & b for a, b in zip(o.up, third.order.up)])
        d = replace(compute_coordinates(o), order=suborder)
        if ties:
            d = replace(d, coords={label: (rng.randrange(4), rng.randrange(4))
                                   for label in o.ground})
        report = weak_dominance_stats(d)
        assert list(report.pairs) == dense_false_pairs(d)
        assert report.count == len(report.pairs)


class TestInsertion:
    @SETTINGS
    @given(orders(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 20, 200]))
    def test_insert_checked_matches_one_dense_closure(self, o, seed, size):
        pairs = inc_id_pairs(o)
        chosen = frozenset(random.Random(seed).sample(pairs, min(size, len(pairs))))
        want = dense_insert(o, chosen)
        if want is None:
            with pytest.raises(OrderViolation):
                _insert_checked(o, chosen)
            return
        extended, added = _insert_checked(o, chosen)
        assert dense(extended).tolist() == want[0].tolist()
        assert added == want[1]
        extended.validate()

    @SETTINGS
    @given(orders(), st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 20, 60]))
    def test_one_by_one_matches_dense_closures(self, o, seed, size):
        pairs = inc_id_pairs(o)
        chosen = frozenset(random.Random(seed).sample(pairs, min(size, len(pairs))))
        extended, kept, added = _insert_one_by_one(o, chosen)
        m = dense(o)
        want_kept, want_added = set(), set()
        for a, b in sorted(chosen):
            if m[a, b] or m[b, a]:
                continue
            m2 = m.copy()
            m2[a, b] = True
            closed = blas_closure(m2)
            want_kept.add((a, b))
            want_added |= set(map(tuple, np.argwhere(closed & ~m2).tolist()))
            m = closed
        assert dense(extended).tolist() == m.tolist()
        assert kept == want_kept and added == want_added
        extended.validate()
