"""Tests for the extension loop, coordinate assignment, false comparabilities
and the JSON document."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orddraw.bipartization import OctResult, TransversalSearch, min_oct_exact
from orddraw import engine
from orddraw.engine import (STRATEGIES, _ends_in_this_pass, _insert, compute_coordinates,
                            drawing_to_json, perturbed_labels, two_dimension_extension)
from orddraw.errors import OrderViolation
from orddraw.ingest import parse_order_text
from orddraw.orders import (antichain, boolean_lattice, build_order, chain,
                            grid, inc_id_pairs, intersect_linear,
                            standard_example)
from orddraw.orientation import compute_conjugate_order, realizer_from_conjugate
from orddraw.render import detect_collinear, perturb
from orddraw.tig import build_tig
from oracles import (MULTIPASS_SCRIPTED_REMOVAL, all_linear_extensions,
                     assert_order, brute_force_oct, brute_min_extension,
                     count_linear_extensions, dense, dense_false_pairs,
                     drawing_to_json_by_dumps, literally_an_order,
                     min_false_comparabilities, multipass_order, random_order,
                     rational_plane, scripted_then_exact, warshall_closure,
                     with_rational_plane)


# random_order(n=10)#13 of the benchmark's exact corpus at seed 32
CLOSURE_GAP_ORDER = """\
elements: x0 x1 x2 x3 x4 x5 x6 x7 x8 x9
x1 < x0
x2 < x1
x2 < x6
x2 < x8
x3 < x4
x3 < x6
x4 < x0
x4 < x7
x5 < x0
x5 < x7
x7 < x9
x8 < x9
"""

# random_order(n=11)#21 of the same corpus at seed 1007: the first of the
# 14 minimum sets of its tig leaves an order that needs a second pass
SECOND_PASS_ORDER = """\
elements: x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10
x0 < x5
x0 < x7
x1 < x10
x2 < x1
x3 < x5
x4 < x3
x4 < x8
x6 < x1
x6 < x4
x7 < x10
x9 < x10
x9 < x3
"""


def random_height1(rng, lo, hi, p):
    lows = [f"l{i}" for i in range(lo)]
    ups = [f"u{i}" for i in range(hi)]
    pairs = [(a, b) for a in lows for b in ups if rng.random() < p]
    return build_order(lows + ups, pairs)


def trace_pairs(tr):
    """The trace's inserted and closure-added pairs, by label."""
    lab = tr.extended.ground.label
    return {(lab(a), lab(b)) for a, b in tr.inserted | tr.closure_added}


def assert_valid_trace(o, tr, left_out=0):
    """`left_out` counts the reversed removed pairs that the insertion
    skipped because their reverse held."""
    inc = set(inc_id_pairs(o))
    assert tr.inserted <= inc
    assert not tr.inserted & {(b, a) for a, b in tr.inserted}
    assert tr.passes == len(tr.per_pass_removed)
    reversals = {(b, a) for s in tr.per_pass_removed for a, b in s}
    assert sum(len(s) for s in tr.per_pass_removed) == len(reversals)
    assert tr.inserted <= reversals
    assert len(reversals - tr.inserted) == left_out
    # a pair left out would have closed a cycle: its reverse went in before
    # it, or closure added that reverse
    assert all(p[::-1] in tr.inserted | tr.closure_added
               for p in reversals - tr.inserted)
    # the extension is the closure of the input plus the inserted pairs,
    # and closure_added is exactly what that closure put on top
    union = dense(o)
    for a, b in tr.inserted:
        union[a, b] = True
    extended = dense(tr.extended)
    assert (warshall_closure(union) == extended).all()
    assert tr.closure_added == {tuple(p) for p in
                                np.argwhere(extended & ~union).tolist()}
    # the extension contains the original and is exactly realized
    assert (dense(o) <= extended).all()
    l1, l2 = realizer_from_conjugate(tr.extended, tr.conjugate)
    assert intersect_linear([l1, l2]) == tr.extended


class TestExtensionLoop:
    def test_two_dimensional_inputs_are_untouched(self):
        for o in (chain(4), antichain(3), boolean_lattice(2), grid(3, 4)):
            tr = two_dimension_extension(o)
            assert tr.passes == 0
            assert tr.inserted == frozenset()
            assert tr.extended == o
            assert_valid_trace(o, tr)

    def test_standard_example_needs_one_diagonal_pair(self):
        tr = two_dimension_extension(standard_example(3))
        assert tr.passes == 1
        assert len(tr.inserted) == 1
        assert tr.inserted_labels()[0] in (("a1", "b1"), ("a2", "b2"), ("a3", "b3"))
        assert_valid_trace(standard_example(3), tr)

    def test_boolean_lattice_3_needs_one_pair(self):
        o = boolean_lattice(3)
        tr = two_dimension_extension(o)
        assert len(tr.inserted) == 1
        assert_valid_trace(o, tr)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_every_strategy_produces_a_valid_trace(self, strategy):
        rng = random.Random(131)
        ran = 0
        for _ in range(80):
            o = random_height1(rng, rng.randint(3, 4), rng.randint(3, 5),
                               rng.choice([0.35, 0.45, 0.55]))
            if compute_conjugate_order(o) is not None:
                continue
            tr = two_dimension_extension(o, strategy=strategy)
            assert tr.strategy == strategy
            assert_valid_trace(o, tr)
            ran += 1
        assert ran >= 5

    def test_exact_strategy_matches_brute_minimum(self):
        dim2 = lambda o: compute_conjugate_order(o) is not None
        rng = random.Random(127)
        checked = 0
        for _ in range(600):
            o = random_height1(rng, rng.randint(3, 4), rng.randint(3, 5),
                               rng.choice([0.35, 0.45, 0.55]))
            if dim2(o):
                continue
            tr = two_dimension_extension(o, strategy="sat")
            assert len(tr.inserted) == brute_min_extension(o, dim2)
            checked += 1
        assert checked >= 80

    def test_sat_reaches_the_global_minimum_and_anneal_no_lower(self):
        # on orders that are not two-dimensional, small enough for the DP
        # over linear extensions and down-sets; the first pass's bounds hold
        # over every two-dimensional extension, not only this pipeline's
        rng = random.Random(401)
        checked = 0
        while checked < 150:
            o = random_order(rng, rng.randint(6, 8), rng.uniform(0.25, 0.6))
            if (compute_conjugate_order(o) is not None
                    or count_linear_extensions(o) > 200):
                continue
            best = min_false_comparabilities(o)
            first_pass = []

            def sat(tg):
                result = STRATEGIES["sat"](tg)
                first_pass.append(result.stats)
                return result

            assert two_dimension_extension(o, sat).false_comparabilities == best
            assert two_dimension_extension(o, "anneal").false_comparabilities >= best
            assert first_pass[0]["lower_bound"] <= first_pass[0]["k"] <= best
            checked += 1

    def test_the_global_minimum_oracle_agrees_with_brute_force(self):
        dim2 = lambda o: compute_conjugate_order(o) is not None
        rng = random.Random(409)
        positive = 0
        for k in range(300):
            o = random_height1(rng, 3, rng.randint(3, 4), rng.choice([0.35, 0.45, 0.55]))
            if dim2(o) and k % 4:  # most are; a quarter of them is enough
                continue
            assert count_linear_extensions(o) == len(list(all_linear_extensions(o)))
            best = min_false_comparabilities(o)
            assert best == brute_min_extension(o, dim2)
            positive += best > 0
        assert positive >= 8

    def test_callable_strategy_and_name(self):
        def tiny(tg):
            return brute_force_oct(tg.graph)

        tr = two_dimension_extension(standard_example(3), strategy=tiny)
        assert tr.strategy == "tiny"
        assert len(tr.inserted) == 1

    def test_an_accepted_extension_serves_only_its_own_set(self):
        # a strategy that has one set accepted and returns another gets the
        # other inserted, as a strategy that never asked on the pass's tig
        def other_than_accepted(tg, ask):
            accept = _ends_in_this_pass(tg if ask else build_tig(tg.order))
            listed = list(TransversalSearch(tg.graph))
            taken = next((s for s in listed if accept(s)), None)
            return OctResult(next(s for s in listed if s != taken), "other", True)

        for o in (standard_example(4), boolean_lattice(4)):
            asked = two_dimension_extension(o, lambda tg: other_than_accepted(tg, True))
            fresh = two_dimension_extension(o, lambda tg: other_than_accepted(tg, False))
            assert asked.per_pass_removed == fresh.per_pass_removed
            assert (asked.inserted, asked.closure_added, asked.extended, asked.conjugate) \
                == (fresh.inserted, fresh.closure_added, fresh.extended, fresh.conjugate)
            assert_valid_trace(o, asked)

    def test_the_accepted_set_is_not_worked_out_again(self, monkeypatch):
        # the input's conjugate test and the accepting one, whose extension
        # and conjugate the pass takes over
        real, calls = engine.compute_conjugate_order, []
        monkeypatch.setattr(engine, "compute_conjugate_order",
                            lambda o: calls.append(o) or real(o))
        o = standard_example(4)
        tr = two_dimension_extension(o)
        assert tr.passes == 1 and len(calls) == 2
        assert tr.conjugate == real(tr.extended)
        assert_valid_trace(o, tr)

    def test_the_extension_is_kept_by_value(self):
        # an equal order built anew reads the kept answer: the key is the
        # order's ground set and masks, not the object
        first, second = standard_example(3), standard_example(3)
        assert first is not second and first == second
        reversal = frozenset({(3, 0)})
        engine._extend.cache_clear()
        kept = engine._extend(first, reversal)
        assert engine._extend(second, reversal) is kept
        assert engine._extend.cache_info().hits == 1

    def test_unknown_strategy_name(self):
        for name in ("psychic", "genetic", "brute"):
            with pytest.raises(ValueError):
                two_dimension_extension(chain(2), strategy=name)


class TestMultiPass:
    def test_scripted_removal_forces_second_pass(self):
        o = multipass_order()
        run, calls = scripted_then_exact(MULTIPASS_SCRIPTED_REMOVAL)
        tr = two_dimension_extension(o, strategy=run)
        assert tr.passes == 2
        assert len(calls) == 2
        assert len(tr.per_pass_removed[0]) == 2
        assert len(tr.per_pass_removed[1]) == 1
        assert_valid_trace(o, tr)

    def test_default_strategy_solves_it_in_one_pass(self):
        tr = two_dimension_extension(multipass_order())
        assert tr.passes == 1
        assert len(tr.inserted) == 2

    def test_exact_strategy_prefers_a_closed_reversal(self):
        # one of the 9 minimum sets (k = 3) of this order's tig reverses into
        # pairs that are not transitively closed; the engine must pass it by
        # although the insertion would close it
        o = parse_order_text(CLOSURE_GAP_ORDER)
        tg = build_tig(o)
        gaps = 0
        for removed in TransversalSearch(tg.graph):
            union = dense(o)
            for v in removed:
                a, b = tg.vertices[v]
                union[b, a] = True
            gaps += not literally_an_order(union)
        assert gaps == 1
        tr = two_dimension_extension(o, strategy="sat")
        assert tr.passes == 1 and len(tr.inserted) == 3
        assert tr.closure_added == frozenset()
        assert set(dense_false_pairs(compute_coordinates(o))) == trace_pairs(tr)
        assert_valid_trace(o, tr)

    def test_exact_strategy_skips_a_set_that_needs_another_pass(self):
        o = parse_order_text(SECOND_PASS_ORDER)
        first = two_dimension_extension(
            o, strategy=lambda tg: min_oct_exact(tg.graph))
        assert [len(r) for r in first.per_pass_removed] == [3, 2]
        tr = two_dimension_extension(o, strategy="sat")
        assert tr.passes == 1 and len(tr.inserted) == 3
        assert_valid_trace(o, tr)


class TestBooleanLattice5:
    # B5 used to raise OrderViolation under the heuristics of the time: their
    # removal sets reversed into unions that were not transitively closed
    def test_anneal_draws_it_in_one_pass(self):
        o = boolean_lattice(5)
        d = compute_coordinates(o, strategy="anneal")
        tr = d.trace
        assert [len(r) for r in tr.per_pass_removed] == [93]
        assert not tr.closure_added
        assert_valid_trace(o, tr)
        assert len(tr.inserted) == 93


class TestLargeInput:
    def test_anneal_draws_a_random_order_of_200(self):
        # the bound is the count measured with the conflict-cover heuristic
        # sweeping in ascending order; the drawing takes about a second
        o = random_order(random.Random(1), 200, 0.1)
        d = compute_coordinates(o, strategy="anneal")
        assert_valid_trace(o, d.trace)
        assert len(d.trace.inserted) + len(d.trace.closure_added) <= 1_544


class TestCycleClosingReversal:
    def test_a_cycle_closing_removal_goes_in_one_pair_at_a_time(self):
        # the first removal reverses into a1 < a3, a2 < a1 and a3 < a2,
        # whose union closes a cycle; the pass inserts the first two, closure
        # adds a2 < a3 (and a1 < b1, a2 < b2), and a3 < a2 is skipped
        o = standard_example(3)
        removed = (("a3", "a1"), ("a1", "a2"), ("a2", "a3"))
        gid = o.ground.id
        run, _ = scripted_then_exact(removed)
        d = compute_coordinates(o, strategy=run)
        tr = d.trace
        assert [len(r) for r in tr.per_pass_removed] == [3]
        assert_valid_trace(o, tr, left_out=1)
        assert tr.inserted_labels() == (("a1", "a3"), ("a2", "a1"))
        assert (gid("a2"), gid("a3")) in tr.closure_added
        assert len(tr.inserted) + len(tr.closure_added) == 5

    def test_cycle_closing_pairs_are_skipped_and_implied_ones_go_in(self):
        # a1 < a3, a2 < a1 and a3 < a2 close a cycle; in sorted order the
        # first two go in, their closure adds a2 < a3, and a3 < a2 is skipped
        o = standard_example(3)
        gid = o.ground.id
        a1, a2, a3 = gid("a1"), gid("a2"), gid("a3")
        extended, kept, added = _insert(o, frozenset({(a1, a3), (a2, a1), (a3, a2)}))
        assert kept == {(a1, a3), (a2, a1)}
        assert (a2, a3) in added and not kept & added
        assert extended.lt("a2", "a3") and not extended.lt("a3", "a2")
        # a pair that earlier insertions imply counts as inserted
        _, kept, added = _insert(o, frozenset({(a1, a3), (a2, a1), (a2, a3)}))
        assert kept == {(a1, a3), (a2, a1), (a2, a3)} and not kept & added


class TestArbitraryRemovalSets:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_any_removal_set_draws(self, seed):
        # a strategy that removes a random non-empty vertex set, often with
        # the reverses of some of its pairs: sets that close cycles or hold a
        # pair and its reverse still extend the order until it draws
        rng = random.Random(seed)
        o = chain(1)
        while compute_conjugate_order(o) is not None:
            o = random_height1(rng, rng.randint(3, 6), rng.randint(3, 6), rng.choice([0.6, 0.7]))

        def arbitrary(tg):
            index = {pair: v for v, pair in enumerate(tg.vertices)}
            chosen = set(rng.sample(range(len(index)), rng.randint(1, len(index))))
            chosen |= {index[tg.vertices[v][::-1]] for v in chosen if rng.random() < 0.5}
            return OctResult(frozenset(chosen), "arbitrary", False, {})

        d = compute_coordinates(o, strategy=arbitrary)
        tr = d.trace
        reversals = {(b, a) for s in tr.per_pass_removed for a, b in s}
        assert_valid_trace(o, tr, left_out=len(reversals - tr.inserted))
        assert set(dense_false_pairs(d)) == trace_pairs(tr)


class TestDefensiveChecks:
    def test_lazy_strategy_is_rejected(self):
        lazy = lambda tg: OctResult(frozenset(), "lazy", False, {})
        with pytest.raises(OrderViolation, match="removed nothing"):
            two_dimension_extension(standard_example(3), strategy=lazy)

    def test_antisymmetry_break_is_rejected(self):
        # the removal holds (a1, b1) and its reverse; in sorted order a1 < b1
        # goes in, and b1 < a1, whose reverse now holds, is skipped
        def both_directions(tg):
            gid = tg.order.ground.id
            verts = {tg.vertices.index((gid("a1"), gid("b1"))),
                     tg.vertices.index((gid("b1"), gid("a1")))}
            return OctResult(frozenset(verts), "evil", False, {})

        o = standard_example(3)
        tr = two_dimension_extension(o, strategy=both_directions)
        assert tr.passes == 1
        assert tr.inserted_labels() == (("a1", "b1"),)
        assert not tr.extended.lt("b1", "a1")
        assert_valid_trace(o, tr, left_out=1)

    def test_closure_gap_is_closed(self):
        # inserting a1 < a2 alone forces a1 < b1 transitively, so a
        # strategy removing only (a2, a1) hands back a non-closed union;
        # the insertion closes it and records the forced pair apart
        def gap(tg):
            gid = tg.order.ground.id
            v = tg.vertices.index((gid("a2"), gid("a1")))
            return OctResult(frozenset([v]), "evil", False, {})

        o = standard_example(3)
        tr = two_dimension_extension(o, strategy=gap)
        assert tr.passes == 1
        assert tr.inserted_labels() == (("a1", "a2"),)
        lab = o.ground.label
        assert {(lab(a), lab(b)) for a, b in tr.closure_added} == {("a1", "b1")}
        assert tr.extended.lt("a1", "b1")
        assert_valid_trace(o, tr)

    def test_cycle_after_closure_is_rejected(self):
        # a1 < a2 and a2 < a3 are each fine, but with a3 < a1 they close a
        # cycle that no pair of them makes alone; a3 < a1 comes last in
        # sorted order, when a1 < a3 already holds, and is skipped
        o = standard_example(3)
        gid = o.ground.id
        a1, a2, a3 = gid("a1"), gid("a2"), gid("a3")
        extended, kept, added = _insert(o, frozenset({(a1, a2), (a2, a3), (a3, a1)}))
        assert kept == {(a1, a2), (a2, a3)}
        assert (a1, a3) in added
        assert not extended.lt("a3", "a1")
        assert_order(extended)

    def test_closed_insertion_adds_nothing(self):
        o = standard_example(3)
        gid = o.ground.id
        pair = (gid("a1"), gid("b1"))
        extended, kept, added = _insert(o, frozenset({pair}))
        assert kept == {pair} and added == frozenset()
        assert extended.lt("a1", "b1")


class TestCoordinates:
    def test_grid_coordinates_are_rank_permutations(self):
        d = compute_coordinates(boolean_lattice(2))
        xs = sorted(c[0] for c in d.coords.values())
        ys = sorted(c[1] for c in d.coords.values())
        assert xs == ys == [0, 1, 2, 3]

    def test_dominance_equals_extended_order(self):
        rng = random.Random(137)
        for _ in range(25):
            o = random_order(rng, rng.randint(1, 6))
            d = compute_coordinates(o)
            ext = d.trace.extended
            for a in o.ground:
                for b in o.ground:
                    if a == b:
                        continue
                    (a1, a2), (b1, b2) = d.coords[a], d.coords[b]
                    assert (a1 < b1 and a2 < b2) == ext.lt(a, b)

    def test_original_comparabilities_always_drawn_upward(self):
        rng = random.Random(139)
        for _ in range(25):
            o = random_order(rng, rng.randint(2, 6))
            d = compute_coordinates(o)
            for a in o.ground:
                for b in o.ground:
                    if o.lt(a, b):
                        assert d.coords[a][0] < d.coords[b][0]
                        assert d.coords[a][1] < d.coords[b][1]
                        assert d.plane[a][1] < d.plane[b][1]

    def test_plane_projection_formula(self):
        d = compute_coordinates(grid(2, 3))
        assert d.denominator == 1
        for label, (c1, c2) in d.coords.items():
            assert d.plane[label] == (c2 - c1, c1 + c2)
            assert {type(c) for c in d.plane[label]} == {int}

    def test_cover_edges_come_from_the_original_order(self):
        o = standard_example(3)
        d = compute_coordinates(o)
        from orddraw.orders import cover_relation
        assert d.cover_edges == tuple(sorted(cover_relation(o)))
        inserted = set(d.trace.inserted_labels())
        assert not inserted & set(d.cover_edges)


class TestFalseComparabilities:
    # the pairs the grid orders against the original order are the trace's
    # inserted and closure-added pairs
    def test_grid_orders_exactly_the_added_pairs(self):
        rng = random.Random(149)
        for _ in range(20):
            o = random_height1(rng, rng.randint(2, 4), rng.randint(2, 4), 0.4)
            for strategy in STRATEGIES:
                d = compute_coordinates(o, strategy=strategy)
                assert set(dense_false_pairs(d)) == trace_pairs(d.trace)

    def test_a_perturbed_drawing(self):
        rng = random.Random(253)
        o = random_order(rng, rng.randint(5, 12), rng.uniform(0.1, 0.5))
        d = compute_coordinates(o, strategy="anneal")
        conflicts = detect_collinear(d)
        assert conflicts and len(d.trace.inserted) == 3
        fixed = perturb(d, conflicts)
        assert perturbed_labels(fixed)
        assert set(dense_false_pairs(fixed)) == trace_pairs(fixed.trace)

    def test_a_multi_pass_anneal_drawing(self):
        rng = random.Random(3704)
        o = random_order(rng, rng.randint(5, 12), rng.uniform(0.1, 0.5))
        d = compute_coordinates(o, strategy="anneal")
        assert d.trace.passes == 2 and d.trace.closure_added
        assert set(dense_false_pairs(d)) == trace_pairs(d.trace)
        # the JSON count takes in the closure-added pairs
        assert drawing_to_json(d) == drawing_to_json_by_dumps(d)

    def test_no_false_comparabilities_for_two_dimensional_input(self):
        d = compute_coordinates(grid(3, 3))
        assert dense_false_pairs(d) == [] and trace_pairs(d.trace) == set()


class TestPlaneEdits:
    def test_fresh_drawing_has_no_perturbed_labels(self):
        assert perturbed_labels(compute_coordinates(boolean_lattice(2))) == ()

    def test_a_moved_plane_point_is_flagged(self):
        d = compute_coordinates(boolean_lattice(2))
        plane = rational_plane(d)
        label = d.order.ground.labels[1]
        x, y = plane[label]
        plane[label] = (x + Fraction(1, 7), y)
        moved = with_rational_plane(d, plane)
        assert moved.denominator == 7
        assert perturbed_labels(moved) == (label,)
        assert perturbed_labels(d) == ()

    def test_a_finer_denominator_alone_moves_nothing(self):
        d = compute_coordinates(boolean_lattice(2))
        finer = d.replace(plane={label: (7 * x, 7 * y) for label, (x, y) in d.plane.items()},
                          denominator=7)
        assert perturbed_labels(finer) == ()
        assert drawing_to_json(finer) == drawing_to_json(d)


class TestJson:
    def test_document_shape_and_stability(self):
        d = compute_coordinates(standard_example(3))
        text = drawing_to_json(d)
        assert text.endswith("\n")
        assert drawing_to_json(compute_coordinates(standard_example(3))) == text
        doc = json.loads(text)
        assert [e["label"] for e in doc["elements"]] \
            == list(standard_example(3).ground)
        assert doc["passes"] == 1
        assert doc["strategy"] == "sat"
        assert doc["false_comparabilities"] == 1
        assert doc["perturbed"] == []
        assert len(doc["inserted_pairs"]) == 1
        assert all(len(e["grid"]) == 2 and len(e["plane"]) == 2
                   for e in doc["elements"])

    def test_empty_lists_are_written_as_empty_arrays(self):
        d = compute_coordinates(grid(2, 2))
        text = drawing_to_json(d)
        assert '"inserted_pairs": [],' in text and '"perturbed": []\n' in text
        assert text == drawing_to_json_by_dumps(d)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.text(st.sampled_from('ab"\\{},é☃\x01\n '), min_size=1, max_size=5),
                    min_size=1, max_size=8, unique=True),
           st.integers(0, 2 ** 32 - 1), st.lists(st.integers(-3, 3), max_size=8))
    def test_writer_matches_json_dumps(self, labels, seed, steps):
        # labels with quotes, backslashes, control and non-ASCII characters
        # and set braces; points moved by multiples of 3/20 (repr 1.15, ...)
        # on a plane over 20, unreduced as perturb leaves it
        rng = random.Random(seed)
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                 if rng.random() < 0.4]
        d = compute_coordinates(build_order(labels, pairs))
        plane = {label: (20 * x, 20 * y) for label, (x, y) in d.plane.items()}
        for label, k in zip(labels, steps):
            x, y = plane[label]
            plane[label] = (x + 3 * k, y)
        for drawing in (d, d.replace(plane=plane, denominator=20)):
            assert drawing_to_json(drawing) == drawing_to_json_by_dumps(drawing)
