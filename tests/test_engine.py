"""Tests for the extension loop, coordinate assignment, and dominance stats."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orddraw.bipartization import (OctResult, TransversalSearch, min_oct_exact,
                                   oct_anneal)
from orddraw.engine import (STRATEGIES, _insert_checked, _insert_one_by_one,
                            compute_coordinates, drawing_to_json,
                            perturbed_labels, two_dimension_extension,
                            weak_dominance_stats, with_plane)
from orddraw.errors import OrderViolation
from orddraw.ingest import concept_lattice, parse_cxt, parse_order_text
from orddraw.orders import (antichain, boolean_lattice, build_order, chain,
                            grid, inc_id_pairs, intersect_linear,
                            standard_example)
from orddraw.orientation import compute_conjugate_order, realizer_from_conjugate
from orddraw.tig import build_tig
from oracles import (MULTIPASS_SCRIPTED_REMOVAL, brute_force_oct,
                     brute_min_extension, dense, drawing_to_json_by_dumps,
                     literally_an_order, multipass_order, random_order,
                     scripted_then_exact, warshall_closure)


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

# random_order(n=15)#18 of the same corpus at seed 1007: the first of the 4
# minimum sets of its tig leaves an order that needs a second pass
SECOND_PASS_ORDER = """\
elements: x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14
x0 < x1
x10 < x14
x10 < x8
x11 < x8
x11 < x9
x12 < x10
x12 < x4
x13 < x1
x13 < x11
x2 < x13
x3 < x10
x3 < x7
x4 < x11
x4 < x6
x5 < x13
x5 < x4
x6 < x0
x7 < x1
x7 < x11
x9 < x14
"""


def random_height1(rng, lo, hi, p):
    lows = [f"l{i}" for i in range(lo)]
    ups = [f"u{i}" for i in range(hi)]
    pairs = [(a, b) for a in lows for b in ups if rng.random() < p]
    return build_order(lows + ups, pairs)


def assert_valid_trace(o, tr, left_out=0):
    """`left_out` counts the reversed removed pairs that a one-at-a-time
    insertion did not insert."""
    inc = set(inc_id_pairs(o))
    assert tr.inserted <= inc
    assert not tr.inserted & {(b, a) for a, b in tr.inserted}
    assert tr.passes == len(tr.per_pass_removed)
    reversals = {(b, a) for s in tr.per_pass_removed for a, b in s}
    assert sum(len(s) for s in tr.per_pass_removed) == len(reversals)
    assert tr.inserted <= reversals
    assert len(reversals - tr.inserted) == left_out
    # a pair left out was implied by the pairs inserted before it, or its
    # reverse was, so that inserting it would have closed a cycle
    assert all(p in tr.closure_added or p[::-1] in tr.closure_added
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

    def test_greedy_ignores_the_seed(self):
        # greedy is deterministic; the seed only reaches the summary
        o = boolean_lattice(4)
        a, b = (two_dimension_extension(o, strategy="greedy", seed=s) for s in (0, 7))
        assert a.inserted == b.inserted and a.per_pass_removed == b.per_pass_removed

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_every_strategy_produces_a_valid_trace(self, strategy):
        rng = random.Random(131)
        ran = 0
        for _ in range(80):
            o = random_height1(rng, rng.randint(3, 4), rng.randint(3, 5),
                               rng.choice([0.35, 0.45, 0.55]))
            if compute_conjugate_order(o) is not None:
                continue
            tr = two_dimension_extension(o, strategy=strategy, seed=9)
            assert tr.strategy == strategy
            assert_valid_trace(o, tr)
            ran += 1
            if ran >= 8 and strategy == "anneal":
                break  # the slow heuristic earns its keep with fewer runs
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

    def test_callable_strategy_and_name(self):
        def tiny(tg):
            return brute_force_oct(tg.graph)

        tr = two_dimension_extension(standard_example(3), strategy=tiny)
        assert tr.strategy == "tiny"
        assert len(tr.inserted) == 1

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
        assert weak_dominance_stats(compute_coordinates(o)).count == 3
        assert_valid_trace(o, tr)

    def test_exact_strategy_skips_a_set_that_needs_another_pass(self):
        o = parse_order_text(SECOND_PASS_ORDER)
        first = two_dimension_extension(
            o, strategy=lambda tg: min_oct_exact(tg.graph))
        assert [len(r) for r in first.per_pass_removed] == [3, 1]
        tr = two_dimension_extension(o, strategy="sat")
        assert tr.passes == 1 and len(tr.inserted) == 3
        assert_valid_trace(o, tr)


class TestBooleanLattice5:
    # B5 used to raise OrderViolation with both heuristics: their removal
    # sets reverse into unions that are not transitively closed
    @pytest.mark.parametrize("strategy, removed, false_count", [
        ("anneal", [93, 39, 2], 138),
        ("greedy", [117, 7], 128),
    ])
    def test_heuristics_draw_it(self, strategy, removed, false_count):
        o = boolean_lattice(5)
        d = compute_coordinates(o, strategy=strategy)
        tr = d.trace
        assert [len(r) for r in tr.per_pass_removed] == removed
        assert tr.closure_added
        assert_valid_trace(o, tr)
        rep = weak_dominance_stats(d)
        assert rep.count == false_count \
            == len(tr.inserted) + len(tr.closure_added)
        assert (rep.inserted, rep.closure_added) \
            == (len(tr.inserted), len(tr.closure_added))
        assert rep.inserted + rep.closure_added == rep.count


# context(14x10)#46 of the benchmark's heuristic corpus at corpus seed 1007,
# a 41-concept lattice
CYCLE_CLOSING_CXT = """\
B
14
10
g0
g1
g2
g3
g4
g5
g6
g7
g8
g9
g10
g11
g12
g13
m0
m1
m2
m3
m4
m5
m6
m7
m8
m9
...X....X.
.X.X.X.XX.
.X..XX.XX.
..XX..X.X.
.......X..
..X..X....
X.X......X
.XX.....X.
X...X....X
.X..XXXX..
X.XX..X...
XX........
XXXXX..X.X
.XX..X.X.X
"""


class TestCycleClosingReversal:
    def test_anneal_inserts_the_pairs_one_at_a_time(self):
        # anneal's first removal set reverses into pairs whose union closes
        # a cycle; this input used to raise OrderViolation
        o = concept_lattice(parse_cxt(CYCLE_CLOSING_CXT))
        tg = build_tig(o)
        removed = oct_anneal(tg.graph, seed=1007).removed
        with pytest.raises(OrderViolation, match="antisymmetry after closure"):
            _insert_checked(o, frozenset(tg.vertices[v][::-1] for v in removed))
        d = compute_coordinates(o, strategy="anneal", seed=1007)
        tr = d.trace
        assert o.n == 41
        assert [len(r) for r in tr.per_pass_removed] == [258, 49]
        assert_valid_trace(o, tr, left_out=258 + 49 - 181)
        assert len(tr.inserted) == 181
        assert weak_dominance_stats(d).count \
            == len(tr.inserted) + len(tr.closure_added) == 389

    def test_implied_and_cycle_closing_pairs_are_not_inserted(self):
        # a1 < a3, a2 < a1 and a3 < a2 close a cycle; in sorted order the
        # first two go in, their closure adds a2 < a3, and a3 < a2 is skipped
        o = standard_example(3)
        gid = o.ground.id
        a1, a2, a3 = gid("a1"), gid("a2"), gid("a3")
        extended, kept, added = _insert_one_by_one(
            o, frozenset({(a1, a3), (a2, a1), (a3, a2)}))
        assert kept == {(a1, a3), (a2, a1)}
        assert (a2, a3) in added and not kept & added
        assert extended.lt("a2", "a3") and not extended.lt("a3", "a2")
        # a pair that earlier insertions imply is counted as closure-added
        _, kept, added = _insert_one_by_one(
            o, frozenset({(a1, a3), (a2, a1), (a2, a3)}))
        assert kept == {(a1, a3), (a2, a1)} and (a2, a3) in added


class TestDefensiveChecks:
    def test_lazy_strategy_is_rejected(self):
        lazy = lambda tg: OctResult(frozenset(), "lazy", False, {})
        with pytest.raises(OrderViolation, match="removed nothing"):
            two_dimension_extension(standard_example(3), strategy=lazy)

    def test_antisymmetry_break_is_rejected(self):
        def both_directions(tg):
            gid = tg.order.ground.id
            verts = {tg.vertices.index((gid("a1"), gid("b1"))),
                     tg.vertices.index((gid("b1"), gid("a1")))}
            return OctResult(frozenset(verts), "evil", False, {})

        with pytest.raises(OrderViolation, match="antisymmetry"):
            two_dimension_extension(standard_example(3), strategy=both_directions)

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
        # cycle that no pair of them makes alone
        o = standard_example(3)
        gid = o.ground.id
        pairs = frozenset({(gid("a1"), gid("a2")), (gid("a2"), gid("a3")),
                           (gid("a3"), gid("a1"))})
        with pytest.raises(OrderViolation, match="antisymmetry after closure"):
            _insert_checked(o, pairs)

    def test_closed_insertion_adds_nothing(self):
        o = standard_example(3)
        gid = o.ground.id
        extended, added = _insert_checked(o, frozenset({(gid("a1"), gid("b1"))}))
        assert added == frozenset()
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
        for label, (c1, c2) in d.coords.items():
            assert d.plane[label] == (Fraction(c2 - c1), Fraction(c1 + c2))

    def test_cover_edges_come_from_the_original_order(self):
        o = standard_example(3)
        d = compute_coordinates(o)
        from orddraw.orders import cover_relation
        assert d.cover_edges == tuple(sorted(cover_relation(o)))
        inserted = set(d.trace.inserted_labels())
        assert not inserted & set(d.cover_edges)


class TestDominanceReport:
    def test_counts_match_insertions(self):
        rng = random.Random(149)
        for _ in range(20):
            o = random_height1(rng, rng.randint(2, 4), rng.randint(2, 4), 0.4)
            d = compute_coordinates(o)
            rep = weak_dominance_stats(d)
            assert rep.inserted == len(d.trace.inserted)
            assert rep.closure_added == len(d.trace.closure_added)
            assert rep.count == rep.inserted + rep.closure_added
            assert set(rep.pairs) == set(d.trace.inserted_labels())

    def test_no_false_comparabilities_for_two_dimensional_input(self):
        rep = weak_dominance_stats(compute_coordinates(grid(3, 3)))
        assert rep.count == 0 and rep.pairs == ()


class TestPlaneEdits:
    def test_fresh_drawing_has_no_perturbed_labels(self):
        assert perturbed_labels(compute_coordinates(boolean_lattice(2))) == ()

    def test_with_plane_flags_moved_labels(self):
        d = compute_coordinates(boolean_lattice(2))
        plane = dict(d.plane)
        label = d.order.ground.labels[1]
        x, y = plane[label]
        plane[label] = (x + Fraction(1, 7), y)
        moved = with_plane(d, plane)
        assert perturbed_labels(moved) == (label,)
        assert perturbed_labels(d) == ()


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
        rng = random.Random(seed)
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                 if rng.random() < 0.4]
        d = compute_coordinates(build_order(labels, pairs))
        plane = dict(d.plane)
        for label, k in zip(labels, steps):
            x, y = plane[label]
            plane[label] = (x + Fraction(3 * k, 20), y)
        for drawing in (d, with_plane(d, plane)):
            assert drawing_to_json(drawing) == drawing_to_json_by_dumps(drawing)
