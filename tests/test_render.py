"""Tests for collinearity handling and the SVG/TikZ/graphviz emitters."""

import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orddraw.engine import compute_coordinates, drawing_to_json, perturbed_labels
from orddraw.errors import Unresolvable
from orddraw.ingest import parse_order_text
from orddraw.orders import antichain, boolean_lattice, build_order, chain, grid
from orddraw import render
from orddraw.render import (_screen_geometry, detect_collinear, emit_dot,
                            emit_svg, emit_tikz, perturb)
from oracles import (blocked_two_dimensional, collinear_points, failing_after, random_order,
                     rational_plane, screen_geometry_by_fractions, strict_pairs,
                     with_rational_plane)


def oracle_conflicts(d):
    """Every (element, edge) pair tested with the parametric oracle on the
    exact rational points."""
    plane = rational_plane(d)
    return sorted((label, (a, b)) for a, b in d.cover_edges for label in d.order.ground
                  if label not in (a, b)
                  and collinear_points(plane[a], plane[b], plane[label]))


def on_plane_points(d):
    """The points detect_collinear walks for a perturbed drawing: (y / s, x),
    s the gcd of every plane y."""
    s = math.gcd(*(y for _, y in d.plane.values()))
    return {label: (y // s, x) for label, (x, y) in d.plane.items()}


def comparabilities(o):
    lab = o.ground.label
    return tuple((lab(i), lab(j)) for i, j in strict_pairs(o))


def chain_drawing():
    # a chain is drawn on one diagonal line: every inner node sits on the
    # segment between its neighbors' endpoints only if an edge spans it;
    # cover edges are consecutive, so there is no conflict
    return compute_coordinates(chain(4))


def forced_conflict():
    """A drawing doctored so one node sits mid-edge."""
    d = compute_coordinates(chain(3))
    # stretch the cover edge x1-x2 into x1-x3 territory: replace the edge
    # list so that (x1, x3) is an edge and x2 sits on it exactly
    return d.replace(cover_edges=(("x1", "x3"),))


class TestDetectCollinear:
    def test_chain_has_no_conflicts(self):
        assert detect_collinear(chain_drawing()) == []

    def test_doctored_edge_is_detected(self):
        conflicts = detect_collinear(forced_conflict())
        assert conflicts == [("x2", ("x1", "x3"))]

    def test_endpoints_do_not_conflict_with_their_own_edge(self):
        d = compute_coordinates(boolean_lattice(2))
        for label, (a, b) in detect_collinear(d):
            assert label not in (a, b)

    def test_agrees_with_parametric_oracle(self):
        rng = random.Random(163)
        for _ in range(20):
            o = random_order(rng, rng.randint(2, 7))
            d = compute_coordinates(o)
            assert detect_collinear(d) == oracle_conflicts(d)

    def test_agrees_with_oracle_after_perturb(self, monkeypatch):
        # every comparability as an edge puts points on long segments, so
        # perturb has work to do and refines the denominator (points move
        # by multiples of its step off the grid); a point then put halfway
        # between a moved point and another sits on their edge, at a finer
        # denominator
        rng = random.Random(167)
        checked = 0
        for _ in range(40):
            o = random_order(rng, rng.randint(4, 9))
            d = compute_coordinates(o, strategy="anneal")
            eps = rng.choice([(3, 20), (1, 7), (2, 9)])
            monkeypatch.setattr(render, "_EPSILON", eps)
            fixed = perturb(d.replace(cover_edges=comparabilities(o)))
            assert detect_collinear(fixed) == oracle_conflicts(fixed) == []
            moved = perturbed_labels(fixed)
            if not moved:
                continue
            assert fixed.denominator == eps[1]
            m = moved[0]
            u, w = [label for label in o.ground if label != m][:2]
            plane = rational_plane(fixed)
            (mx, my), (ux, uy) = plane[m], plane[u]
            halfway = with_rational_plane(
                fixed, {**plane, w: ((mx + ux) / 2, (my + uy) / 2)})
            pairs = tuple((a, b) for a in o.ground for b in o.ground if a != b)
            every_pair = halfway.replace(cover_edges=pairs)
            conflicts = detect_collinear(every_pair)
            assert conflicts == oracle_conflicts(every_pair)
            assert (w, (m, u)) in conflicts
            checked += 1
        assert checked > 10, "the suite should exercise real perturbations"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_agrees_with_oracle_on_nudged_planes(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        o = random_order(random.Random(seed), data.draw(st.integers(2, 8)))
        d = compute_coordinates(o, strategy="anneal")
        labels = list(o.ground)
        offsets = st.fractions(min_value=-2, max_value=2, max_denominator=12)
        plane = rational_plane(d)
        for label in data.draw(st.lists(st.sampled_from(labels), max_size=len(labels))):
            x, y = plane[label]
            plane[label] = (x + data.draw(offsets), y + data.draw(offsets))
        edges = list(d.cover_edges) + data.draw(st.lists(
            st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
            min_size=1, max_size=12))
        # put some points exactly on (or at the ends of) an edge's line,
        # and level some with another point so edges turn horizontal
        for label, (a, b), t in data.draw(st.lists(st.tuples(
                st.sampled_from(labels), st.sampled_from(edges),
                st.fractions(min_value=-1, max_value=2, max_denominator=9)), max_size=4)):
            (ux, uy), (vx, vy) = plane[a], plane[b]
            plane[label] = (ux + t * (vx - ux), uy + t * (vy - uy))
        for label, other in data.draw(st.lists(st.tuples(
                st.sampled_from(labels), st.sampled_from(labels)), max_size=3)):
            plane[label] = (plane[label][0], plane[other][1])
        nudged = with_rational_plane(d, plane, cover_edges=tuple(edges))
        assert detect_collinear(nudged) == oracle_conflicts(nudged)

    def test_agrees_with_oracle_on_every_comparability_of_2d_orders(self):
        # a two-dimensional order sits at its realizer's integer grid
        # points, so its long comparabilities pass through lattice points
        # (g = gcd of the edge's steps >= 2) and some of those hold elements
        found = long_found = 0
        for seed in range(32):
            o = blocked_two_dimensional(random.Random(seed).randint(4, 30), 1, seed)
            d = compute_coordinates(o)
            assert d.denominator == 1
            assert {type(c) for p in d.plane.values() for c in p} == {int}
            every = d.replace(cover_edges=comparabilities(o))
            assert perturbed_labels(every) == ()  # so the walk takes its ranks
            conflicts = detect_collinear(every)
            on_plane = render._lattice_conflicts(on_plane_points(every), every.cover_edges)
            assert conflicts == on_plane == oracle_conflicts(every)
            found += len(conflicts)
            for _, (a, b) in conflicts:
                (ux, uy), (vx, vy) = every.plane[a], every.plane[b]
                long_found += math.gcd(vx - ux, vy - uy) >= 3
        assert found > 60 and long_found > 40, "the suite should hit lattice points"

    def test_the_plane_test_runs_only_on_perturbed_drawings(self, monkeypatch):
        walk, walked = render._lattice_conflicts, []

        def spy(points, edges):
            walked.append(points)
            return walk(points, edges)

        monkeypatch.setattr(render, "_lattice_conflicts", spy)
        d = forced_conflict()
        finer = d.replace(plane={label: (7 * x, 7 * y) for label, (x, y) in d.plane.items()},
                          denominator=7)
        lattice = compute_coordinates(boolean_lattice(3))
        for unperturbed in (d, finer, lattice):
            assert perturbed_labels(unperturbed) == ()
            assert detect_collinear(unperturbed) == oracle_conflicts(unperturbed)
        assert walked == [d.coords, finer.coords, lattice.coords]
        # denominator 1, x3 moved off its grid image: its grid point still
        # puts x2 mid-edge, its plane point does not (and then does again
        # one third of the way along)
        (x1, y1), (x2, y2) = d.plane["x1"], d.plane["x2"]
        x3, y3 = d.plane["x3"]
        beside = d.replace(plane={**d.plane, "x3": (x3 + 2, y3)})
        third = d.replace(plane={**d.plane, "x3": (3 * x2 - 2 * x1, 3 * y2 - 2 * y1)})
        for off_grid, want in ((beside, []), (third, [("x2", ("x1", "x3"))])):
            assert off_grid.denominator == 1 and perturbed_labels(off_grid) == ("x3",)
            assert detect_collinear(off_grid) == oracle_conflicts(off_grid) == want
        assert walked[3:] == [on_plane_points(beside), on_plane_points(third)]
        del walked[:]
        fixed = perturb(d)  # d itself on its ranks, then each round's drawing
        assert walked[0] == d.coords
        # each round on its plane: (y / s, x), y twenty times d's and
        # unmoved, so each p is d's height over the gcd of d's heights, and
        # the p that reach the walk share no factor
        s = math.gcd(*(y for _, y in d.plane.values()))
        heights = {label: y // s for label, (_, y) in d.plane.items()}
        rounds = walked[1:]
        assert rounds and all({label: p for label, (p, _) in points.items()} == heights
                              for points in rounds)
        assert all(math.gcd(*(p for p, _ in points.values())) == 1 for points in rounds)
        assert rounds[-1] == on_plane_points(fixed)

    def test_ranks_repeated_by_hand_are_told_apart_by_the_second_rank(self):
        # x2 and x3 share the first rank 1; only x2's grid point is the
        # midpoint of the grid segment x1-x4
        d = compute_coordinates(chain(4))
        coords = {"x1": (0, 0), "x2": (1, 1), "x3": (1, 2), "x4": (2, 2)}
        hand = d.replace(coords=coords, plane={label: (c2 - c1, c1 + c2)
                                               for label, (c1, c2) in coords.items()},
                         cover_edges=(("x1", "x4"), ("x3", "x4")))
        assert perturbed_labels(hand) == ()
        assert detect_collinear(hand) == oracle_conflicts(hand) == [("x2", ("x1", "x4"))]

    def test_ranks_far_apart_cost_no_more_than_the_elements(self):
        # chain(3) by hand with the one cover edge x1-x3: its grid segment
        # holds gcd - 1 lattice points, 10^12 - 1 of them in the first
        # drawing, so only a walk bounded by the elements can finish
        d = compute_coordinates(chain(3))

        def by_hand(coords):
            return d.replace(coords=coords, cover_edges=(("x1", "x3"),),
                             plane={label: (c2 - c1, c1 + c2)
                                    for label, (c1, c2) in coords.items()})

        far = by_hand({"x1": (0, 0), "x2": (1, 2), "x3": (10**12, 10**12)})
        assert perturbed_labels(far) == ()
        started = time.perf_counter()
        with failing_after(5.0):
            assert detect_collinear(far) == []
        assert time.perf_counter() - started < 1.0
        on = by_hand({"x1": (0, 0), "x2": (250_000, 500_000), "x3": (10**6, 2 * 10**6)})
        assert perturbed_labels(on) == ()
        assert detect_collinear(on) == oracle_conflicts(on) == [("x2", ("x1", "x3"))]

    def test_two_labels_at_one_point_are_both_reported(self):
        d = compute_coordinates(chain(4))
        plane = {"x1": (0, 0), "x4": (4, 2), "x2": (2, 1), "x3": (2, 1)}
        for edges in ((("x1", "x4"),), (("x4", "x1"),)):
            doubled = d.replace(plane=plane, cover_edges=edges)
            (edge,) = edges
            assert detect_collinear(doubled) == oracle_conflicts(doubled) \
                == [("x2", edge), ("x3", edge)]

    def test_fine_plane_scans_the_height_band(self):
        # one offset of 1/(10^30 + 57) makes the common denominator that
        # large, so an edge between two grid points holds about 10^30
        # lattice points and only the band scan can finish
        o = blocked_two_dimensional(14, 1, 5)
        d = compute_coordinates(o)
        labels = list(o.ground)
        plane = rational_plane(d)
        fine = Fraction(1, 10**30 + 57)
        for k, label in enumerate(labels[:3]):
            x, y = plane[label]
            plane[label] = (x + (k + 1) * fine, y)
        edges = comparabilities(o)
        # put two elements exactly on edges between grid points, a third of
        # the way along, and one just beside such an edge
        placed, used = [], set(labels[:3])
        for a, b in edges:
            if len(placed) == 3:
                break
            w = next((w for w in labels if w not in used | {a, b}), None)
            if a in used or b in used or w is None:
                continue
            (ux, uy), (vx, vy) = plane[a], plane[b]
            shift = fine if len(placed) == 2 else 0
            plane[w] = (ux + (vx - ux) / 3 + shift, uy + (vy - uy) / 3)
            placed.append((w, (a, b)))
            used |= {a, b, w}
        fined = with_rational_plane(d, plane, cover_edges=edges)
        assert fined.denominator % (10**30 + 57) == 0
        with failing_after(20.0):
            conflicts = detect_collinear(fined)
        assert conflicts == oracle_conflicts(fined)
        assert placed[0] in conflicts and placed[1] in conflicts
        assert placed[2] not in conflicts

    def test_doctored_horizontal_edge(self):
        # an antichain is drawn on one horizontal line: x4 ... x1 left to right
        d = compute_coordinates(antichain(4))
        assert len({y for _, y in d.plane.values()}) == 1
        for edge in (("x1", "x4"), ("x4", "x1"), ("x2", "x3")):
            doctored = d.replace(cover_edges=(edge,))
            assert detect_collinear(doctored) == oracle_conflicts(doctored)
        doctored = d.replace(cover_edges=(("x1", "x4"),))
        assert detect_collinear(doctored) == [("x2", ("x1", "x4")), ("x3", ("x1", "x4"))]
        # a point just off the line, or level but beyond an end, is clear
        plane = rational_plane(d)
        shifted = with_rational_plane(doctored, {**plane, "x2": (plane["x2"][0], Fraction(1, 3)),
                                                 "x3": (plane["x1"][0] + 1, plane["x1"][1])})
        assert detect_collinear(shifted) == oracle_conflicts(shifted) == []

    def test_doctored_zero_length_edge(self):
        d = forced_conflict()  # x2 sits mid-edge x1-x3
        # x3 moved onto x1: the edge x1-x3 has no open segment, so nothing
        # sits on it, neither x2 where it was nor x2 on the same spot
        for x2 in (d.plane["x2"], d.plane["x1"]):
            zero = d.replace(plane={**d.plane, "x3": d.plane["x1"], "x2": x2})
            assert detect_collinear(zero) == oracle_conflicts(zero) == []
        # a loop edge is zero-length too; the real edge x1-x3 still catches x2
        loop = d.replace(cover_edges=(("x1", "x3"), ("x2", "x2")))
        assert detect_collinear(loop) == oracle_conflicts(loop) == [("x2", ("x1", "x3"))]

    def test_conflicts_are_sorted(self):
        conflicts = detect_collinear(forced_conflict())
        assert conflicts == sorted(conflicts)


class TestPerturb:
    def test_clean_drawing_is_returned_unchanged(self):
        d = chain_drawing()
        assert perturb(d) is d

    def test_resolves_the_doctored_conflict(self):
        d = forced_conflict()
        fixed = perturb(d)
        assert detect_collinear(fixed) == []
        assert perturbed_labels(fixed) == ("x2",)
        # y coordinates never move, so the drawing stays upward
        before, after = rational_plane(d), rational_plane(fixed)
        for label in d.order.ground:
            assert after[label][1] == before[label][1]

    def test_boolean_lattices_come_out_clean(self):
        for n, strategy in ((2, "sat"), (3, "sat"), (4, "anneal")):
            d = compute_coordinates(boolean_lattice(n), strategy=strategy)
            fixed = perturb(d)
            assert detect_collinear(fixed) == []

    def test_grids_come_out_clean(self):
        for rows, cols in ((2, 2), (3, 3), (4, 5)):
            d = compute_coordinates(grid(rows, cols))
            fixed = perturb(d)
            assert detect_collinear(fixed) == []

    def test_round_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(render, "_MAX_ROUNDS", 0)
        with pytest.raises(Unresolvable):
            perturb(forced_conflict())

    def test_nudges_step_by_three_twentieths(self):
        d = forced_conflict()
        fixed = perturb(d)
        # the plane stays integers, over a denominator 20 times finer
        assert fixed.denominator == 20 * d.denominator
        assert {type(c) for p in fixed.plane.values() for c in p} == {int}
        (x, y), (fx, fy) = rational_plane(d)["x2"], rational_plane(fixed)["x2"]
        assert fy == y and fx - x in (Fraction(3, 20), Fraction(-3, 20))

    def test_unmoved_points_keep_exact_coordinates(self):
        d = forced_conflict()
        before, after = rational_plane(d), rational_plane(perturb(d))
        for label in ("x1", "x3"):
            assert after[label] == before[label]


class TestSvg:
    def test_structure_counts(self):
        d = compute_coordinates(boolean_lattice(2))
        text = emit_svg(d).decode("utf-8")
        assert text.startswith('<?xml version="1.0"')
        assert text.count("<line ") == len(d.cover_edges)
        assert text.count("<circle ") == d.order.n
        assert text.count("<text ") == d.order.n
        assert text.rstrip().endswith("</svg>")

    def test_labels_sit_right_of_their_nodes(self):
        d = compute_coordinates(boolean_lattice(2))
        text = emit_svg(d).decode()
        circles = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)" r="5.00"/>', text)
        labels = re.findall(r'<text x="([\d.]+)" y="([\d.]+)">', text)
        assert len(circles) == len(labels) == d.order.n
        for (cx, cy), (tx, ty) in zip(circles, labels):
            assert float(tx) - float(cx) == pytest.approx(8.0, abs=0.01)
            assert float(ty) - float(cy) == pytest.approx(4.2, abs=0.01)
        assert "text-anchor" not in text

    def test_labels_are_xml_escaped(self):
        o = build_order(["a<b&c", "plain"], [("a<b&c", "plain")])
        text = emit_svg(compute_coordinates(o)).decode()
        assert "a&lt;b&amp;c" in text
        assert "a<b&c" not in text

    def test_labels_xml_cannot_carry_are_refused(self):
        from xml.dom import minidom  # the well-formedness reference, only here
        for code in [*range(0x20), 0x7F, 0x85, 0xD7FF, 0xE000, 0xFFFD, 0xFFFE, 0xFFFF,
                     0x10000]:
            label = f"a{chr(code)}b"
            d = compute_coordinates(build_order([label, "plain"], [(label, "plain")]))
            if code < 0x20 and code not in (0x09, 0x0A, 0x0D) or code in (0xFFFE, 0xFFFF):
                with pytest.raises(ValueError, match=re.escape(repr(label))):
                    emit_svg(d)
            else:
                minidom.parseString(emit_svg(d))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.text(alphabet=st.sampled_from("&<>;amplgt\"' x\u00e9")) | st.text())
    def test_xml_escape_matches_saxutils(self, text):
        from xml.sax.saxutils import escape  # the reference, only here
        assert render._xml_escape(text) == escape(text)

    def test_greater_elements_are_drawn_higher(self):
        d = compute_coordinates(chain(3))
        text = emit_svg(d).decode()
        circles = [line for line in text.splitlines() if "<circle" in line]
        ys = [float(c.split('cy="')[1].split('"')[0]) for c in circles]
        # ground order x1 < x2 < x3; screen y decreases upward
        assert ys[0] > ys[1] > ys[2]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_screen_points_match_the_rational_plane(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        d = compute_coordinates(random_order(random.Random(seed),
                                             data.draw(st.integers(1, 8))))
        offsets = st.fractions(min_value=-3, max_value=3, max_denominator=97)
        plane = {label: (x + data.draw(offsets), y + data.draw(offsets))
                 for label, (x, y) in rational_plane(d).items()}
        moved = with_rational_plane(d, plane)
        scale = data.draw(st.sampled_from([48.0, 7.3, 100.0]))
        margin = data.draw(st.sampled_from([40.0, 0.0, 2.5]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(render, "_SCALE", scale)
            mp.setattr(render, "_MARGIN", margin)
            got = _screen_geometry(moved)
        assert got == screen_geometry_by_fractions(moved, scale, margin)
        assert list(got[2]) == list(moved.order.ground)  # the SVG's element order

    def test_an_int_canvas_writes_the_float_path_bytes(self):
        # the same drawing over denominator 7 takes the float path
        rng = random.Random(211)
        drawings = [compute_coordinates(boolean_lattice(3)), compute_coordinates(grid(3, 4)),
                    compute_coordinates(antichain(1))]
        drawings += [compute_coordinates(random_order(rng, rng.randint(2, 12)))
                     for _ in range(20)]
        # den-1 planes that are no grid image: negative and large coordinates
        drawings += [d.replace(plane={label: (x - 1000 * k, 3 * y + k * 10**8)
                                      for k, (label, (x, y)) in enumerate(d.plane.items())})
                     for d in drawings[3:8]]
        for d in drawings:
            sevenfold = d.replace(plane={label: (7 * x, 7 * y) for label, (x, y) in d.plane.items()},
                                  denominator=7)
            assert type(_screen_geometry(d)[0]) is int
            assert type(_screen_geometry(sevenfold)[0]) is float
            assert emit_svg(d) == emit_svg(sevenfold)
            assert drawing_to_json(d) == drawing_to_json(sevenfold)

    def test_a_canvas_too_wide_for_exact_floats_takes_the_float_path(self):
        d = compute_coordinates(chain(3))
        for span in (render._EXACT_SPAN - 1, render._EXACT_SPAN, 10**20):
            wide = d.replace(plane={**d.plane, "x3": (span, d.plane["x3"][1])})
            width, _, _ = _screen_geometry(wide)
            assert type(width) is (int if span < render._EXACT_SPAN else float)
            assert _screen_geometry(wide) == screen_geometry_by_fractions(
                wide, render._SCALE, render._MARGIN)

    def test_byte_determinism(self):
        a = emit_svg(compute_coordinates(boolean_lattice(3)))
        b = emit_svg(compute_coordinates(boolean_lattice(3)))
        assert a == b


class TestTikz:
    def test_structure(self):
        d = compute_coordinates(boolean_lattice(2))
        text = emit_tikz(d).decode()
        assert text.startswith(r"\documentclass[tikz,border=4pt]{standalone}")
        assert text.count(r"\draw[thick]") == len(d.cover_edges)
        assert text.count(r"\node[circle") == d.order.n
        assert text.count("label=right:") == d.order.n
        assert "[x=1.000cm,y=1.000cm]" in text
        assert text.rstrip().endswith(r"\end{document}")

    def test_one_centimetre_per_grid_step(self):
        d = compute_coordinates(grid(2, 3))
        text = emit_tikz(d).decode()
        for i, label in enumerate(d.order.ground):
            x, y = d.plane[label]
            assert f"(n{i}) at ({float(x):.3f},{float(y):.3f})" in text

    def test_tex_escaping(self):
        o = build_order(["a_1", "b%x"], [("a_1", "b%x")])
        text = emit_tikz(compute_coordinates(o)).decode()
        assert r"a\_1" in text
        assert r"b\%x" in text


class TestDot:
    def test_structure(self):
        d = compute_coordinates(boolean_lattice(2))
        text = emit_dot(d).decode()
        assert text.startswith("digraph diagram {")
        assert text.count(" -> ") == len(d.cover_edges)
        assert text.count("pos=") == d.order.n
        assert "rankdir=BT" in text

    def test_quote_escaping(self):
        o = build_order(['say"hi"', "x"], [('say"hi"', "x")])
        text = emit_dot(compute_coordinates(o)).decode()
        assert r'say\"hi\"' in text

    def test_backslash_escaping(self):
        # a bare backslash would escape the closing quote, and \N would
        # show the node id instead of the label
        o = parse_order_text('a\\ < b\nx\\N < b\nsay"hi\\" < b\n')
        text = emit_dot(compute_coordinates(o)).decode()
        assert r'label="a\\"' in text and r'label="x\\N"' in text
        assert r'label="say\"hi\\\""' in text
        # every label ends at its own closing quote and reads back exactly
        bodies = re.findall(r'label="((?:[^"\\]|\\.)*)", pos=', text)
        assert sorted(re.sub(r"\\(.)", r"\1", b) for b in bodies) \
            == sorted(o.ground)


class TestPipelineIntegration:
    def test_perturbed_drawing_still_renders_everywhere(self):
        fixed = perturb(forced_conflict())
        for emitter in (emit_svg, emit_tikz, emit_dot):
            out = emitter(fixed)
            assert isinstance(out, bytes) and len(out) > 100

    def test_plane_replace_preserves_everything_else(self):
        d = compute_coordinates(boolean_lattice(2))
        moved = d.replace(plane={k: (v[0] + 1, v[1]) for k, v in d.plane.items()})
        assert moved.coords is d.coords
        assert moved.cover_edges == d.cover_edges
        assert moved.trace is d.trace
