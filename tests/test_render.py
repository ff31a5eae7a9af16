"""Tests for collinearity handling and the SVG/TikZ/graphviz emitters."""

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orddraw.engine import compute_coordinates, perturbed_labels, with_plane
from orddraw.errors import Unresolvable
from orddraw.ingest import parse_order_text
from orddraw.orders import antichain, boolean_lattice, build_order, chain, grid
from orddraw.render import (CanvasSpec, _screen_geometry, detect_collinear,
                            emit_dot, emit_svg, emit_tikz, perturb)
from oracles import (collinear_points, random_order,
                     screen_geometry_by_fractions, strict_pairs)


def oracle_conflicts(d):
    """Every (element, edge) pair tested with the parametric oracle."""
    return sorted((label, (a, b)) for a, b in d.cover_edges for label in d.order.ground
                  if label not in (a, b)
                  and collinear_points(d.plane[a], d.plane[b], d.plane[label]))


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
    return replace(d, cover_edges=(("x1", "x3"),))


class TestCanvasSpec:
    def test_defaults_are_valid(self):
        CanvasSpec()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CanvasSpec(scale=0)
        with pytest.raises(ValueError):
            CanvasSpec(node_radius=-1)
        with pytest.raises(ValueError):
            CanvasSpec(margin=-0.5)
        with pytest.raises(ValueError):
            CanvasSpec(font_size=0)
        with pytest.raises(ValueError):
            CanvasSpec(label_mode="inside")


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

    def test_agrees_with_oracle_after_perturb(self):
        # every comparability as an edge puts points on long segments, so
        # perturb has work to do and leaves Fraction planes (multiples of
        # epsilon off the grid); a point then put halfway between a moved
        # point and another sits on their edge, at a finer denominator
        rng = random.Random(167)
        checked = 0
        for _ in range(40):
            o = random_order(rng, rng.randint(4, 9))
            d = compute_coordinates(o, strategy="greedy")
            eps = rng.choice([Fraction(3, 20), Fraction(1, 7), Fraction(2, 9)])
            fixed = perturb(replace(d, cover_edges=comparabilities(o)), epsilon=eps)
            assert detect_collinear(fixed) == oracle_conflicts(fixed) == []
            moved = perturbed_labels(fixed)
            if not moved:
                continue
            m = moved[0]
            u, w = [label for label in o.ground if label != m][:2]
            (mx, my), (ux, uy) = fixed.plane[m], fixed.plane[u]
            halfway = with_plane(fixed, {**fixed.plane, w: ((mx + ux) / 2, (my + uy) / 2)})
            pairs = tuple((a, b) for a in o.ground for b in o.ground if a != b)
            every_pair = replace(halfway, cover_edges=pairs)
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
        d = compute_coordinates(o, strategy="greedy")
        labels = list(o.ground)
        offsets = st.fractions(min_value=-2, max_value=2, max_denominator=12)
        plane = dict(d.plane)
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
        nudged = replace(with_plane(d, plane), cover_edges=tuple(edges))
        assert detect_collinear(nudged) == oracle_conflicts(nudged)

    def test_doctored_horizontal_edge(self):
        # an antichain is drawn on one horizontal line: x4 ... x1 left to right
        d = compute_coordinates(antichain(4))
        assert len({y for _, y in d.plane.values()}) == 1
        for edge in (("x1", "x4"), ("x4", "x1"), ("x2", "x3")):
            doctored = replace(d, cover_edges=(edge,))
            assert detect_collinear(doctored) == oracle_conflicts(doctored)
        doctored = replace(d, cover_edges=(("x1", "x4"),))
        assert detect_collinear(doctored) == [("x2", ("x1", "x4")), ("x3", ("x1", "x4"))]
        # a point just off the line, or level but beyond an end, is clear
        shifted = with_plane(doctored, {**d.plane, "x2": (d.plane["x2"][0], Fraction(1, 3)),
                                        "x3": (d.plane["x1"][0] + 1, d.plane["x1"][1])})
        assert detect_collinear(shifted) == oracle_conflicts(shifted) == []

    def test_doctored_zero_length_edge(self):
        d = forced_conflict()  # x2 sits mid-edge x1-x3
        # x3 moved onto x1: the edge x1-x3 has no open segment, so nothing
        # sits on it, neither x2 where it was nor x2 on the same spot
        for x2 in (d.plane["x2"], d.plane["x1"]):
            zero = with_plane(d, {**d.plane, "x3": d.plane["x1"], "x2": x2})
            assert detect_collinear(zero) == oracle_conflicts(zero) == []
        # a loop edge is zero-length too; the real edge x1-x3 still catches x2
        loop = replace(d, cover_edges=(("x1", "x3"), ("x2", "x2")))
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
        for label in d.order.ground:
            assert fixed.plane[label][1] == d.plane[label][1]

    def test_boolean_lattices_come_out_clean(self):
        for n, strategy in ((2, "sat"), (3, "sat"), (4, "greedy")):
            d = compute_coordinates(boolean_lattice(n), strategy=strategy)
            fixed = perturb(d)
            assert detect_collinear(fixed) == []

    def test_grids_come_out_clean(self):
        for rows, cols in ((2, 2), (3, 3), (4, 5)):
            d = compute_coordinates(grid(rows, cols))
            fixed = perturb(d)
            assert detect_collinear(fixed) == []

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            perturb(forced_conflict(), epsilon=Fraction(0))
        with pytest.raises(ValueError):
            perturb(chain_drawing(), epsilon=Fraction(0))

    def test_round_budget_is_enforced(self):
        with pytest.raises(Unresolvable):
            perturb(forced_conflict(), max_rounds=0)

    def test_unmoved_points_keep_exact_coordinates(self):
        d = forced_conflict()
        fixed = perturb(d)
        for label in ("x1", "x3"):
            assert fixed.plane[label] == d.plane[label]


class TestSvg:
    def test_structure_counts(self):
        d = compute_coordinates(boolean_lattice(2))
        text = emit_svg(d).decode("utf-8")
        assert text.startswith('<?xml version="1.0"')
        assert text.count("<line ") == len(d.cover_edges)
        assert text.count("<circle ") == d.order.n
        assert text.count("<text ") == d.order.n
        assert text.rstrip().endswith("</svg>")

    def test_label_modes(self):
        d = compute_coordinates(chain(2))
        none = emit_svg(d, CanvasSpec(label_mode="none")).decode()
        assert "<text" not in none
        above = emit_svg(d, CanvasSpec(label_mode="above")).decode()
        assert 'text-anchor="middle"' in above

    def test_labels_are_xml_escaped(self):
        o = build_order(["a<b&c", "plain"], [("a<b&c", "plain")])
        text = emit_svg(compute_coordinates(o)).decode()
        assert "a&lt;b&amp;c" in text
        assert "a<b&c" not in text

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
                 for label, (x, y) in d.plane.items()}
        moved = with_plane(d, plane)
        spec = CanvasSpec(scale=data.draw(st.sampled_from([48.0, 7.3, 100.0])),
                          margin=data.draw(st.sampled_from([40.0, 0.0, 2.5])))
        width, height, place = _screen_geometry(moved, spec)
        want_w, want_h, want = screen_geometry_by_fractions(moved, spec)
        assert (width, height) == (want_w, want_h)
        assert {label: place(label) for label in want} == want

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
        assert text.rstrip().endswith(r"\end{document}")

    def test_tex_escaping(self):
        o = build_order(["a_1", "b%x"], [("a_1", "b%x")])
        text = emit_tikz(compute_coordinates(o)).decode()
        assert r"a\_1" in text
        assert r"b\%x" in text

    def test_label_none_omits_labels(self):
        d = compute_coordinates(chain(2))
        text = emit_tikz(d, CanvasSpec(label_mode="none")).decode()
        assert "label=" not in text

    def test_scale_changes_unit(self):
        d = compute_coordinates(chain(2))
        default = emit_tikz(d).decode()
        doubled = emit_tikz(d, CanvasSpec(scale=96.0)).decode()
        assert "x=1.000cm" in default
        assert "x=2.000cm" in doubled


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

    def test_with_plane_round_trip_preserves_everything_else(self):
        d = compute_coordinates(boolean_lattice(2))
        moved = with_plane(d, {k: (v[0] + 1, v[1]) for k, v in d.plane.items()})
        assert moved.coords == d.coords
        assert moved.cover_edges == d.cover_edges
        assert moved.trace is d.trace
