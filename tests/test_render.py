"""Tests for collinearity handling and the SVG/TikZ/graphviz emitters."""

import contextlib
import math
import random
import re
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orddraw.engine import compute_coordinates, perturbed_labels
from orddraw.errors import Unresolvable
from orddraw.ingest import parse_order_text
from orddraw.orders import antichain, boolean_lattice, build_order, chain, grid
from orddraw import render
from orddraw.render import (_screen_geometry, detect_collinear, emit_dot,
                            emit_svg, emit_tikz, perturb)
from oracles import (blocked_two_dimensional, collinear_points, random_order,
                     screen_geometry_by_fractions, strict_pairs)


def oracle_conflicts(d):
    """Every (element, edge) pair tested with the parametric oracle."""
    return sorted((label, (a, b)) for a, b in d.cover_edges for label in d.order.ground
                  if label not in (a, b)
                  and collinear_points(d.plane[a], d.plane[b], d.plane[label]))


@contextlib.contextmanager
def failing_after(seconds):
    """Raise TimeoutError inside the block once `seconds` have passed (where
    the platform has interval timers), so a runaway loop fails, not hangs."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
        # perturb has work to do and leaves Fraction planes (multiples of
        # its step off the grid); a point then put halfway between a moved
        # point and another sits on their edge, at a finer denominator
        rng = random.Random(167)
        checked = 0
        for _ in range(40):
            o = random_order(rng, rng.randint(4, 9))
            d = compute_coordinates(o, strategy="anneal")
            eps = rng.choice([Fraction(3, 20), Fraction(1, 7), Fraction(2, 9)])
            monkeypatch.setattr(render, "_EPSILON", eps)
            fixed = perturb(d.replace(cover_edges=comparabilities(o)))
            assert detect_collinear(fixed) == oracle_conflicts(fixed) == []
            moved = perturbed_labels(fixed)
            if not moved:
                continue
            m = moved[0]
            u, w = [label for label in o.ground if label != m][:2]
            (mx, my), (ux, uy) = fixed.plane[m], fixed.plane[u]
            halfway = fixed.replace(plane={**fixed.plane, w: ((mx + ux) / 2, (my + uy) / 2)})
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
        nudged = d.replace(plane=plane, cover_edges=tuple(edges))
        assert detect_collinear(nudged) == oracle_conflicts(nudged)

    def test_agrees_with_oracle_on_every_comparability_of_2d_orders(self):
        # a two-dimensional order sits at its realizer's integer grid
        # points, so its long comparabilities pass through lattice points
        # (g = gcd of the edge's steps >= 2) and some of those hold elements
        found = long_found = 0
        for seed in range(32):
            o = blocked_two_dimensional(random.Random(seed).randint(4, 30), 1, seed)
            d = compute_coordinates(o)
            assert {c.denominator for p in d.plane.values() for c in p} == {1}
            every = d.replace(cover_edges=comparabilities(o))
            conflicts = detect_collinear(every)
            assert conflicts == oracle_conflicts(every)
            found += len(conflicts)
            for _, (a, b) in conflicts:
                (ux, uy), (vx, vy) = every.plane[a], every.plane[b]
                long_found += math.gcd(int(vx - ux), int(vy - uy)) >= 3
        assert found > 60 and long_found > 40, "the suite should hit lattice points"

    def test_two_labels_at_one_point_are_both_reported(self):
        d = compute_coordinates(chain(4))
        plane = {"x1": (Fraction(0), Fraction(0)), "x4": (Fraction(4), Fraction(2)),
                 "x2": (Fraction(2), Fraction(1)), "x3": (Fraction(2), Fraction(1))}
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
        plane = dict(d.plane)
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
        fined = d.replace(plane=plane, cover_edges=edges)
        _, scale = render._integer_plane(fined)
        assert scale >= 1000
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
        shifted = doctored.replace(plane={**d.plane, "x2": (d.plane["x2"][0], Fraction(1, 3)),
                                          "x3": (d.plane["x1"][0] + 1, d.plane["x1"][1])})
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
        for label in d.order.ground:
            assert fixed.plane[label][1] == d.plane[label][1]

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
        (x, y), (fx, fy) = d.plane["x2"], perturb(d).plane["x2"]
        assert fy == y and fx - x in (Fraction(3, 20), Fraction(-3, 20))

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
                 for label, (x, y) in d.plane.items()}
        moved = d.replace(plane=plane)
        scale = data.draw(st.sampled_from([48.0, 7.3, 100.0]))
        margin = data.draw(st.sampled_from([40.0, 0.0, 2.5]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(render, "_SCALE", scale)
            mp.setattr(render, "_MARGIN", margin)
            got = _screen_geometry(moved)
        assert got == screen_geometry_by_fractions(moved, scale, margin)
        assert list(got[2]) == list(moved.order.ground)  # the SVG's element order

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
