"""SVG, TikZ, and graphviz output for grid drawings.

All geometry is exact, on ints.  One bounded lattice walk checks every
drawing for collinearity: a drawing with no perturbed label on its grid
ranks, any other on its integer plane, whose points share one
denominator, with every height divided by the heights' gcd.  At
denominator 1 the SVG's screen coordinates are ints as well; at any
other, floats appear only in the emitted text, as correctly rounded int
true divisions by it.  Cover edges rise strictly
(an extension never reverses a comparability), so flipping the y axis for
screen coordinates keeps greater elements higher.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .engine import GridDrawing, _moved_labels
from .errors import Unresolvable
from .orders import Pair

Conflict = tuple[str, Pair]


# Canvas geometry in SVG user units: one grid step is _SCALE, the drawing
# keeps a _MARGIN on every side, and each label sits right of its node.
# They are ints, so a canvas at denominator 1 has int coordinates.
_SCALE = 48
_MARGIN = 40
_NODE_RADIUS = 5
_FONT_SIZE = 12
# A label's anchor lies _FONT_SIZE * 0.35 (4.2) below its node: for an int
# screen y, f"{y + _FONT_SIZE * 0.35:.2f}" is y + 4, then ".20"
_LABEL_DY_TEXT = f"{_FONT_SIZE * 0.35:.2f}"
_LABEL_DY_UNITS, _LABEL_DY_DECIMALS = int(_LABEL_DY_TEXT[:-3]), _LABEL_DY_TEXT[-3:]
# A plane less than _EXACT_SPAN steps across has int screen coordinates
# under 2**38, whose floats are exact and still print to two exact places
# with a label offset added, so the int and the float texts agree
_EXACT_SPAN = 1 << 32

# the perturbation step, 3/20 of a grid unit, as (numerator, denominator)
_EPSILON = (3, 20)
_MAX_ROUNDS = 20


def detect_collinear(d: GridDrawing) -> list[Conflict]:
    """Elements sitting on the open segment of a non-incident cover edge,
    sorted.

    One exact walk (_lattice_conflicts) checks every drawing, on one of
    two integer inputs.  A drawing with no perturbed label passes its grid
    ranks (c1, c2): each plane point is then the denominator times the
    image of its grid point under the one-to-one linear map
    (c1, c2) -> (c2 - c1, c1 + c2), so an element lies on an edge's open
    segment exactly when its grid point lies on the open grid segment.
    Any other drawing, perturb's rounds among them, passes its plane
    points as (y / s, x), s the gcd of every plane y (1 if all are 0).
    Scaling one axis of every point alike keeps every collinearity and
    every betweenness, so neither s nor the shared denominator is read
    again.  perturb moves x alone, so its rounds keep the heights of the
    drawing it starts from, which s brings back down to small ints, and
    the walk's lattice steps with them.  The frame is chosen by a lazy
    test that stops at the first moved label.
    """
    if next(_moved_labels(d), None) is None:
        points = d.coords
    else:
        s = math.gcd(*(y for _, y in d.plane.values())) or 1
        points = {label: (y // s, x) for label, (x, y) in d.plane.items()}
    return _lattice_conflicts(points, d.cover_edges)


def _lattice_conflicts(points: dict[str, tuple[int, int]],
                       edges: tuple[Pair, ...]) -> list[Conflict]:
    """The labels whose point lies on the open segment of an edge that
    does not end at it, sorted; the walk behind detect_collinear.

    With u, v an edge's endpoints, e = v - u and g = gcd(e), a lattice
    point w is on the open segment iff w = u + k * (e / g) for an integer
    1 <= k < g, since e / g is primitive; g < 2 leaves no lattice point
    there, and a zero-length edge (g = 0) has no open segment.  While
    g <= n and e_p != 0, the edge looks those g - 1 points up in a map
    from p to the (q, label) of each point at that p (one p per k, so at
    most n entries in all).  Otherwise it tests each point of its band,
    found by bisection over the points sorted by p once: w is on the open
    segment iff cross(e, w - u) = 0 and 0 < dot(e, w - u) < |e|^2.  The
    band of an edge with e_p != 0 is the points strictly between its
    endpoints' p, of one with e_p = 0 the points at its p.  So every edge
    costs O(n) tests, and a realizer drawing (every rank below n) never
    sorts.
    """
    n = len(points)
    # p -> (q, label) of each point at that p; a realizer's ranks are
    # distinct, but drawings built by hand and moved points may share one
    at: dict[int, list[tuple[int, str]]] = {}
    for label, (p, q) in points.items():
        at.setdefault(p, []).append((q, label))
    by_p: list[tuple[int, int, str]] = []
    conflicts: list[Conflict] = []
    for a, b in edges:
        up, uq = points[a]
        vp, vq = points[b]
        ep, eq = vp - up, vq - uq
        g = math.gcd(ep, eq)
        if g < 2:
            continue
        if g <= n and ep:
            sp, sq = ep // g, eq // g
            for k in range(1, g):
                wq = uq + k * sq
                for q, label in at.get(up + k * sp, ()):
                    if q == wq:
                        conflicts.append((label, (a, b)))
            continue
        if not by_p:
            by_p = sorted((p, q, label) for label, (p, q) in points.items())
            ps = [p for p, _, _ in by_p]
        low, high = min(up, vp), max(up, vp)
        if ep:
            band = by_p[bisect_right(ps, low):bisect_left(ps, high)]
        else:
            band = by_p[bisect_left(ps, low):bisect_right(ps, high)]
        length = ep * ep + eq * eq
        for p, q, label in band:
            dp, dq = p - up, q - uq
            if ep * dq == eq * dp and 0 < ep * dp + eq * dq < length:
                conflicts.append((label, (a, b)))
    conflicts.sort()
    return conflicts


def perturb(d: GridDrawing, conflicts: list[Conflict] | None = None) -> GridDrawing:
    """Nudge conflicting points horizontally until no point lies on an edge.

    Each offending point is tried at x + eps, x - eps, x + 2*eps, ... from
    its original x, with eps = _EPSILON; y never changes, so edges keep
    rising.  The returned drawing's denominator is d's times eps's, and x
    moves by integer multiples of eps's numerator; no other point moves.
    Raises Unresolvable if conflicts survive _MAX_ROUNDS rounds.
    """
    if conflicts is None:
        conflicts = detect_collinear(d)
    if not conflicts:
        return d
    step, refine = _EPSILON
    den = d.denominator * refine
    base = {label: (x * refine, y * refine) for label, (x, y) in d.plane.items()}
    plane = dict(base)
    attempts: dict[str, int] = {}
    for _ in range(_MAX_ROUNDS):
        for label in sorted({lab for lab, _ in conflicts}):
            k = attempts.get(label, 0) + 1
            attempts[label] = k
            x, y = base[label]
            plane[label] = (x + step * ((k + 1) // 2) * (1 if k % 2 else -1), y)
        current = d.replace(plane=dict(plane), denominator=den)  # plane changes next round
        conflicts = detect_collinear(current)
        if not conflicts:
            return current
    raise Unresolvable(f"collinear points remain after {_MAX_ROUNDS} rounds")


def _screen_geometry(d: GridDrawing):
    """Canvas width and height, and each element's screen point in ground order.

    At denominator 1 (and a plane spanning under _EXACT_SPAN grid steps)
    each is an int.  Otherwise each is a float: int true division is
    correctly rounded, so (X - min X) / D is the float of the rational
    x - min x.
    """
    pts, denom = d.plane, d.denominator
    xs = [p[0] for p in pts.values()]
    ys = [p[1] for p in pts.values()]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    if denom == 1 and max(max_x - min_x, max_y - min_y) < _EXACT_SPAN:
        width = (max_x - min_x) * _SCALE + 2 * _MARGIN
        height = (max_y - min_y) * _SCALE + 2 * _MARGIN
        screen = {label: ((pts[label][0] - min_x) * _SCALE + _MARGIN,
                          (max_y - pts[label][1]) * _SCALE + _MARGIN)
                  for label in d.order.ground}
        return width, height, screen
    width = (max_x - min_x) / denom * _SCALE + 2 * _MARGIN
    height = (max_y - min_y) / denom * _SCALE + 2 * _MARGIN
    screen = {label: ((pts[label][0] - min_x) / denom * _SCALE + _MARGIN,
                      (max_y - pts[label][1]) / denom * _SCALE + _MARGIN)
              for label in d.order.ground}
    return width, height, screen


def emit_svg(d: GridDrawing) -> bytes:
    """Render as SVG: cover edges as lines below labelled node circles.

    Every number has two decimals.  Where _screen_geometry gives ints (at
    denominator 1), each is written as an int and ".00" (label anchors
    8 and 4.2 away as y + 4 and ".20"), the same text the float path
    writes for that drawing over any other denominator.

    Raises ValueError naming the first label that holds a character XML 1.0
    cannot carry, not even as a character reference (a C0 control other
    than tab, newline and carriage return, or U+FFFE, U+FFFF).
    """
    for label in d.order.ground:
        if not _NOT_XML_CHARS.isdisjoint(label):
            raise ValueError(f"label {label!r} holds a character that SVG (XML 1.0) "
                             "cannot carry")
    width, height, points = _screen_geometry(d)
    if type(width) is int:
        # an int v prints as "{v}.00", the text f"{v:.2f}" gives its float
        w, h = f"{width}.00", f"{height}.00"
        text = {label: (f"{x}.00", f"{y}.00") for label, (x, y) in points.items()}
        anchors = [(f"{x + _NODE_RADIUS + 3}.00", f"{y + _LABEL_DY_UNITS}{_LABEL_DY_DECIMALS}")
                   for x, y in points.values()]
    else:
        # each screen coordinate is formatted once, for its circle and for
        # every edge end at it: one float always gives the same text
        w, h = f"{width:.2f}", f"{height:.2f}"
        text = {label: (f"{x:.2f}", f"{y:.2f}") for label, (x, y) in points.items()}
        anchors = [(f"{x + _NODE_RADIUS + 3.0:.2f}", f"{y + _FONT_SIZE * 0.35:.2f}")
                   for x, y in points.values()]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
        f'height="{h}" viewBox="0 0 {w} {h}">',
        f'<g fill="none" stroke="#333333" stroke-width="1.5">',
    ]
    for a, b in d.cover_edges:
        x1, y1 = text[a]
        x2, y2 = text[b]
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    out.append("</g>")
    out.append('<g fill="#1f5fbf" stroke="#0b2f66" stroke-width="1">')
    radius = f"{_NODE_RADIUS:.2f}"
    for cx, cy in text.values():
        out.append(f'<circle cx="{cx}" cy="{cy}" r="{radius}"/>')
    out.append("</g>")
    out.append(f'<g font-family="sans-serif" font-size="{_FONT_SIZE:.2f}" '
               'fill="#111111">')
    for label, (tx, ty) in zip(points, anchors):
        out.append(f'<text x="{tx}" y="{ty}">{_xml_escape(label)}</text>')
    out.append("</g>")
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


# the code points outside XML 1.0's Char production that a str can hold
# and UTF-8 can encode
_NOT_XML_CHARS = frozenset(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20),
                                     0xFFFE, 0xFFFF]))


def _xml_escape(s: str) -> str:
    """XML character data: `&` first, so no other escape is escaped again.
    (The same bytes as xml.sax.saxutils.escape, whose import pulls in
    urllib.)"""
    return s.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


_TEX_SPECIALS = {
    "\\": r"\textbackslash{}",
    "&": r"\&", "%": r"\%", "$": r"\$", "#": r"\#", "_": r"\_",
    "{": r"\{", "}": r"\}",
    "~": r"\textasciitilde{}", "^": r"\textasciicircum{}",
}


def _tex_escape(s: str) -> str:
    return "".join(_TEX_SPECIALS.get(ch, ch) for ch in s)


def emit_tikz(d: GridDrawing) -> bytes:
    """Render as a standalone TikZ picture (edges behind nodes), one
    centimetre per grid step."""
    ids = {label: f"n{i}" for i, label in enumerate(d.order.ground)}
    out = [
        r"\documentclass[tikz,border=4pt]{standalone}",
        r"\begin{document}",
        r"\begin{tikzpicture}[x=1.000cm,y=1.000cm]",
    ]
    den = d.denominator
    for a, b in d.cover_edges:
        ax, ay = d.plane[a]
        bx, by = d.plane[b]
        out.append(r"\draw[thick] (%.3f,%.3f) -- (%.3f,%.3f);"
                   % (ax / den, ay / den, bx / den, by / den))
    for label in d.order.ground:
        x, y = d.plane[label]
        out.append(r"\node[circle,fill=blue!60,draw=blue!80!black,inner sep=1.6pt,"
                   r"label=right:{%s}] (%s) at (%.3f,%.3f) {};"
                   % (_tex_escape(label), ids[label], x / den, y / den))
    out.append(r"\end{tikzpicture}")
    out.append(r"\end{document}")
    return ("\n".join(out) + "\n").encode("utf-8")


def _dot_escape(s: str) -> str:
    """A DOT string body: backslashes first, so none escapes a quote or
    starts an escape such as \\N (the node name) in a label."""
    return s.replace("\\", "\\\\").replace('"', '\\"')


def emit_dot(d: GridDrawing) -> bytes:
    """Graphviz digraph of the cover relation with pinned positions."""
    ids = {label: f"n{i}" for i, label in enumerate(d.order.ground)}
    out = ["digraph diagram {", "  rankdir=BT;", '  node [shape=circle];']
    den = d.denominator
    for label in d.order.ground:
        x, y = d.plane[label]
        out.append('  %s [label="%s", pos="%.3f,%.3f!"];'
                   % (ids[label], _dot_escape(label), x / den, y / den))
    for a, b in d.cover_edges:
        out.append(f"  {ids[a]} -> {ids[b]};")
    out.append("}")
    return ("\n".join(out) + "\n").encode("utf-8")
