"""SVG, TikZ, and graphviz output for grid drawings.

All geometry is exact, on ints.  A drawing with no perturbed label is
checked on its grid ranks, any other on its integer plane, whose points
share one denominator.  At denominator 1 the SVG's screen coordinates are
ints as well; at any other, floats appear only in the emitted text, as
correctly rounded int true divisions by it.  Cover edges rise strictly
(an extension never reverses a comparability), so flipping the y axis for
screen coordinates keeps greater elements higher.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .engine import GridDrawing, perturbed_labels
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

    A drawing with no perturbed label is checked on its grid ranks: each
    plane point is then the denominator times the image of its grid point
    under the one-to-one linear map (c1, c2) -> (c2 - c1, c1 + c2), so an
    element lies on an edge's open segment exactly when its grid point
    lies on the open grid segment.  Each grid point there costs one lookup
    in a map from c1 to the elements at that rank and one compare of c2.
    Any other drawing, perturb's rounds among them, is checked on its
    plane (_plane_conflicts).  Both tests are exact: with u, v the edge
    endpoints, e = v - u and g = gcd(e), a lattice point w is on the open
    segment iff w = u + k * (e / g) for an integer 1 <= k < g, since
    e / g is primitive; a zero-length edge (g = 0) has no open segment.
    """
    if perturbed_labels(d):
        return _plane_conflicts(d)
    coords = d.coords
    # c1 -> (c2, label) of each element at that rank; a realizer's ranks
    # are distinct, but a drawing built by hand may repeat one
    at: dict[int, list[tuple[int, str]]] = {}
    for label, (c1, c2) in coords.items():
        at.setdefault(c1, []).append((c2, label))
    conflicts: list[Conflict] = []
    for a, b in d.cover_edges:
        u1, u2 = coords[a]
        v1, v2 = coords[b]
        e1, e2 = v1 - u1, v2 - u2
        g = math.gcd(e1, e2)
        if g < 2:  # no grid point on the open segment
            continue
        s1, s2 = e1 // g, e2 // g
        for k in range(1, g):
            w2 = u2 + k * s2
            for c2, label in at.get(u1 + k * s1, ()):
                if c2 == w2:
                    conflicts.append((label, (a, b)))
    conflicts.sort()
    return conflicts


def _plane_conflicts(d: GridDrawing) -> list[Conflict]:
    """detect_collinear on the integer plane, for perturbed drawings.

    The shared denominator scales every point alike, so it changes no
    collinearity and is never read.  Each edge either looks up the g - 1
    lattice points of its open segment in a map from point to labels, or,
    when fewer elements lie in its height band (a large denominator makes
    g large), tests each of them: w is on the open segment iff
    cross(v-u, w-u) = 0 and 0 < dot(v-u, w-u) < |v-u|^2.  The band of a
    non-horizontal edge is the elements strictly between its endpoints'
    heights, of a horizontal one the elements at its height.  An edge
    costs min(g - 1, band size) tests.
    """
    pts = d.plane
    at: dict[tuple[int, int], list[str]] = {}
    for label, p in pts.items():
        at.setdefault(p, []).append(label)
    by_height = sorted(d.order.ground, key=lambda label: pts[label][1])
    heights = [pts[label][1] for label in by_height]
    conflicts: list[Conflict] = []
    for a, b in d.cover_edges:
        ux, uy = pts[a]
        vx, vy = pts[b]
        ex, ey = vx - ux, vy - uy
        g = math.gcd(ex, ey)
        if g < 2:  # no lattice point on the open segment
            continue
        if ey:
            low = bisect_right(heights, min(uy, vy))
            high = bisect_left(heights, max(uy, vy))
        else:
            low, high = bisect_left(heights, uy), bisect_right(heights, uy)
        if g - 1 <= high - low:
            sx, sy = ex // g, ey // g
            for k in range(1, g):
                for label in at.get((ux + k * sx, uy + k * sy), ()):
                    conflicts.append((label, (a, b)))
            continue
        length = ex * ex + ey * ey
        for label in by_height[low:high]:
            if label == a or label == b:
                continue
            wx, wy = pts[label]
            px, py = wx - ux, wy - uy
            if ex * py - ey * px != 0:
                continue
            t = ex * px + ey * py
            if 0 < t < length:
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
