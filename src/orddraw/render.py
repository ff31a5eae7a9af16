"""SVG, TikZ, and graphviz output for grid drawings.

All geometry is done on the exact rational plane coordinates carried by the
drawing, scaled to integers over their common denominator; floats only
appear in the emitted text.  Cover edges rise strictly
(an extension never reverses a comparability), so flipping the y axis for
screen coordinates keeps greater elements higher.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .engine import GridDrawing
from .errors import Unresolvable
from .orders import Pair

Conflict = tuple[str, Pair]


# Canvas geometry in SVG user units: one grid step is _SCALE, the drawing
# keeps a _MARGIN on every side, and each label sits right of its node.
_SCALE = 48.0
_MARGIN = 40.0
_NODE_RADIUS = 5.0
_FONT_SIZE = 12.0

_EPSILON = Fraction(3, 20)
_MAX_ROUNDS = 20


def _integer_plane(d: GridDrawing) -> tuple[dict[str, tuple[int, int]], int]:
    """The plane scaled by the common denominator of all its coordinates,
    and that denominator.

    Scaling every point by one positive factor keeps the collinearity test
    exact: cross products stay zero or non-zero, and dot products and
    squared lengths scale alike.
    """
    scale = math.lcm(*(c.denominator for p in d.plane.values() for c in p))
    return {label: (x.numerator * (scale // x.denominator),
                    y.numerator * (scale // y.denominator))
            for label, (x, y) in d.plane.items()}, scale


def detect_collinear(d: GridDrawing) -> list[Conflict]:
    """Elements sitting on the open segment of a non-incident cover edge.

    Exact, on integers (the plane scaled by its common denominator).  With
    u, v the edge endpoints, e = v - u and g = gcd(e_x, e_y), a lattice
    point w is on the open segment iff w = u + k * (e / g) for an integer
    1 <= k < g: e / g is primitive, so every lattice point of the line
    through u and v is an integer step along it.  So each edge either
    looks up those g - 1 points in a map from point to labels, or, when
    fewer elements lie in its height band (perturbed planes have large
    denominators), tests each of them: w is on the open segment iff
    cross(v-u, w-u) = 0 and 0 < dot(v-u, w-u) < |v-u|^2.  The band of a
    non-horizontal edge is the elements strictly between its endpoints'
    heights, of a horizontal one the elements at its height.  An edge costs
    min(g - 1, band size) tests; a zero-length edge has no open segment.
    """
    pts, _ = _integer_plane(d)
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
        if g < 2:  # no lattice point on the open segment; g = 0: zero length
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
    rising.  Raises Unresolvable if conflicts survive _MAX_ROUNDS rounds.
    """
    if conflicts is None:
        conflicts = detect_collinear(d)
    if not conflicts:
        return d
    base = dict(d.plane)
    plane = dict(d.plane)
    attempts: dict[str, int] = {}
    current = d
    for _ in range(_MAX_ROUNDS):
        for label in sorted({lab for lab, _ in conflicts}):
            k = attempts.get(label, 0) + 1
            attempts[label] = k
            step = _EPSILON * ((k + 1) // 2) * (1 if k % 2 else -1)
            x, y = base[label]
            plane[label] = (x + step, y)
        current = d.replace(plane=dict(plane))  # plane changes in the next round
        conflicts = detect_collinear(current)
        if not conflicts:
            return current
    raise Unresolvable(f"collinear points remain after {_MAX_ROUNDS} rounds")


def _screen_geometry(d: GridDrawing):
    """Canvas width and height, and each element's screen point in ground order."""
    # int true division is correctly rounded, so (X - min X) / D is the
    # float of the rational x - min x, as float(Fraction) gives it
    pts, denom = _integer_plane(d)
    xs = [p[0] for p in pts.values()]
    ys = [p[1] for p in pts.values()]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = (max_x - min_x) / denom * _SCALE + 2 * _MARGIN
    height = (max_y - min_y) / denom * _SCALE + 2 * _MARGIN
    screen = {label: ((pts[label][0] - min_x) / denom * _SCALE + _MARGIN,
                      (max_y - pts[label][1]) / denom * _SCALE + _MARGIN)
              for label in d.order.ground}
    return width, height, screen


def emit_svg(d: GridDrawing) -> bytes:
    """Render as SVG: cover edges as lines below labelled node circles.

    Raises ValueError naming the first label that holds a character XML 1.0
    cannot carry, not even as a character reference (a C0 control other
    than tab, newline and carriage return, or U+FFFE, U+FFFF).
    """
    for label in d.order.ground:
        if not _NOT_XML_CHARS.isdisjoint(label):
            raise ValueError(f"label {label!r} holds a character that SVG (XML 1.0) "
                             "cannot carry")
    width, height, points = _screen_geometry(d)
    # each screen coordinate is formatted once, for its circle and for
    # every edge end at it: one float always gives the same text
    text = {label: (f"{x:.2f}", f"{y:.2f}") for label, (x, y) in points.items()}
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<g fill="none" stroke="#333333" stroke-width="1.5">',
    ]
    for a, b in d.cover_edges:
        x1, y1 = text[a]
        x2, y2 = text[b]
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    out.append("</g>")
    out.append('<g fill="#1f5fbf" stroke="#0b2f66" stroke-width="1">')
    for cx, cy in text.values():
        out.append(f'<circle cx="{cx}" cy="{cy}" r="{_NODE_RADIUS:.2f}"/>')
    out.append("</g>")
    out.append(f'<g font-family="sans-serif" font-size="{_FONT_SIZE:.2f}" '
               'fill="#111111">')
    for label, (cx, cy) in points.items():
        tx, ty = cx + _NODE_RADIUS + 3.0, cy + _FONT_SIZE * 0.35
        out.append(f'<text x="{tx:.2f}" y="{ty:.2f}">{_xml_escape(label)}</text>')
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
    for a, b in d.cover_edges:
        ax, ay = d.plane[a]
        bx, by = d.plane[b]
        out.append(r"\draw[thick] (%.3f,%.3f) -- (%.3f,%.3f);"
                   % (float(ax), float(ay), float(bx), float(by)))
    for label in d.order.ground:
        x, y = d.plane[label]
        out.append(r"\node[circle,fill=blue!60,draw=blue!80!black,inner sep=1.6pt,"
                   r"label=right:{%s}] (%s) at (%.3f,%.3f) {};"
                   % (_tex_escape(label), ids[label], float(x), float(y)))
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
    for label in d.order.ground:
        x, y = d.plane[label]
        out.append('  %s [label="%s", pos="%.3f,%.3f!"];'
                   % (ids[label], _dot_escape(label), float(x), float(y)))
    for a, b in d.cover_edges:
        out.append(f"  {ids[a]} -> {ids[b]};")
    out.append("}")
    return ("\n".join(out) + "\n").encode("utf-8")
