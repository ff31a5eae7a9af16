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
from dataclasses import dataclass
from fractions import Fraction
from xml.sax.saxutils import escape

from .engine import GridDrawing, with_plane
from .errors import Unresolvable
from .orders import Pair

Conflict = tuple[str, Pair]


@dataclass(frozen=True)
class CanvasSpec:
    """Sizing knobs for the emitters."""

    scale: float = 48.0
    margin: float = 40.0
    node_radius: float = 5.0
    font_size: float = 12.0
    label_mode: str = "right"  # right | above | none

    def __post_init__(self):
        if self.scale <= 0 or self.node_radius <= 0:
            raise ValueError("scale and node radius must be positive")
        if self.margin < 0 or self.font_size <= 0:
            raise ValueError("margin must be non-negative, font size positive")
        if self.label_mode not in ("right", "above", "none"):
            raise ValueError(f"unknown label mode {self.label_mode!r}")


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

    Exact test: with u, v the edge endpoints and w the point, w is on the
    open segment iff cross(v-u, w-u) = 0 and 0 < dot(v-u, w-u) < |v-u|^2.
    It runs on integers (the plane scaled by its common denominator), and
    each edge is tested only against the elements whose height lies strictly
    between its endpoints' heights: no other point of a non-horizontal edge
    can be on its open segment.  A horizontal edge is tested against the
    elements at its height; a zero-length edge has no open segment.
    """
    pts, _ = _integer_plane(d)
    by_height = sorted(d.order.ground, key=lambda label: pts[label][1])
    heights = [pts[label][1] for label in by_height]
    conflicts: list[Conflict] = []
    for a, b in d.cover_edges:
        ux, uy = pts[a]
        vx, vy = pts[b]
        ex, ey = vx - ux, vy - uy
        if ey:
            low, high = min(uy, vy), max(uy, vy)
            band = by_height[bisect_right(heights, low):bisect_left(heights, high)]
        elif ex:
            band = by_height[bisect_left(heights, uy):bisect_right(heights, uy)]
        else:
            continue
        length = ex * ex + ey * ey
        for label in band:
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


def perturb(d: GridDrawing, conflicts: list[Conflict] | None = None,
            epsilon: Fraction = Fraction(3, 20),
            max_rounds: int = 20) -> GridDrawing:
    """Nudge conflicting points horizontally until no point lies on an edge.

    Each offending point is tried at x + eps, x - eps, x + 2*eps, ... from
    its original x; y never changes, so edges keep rising.  Raises
    Unresolvable if conflicts survive `max_rounds` rounds.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if conflicts is None:
        conflicts = detect_collinear(d)
    if not conflicts:
        return d
    base = dict(d.plane)
    plane = dict(d.plane)
    attempts: dict[str, int] = {}
    current = d
    for _ in range(max_rounds):
        for label in sorted({lab for lab, _ in conflicts}):
            k = attempts.get(label, 0) + 1
            attempts[label] = k
            step = epsilon * ((k + 1) // 2) * (1 if k % 2 else -1)
            x, y = base[label]
            plane[label] = (x + step, y)
        current = with_plane(d, plane)
        conflicts = detect_collinear(current)
        if not conflicts:
            return current
    raise Unresolvable(f"collinear points remain after {max_rounds} rounds")


def _screen_geometry(d: GridDrawing, spec: CanvasSpec):
    # int true division is correctly rounded, so (X - min X) / D is the
    # float of the rational x - min x, as float(Fraction) gives it
    pts, denom = _integer_plane(d)
    xs = [p[0] for p in pts.values()]
    ys = [p[1] for p in pts.values()]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = (max_x - min_x) / denom * spec.scale + 2 * spec.margin
    height = (max_y - min_y) / denom * spec.scale + 2 * spec.margin
    # one screen point per element, looked up once per edge end and label
    screen = {label: ((x - min_x) / denom * spec.scale + spec.margin,
                      (max_y - y) / denom * spec.scale + spec.margin)
              for label, (x, y) in pts.items()}
    return width, height, screen.__getitem__


def emit_svg(d: GridDrawing, spec: CanvasSpec | None = None) -> bytes:
    """Render as SVG: cover edges as lines below labelled node circles."""
    spec = spec or CanvasSpec()
    width, height, place = _screen_geometry(d, spec)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<g fill="none" stroke="#333333" stroke-width="1.5">',
    ]
    for a, b in d.cover_edges:
        x1, y1 = place(a)
        x2, y2 = place(b)
        out.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"/>')
    out.append("</g>")
    out.append('<g fill="#1f5fbf" stroke="#0b2f66" stroke-width="1">')
    for label in d.order.ground:
        cx, cy = place(label)
        out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{spec.node_radius:.2f}"/>')
    out.append("</g>")
    if spec.label_mode != "none":
        out.append(f'<g font-family="sans-serif" font-size="{spec.font_size:.2f}" '
                   'fill="#111111">')
        for label in d.order.ground:
            cx, cy = place(label)
            if spec.label_mode == "right":
                tx, ty = cx + spec.node_radius + 3.0, cy + spec.font_size * 0.35
            else:
                tx, ty = cx, cy - spec.node_radius - 4.0
            anchor = ' text-anchor="middle"' if spec.label_mode == "above" else ""
            out.append(f'<text x="{tx:.2f}" y="{ty:.2f}"{anchor}>{escape(label)}</text>')
        out.append("</g>")
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


_TEX_SPECIALS = {
    "\\": r"\textbackslash{}",
    "&": r"\&", "%": r"\%", "$": r"\$", "#": r"\#", "_": r"\_",
    "{": r"\{", "}": r"\}",
    "~": r"\textasciitilde{}", "^": r"\textasciicircum{}",
}


def _tex_escape(s: str) -> str:
    return "".join(_TEX_SPECIALS.get(ch, ch) for ch in s)


def emit_tikz(d: GridDrawing, spec: CanvasSpec | None = None) -> bytes:
    """Render as a standalone TikZ picture (edges behind nodes)."""
    spec = spec or CanvasSpec()
    unit = spec.scale / 48.0  # default spec => 1cm per grid step
    ids = {label: f"n{i}" for i, label in enumerate(d.order.ground)}
    out = [
        r"\documentclass[tikz,border=4pt]{standalone}",
        r"\begin{document}",
        r"\begin{tikzpicture}[x=%.3fcm,y=%.3fcm]" % (unit, unit),
    ]
    for a, b in d.cover_edges:
        ax, ay = d.plane[a]
        bx, by = d.plane[b]
        out.append(r"\draw[thick] (%.3f,%.3f) -- (%.3f,%.3f);"
                   % (float(ax), float(ay), float(bx), float(by)))
    label_pos = {"right": "right", "above": "above", "none": None}[spec.label_mode]
    for label in d.order.ground:
        x, y = d.plane[label]
        tag = f",label={label_pos}:{{{_tex_escape(label)}}}" if label_pos else ""
        out.append(r"\node[circle,fill=blue!60,draw=blue!80!black,inner sep=1.6pt%s]"
                   r" (%s) at (%.3f,%.3f) {};"
                   % (tag, ids[label], float(x), float(y)))
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
