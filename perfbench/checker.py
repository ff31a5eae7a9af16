"""Drawing checks that do not rely on the library's fast paths.

The input relation is rebuilt here from the input text with plain Python
(its own parsers, depth-first closure and concept enumeration), the grid
is read back from the drawing's JSON document, and collinearity is tested
on the drawing's exact plane coordinates.
"""

from __future__ import annotations

import bisect
import json
from collections import deque
from itertools import combinations


def parse_order(text: str) -> tuple[list[str], set[tuple[str, str]]]:
    """Labels and strict comparabilities of `.order` text."""
    labels: list[str] = []
    succ: dict[str, set[str]] = {}

    def note(label: str) -> None:
        if label not in succ:
            succ[label] = set()
            labels.append(label)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            for label in line[len("elements:"):].split():
                note(label)
            continue
        a, lt, b = line.split()
        if lt != "<":
            raise ValueError(f"bad order line {line!r}")
        note(a)
        note(b)
        if a != b:
            succ[a].add(b)
    less = set()
    for a in labels:
        stack, seen = list(succ[a]), set()
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ[b])
        less.update((a, b) for b in seen)
    return labels, less


def parse_context(text: str) -> tuple[list[str], list[set[int]]]:
    """Objects and each attribute's object set from `.cxt` text."""
    lines = [line.rstrip("\r") for line in text.split("\n")]
    content = iter(lines)
    heads = [next(content) for _ in range(3)]
    if heads[0].strip() != "B":
        raise ValueError("not a Burmeister context")
    g, m = int(heads[1]), int(heads[2])
    objects = [next(content) for _ in range(g)]
    for _ in range(m):  # attribute names
        next(content)
    rows = [next(content) for _ in range(g)]
    extents = [{i for i in range(g) if rows[i][j] in "Xx"} for j in range(m)]
    return objects, extents


def lattice_of_context(text: str) -> tuple[list[str], set[tuple[str, str]]]:
    """Concept extents (all intersections of attribute extents) by inclusion."""
    objects, attribute_extents = parse_context(text)
    extents = {frozenset(range(len(objects)))}
    for ext in attribute_extents:
        extents |= {e & ext for e in extents}
    label = {e: "{" + ",".join(sorted(objects[i] for i in e)) + "}" for e in extents}
    less = {(label[a], label[b]) for a in extents for b in extents if a < b}
    return sorted(label.values()), less


def reference_relation(fmt: str, text: str) -> tuple[list[str], set[tuple[str, str]]]:
    if fmt == "cxt":
        return lattice_of_context(text)
    return parse_order(text)


def incomparable_count(labels: list[str], less: set[tuple[str, str]]) -> int:
    """Unordered incomparable pairs: what a linear extension would insert."""
    n = len(labels)
    return n * (n - 1) // 2 - len(less)


def check_drawing(labels: list[str], less: set[tuple[str, str]], doc_text: str,
                  drawing) -> list[str]:
    """Problems with one drawing; an empty list means it is correct.

    Every comparability must be strictly dominated in the grid and rise in
    the plane; every other grid dominance must join incomparable elements
    and be counted in `false_comparabilities`; no element may sit on a
    cover edge it is not incident to.
    """
    doc = json.loads(doc_text)
    grid = {e["label"]: tuple(e["grid"]) for e in doc["elements"]}
    plane = {e["label"]: tuple(e["plane"]) for e in doc["elements"]}
    problems = []
    if sorted(grid) != sorted(labels):
        return ["drawn elements differ from the input's elements"]
    for a, b in sorted(less):
        (a1, a2), (b1, b2) = grid[a], grid[b]
        if not (a1 < b1 and a2 < b2):
            problems.append(f"{a} < {b} is not dominated in the grid")
        if not plane[a][1] < plane[b][1]:
            problems.append(f"{a} < {b} does not rise in the plane")
    false = 0
    for a, b in combinations(labels, 2):
        if (a, b) in less or (b, a) in less:
            continue
        (a1, a2), (b1, b2) = grid[a], grid[b]
        if (a1 < b1 and a2 < b2) or (b1 < a1 and b2 < a2):
            false += 1
    if false != doc["false_comparabilities"]:
        problems.append(f"{false} false comparabilities in the grid, "
                        f"{doc['false_comparabilities']} reported")
    above: dict[str, set[str]] = {a: set() for a in labels}
    for a, b in less:
        above[a].add(b)
    covers = [(a, b) for a, b in less if not any(b in above[c] for c in above[a])]
    problems += [f"{w} lies on the cover edge {a} < {b}"
                 for w, a, b in on_cover_edges(drawing.plane, covers)]
    return problems


def on_cover_edges(plane: dict, edges) -> list[tuple[str, str, str]]:
    """(w, a, b) for each element w on the open segment of a cover edge a-b.

    Exact on rational coordinates.  Cover edges rise strictly, so only the
    elements whose height lies strictly between the endpoints' are tested.
    """
    by_height = sorted((y, label) for label, (_, y) in plane.items())
    heights = [y for y, _ in by_height]
    hits = []
    for a, b in edges:
        (ax, ay), (bx, by) = plane[a], plane[b]
        lo = bisect.bisect_right(heights, ay)
        hi = bisect.bisect_left(heights, by)
        for y, w in by_height[lo:hi]:
            wx = plane[w][0]
            if (bx - ax) * (y - ay) == (by - ay) * (wx - ax):
                hits.append((w, a, b))
    return hits


class BudgetExceeded(Exception):
    """The reference search gave up before finding the minimum."""


def _odd_cycle(adj: list[list[int]], removed: frozenset[int]) -> list[int] | None:
    """Vertices of an odd cycle in the graph minus `removed`, or None."""
    color: dict[int, int] = {}
    parent: dict[int, int] = {}
    for start in range(len(adj)):
        if start in removed or start in color:
            continue
        color[start], parent[start] = 0, -1
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in removed:
                    continue
                if w not in color:
                    color[w], parent[w] = 1 - color[u], u
                    queue.append(w)
                elif color[w] == color[u]:
                    up, wp = [u], [w]
                    while up[-1] != -1:
                        up.append(parent[up[-1]])
                    while wp[-1] != -1:
                        wp.append(parent[wp[-1]])
                    common = set(up) & set(wp)
                    return ([x for x in up if x not in common]
                            + [x for x in wp if x not in common]
                            + [next(x for x in up if x in common)])
    return None


def min_removals(labels: list[str], less: set[tuple[str, str]],
                 up_to: int | None = None, budget: int = 4000) -> int | None:
    """Fewest incomparable pairs whose reversal makes the order 2-dimensional
    in one pass: the minimum odd cycle transversal of the incompatibility
    graph, found by a bounded search that branches on the vertices of one
    odd cycle at a time.  None when the minimum exceeds `up_to`; raises
    BudgetExceeded after `budget` search nodes.
    """
    def le(a: str, b: str) -> bool:
        return a == b or (a, b) in less

    verts = [(a, b) for a in labels for b in labels
             if a != b and not le(a, b) and not le(b, a)]
    adj: list[list[int]] = [[] for _ in verts]
    for i, (a, b) in enumerate(verts):
        for j in range(i + 1, len(verts)):
            c, d = verts[j]
            if le(d, a) and le(b, c):
                adj[i].append(j)
                adj[j].append(i)
    nodes = 0

    def fixable(removed: frozenset[int], k: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded
        cycle = _odd_cycle(adj, removed)
        if cycle is None:
            return True
        return k > 0 and any(fixable(removed | {v}, k - 1) for v in cycle)

    k = 0
    while not fixable(frozenset(), k):
        k += 1
        if up_to is not None and k > up_to:
            return None
    return k
