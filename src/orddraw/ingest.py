"""Input formats: plain order text, Burmeister contexts, concept lattices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError, TooLarge
from .orders import GroundSet, OrderRelation, build_order, cover_relation


def parse_order_text(text: str) -> OrderRelation:
    """Read an order from `a < b` lines.

    Blank lines and `#` comments are skipped.  An optional
    `elements: a b c` line declares labels up front (useful for isolated
    elements); otherwise labels are collected in order of appearance.
    `a < a` lines are allowed and add nothing.
    """
    labels: list[str] = []
    seen: set[str] = set()
    pairs: list[tuple[str, str]] = []

    def note(label: str) -> None:
        if label not in seen:
            seen.add(label)
            labels.append(label)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            for label in line[len("elements:"):].split():
                if label == "<":
                    raise ParseError(lineno, "'<' cannot be used as a label")
                note(label)
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "<":
            raise ParseError(lineno, f"expected 'a < b', got {line!r}")
        a, _, b = tokens
        if a == "<" or b == "<":
            raise ParseError(lineno, "'<' cannot be used as a label")
        note(a)
        note(b)
        if a != b:
            pairs.append((a, b))
    if not labels:
        raise ParseError(0, "no elements found")
    return build_order(labels, pairs)


def serialize_order(o: OrderRelation) -> str:
    """Inverse of parse_order_text, using the cover relation.

    Raises ValueError, naming the first such label, if a label cannot be
    read back: one that is empty, holds whitespace or `#`, is `<`, or
    starts with `elements:`.
    """
    for label in o.ground:
        if (not label or label == "<" or label.startswith("elements:")
                or "#" in label or any(ch.isspace() for ch in label)):
            raise ValueError(f"label {label!r} cannot be written as order text")
    lines = ["elements: " + " ".join(o.ground)]
    lines.extend(f"{a} < {b}" for a, b in sorted(cover_relation(o)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FormalContext:
    """A cross table: which objects have which attributes.

    `incidence` is given as one row of truthy cells per object and kept as
    a tuple of tuples of bools; incidence[i][j] means object i has
    attribute j.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence: Iterable[Iterable[object]]

    def __post_init__(self):
        rows = tuple(tuple(bool(cell) for cell in row) for row in self.incidence)
        if (len(rows) != len(self.objects)
                or any(len(row) != len(self.attributes) for row in rows)):
            raise ValueError("incidence shape does not match object/attribute counts")
        object.__setattr__(self, "incidence", rows)


def parse_cxt(text: str) -> FormalContext:
    """Read a context in Burmeister .cxt format.

    The format is a `B` line, two counts (blank lines in between are
    tolerated), one line per object name, one per attribute name, then one
    row of `X`/`.` per object.  `x` is accepted for `X`.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 0

    def next_content() -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines):
            line = lines[pos].rstrip("\r")
            pos += 1
            if line.strip():
                return pos, line
        raise ParseError(len(lines), "unexpected end of file")

    lineno, header = next_content()
    if header.strip() != "B":
        raise ParseError(lineno, f"expected header 'B', got {header.strip()!r}")
    lineno, raw = next_content()
    try:
        n_objects = int(raw.strip())
    except ValueError:
        raise ParseError(lineno, f"expected object count, got {raw.strip()!r}") from None
    lineno, raw = next_content()
    try:
        n_attributes = int(raw.strip())
    except ValueError:
        raise ParseError(lineno, f"expected attribute count, got {raw.strip()!r}") from None
    if n_objects < 0 or n_attributes < 0:
        raise ParseError(lineno, "counts must be non-negative")

    def take_name(kind: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(len(lines), f"missing {kind} name")
        name = lines[pos].rstrip("\r")
        pos += 1
        return name

    objects = tuple(take_name("object") for _ in range(n_objects))
    attributes = tuple(take_name("attribute") for _ in range(n_attributes))
    # the table is built from rows already read, so the counts alone cannot
    # make it allocate more than the text holds
    rows = []
    for i in range(n_objects):
        if pos >= len(lines):
            raise ParseError(len(lines), f"missing incidence row for {objects[i]!r}")
        row = lines[pos].rstrip("\r")
        pos += 1
        if len(row) != n_attributes:
            raise ParseError(pos, f"row for {objects[i]!r} has {len(row)} cells, "
                                  f"expected {n_attributes}")
        for cell in row:
            if cell not in "Xx.":
                raise ParseError(pos, f"unexpected cell {cell!r}")
        rows.append([cell in "Xx" for cell in row])
    return FormalContext(objects, attributes, rows)


def _extent_label(ctx: FormalContext, extent_mask: int) -> str:
    names = [ctx.objects[i] for i in range(len(ctx.objects)) if extent_mask >> i & 1]
    return "{" + ",".join(sorted(names)) + "}"


MAX_CONCEPTS = 2 ** 14  # the most concepts concept_lattice builds


def concept_lattice(ctx: FormalContext) -> OrderRelation:
    """The lattice of formal concepts of a context, ordered by extent.

    Concepts are enumerated by closing attribute sets (NextClosure); the
    result is the complete lattice of maximal object/attribute rectangles.
    Labels are the sorted extents, e.g. ``{apple,pear}``; two concepts
    whose labels coincide raise ValueError.  More than MAX_CONCEPTS
    concepts raise TooLarge.
    """
    n_obj, n_att = len(ctx.objects), len(ctx.attributes)
    obj_rows = [sum(1 << j for j, cell in enumerate(row) if cell) for row in ctx.incidence]
    full_att = (1 << n_att) - 1

    def extent_of(att_mask: int) -> int:
        e = 0
        for i in range(n_obj):
            if obj_rows[i] & att_mask == att_mask:
                e |= 1 << i
        return e

    def intent_of(ext_mask: int) -> int:
        a = full_att
        for i in range(n_obj):
            if ext_mask >> i & 1:
                a &= obj_rows[i]
        return a

    def close(att_mask: int) -> int:
        return intent_of(extent_of(att_mask))

    concepts: list[tuple[int, int]] = []  # (extent, intent)
    intent = close(0)
    while True:
        concepts.append((extent_of(intent), intent))
        if len(concepts) > MAX_CONCEPTS:
            raise TooLarge(f"context has more than {MAX_CONCEPTS} concepts")
        if intent == full_att:
            break
        # NextClosure: largest attribute i whose closure is a clean extension.
        for i in range(n_att - 1, -1, -1):
            if intent >> i & 1:
                continue
            candidate = close((intent & ((1 << i) - 1)) | 1 << i)
            if candidate & ((1 << i) - 1) == intent & ((1 << i) - 1):
                intent = candidate
                break
        else:  # pragma: no cover - full_att always closes the loop first
            break

    concepts.sort(key=lambda c: (bin(c[0]).count("1"), c[0]))
    labels = [_extent_label(ctx, ext) for ext, _ in concepts]
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"two concepts share the label {label!r}: "
                             "object names repeat, contain ',' or are empty")
        seen.add(label)
    ground = GroundSet(labels)
    extents = [ext for ext, _ in concepts]
    up = [0] * len(extents)
    down = [0] * len(extents)
    for i, ext_i in enumerate(extents):
        # sorted by size, so only later extents can contain ext_i
        for j in range(i, len(extents)):
            if ext_i & extents[j] == ext_i:
                up[i] |= 1 << j
                down[j] |= 1 << i
    order = OrderRelation(ground, up, down)
    order.validate()
    return order
