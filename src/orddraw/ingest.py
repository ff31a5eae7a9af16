"""Input formats: plain order text, Burmeister contexts, concept lattices."""

from __future__ import annotations

from typing import Iterable

from .errors import ParseError, TooLarge
from .orders import (GroundSet, OrderRelation, _close_generators, bits,
                     cover_relation, mask_of)
from .records import Record


def _lines(text: str) -> list[str]:
    """The lines of `text`, as every reader of this module splits it: a
    line ends at LF, CRLF or CR alone, and at no other character that
    `str.splitlines` breaks at.  As there, a final line break ends the
    last line and starts no empty one."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _first_line(text: str) -> str:
    """The first line of `text` that is not blank, stripped, or "": the
    first of `line.strip()` over _lines(text) that is not empty.  Leading
    whitespace holds every blank line (LF and CR are whitespace), so only
    the text up to the LF or CR after it is read."""
    head = text.lstrip()
    end = head.find("\n")
    return head[:end if end >= 0 else None].partition("\r")[0].rstrip()


def parse_order_text(text: str) -> OrderRelation:
    """Read an order from `a < b` lines.

    Blank lines and `#` comments are skipped.  An optional
    `elements: a b c` line declares labels up front (useful for isolated
    elements); otherwise labels are collected in order of appearance.
    `a < a` lines are allowed and add nothing.  Each label gets its id
    from one label -> id dict as its line is read; the generator rows are
    filled from the pairs read once the lines are done, and are closed by
    the same step as `build_order`'s, so the result, and any CycleError,
    is that of `build_order` on the labels and pairs read.
    """
    index: dict[str, int] = {}  # label -> id, in order of appearance
    pairs: list[tuple[int, int]] = []  # (i, j) per line i < j
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            labels = line[len("elements:"):].split()
            if "<" in labels:
                raise ParseError(lineno, "'<' cannot be used as a label")
            for label in labels:
                index.setdefault(label, len(index))
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "<":
            raise ParseError(lineno, f"expected 'a < b', got {line!r}")
        a, _, b = tokens
        if a == "<" or b == "<":
            raise ParseError(lineno, "'<' cannot be used as a label")
        pairs.append((index.setdefault(a, len(index)), index.setdefault(b, len(index))))
    if not index:
        raise ParseError(0, "no elements found")
    generators = [0] * len(index)  # bit j of generators[i]: a line i < j
    for i, j in pairs:
        generators[i] |= 1 << j
    return _close_generators(GroundSet(index), generators)


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


class FormalContext(Record):
    """A cross table: which objects have which attributes.

    `incidence` is given as one row of truthy cells per object and kept as
    a tuple of tuples of bools; incidence[i][j] means object i has
    attribute j.
    """

    __slots__ = ("objects", "attributes", "incidence")

    def __init__(self, objects: tuple[str, ...], attributes: tuple[str, ...],
                 incidence: Iterable[Iterable[object]]):
        rows = tuple(tuple(bool(cell) for cell in row) for row in incidence)
        if (len(rows) != len(objects)
                or any(len(row) != len(attributes) for row in rows)):
            raise ValueError("incidence shape does not match object/attribute counts")
        self._fill(objects, attributes, rows)


def _integer(line: str) -> int | None:
    """The integer that `line` holds, as `int` reads it, or None."""
    try:
        return int(line)
    except ValueError:
        return None


def _count(kind: str, lineno: int, text: str) -> int:
    """The count that line `lineno` holds, stripped to `text`."""
    count = _integer(text)
    if count is None:
        raise ParseError(lineno, f"expected {kind} count, got {text!r}")
    return count


def parse_cxt(text: str) -> FormalContext:
    """Read a context in Burmeister .cxt format.

    The format is a `B` line, two counts (blank lines in between are
    tolerated), one line per object name, one per attribute name, then one
    row of `X`/`.` per object.  `x` is accepted for `X`.  A line between
    `B` and the counts that is not an integer is the context's name, and
    is skipped.  So is an integer line there when the file has the common
    layout with it as the name: two counts follow it, then a blank line,
    then exactly the names and rows that those counts ask for.  A blank
    line after the counts is skipped when the file holds exactly one line
    more than the names and rows need, as in the common layout; otherwise
    it is a name, which may be empty.  Lines end in LF, CRLF or CR alone,
    so a name may hold any other character.
    """
    lines = _lines(text)
    # the number (from 1) and stripped text of each line that is not blank
    filled = ((lineno, line.strip()) for lineno, line in enumerate(lines, 1) if line.strip())
    try:
        lineno, header = next(filled)
        if header != "B":
            raise ParseError(lineno, f"expected header 'B', got {header!r}")
        lineno, line = next(filled)
        named = _integer(line) is None
        if named:
            lineno, line = next(filled)
        n_objects = _count("object", lineno, line)
        lineno, line = next(filled)
        n_attributes = _count("attribute", lineno, line)
    except StopIteration:
        raise ParseError(len(lines), "unexpected end of file") from None
    # with an integer name line, the line after the counts is a third count
    after, line = next(filled, (0, ""))
    third = _integer(line)
    if (not named and third is not None and min(n_attributes, third) >= 0
            and len(lines) - after - 1 == 2 * n_attributes + third and not lines[after].strip()):
        n_objects, n_attributes, lineno = n_attributes, third, after
    if n_objects < 0 or n_attributes < 0:
        raise ParseError(lineno, "counts must be non-negative")
    if len(lines) - lineno == 2 * n_objects + n_attributes + 1 and not lines[lineno].strip():
        lineno += 1  # the blank line of the common layout
    # names and rows are slices of the lines read, so the counts alone
    # cannot make the table allocate more than the text holds
    names = lines[lineno:lineno + n_objects + n_attributes]
    if len(names) < n_objects + n_attributes:
        kind = "object" if len(names) < n_objects else "attribute"
        raise ParseError(len(lines), f"missing {kind} name")
    objects, attributes = tuple(names[:n_objects]), tuple(names[n_objects:])
    first = lineno + len(names)  # the rows' first line, numbered from 0
    rows = lines[first:first + n_objects]
    for lineno, (name, row) in enumerate(zip(objects, rows), start=first + 1):
        if len(row) != n_attributes:
            raise ParseError(lineno, f"row for {name!r} has {len(row)} cells, "
                                     f"expected {n_attributes}")
        if bad := row.strip("Xx."):
            raise ParseError(lineno, f"unexpected cell {bad[0]!r}")
    if len(rows) < n_objects:
        raise ParseError(len(lines), f"missing incidence row for {objects[len(rows)]!r}")
    return FormalContext(objects, attributes, ([cell in "Xx" for cell in row] for row in rows))


def _extent_label(ctx: FormalContext, extent_mask: int) -> str:
    return "{" + ",".join(sorted(ctx.objects[i] for i in bits(extent_mask))) + "}"


MAX_CONCEPTS = 2 ** 14  # the most concepts concept_lattice builds


def concept_lattice(ctx: FormalContext) -> OrderRelation:
    """The lattice of formal concepts of a context, ordered by extent.

    The intents of a context are exactly the intersections of its object
    intents (the empty intersection being all attributes), so they are
    listed by a fold over the object rows: each row is intersected with
    every intent held so far.  The result is the complete lattice of
    maximal object/attribute rectangles.  Labels are the sorted extents,
    e.g. ``{apple,pear}``; two concepts whose labels coincide raise
    ValueError.  More than MAX_CONCEPTS concepts raise TooLarge.  Every
    intent held during the fold is an intent of the whole context, so the
    check after each row raises only when the lattice is too large, and
    the fold never holds more than twice MAX_CONCEPTS masks.  The rows of
    extent containment go through the step that closes every order of the
    package; containment is already closed, and distinct extents form no
    cycle, so that step's one sweep gives them back as `up` and builds
    `down` beside them.
    """
    rows = [sum(1 << j for j, cell in enumerate(row) if cell) for row in ctx.incidence]
    intents = {(1 << len(ctx.attributes)) - 1}
    for row in rows:
        intents |= {row & intent for intent in intents}
        if len(intents) > MAX_CONCEPTS:
            raise TooLarge(f"context has more than {MAX_CONCEPTS} concepts")
    extents = sorted((sum(1 << i for i, row in enumerate(rows) if row & intent == intent)
                      for intent in intents), key=lambda ext: (bin(ext).count("1"), ext))
    labels = [_extent_label(ctx, ext) for ext in extents]
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"two concepts share the label {label!r}: "
                             "object names repeat, contain ',' or are empty")
        seen.add(label)
    # sorted by size, so only later extents can contain ext_i
    containing = [mask_of(j for j in range(i, len(extents)) if ext_i & extents[j] == ext_i)
                  for i, ext_i in enumerate(extents)]
    return _close_generators(GroundSet(labels), containing)


def read_order(text: str) -> OrderRelation:
    """The order that order text or a Burmeister context describes.

    One leading byte-order mark is dropped.  Text whose first non-blank
    line is `B` is a context, drawn as its concept lattice; any other text
    is order text.  The rule is exact on valid input: a Burmeister file
    must begin with `B`, and `B` alone is never a valid order-text line.
    """
    text = text.removeprefix("\ufeff")
    if _first_line(text) == "B":
        return concept_lattice(parse_cxt(text))
    return parse_order_text(text)
