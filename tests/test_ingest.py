"""Tests for the text order format, .cxt parsing, and concept lattices."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orddraw import ingest
from orddraw.errors import CycleError, ParseError, TooLarge, UnknownLabel
from orddraw.ingest import (FormalContext, concept_lattice, parse_cxt,
                            parse_order_text, read_order, serialize_order)
from orddraw.orders import (boolean_lattice, build_order, chain, cover_relation,
                            grid, standard_example)
from oracles import (assert_order, brute_concepts, parse_cxt_reference,
                     parse_order_text_reference, random_order)


def order_like_texts():
    """Order-text tokens, separators and line breaks of every kind, joined."""
    return st.lists(st.sampled_from(["a", "b", "c", "é", "{a,b}", "<", "<<", "elements:",
                                     "#", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x1c",
                                     "\x85", "\u2028", "\x00", "B"]),
                    max_size=40).map("".join)


@st.composite
def order_text_layouts(draw):
    """Up to 8 lines of order text over 4 labels, `<` and `<<`: pairs (which
    often close a cycle), `elements:` lines, comments, blank lines and lines
    with a wrong token count, each ended by LF, CRLF or CR."""
    label = st.sampled_from(["a", "b", "c", "d"] * 4 + ["<", "<<"])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["pair"] * 8 + ["elements", "comment", "blank", "wrong"]))
        if kind == "pair":
            line = f"{draw(label)} < {draw(label)}"
        elif kind == "elements":
            line = "elements:" + " ".join(draw(st.lists(label, max_size=3)))
        elif kind == "comment":
            line = "# " + draw(st.sampled_from(["a < b", "", "elements: x"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t"]))
        else:
            line = " ".join(draw(st.lists(st.sampled_from(["a", "<", "b", "<="]), max_size=5)))
        if draw(st.booleans()):
            line += "  # tail"
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines)


def read_order_text(parse, text):
    """The order that `parse` reads from text, as its labels and masks, or
    its ParseError's line and reason, or its CycleError's witness."""
    try:
        o = parse(text)
    except ParseError as err:
        return "ParseError", err.line, err.reason
    except CycleError as err:
        return "CycleError", err.cycle
    return o.ground.labels, o.up, o.down


class TestOrderText:
    def test_basic_parse(self):
        o = parse_order_text("a < b\nb < c\n")
        assert list(o.ground) == ["a", "b", "c"]
        assert o.lt("a", "c")

    def test_comments_blanks_and_inline_comments(self):
        o = parse_order_text("# heading\n\na < b  # tail comment\n")
        assert o.lt("a", "b")

    def test_elements_line_declares_isolated_labels(self):
        o = parse_order_text("elements: a b c lonely\na < b\n")
        assert o.n == 4
        assert not o.lt("lonely", "a") and not o.lt("a", "lonely")

    def test_labels_collected_in_appearance_order(self):
        o = parse_order_text("z < m\na < z\n")
        assert list(o.ground) == ["z", "m", "a"]

    def test_self_relation_is_a_no_op(self):
        o = parse_order_text("a < a\nb < a\n")
        assert o.n == 2 and o.lt("b", "a")

    def test_malformed_lines_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_order_text("a < b\nb c\n")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_order_text("a <= b\n")
        assert err.value.line == 1

    def test_angle_bracket_is_not_a_label(self):
        with pytest.raises(ParseError):
            parse_order_text("< < b\n")
        with pytest.raises(ParseError):
            parse_order_text("elements: a < b\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_order_text("# nothing here\n")
        assert err.value.line == 0

    def test_cycle_surfaces_as_cycle_error(self):
        with pytest.raises(CycleError):
            parse_order_text("a < b\nb < a\n")

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.text(max_size=80), order_like_texts()))
    def test_fuzzed_text_raises_only_the_documented_errors(self, text):
        try:
            o = parse_order_text(text)
        except (ParseError, CycleError):
            return
        assert o.n >= 1

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.text(max_size=80), order_like_texts(), order_text_layouts()))
    def test_reads_as_the_reference(self, text):
        assert (read_order_text(parse_order_text, text)
                == read_order_text(parse_order_text_reference, text))

    def test_round_trip_through_serialization(self):
        rng = random.Random(151)
        for _ in range(25):
            o = random_order(rng, rng.randint(1, 8))
            again = parse_order_text(serialize_order(o))
            assert list(again.ground) == list(o.ground)
            assert again.matrix == o.matrix

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_serialization_round_trips_every_label_it_accepts(self, data):
        labels = data.draw(st.lists(st.one_of(
            st.text(max_size=6),
            st.sampled_from(["x3", "{1,2}", "2,3", "a1", "<", "elements:", "elements:x",
                             "a b", "x#1", "", "\u2028", "<<"])), min_size=1, max_size=6,
            unique=True))
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
                                   max_size=8))
        # pairs that go up the label list never close a cycle
        o = build_order(labels, [(a, b) for a, b in pairs if labels.index(a) < labels.index(b)])
        try:
            text = serialize_order(o)
        except ValueError as exc:
            bad = [lab for lab in labels if not lab or lab == "<" or "#" in lab
                   or lab.startswith("elements:") or any(ch.isspace() for ch in lab)]
            assert bad and repr(bad[0]) in str(exc)
            return
        assert parse_order_text(text) == o == read_order(text)

    @pytest.mark.parametrize("labels, bad", [
        (["a b", "c"], "a b"), (["x#1"], "x#1"), (["ok", "elements:"], "elements:"),
        (["ok", "<"], "<"), (["ok", ""], ""), (["a\u2028b"], "a\u2028b")])
    def test_unwritable_labels_are_rejected(self, labels, bad):
        with pytest.raises(ValueError) as info:
            serialize_order(build_order(labels, []))
        assert repr(bad) in str(info.value)

    @pytest.mark.parametrize("o", [chain(5), standard_example(4), boolean_lattice(3), grid(3, 4)],
                             ids=["chain", "standard_example", "boolean_lattice", "grid"])
    def test_generated_families_round_trip(self, o):
        # labels like x3, a1, {1,2} and 2,3, as the benchmark corpora write them
        assert parse_order_text(serialize_order(o)) == o

    def test_serialized_form_is_covers_only(self):
        text = serialize_order(chain(3))
        assert text == "elements: x1 x2 x3\nx1 < x2\nx2 < x3\n"


def order_text_case(rng: random.Random):
    """(text, labels, pairs, error) of a random order text built line by
    line: the labels in order of appearance and the pairs of its lines, and
    the (line, reason) of its first malformed line, if it has one.  The
    texts mix comments, blank lines, `elements:` lines that repeat labels,
    `a < a` lines and, among few labels, cycles; one text uses one line
    end, LF, CRLF or CR alone."""
    pool = [f"v{k}" for k in range(rng.randint(1, 7))] + ["{a,b}", "é"]
    labels, pairs, lines, error = [], [], [], None

    def note(label):
        if label not in labels:
            labels.append(label)

    for lineno in range(1, rng.randint(0, 14) + 1):
        kind = rng.choices(["pair", "self", "elements", "comment", "blank", "bad"],
                           [8, 1, 1, 1, 1, 0.3])[0]
        if kind in ("pair", "self"):
            a = rng.choice(pool)
            b = a if kind == "self" else rng.choice(pool)
            lines.append(rng.choice(["{} < {}", "  {}\t<  {} ", "{} < {}  # {} < x"]
                                    ).format(a, b, a))
            note(a)
            note(b)
            if a != b:
                pairs.append((a, b))
        elif kind == "elements":
            declared = rng.choices(pool, k=rng.randint(0, 4))  # repeats too
            lines.append(" ".join(["elements:", *declared]))
            for label in declared:
                note(label)
        elif kind == "comment":
            lines.append(rng.choice(["# a < b", "   #", "#elements: z"]))
        elif kind == "blank":
            lines.append(rng.choice(["", "   ", "\t"]))
        else:
            line, reason = rng.choice([
                ("a b", "expected 'a < b', got 'a b'"),
                ("a <= b", "expected 'a < b', got 'a <= b'"),
                ("a < b < c", "expected 'a < b', got 'a < b < c'"),
                ("< < b", "'<' cannot be used as a label"),
                ("a < <", "'<' cannot be used as a label"),
                ("elements: a < b", "'<' cannot be used as a label")])
            lines.append(line)
            if error is None:
                error = (lineno, reason)
    if error is None and not labels:
        error = (0, "no elements found")
    end = rng.choice(["\n", "\r\n", "\r"])
    text = end.join(lines) + rng.choice(["", end])
    return text, labels, pairs, error


def test_the_reader_agrees_with_build_order_on_random_texts():
    rng = random.Random(3001)
    outcomes = set()
    for _ in range(400):
        text, labels, pairs, error = order_text_case(rng)
        if error is not None:
            with pytest.raises(ParseError) as err:
                parse_order_text(text)
            assert (err.value.line, err.value.reason) == error, text
            outcomes.add("ParseError")
            continue
        try:
            expected = build_order(labels, pairs)
        except CycleError as exc:
            with pytest.raises(CycleError) as err:
                parse_order_text(text)
            assert err.value.cycle == exc.cycle, text
            outcomes.add("CycleError")
            continue
        o = parse_order_text(text)
        # OrderRelation's == compares the ground and up only
        assert (o.ground.labels, o.up, o.down) == \
            (expected.ground.labels, expected.up, expected.down), text
        outcomes.add("order")
    assert outcomes == {"ParseError", "CycleError", "order"}


CXT_SQUARE = """B

2
2
obj_a
obj_b
attr_1
attr_2
X.
.X
"""


@st.composite
def cxt_like_texts(draw):
    """Contexts with up to 4 objects and attributes, then up to 3 lines
    dropped, doubled or replaced, joined by one line break style."""
    g, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    lines = ["B", "", str(g), str(m)]
    lines += [draw(st.text(max_size=4)) for _ in range(g + m)]
    lines += ["".join(draw(st.lists(st.sampled_from("Xx.o "), min_size=m, max_size=m)))
              for _ in range(g)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "double", "replace"]))
        if edit == "drop":
            del lines[i]
        elif edit == "double":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(st.text(st.sampled_from("B0123-+ Xx.\r"), max_size=5))
    brk = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return brk.join(lines) + draw(st.sampled_from(["", brk]))


@st.composite
def cxt_layouts(draw):
    """Contexts with up to 3 objects and attributes: with no name line or a
    blank, word or integer one, with or without a blank line after the
    counts, names that may be blank or integers and cells that may be `?`,
    then up to 2 lines dropped, doubled, or replaced by `1` or a blank."""
    g, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    name = draw(st.sampled_from([None, "", "ctx"]) | st.integers(-1, 2019).map(str))
    lines = ["B"] + ([] if name is None else [name]) + [str(g), str(m)]
    lines += [""] * draw(st.integers(0, 1))
    lines += [draw(st.sampled_from(["", "a", "b", "0", "1", "2"])) for _ in range(g + m)]
    lines += ["".join(draw(st.lists(st.sampled_from("Xx.?"), min_size=m, max_size=m)))
              for _ in range(g)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = draw(st.sampled_from([[], [lines[i]] * 2, ["1"], [""]]))
    brk = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return brk.join(lines) + draw(st.sampled_from(["", brk]))


def with_the_integer_name_as_a_word(text):
    """`text` with its integer name line replaced by a word, if parse_cxt
    reads that line as the name; otherwise None.  It does when the first
    three lines after `B` that are not blank hold integers, the last two
    of them counts g and m of at least 0, and a blank line then follows
    with exactly 2g + m lines after it."""
    lines = ingest._lines(text)
    filled = [i for i, line in enumerate(lines) if line.strip()]
    if len(filled) < 4 or lines[filled[0]].strip() != "B":
        return None
    name, g, m = filled[1:4]
    try:
        int(lines[name])
        g, m = int(lines[g]), int(lines[m])
    except ValueError:
        return None
    after = lines[filled[3] + 1:]
    if min(g, m) < 0 or len(after) != 2 * g + m + 1 or after[0].strip():
        return None
    lines[name] = "ctx"
    return "\n".join(lines) + "\n"


def read_cxt(parse, text):
    """The context that `parse` reads from text, or its ParseError's line
    and reason."""
    try:
        return parse(text)
    except ParseError as err:
        return err.line, err.reason


class TestCxt:
    def test_parse_square(self):
        ctx = parse_cxt(CXT_SQUARE)
        assert ctx.objects == ("obj_a", "obj_b")
        assert ctx.attributes == ("attr_1", "attr_2")
        assert ctx.incidence == ((True, False), (False, True))

    def test_crlf_and_lowercase_cells(self):
        ctx = parse_cxt("B\r\n2\r\n1\r\na\r\nb\r\np\r\nx\r\n.\r\n")
        assert ctx.incidence == ((True,), (False,))

    # the common layout: a name line after `B` (often blank) and a blank
    # line after the counts
    @pytest.mark.parametrize("text, objects, attributes, incidence", [
        ("B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n", ("a", "b"), ("x", "y"),
         ((True, False), (False, True))),
        ("B\n\n1\n1\n\na\nx\nX\n", ("a",), ("x",), ((True,),)),
        ("B\nname\n2\n2\n\na\nb\nx\ny\nX.\n.X\n", ("a", "b"), ("x", "y"),
         ((True, False), (False, True))),
        ("B\r\nname\r\n1\r\n2\r\n\r\no\r\np\r\nq\r\n.X\r\n", ("o",), ("p", "q"),
         ((False, True),)),
    ], ids=["blank-name", "one-cell", "named", "named-crlf"])
    def test_standard_layout(self, text, objects, attributes, incidence):
        ctx = parse_cxt(text)
        assert (ctx.objects, ctx.attributes, ctx.incidence) == (objects, attributes, incidence)

    def test_a_blank_line_the_names_need_is_an_empty_name(self):
        # one line fewer than the common layout: the blank line names the object
        ctx = parse_cxt("B\n1\n1\n\nx\nX\n")
        assert (ctx.objects, ctx.attributes, ctx.incidence) == (("",), ("x",), ((True,),))

    # an integer name line in the common layout
    @pytest.mark.parametrize("text, objects, attributes, incidence", [
        ("B\n2\n1\n1\n\na\nx\nX\n", ("a",), ("x",), ((True,),)),
        ("B\n2019\n2\n1\n\na\nb\nx\nX\n.\n", ("a", "b"), ("x",), ((True,), (False,))),
    ], ids=["2", "2019"])
    def test_an_integer_line_is_the_name_when_the_common_layout_fits(
            self, text, objects, attributes, incidence):
        ctx = parse_cxt(text)
        assert (ctx.objects, ctx.attributes, ctx.incidence) == (objects, attributes, incidence)
        assert read_order(text).ground.labels[-1] == "{" + ",".join(objects) + "}"

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.text(max_size=80), cxt_like_texts(), cxt_layouts()))
    def test_reads_as_the_reference_but_for_an_integer_name(self, text):
        named = with_the_integer_name_as_a_word(text)
        want = read_cxt(parse_cxt_reference, text if named is None else named)
        assert read_cxt(parse_cxt, text) == want

    def test_header_must_be_b(self):
        with pytest.raises(ParseError) as err:
            parse_cxt("A\n1\n1\no\na\nX\n")
        assert "header" in err.value.reason

    def test_counts_must_be_integers(self):
        with pytest.raises(ParseError):
            parse_cxt("B\ntwo\n1\no\na\nX\n")

    def test_short_row_is_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_cxt("B\n1\n2\no\na1\na2\nX\n")
        assert "cells" in err.value.reason

    def test_bad_cell_is_rejected(self):
        with pytest.raises(ParseError):
            parse_cxt("B\n1\n1\no\na\n?\n")

    def test_truncated_file(self):
        with pytest.raises(ParseError):
            parse_cxt("B\n2\n2\nonly_object\n")

    def test_counts_past_the_text_allocate_nothing(self):
        # 10^5 x 10^5 cells would take 9.3 GiB; the first row is too short
        text = "B\n100000\n100000\n" + "\n" * 200_000 + "X\n"
        with pytest.raises(ParseError, match="cells"):
            parse_cxt(text)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.text(max_size=80), cxt_like_texts()))
    def test_fuzzed_text_raises_only_parse_errors(self, text):
        try:
            ctx = parse_cxt(text)
        except ParseError:
            return
        assert len(ctx.incidence) == len(ctx.objects)
        assert all(len(row) == len(ctx.attributes) for row in ctx.incidence)

    def test_incidence_shape_validated(self):
        with pytest.raises(ValueError):
            FormalContext(("a",), ("p", "q"), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):  # a ragged table
            FormalContext(("a", "b"), ("p", "q"), [[True, False], [True]])
        ctx = FormalContext(("a",), ("p", "q"), np.array([[1, 0]]))
        assert ctx.incidence == ((True, False),)


def identity_context(n):
    eye = np.eye(n, dtype=bool)
    return FormalContext(tuple(f"g{i}" for i in range(n)),
                         tuple(f"m{i}" for i in range(n)), eye)


def contranominal_context(n):
    inc = ~np.eye(n, dtype=bool)
    return FormalContext(tuple(f"g{i}" for i in range(n)),
                         tuple(f"m{i}" for i in range(n)), inc)


class TestConceptLattice:
    def test_identity_context_gives_a_diamond(self):
        # 2x2 identity: bottom, two atoms, top
        o = concept_lattice(identity_context(2))
        assert o.n == 4
        assert o.strict_pair_count() == boolean_lattice(2).strict_pair_count()
        assert len(cover_relation(o)) == 4

    def test_contranominal_scale_is_a_boolean_lattice(self):
        # complements of singletons generate all subsets
        o = concept_lattice(contranominal_context(3))
        b = boolean_lattice(3)
        assert o.n == b.n == 8
        assert o.strict_pair_count() == b.strict_pair_count()
        assert len(cover_relation(o)) == len(cover_relation(b))

    def test_empty_incidence_collapses(self):
        ctx = FormalContext(("a", "b"), ("p", "q"),
                            np.zeros((2, 2), dtype=bool))
        o = concept_lattice(ctx)
        # only two concepts: (all objects, nothing) and (nothing, all attrs)
        assert o.n == 2
        assert o.lt("{}", "{a,b}")

    def test_full_incidence_collapses_to_a_point(self):
        ctx = FormalContext(("a", "b"), ("p",), np.ones((2, 1), dtype=bool))
        o = concept_lattice(ctx)
        assert o.n == 1

    def test_labels_are_sorted_extents(self):
        o = concept_lattice(identity_context(2))
        assert set(o.ground) == {"{}", "{g0}", "{g1}", "{g0,g1}"}

    def test_result_is_a_lattice(self):
        # unique meets and joins on a few random contexts
        rng = random.Random(157)
        for _ in range(15):
            n_obj, n_att = rng.randint(1, 4), rng.randint(1, 4)
            inc = np.array([[rng.random() < 0.5 for _ in range(n_att)]
                            for _ in range(n_obj)])
            ctx = FormalContext(tuple(f"g{i}" for i in range(n_obj)),
                                tuple(f"m{j}" for j in range(n_att)), inc)
            o = concept_lattice(ctx)
            assert_order(o)
            m = o.matrix
            for i in range(o.n):
                for j in range(o.n):
                    ups = [k for k in range(o.n) if m[i][k] and m[j][k]]
                    downs = [k for k in range(o.n) if m[k][i] and m[k][j]]
                    joins = [k for k in ups if all(m[k][u] for u in ups)]
                    meets = [k for k in downs if all(m[d][k] for d in downs)]
                    assert len(joins) == 1 and len(meets) == 1

    def test_colliding_labels_name_the_cause(self):
        # objects a, a with rows X. and .X give two concepts labelled {a};
        # objects a, b, "a,b": the extents {a, b} and {"a,b"} are both {a,b}
        repeated = FormalContext(("a", "a"), ("p", "q"), [[True, False], [False, True]])
        with pytest.raises(ValueError, match=r"share the label '\{a\}': object names repeat"):
            concept_lattice(repeated)
        comma = FormalContext(("a", "b", "a,b"), ("p", "q"),
                              [[True, False], [True, False], [False, True]])
        with pytest.raises(ValueError, match=r"share the label '\{a,b\}'.*contain ','"):
            concept_lattice(comma)

    def test_repeated_names_that_do_not_collide_still_draw(self):
        # identical rows keep the two a's together in every extent
        ctx = FormalContext(("a", "a"), ("p",), [[True], [True]])
        assert list(concept_lattice(ctx).ground) == ["{a,a}"]

    @pytest.mark.parametrize("n, cap, raises", [(6, 10, True), (3, 8, False), (3, 7, True)],
                             ids=["64-concepts-cap-10", "8-concepts-cap-8", "8-concepts-cap-7"])
    def test_concept_count_guard(self, monkeypatch, n, cap, raises):
        # contranominal_context(n) has 2**n concepts; exactly cap of them still build
        monkeypatch.setattr(ingest, "MAX_CONCEPTS", cap)
        if raises:
            with pytest.raises(TooLarge, match=f"more than {cap} concepts"):
                concept_lattice(contranominal_context(n))
        else:
            assert concept_lattice(contranominal_context(n)).n == cap

    def test_concepts_match_closing_every_object_subset(self):
        rng = random.Random(163)
        shapes = [(0, 0), (0, 4), (4, 0), (8, 8)]
        shapes += [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(80)]
        tables = []
        for n_obj, n_att in shapes:
            density = rng.random()
            tables.append((n_att, [[rng.random() < density for _ in range(n_att)]
                                   for _ in range(n_obj)]))
        tables += [(5, [[False] * 5] * 6), (5, [[True] * 5] * 6),
                   (8, [[False] * 8] * 8), (8, [[True] * 8] * 8)]
        for _ in range(10):  # duplicate rows
            base = [[rng.random() < 0.5 for _ in range(6)] for _ in range(3)]
            tables.append((6, [list(rng.choice(base)) for _ in range(8)]))
        for n_att, table in tables:
            ctx = FormalContext(tuple(f"g{i}" for i in range(len(table))),
                                tuple(f"m{j}" for j in range(n_att)), table)

            def label(extent):
                return "{" + ",".join(sorted(ctx.objects[g] for g in extent)) + "}"

            extents = brute_concepts(ctx)
            above = {label(e): {label(f) for f in extents if e <= f} for e in extents}
            below = {label(e): {label(f) for f in extents if f <= e} for e in extents}
            o = concept_lattice(ctx)
            assert_order(o)  # an order: the closing step alone makes it one
            for masks, expected in ((o.up, above), (o.down, below)):
                got = {o.ground.label(i): {o.ground.label(j) for j in range(o.n)
                                           if masks[i] >> j & 1} for i in range(o.n)}
                assert got == expected


class TestReadOrder:
    @pytest.mark.parametrize("text", [
        "B\n2\n2\ng0\ng1\nm0\nm1\nX.\n.X\n",
        "\n  \n B \nname\n1\n1\n\na\nx\nX\n",
        "\ufeffB\r\n1\r\n1\r\na\r\nx\r\nX\r\n",
    ], ids=["plain", "blank-lines-first", "bom-crlf"])
    def test_a_first_line_b_is_a_context(self, text):
        assert read_order(text) == concept_lattice(parse_cxt(text.removeprefix("\ufeff")))

    @pytest.mark.parametrize("text", [
        "a < b\n", "\ufeffa < b\n", "elements: B\n", "B < C\n", "# B\na < b\n",
    ])
    def test_any_other_text_is_order_text(self, text):
        assert read_order(text) == parse_order_text(text.removeprefix("\ufeff"))

    @pytest.mark.parametrize("text", ["", "\ufeff", " \n\n", "B # note\n", "B\n"])
    def test_empty_text_and_a_bare_b_are_parse_errors(self, text):
        # `B` alone is no order-text line, with or without a comment
        with pytest.raises(ParseError):
            read_order(text)
        with pytest.raises(ParseError):
            parse_order_text(text.removeprefix("\ufeff"))

    @pytest.mark.parametrize("brk", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_a_context_reads_alike_under_every_line_end(self, brk):
        # the common layout: a blank name line after `B`, a blank line
        # after the counts
        text = "B\n\n3\n2\n\na\nb\nc\nx\ny\nX.\n.X\nXX\n"
        want = read_order(text)
        assert want.n == 4
        assert read_order(text.replace("\n", brk)) == want

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from(["\r\n", "\r", "\n", " ", "\t", "\ufeff", "\x0c",
                                     "\x85", "\u2028", "B", "a", "<", "#"]),
                    max_size=24).map("".join))
    def test_the_first_line_is_read_as_the_split_lines_give_it(self, text):
        split = next((line.strip() for line in ingest._lines(text) if line.strip()), "")
        assert ingest._first_line(text) == split

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.text(max_size=80), order_like_texts(), cxt_like_texts()))
    def test_text_valid_in_either_format_is_read_in_that_format(self, text):
        for parse in (parse_order_text, lambda t: concept_lattice(parse_cxt(t))):
            try:
                want = parse(text)
            except (ParseError, CycleError, ValueError):
                continue
            assert read_order(text) == want


# the characters that `str.splitlines` breaks lines at besides LF, CRLF and CR
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    """Every reader ends a line at LF, CRLF or CR alone, and nowhere else."""

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=ascii)
    def test_a_context_name_holding_any_other_separator_is_one_name(self, sep):
        name = f"a{sep}b"
        text = f"B\n\n2\n1\n\n{name}\nc\nx\nX\n.\n"
        ctx = parse_cxt(text)
        assert (ctx.objects, ctx.attributes, ctx.incidence) == \
            ((name, "c"), ("x",), ((True,), (False,)))
        assert read_order(text).ground.labels == ("{" + name + "}", "{" + name + ",c}")

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=ascii)
    def test_in_order_text_any_other_separator_is_whitespace(self, sep):
        # at a line break, the comment would end and `c < a` would count
        text = f"elements:{sep}a b{sep}c\na{sep}<{sep}b{sep}# a note{sep}c < a\n"
        want = parse_order_text("elements: a b c\na < b\n")
        for got in (parse_order_text(text), read_order(text)):
            assert (got.ground, got.up, got.down) == (want.ground, want.up, want.down)

    @pytest.mark.parametrize("brk", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_a_lone_cr_read_as_lf(self, brk):
        for parse, text in [
                (parse_order_text, "# c\nelements: a b\n\na < b\nb < c\n"),
                (parse_cxt, "B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n"),
                (parse_cxt, "B\n1\n1\n\nx\nX\n"),  # the blank line is a name
                (read_order, "B\nname\n1\n2\n\no\np\nq\n.X\n")]:
            for variant in (text, text.removesuffix("\n")):
                assert parse(variant.replace("\n", brk)) == parse(variant)
        for parse, text, line in [(parse_order_text, "a < b\n\nbad\n", 3),
                                  (parse_cxt, "B\n1\n1\no\na\n?\n", 6),
                                  (parse_cxt, "B\n2\n2\nonly\n", 4)]:
            for variant in (text, text.replace("\n", brk)):
                with pytest.raises(ParseError) as err:
                    parse(variant)
                assert err.value.line == line
