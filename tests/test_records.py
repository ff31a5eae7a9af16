"""The package's frozen value classes: construction, immutability, equality,
hashing, copies and pickles, as the frozen dataclasses they replace had."""

import copy
import pickle

import pytest

from orddraw.bipartization import OctResult
from orddraw.engine import GridDrawing, compute_coordinates
from orddraw.ingest import FormalContext
from orddraw.orders import standard_example
from orddraw.sat import CnfInstance


@pytest.fixture(scope="module")
def drawing():
    return compute_coordinates(standard_example(3))


def records(drawing):
    return [OctResult(frozenset({1}), "m", True, {"k": 1}),
            CnfInstance(2, ((1, -2),)),
            FormalContext(("a", "b"), ("p",), [[1], [0]]),
            drawing.trace,
            drawing]


class TestConstruction:
    def test_positional_and_keyword_calls_agree(self):
        assert (OctResult(frozenset(), "m", False, {})
                == OctResult(removed=frozenset(), method="m", optimal=False, stats={}))
        assert CnfInstance(1, ((1,),)) == CnfInstance(clauses=((1,),), num_vars=1)
        assert (FormalContext(("a",), ("p",), [[1]])
                == FormalContext(objects=("a",), attributes=("p",), incidence=[[1]]))

    def test_missing_or_unknown_fields_are_type_errors(self):
        with pytest.raises(TypeError):
            CnfInstance(1)
        with pytest.raises(TypeError):
            OctResult(frozenset(), "m", True, {}, "extra")
        with pytest.raises(TypeError):
            CnfInstance(1, (), colour="red")

    def test_each_oct_result_gets_its_own_stats(self):
        a, b = OctResult(frozenset(), "m", True), OctResult(frozenset(), "m", True)
        assert a.stats == {} and a.stats is not b.stats
        a.stats["k"] = 1
        assert b.stats == {}

    def test_formal_context_normalises_and_checks_its_shape(self):
        ctx = FormalContext(("a", "b"), ("p", "q"), [[1, 0], (0, "x")])
        assert ctx.incidence == ((True, False), (False, True))
        with pytest.raises(ValueError, match="incidence shape"):
            FormalContext(("a",), ("p", "q"), [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="incidence shape"):
            FormalContext(("a", "b"), ("p", "q"), [[1, 0], [1]])


class TestFrozen:
    def test_fields_cannot_be_assigned_added_or_deleted(self, drawing):
        for record in records(drawing):
            name = record.__slots__[0]
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1
            assert not hasattr(record, "__dict__")

    def test_trace_counts_are_read_off_its_pairs(self, drawing):
        trace = drawing.trace
        assert trace.passes == len(trace.per_pass_removed) == 1
        assert trace.false_comparabilities == len(trace.inserted | trace.closure_added) == 1
        with pytest.raises(TypeError):  # no stored copy to set apart from the pairs
            trace.replace(passes=2)
        assert trace.replace(per_pass_removed=()).passes == 0


class TestEquality:
    def test_oct_results_compare_without_stats(self):
        a = OctResult(frozenset({1}), "m", True, {"k": 1})
        b = OctResult(frozenset({1}), "m", True, {"k": 2})
        assert a == b and hash(a) == hash(b)
        assert a != OctResult(frozenset({1}), "m", False, {"k": 1})
        assert a != OctResult(frozenset({2}), "m", True, {"k": 1})

    def test_only_the_same_class_compares_equal(self):
        assert CnfInstance(1, ()) != (1, ())
        assert CnfInstance(1, ()).__eq__((1, ())) is NotImplemented

    def test_hash_follows_equality(self):
        assert hash(CnfInstance(2, ((1, 2),))) == hash(CnfInstance(2, ((1, 2),)))
        assert len({CnfInstance(2, ()), CnfInstance(2, ()), CnfInstance(3, ())}) == 2

    def test_a_drawing_with_dicts_is_unhashable(self, drawing):
        with pytest.raises(TypeError):
            hash(drawing)

    def test_repr_names_every_field(self):
        assert (repr(OctResult(frozenset(), "m", True))
                == "OctResult(removed=frozenset(), method='m', optimal=True, stats={})")


class TestCopies:
    def test_replace_changes_only_the_named_fields(self, drawing):
        edges = (("a1", "b2"),)
        changed = drawing.replace(cover_edges=edges)
        assert type(changed) is GridDrawing and changed.cover_edges == edges
        for name in ("order", "coords", "plane", "trace"):
            assert getattr(changed, name) is getattr(drawing, name)
        assert drawing.cover_edges != edges
        with pytest.raises(TypeError):
            drawing.replace(colour="red")

    def test_replace_runs_the_constructor_checks(self):
        ctx = FormalContext(("a",), ("p",), [[1]])
        assert ctx.replace(incidence=[[0]]).incidence == ((False,),)
        with pytest.raises(ValueError):
            ctx.replace(objects=("a", "b"))

    def test_copy_and_pickle_round_trip(self, drawing):
        for record in records(drawing):
            for twin in (copy.copy(record), copy.deepcopy(record),
                         pickle.loads(pickle.dumps(record))):
                assert type(twin) is type(record) and twin == record
                assert twin._fields() == record._fields()
