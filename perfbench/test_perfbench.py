"""Tests of the benchmark's own parts: corpus, accounting, checker.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import time

import pytest

import checker
import corpus
import measure
from measure import Attempt


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_identical_for_the_same_seed(workload):
    first = corpus.build_corpus(workload, 3)
    assert first == corpus.build_corpus(workload, 3)
    assert first != corpus.build_corpus(workload, 4)


def test_exact_corpus_is_not_two_dimensional_and_small():
    for item in corpus.build_corpus("exact", 0):
        labels, less = checker.reference_relation(item.fmt, item.text)
        assert checker.min_removals(labels, less) == item.min_false >= 1, item.name
        if not item.name.startswith("standard_example"):
            assert 2 * checker.incomparable_count(labels, less) <= 100
            assert item.min_false == corpus.EXACT_K


def test_failures_rank_above_every_success_and_their_time_counts():
    cap = 10.0
    attempts = [Attempt(i, 0.1 * (i + 1), None) for i in range(9)]
    attempts.append(Attempt(9, 0.05, "OrderViolation: injected"))
    ranked = measure.ranked_seconds(attempts, cap)
    assert ranked[-1] == cap + 0.05
    summary = measure.summarize(attempts, cap)
    assert summary["fail_share"] == 0.1
    assert summary["draw_p90_s"] > 0.9  # the failure weighs in above every success
    assert summary["drawings_per_s"] == pytest.approx(9 / (4.5 + 0.05))
    # turning the failure into a success cannot raise a percentile
    fixed = attempts[:-1] + [Attempt(9, 5.0, None)]
    assert measure.summarize(fixed, cap)["draw_p90_s"] <= summary["draw_p90_s"]
    assert measure.summarize(fixed, cap)["draw_p50_s"] <= summary["draw_p50_s"]


def test_times_are_speed_scaled_per_attempt():
    attempts = [Attempt(0, 0.2, None, scale=0.5), Attempt(1, 0.1, None, scale=2.0)]
    assert measure.ranked_seconds(attempts, 10.0) == pytest.approx([0.1, 0.2])
    assert measure.ranked_seconds(attempts, 10.0, scaled=False) == pytest.approx([0.1, 0.2])
    assert measure.summarize(attempts, 10.0)["drawings_per_s"] == pytest.approx(2 / 0.3)
    attempts[1] = Attempt(1, 0.1, None, scale=1.0)
    assert measure.summarize(attempts, 10.0)["drawings_per_s"] == pytest.approx(2 / 0.2)


def test_percentile_estimates_the_quantile_from_every_order_statistic():
    values = [float(v) for v in range(1, 102)]
    assert measure.percentile(values, 0.5) == pytest.approx(51.0)
    assert measure.percentile(values, 0.9) == pytest.approx(91.0, abs=0.5)
    # one outlier far from the quantile barely moves it
    assert measure.percentile(values[:-1] + [1e3], 0.5) == pytest.approx(51.0, abs=1e-6)


def test_timed_reports_raises_and_cap_overruns():
    def boom():
        raise ValueError("injected")

    def spin():
        while True:
            time.sleep(0.01)

    seconds, value, error = measure.timed(boom, 1.0)
    assert value is None and error == "ValueError: injected"
    seconds, value, error = measure.timed(spin, 0.05)
    assert value is None and "cap" in error and seconds >= 0.05
    assert measure.timed(lambda: 7, 1.0)[1:] == (7, None)


def test_failed_items_are_charged_their_incomparable_pairs():
    q = measure.quality({0: 2, 1: None}, [10, 6])
    assert q["false_comparabilities"] == 8
    assert q["kept_incomparable_share"] == pytest.approx((0.8 + 0) / 2)


def _drawn(text):
    drawing, _, doc_text = measure.draw("order", text, "sat")
    labels, less = checker.parse_order(text)
    return labels, less, drawing, json.loads(doc_text)


def test_checker_accepts_a_real_drawing():
    from orddraw.ingest import serialize_order
    from orddraw.orders import standard_example

    labels, less, drawing, doc = _drawn(serialize_order(standard_example(4)))
    assert checker.check_drawing(labels, less, json.dumps(doc), drawing) == []
    assert doc["false_comparabilities"] == 2


def test_checker_rejects_swapped_grid_coordinates():
    from orddraw.ingest import serialize_order
    from orddraw.orders import standard_example

    labels, less, drawing, doc = _drawn(serialize_order(standard_example(4)))
    a, b = doc["elements"][1], doc["elements"][4]  # a2 < b1
    a["grid"], b["grid"] = b["grid"], a["grid"]
    assert checker.check_drawing(labels, less, json.dumps(doc), drawing)


def test_checker_rejects_a_wrong_false_comparability_count():
    from orddraw.ingest import serialize_order
    from orddraw.orders import standard_example

    labels, less, drawing, doc = _drawn(serialize_order(standard_example(4)))
    doc["false_comparabilities"] -= 1
    problems = checker.check_drawing(labels, less, json.dumps(doc), drawing)
    assert any("false comparabilities" in p for p in problems)


def test_checker_finds_an_element_on_a_cover_edge():
    from fractions import Fraction as F

    plane = {"a": (F(0), F(0)), "b": (F(2), F(4)), "w": (F(1), F(2)), "v": (F(0), F(2))}
    assert checker.on_cover_edges(plane, [("a", "b")]) == [("w", "a", "b")]


def test_context_lattice_matches_the_library():
    from orddraw.ingest import concept_lattice, parse_cxt
    from orddraw.orders import cover_relation

    for item in corpus.build_corpus("heuristic", 0):
        if item.fmt != "cxt":
            continue
        o = concept_lattice(parse_cxt(item.text))
        labels, less = checker.lattice_of_context(item.text)
        assert sorted(labels) == sorted(o.ground)
        assert {(a, b) for a in o.ground for b in o.ground if o.lt(a, b)} == less
        assert cover_relation(o)


def test_min_removals_of_standard_examples():
    from orddraw.ingest import serialize_order
    from orddraw.orders import standard_example

    for k in (3, 4, 5):
        labels, less = checker.parse_order(serialize_order(standard_example(k)))
        assert checker.min_removals(labels, less) == k - 2
