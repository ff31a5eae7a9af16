"""Acceptance gate: one test per advertised guarantee.

Every test prints a single ``criterion N: PASS``/``FAIL`` line (visible
under ``pytest -s``), so the whole contract can be audited at a glance.
The nightly sweep over all small lattices is marked ``nightly`` and
excluded from default runs.
"""

import random
import time

import pytest

from orddraw.bipartization import encode_oct, min_oct_exact
from orddraw.engine import (compute_coordinates, drawing_to_json,
                            two_dimension_extension)
from orddraw.graphs import is_bipartite_without
from orddraw.orders import (boolean_lattice, build_order, grid, inc_id_pairs,
                            intersect_linear, standard_example)
from orddraw.orientation import compute_conjugate_order, realizer_from_conjugate
from orddraw.render import detect_collinear, emit_svg, perturb
from orddraw.tig import build_tig
from oracles import (MULTIPASS_SCRIPTED_REMOVAL, assert_order,
                     brute_force_oct, brute_min_extension, brute_two_realizer,
                     graph_from_edges, has_cycle_with, multipass_order,
                     naturally_labeled_posets, order_from_downsets, poset_canonical_form,
                     poset_is_lattice, random_order, scripted_then_exact)


def report(number):
    """Decorator printing the criterion verdict after the body runs."""
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL")
                raise
            print(f"criterion {number}: PASS")
        run.__name__ = fn.__name__
        return run
    return wrap


def dim2(o):
    return compute_conjugate_order(o) is not None


def assert_valid_trace(o, tr):
    inc = set(inc_id_pairs(o))
    assert tr.inserted <= inc, "insertions must be incomparable pairs of the input"
    assert not tr.inserted & {(b, a) for a, b in tr.inserted}, \
        "no pair may be inserted in both directions"
    assert_order(tr.extended)
    assert all(e & u == u for u, e in zip(o.up, tr.extended.up))
    l1, l2 = realizer_from_conjugate(tr.extended, tr.conjugate)
    assert intersect_linear([l1, l2]) == tr.extended


def order_suite(count, max_n=6, seed=211):
    """The shared random-order suite used by several criteria."""
    rng = random.Random(seed)
    return [random_order(rng, rng.randint(1, max_n)) for _ in range(count)]


@report(1)
def test_criterion_1_standard_example_single_diagonal_pair():
    started = time.perf_counter()
    o = standard_example(3)
    tr = two_dimension_extension(o, strategy="sat")
    elapsed = time.perf_counter() - started
    assert tr.passes == 1
    assert len(tr.inserted) == 1
    assert tr.inserted_labels()[0] in (("a1", "b1"), ("a2", "b2"), ("a3", "b3"))
    assert_valid_trace(o, tr)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@report(2)
def test_criterion_2_cnf_size_identities():
    rng = random.Random(223)
    for _ in range(200):
        n = rng.randint(2, 40)
        k = rng.randint(1, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.2]
        g = graph_from_edges(n, edges)
        cnf = encode_oct(g, k)
        assert cnf.num_vars == (n - 1) * (k + 3) + 3, (n, k)
        assert len(cnf.clauses) == 2 * g.m + 2 * n * k + 2 * n - 3 * k - 1, (n, k)


@report(3)
def test_criterion_3_exact_bipartization_against_brute_force():
    started = time.perf_counter()
    rng = random.Random(227)
    for _ in range(500):
        n = rng.randint(1, 12)
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = graph_from_edges(n, edges)
        exact = min_oct_exact(g)
        brute = brute_force_oct(g)
        assert len(exact.removed) == len(brute.removed), (n, edges)
    s3 = build_tig(standard_example(3))
    assert (len(s3.vertices), s3.graph.m) == (18, 24)
    b3 = build_tig(boolean_lattice(3))
    assert (len(b3.vertices), b3.graph.m) == (18, 24)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


@report(4)
def test_criterion_4_dimension_characterizations_agree():
    suite = order_suite(1000)
    for o in suite:
        conj = dim2(o)
        bip = is_bipartite_without(build_tig(o).graph)
        brute = brute_two_realizer(o)
        assert conj == bip == brute, o


@report(5)
def test_criterion_5_incompatibility_test_matches_cycle_creation():
    suite = order_suite(1000)
    checked = 0
    for o in suite:
        tg = build_tig(o)
        for i, p in enumerate(tg.vertices):
            nbrs = tg.graph.masks[i]
            for j, q in enumerate(tg.vertices):
                if i == j:
                    continue
                assert (nbrs >> j & 1 == 1) == has_cycle_with(o, p, q), (o, p, q)
                checked += 1
    assert checked > 10_000


@report(6)
def test_criterion_6_every_extension_run_is_validated():
    suite = [o for o in order_suite(300, seed=229) if not dim2(o)]
    rng = random.Random(233)
    lows = [f"l{i}" for i in range(4)]
    ups = [f"u{i}" for i in range(4)]
    while len(suite) < 20:  # top up with sparse two-layer orders
        pairs = [(a, b) for a in lows for b in ups if rng.random() < 0.4]
        o = build_order(lows + ups, pairs)
        if not dim2(o):
            suite.append(o)
    for o in suite:
        for strategy in ("sat", "anneal"):
            tr = two_dimension_extension(o, strategy=strategy)
            assert_valid_trace(o, tr)


@report(7)
def test_criterion_7_upward_dominance_survives_perturbation():
    cases = [standard_example(3), boolean_lattice(3), grid(3, 4),
             multipass_order()]
    rng = random.Random(239)
    cases += [random_order(rng, rng.randint(2, 6)) for _ in range(30)]
    for o in cases:
        d = perturb(compute_coordinates(o))
        assert detect_collinear(d) == []
        for a in o.ground:
            for b in o.ground:
                if o.lt(a, b):
                    assert d.coords[a][0] < d.coords[b][0]
                    assert d.coords[a][1] < d.coords[b][1]
                    assert d.plane[a][1] < d.plane[b][1], \
                        "comparable elements must stay strictly upward"
    # a doctored collinear drawing keeps the guarantees after repair, too
    chain = compute_coordinates(build_order("abc", [("a", "b"), ("b", "c")]))
    doctored = chain.replace(cover_edges=(("a", "c"),))
    fixed = perturb(doctored)
    assert detect_collinear(fixed) == []
    assert fixed.plane["a"][1] < fixed.plane["b"][1] < fixed.plane["c"][1]


@report(8)
def test_criterion_8_reference_families():
    # two-dimensional inputs pass through untouched
    for o in [grid(m, n) for m in range(1, 6) for n in range(1, 6)] \
            + [boolean_lattice(2)]:
        tr = two_dimension_extension(o)
        assert tr.inserted == frozenset() and tr.passes == 0
    # the three-dimensional cube needs exactly the brute-force minimum
    b3 = boolean_lattice(3)
    tr = two_dimension_extension(b3, strategy="sat")
    assert len(tr.inserted) == brute_min_extension(b3, dim2) == 1
    assert_valid_trace(b3, tr)
    # the four-dimensional cube is heuristic territory: validity only
    b4 = boolean_lattice(4)
    tr4 = two_dimension_extension(b4, strategy="anneal")
    assert len(tr4.inserted) > 0
    assert_valid_trace(b4, tr4)


@report(9)
def test_criterion_9_multi_pass_termination():
    o = multipass_order()
    run, calls = scripted_then_exact(MULTIPASS_SCRIPTED_REMOVAL)
    tr = two_dimension_extension(o, strategy=run)
    assert tr.passes >= 2, "the scripted removal choice must force a second pass"
    assert len(calls) == tr.passes
    assert_valid_trace(o, tr)


@report(10)
def test_criterion_10_outputs_are_byte_deterministic():
    for o in (standard_example(3), boolean_lattice(3), grid(4, 5)):
        first = compute_coordinates(o)
        second = compute_coordinates(o)
        assert drawing_to_json(first) == drawing_to_json(second)
        assert emit_svg(first) == emit_svg(second)
        assert emit_svg(perturb(first)) == emit_svg(perturb(second))


@pytest.mark.nightly
@report("nightly")
def test_nightly_every_small_lattice_draws_cleanly():
    census = []
    for n in range(1, 8):
        seen = {}
        for down in naturally_labeled_posets(n):
            if not poset_is_lattice(down, n):
                continue
            seen.setdefault(poset_canonical_form(down, n), down)
        census.append(len(seen))
        for down in seen.values():
            o = order_from_downsets(down, n)
            tr = two_dimension_extension(o, strategy="sat")
            assert_valid_trace(o, tr)
            assert len(tr.inserted) == brute_min_extension(o, dim2)
            d = perturb(compute_coordinates(o))
            assert detect_collinear(d) == []
    assert census == [1, 1, 1, 2, 5, 15, 53]
    assert sum(census) == 78
