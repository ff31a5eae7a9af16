"""Tests for the odd-cycle-transversal strategies and their CNF encoding."""

import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orddraw.errors import TooLarge
from orddraw.graphs import SimpleGraph, is_bipartite_without
from orddraw import bipartization
from orddraw.bipartization import (MAX_TRANSVERSALS, TransversalSearch,
                                   encode_oct, min_oct_exact, oct_anneal,
                                   oct_greedy, peel_to_minimal, _cold_steps,
                                   _repair)
from orddraw.orders import standard_example
from orddraw.tig import build_tig
from oracles import (anneal_by_recount, brute_force_oct,
                     peel_to_minimal_by_bfs, reference_transversals,
                     removal_set, row_masks, solve_by_milp)

SRC = Path(__file__).resolve().parent.parent / "src"


def min_oct_size(g):
    """(minimum size, lower bound, search nodes), read off the first set of
    the transversal search."""
    search = TransversalSearch(g)
    next(iter(search))
    return search.k, search.lower_bound, search.branch_nodes


def set_schedule(monkeypatch, **schedule):
    """Give oct_anneal and the recounting oracle another annealing
    schedule: a new t0, alpha or steps, and the boundaries that follow."""
    for name, value in schedule.items():
        monkeypatch.setattr(bipartization, "_" + name.upper(), value)
    hot, quiet = _cold_steps()
    monkeypatch.setattr(bipartization, "_HOT", hot)
    monkeypatch.setattr(bipartization, "_QUIET", quiet)


def cycle_graph(k):
    return SimpleGraph(k, [(i, (i + 1) % k) for i in range(k)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return SimpleGraph(n, edges)


def two_triangles():
    return SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def union(parts, links=(), shared=False):
    """Disjoint union of graphs, then each link (i, a, j, b) joins vertex a
    of part i to vertex b of part j: by a bridge edge, or with shared=True
    by merging the two vertices into one."""
    offset, total = [], 0
    for h in parts:
        offset.append(total)
        total += h.n
    ident = list(range(total))
    extra = []
    for i, a, j, b in links:
        if shared:
            ident[offset[j] + b] = ident[offset[i] + a]
        else:
            extra.append((offset[i] + a, offset[j] + b))
    keep = sorted(set(ident))
    rename = {v: k for k, v in enumerate(keep)}
    edges = [(rename[ident[o + u]], rename[ident[o + v]])
             for h, o in zip(parts, offset) for u, v in h.edges]
    edges += [(rename[ident[u]], rename[ident[v]]) for u, v in extra]
    return SimpleGraph(len(keep), edges)


def complete_graph(k):
    return SimpleGraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def chain_links(count, a, b):
    return [(i, a, i + 1, b) for i in range(count - 1)]


# (graph, minimum odd cycle transversal size): families on which branching
# without the bridge split or the disjoint-cycle bound takes a minute or more
FAMILIES = {
    "8 disjoint C11": (union([cycle_graph(11)] * 8), 8),
    "8 C11 joined by bridges": (union([cycle_graph(11)] * 8, chain_links(8, 5, 0)), 8),
    "8 K4 joined by bridges": (union([complete_graph(4)] * 8, chain_links(8, 3, 0)), 16),
    "6 K5 joined by bridges": (union([complete_graph(5)] * 6, chain_links(6, 4, 0)), 18),
    # consecutive K4s share one vertex: removing the m - 1 shared vertices and
    # one more vertex in each end block is optimal, m + 1 in all
    "8 K4 cactus": (union([complete_graph(4)] * 8, chain_links(8, 3, 0), shared=True), 9),
    # consecutive C5s share one vertex, which hits two cycles at most
    "9 C5 cactus": (union([cycle_graph(5)] * 9, chain_links(9, 2, 0), shared=True), 5),
}


class TestEncoding:
    def test_size_formulas(self):
        rng = random.Random(83)
        for _ in range(60):
            n = rng.randint(2, 30)
            k = rng.randint(1, 6)
            g = random_graph(rng, n, 0.3)
            cnf = encode_oct(g, k)
            assert cnf.num_vars == (n - 1) * (k + 3) + 3
            assert len(cnf.clauses) == 2 * g.m + 2 * n * k + 2 * n - 3 * k - 1

    def test_k_zero_sizes(self):
        g = cycle_graph(4)
        cnf = encode_oct(g, 0)
        assert cnf.num_vars == 3 * g.n
        # n role clauses + 2m side clauses + n removal-negation units
        assert len(cnf.clauses) == g.n + 2 * g.m + g.n

    def test_variable_numbering(self):
        # the documented numbering: sides i+1 and n+i+1, removal 2n+i+1,
        # counter register (i, j) at 3n+(i-1)k+j
        g = SimpleGraph(3, [(0, 1)])
        cnf = encode_oct(g, 1)
        assert cnf.clauses[:3] == ((1, 4, 7), (2, 5, 8), (3, 6, 9))
        assert cnf.clauses[3:5] == ((-1, -2), (-4, -5))
        assert cnf.clauses[5] == (-7, 10)  # the first removal sets register (1, 1)
        assert cnf.num_vars == 11

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            encode_oct(cycle_graph(3), -1)

    def test_satisfiability_thresholds(self):
        # odd cycle: k = 0 unsatisfiable, k = 1 satisfiable
        g = cycle_graph(5)
        assert solve_by_milp(encode_oct(g, 0)) is None
        model = solve_by_milp(encode_oct(g, 1))
        assert model is not None
        removed = removal_set(g.n, model)
        assert len(removed) <= 1
        assert is_bipartite_without(g, removed)

    def test_decode_partition_roles(self):
        g = two_triangles()
        model = solve_by_milp(encode_oct(g, 2))
        true = set(model)
        removed = removal_set(g.n, model)
        p1 = frozenset(i for i in range(g.n) if i not in removed and i + 1 in true)
        p2 = frozenset(range(g.n)) - p1 - removed
        assert p1 | p2 | removed == set(range(g.n))
        assert not (p1 & p2 or p1 & removed or p2 & removed)
        assert all(g.n + i + 1 in true for i in p2)  # the second side variable
        for u, v in g.edges:
            if u in removed or v in removed:
                continue
            assert (u in p1) != (v in p1)

    def test_bipartite_graph_k0_satisfiable(self):
        g = cycle_graph(6)
        model = solve_by_milp(encode_oct(g, 0))
        assert model is not None
        assert removal_set(g.n, model) == frozenset()

    def test_threshold_is_the_brute_force_minimum(self):
        # the encoding is unsatisfiable one below the minimum and satisfied
        # at it by a set that bipartizes the graph
        rng = random.Random(29)
        for _ in range(16):
            g = random_graph(rng, rng.randint(3, 8), 0.5)
            k = len(brute_force_oct(g).removed)
            if k:
                assert solve_by_milp(encode_oct(g, k - 1)) is None
            model = solve_by_milp(encode_oct(g, k))
            removed = removal_set(g.n, model)
            assert len(removed) <= k and is_bipartite_without(g, removed)


class TestExactSearch:
    def test_bipartite_short_circuit(self):
        res = min_oct_exact(cycle_graph(8))
        assert res.removed == frozenset()
        assert res.optimal
        assert res.stats == {"k": 0, "lower_bound": 0, "branch_nodes": 0,
                             "examined": 1}

    def test_known_minima(self):
        assert len(min_oct_exact(cycle_graph(5)).removed) == 1
        assert len(min_oct_exact(two_triangles()).removed) == 2
        # K4: removing one vertex leaves a triangle, so the minimum is 2
        k4 = SimpleGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert len(min_oct_exact(k4).removed) == 2

    def test_agrees_with_brute_force(self):
        rng = random.Random(89)
        for _ in range(150):
            g = random_graph(rng, rng.randint(3, 12), rng.choice([0.2, 0.3, 0.5, 0.7]))
            want = len(brute_force_oct(g).removed)
            k, lower, _ = min_oct_size(g)
            res = min_oct_exact(g)
            assert k == want and lower <= want
            assert len(res.removed) == want
            assert is_bipartite_without(g, res.removed)

    def test_without_a_predicate_returns_the_first_listed_set(self):
        rng = random.Random(113)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 11), rng.choice([0.3, 0.5]))
            res = min_oct_exact(g)
            assert res.removed == next(iter(TransversalSearch(g)))
            assert res.stats["examined"] == 1

    def test_predicate_picks_the_first_set_it_accepts(self):
        g = union([cycle_graph(3)] * 3)
        listed = list(TransversalSearch(g))
        assert len(listed) == 27
        wanted = listed[10]
        res = min_oct_exact(g, accept=lambda removed: removed == wanted)
        assert res.removed == wanted and res.stats["examined"] == 11
        # a predicate that accepts nothing leaves the first set
        res = min_oct_exact(g, accept=lambda removed: False)
        assert res.removed == listed[0] and res.stats["examined"] == 27

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_known_minima_of_hard_families(self, name):
        g, want = FAMILIES[name]
        k, lower, nodes = min_oct_size(g)
        assert k == want and lower <= want
        # without the bridge split the bridged K4 and K5 chains need over a
        # million search nodes; with it every family needs at most 108
        assert nodes <= 200
        res = min_oct_exact(g)
        assert len(res.removed) == want and is_bipartite_without(g, res.removed)

    def test_stats_report_the_search(self):
        g = union([complete_graph(4), cycle_graph(5)], [(0, 0, 1, 0)])
        res = min_oct_exact(g)
        assert set(res.stats) == {"k", "lower_bound", "branch_nodes", "examined"}
        assert res.stats["k"] == 3
        # the K4 block's clique bound 2 beats its one disjoint triangle; the C5 adds 1
        assert res.stats["lower_bound"] == 3
        assert res.stats["branch_nodes"] >= 1
        assert res.stats["examined"] == 1

    def test_results_are_deterministic(self):
        g = random_graph(random.Random(97), 9, 0.5)
        assert min_oct_exact(g).removed == min_oct_exact(g).removed


class TestTransversalSearch:
    def test_lists_distinct_minimum_sets(self):
        rng = random.Random(151)
        complete = 0
        for _ in range(150):
            g = random_graph(rng, rng.randint(3, 10), rng.choice([0.2, 0.3, 0.5, 0.7]))
            k = len(brute_force_oct(g).removed)
            listed = list(TransversalSearch(g))
            assert len(set(listed)) == len(listed) <= MAX_TRANSVERSALS
            assert all(len(s) == k and is_bipartite_without(g, s) for s in listed)
            if len(listed) < MAX_TRANSVERSALS:
                every = {frozenset(c) for c in combinations(range(g.n), k)
                         if is_bipartite_without(g, c)}
                assert set(listed) == every
                complete += 1
        assert complete >= 100

    def test_blocks_combine_in_product_order(self):
        triangle = list(TransversalSearch(cycle_graph(3)))
        assert len(triangle) == 3 and set(triangle) == {frozenset([v]) for v in range(3)}
        g = union([cycle_graph(3)] * 2, [(0, 2, 1, 0)])  # joined by a bridge
        want = [a | {v + 3 for v in b} for a in triangle for b in triangle]
        assert list(TransversalSearch(g)) == want and len(want) == 9

    def test_stops_at_the_cap(self):
        g = union([cycle_graph(3)] * 4)  # 81 minimum transversals
        search = TransversalSearch(g)
        listed = list(search)
        assert len(set(listed)) == MAX_TRANSVERSALS
        assert search.k == 4 and search.lower_bound == 4

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 12), st.sampled_from([0.2, 0.3, 0.5, 0.7]),
           st.integers(0, 2 ** 32 - 1))
    def test_lists_the_reference_sequence(self, n, density, seed):
        g = random_graph(random.Random(seed), n, density)
        assert list(TransversalSearch(g)) == reference_transversals(g)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(["complete", "cycle"]), st.integers(3, 6)),
                    min_size=1, max_size=5),
           st.integers(0, 2 ** 32 - 1))
    def test_lists_the_reference_sequence_across_bridged_blocks(self, kinds, seed):
        """Complete and cycle graphs joined in a chain by bridges between
        drawn vertices: several blocks, so the product order shows, and
        often more than MAX_TRANSVERSALS unions, so the cut shows too."""
        rng = random.Random(seed)
        parts = [complete_graph(size) if kind == "complete" else cycle_graph(size)
                 for kind, size in kinds]
        links = [(i, rng.randrange(parts[i].n), i + 1, rng.randrange(parts[i + 1].n))
                 for i in range(len(parts) - 1)]
        g = union(parts, links)
        assert list(TransversalSearch(g)) == reference_transversals(g)


class TestLowerBound:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 10), st.sampled_from([0.3, 0.5, 0.7, 0.9]),
           st.integers(0, 2 ** 32 - 1))
    def test_never_exceeds_the_minimum(self, n, density, seed):
        g = random_graph(random.Random(seed), n, density)
        k, lower, _ = min_oct_size(g)
        assert lower <= len(brute_force_oct(g).removed) == k

    @pytest.mark.parametrize("n", range(3, 11))
    def test_meets_the_minimum_on_standard_examples(self, n):
        """The tig of standard_example(n) holds a K_n, so the clique bound
        starts the search at its minimum n - 2 and no round fails."""
        stats = min_oct_exact(build_tig(standard_example(n)).graph).stats
        assert stats["lower_bound"] == stats["k"] == n - 2


class TestBruteForce:
    """The subset-enumeration oracle that the exact search is checked against."""

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            brute_force_oct(SimpleGraph(21), max_vertices=20)

    def test_trivial_graphs(self):
        assert brute_force_oct(SimpleGraph(0)).removed == frozenset()
        assert brute_force_oct(cycle_graph(4)).removed == frozenset()


class TestPeeling:
    def test_peels_to_inclusion_minimal(self):
        g = cycle_graph(5)
        bloated = frozenset(range(5))
        lean = peel_to_minimal(g, bloated)
        assert is_bipartite_without(g, lean)
        for v in lean:
            assert not is_bipartite_without(g, lean - {v})

    def test_already_minimal_is_kept(self):
        g = cycle_graph(5)
        assert peel_to_minimal(g, frozenset([2])) == frozenset([2])

    def test_matches_the_bfs_rounds(self):
        """One union-find pass peels exactly as rounds of two-colourings do,
        for repaired sets, for arbitrary sets and for sets whose rest is not
        bipartite (which both return unchanged)."""
        rng = random.Random(163)
        invalid = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.1, 0.2, 0.4, 0.7]))
            start = {v for v in range(g.n) if rng.random() < rng.choice([0.1, 0.3, 0.6])}
            repaired = frozenset(_repair(g, set(start)))
            assert peel_to_minimal(g, repaired) == peel_to_minimal_by_bfs(g, repaired)
            arbitrary = frozenset(start)
            peeled = peel_to_minimal(g, arbitrary)
            assert peeled == peel_to_minimal_by_bfs(g, arbitrary)
            if not is_bipartite_without(g, arbitrary):
                invalid += 1
                assert peeled == arbitrary
        assert invalid >= 100

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 30), st.sampled_from([0.05, 0.15, 0.3, 0.6]),
           st.sampled_from([0.1, 0.3, 0.6, 0.9]), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_bfs_rounds_on_any_set(self, n, density, share, seed):
        """The BFS-seeded union-find peels as rounds of two-colourings do,
        also from sets whose rest is not bipartite, which come back whole."""
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((n, n)) < density, 1)
        g = SimpleGraph.from_masks(row_masks(upper | upper.T))
        removed = frozenset(np.flatnonzero(rng.random(n) < share).tolist())
        peeled = peel_to_minimal(g, removed)
        assert peeled == peel_to_minimal_by_bfs(g, removed)
        if not is_bipartite_without(g, removed):
            assert peeled == removed

    def test_long_odd_cycle_keeps_its_last_vertex(self):
        # an odd cycle of 2001 vertices with every vertex removed: each
        # return joins the path grown so far, and the last one closes it
        g = cycle_graph(2001)
        assert peel_to_minimal(g, frozenset(range(g.n))) == frozenset([g.n - 1])


class TestHeuristics:
    @pytest.mark.parametrize("strategy", [oct_greedy, lambda g: oct_anneal(g, seed=11)],
                             ids=["oct_greedy", "oct_anneal"])
    def test_valid_and_inclusion_minimal(self, strategy):
        rng = random.Random(101)
        for _ in range(12):
            g = random_graph(rng, rng.randint(3, 10), 0.4)
            res = strategy(g)
            assert is_bipartite_without(g, res.removed)
            assert not res.optimal or res.removed == frozenset()
            for v in res.removed:
                assert not is_bipartite_without(g, res.removed - {v})

    @pytest.mark.parametrize("strategy", [oct_greedy, oct_anneal])
    def test_bipartite_input_yields_empty(self, strategy):
        res = strategy(cycle_graph(6))
        assert res.removed == frozenset()

    def test_same_seed_same_answer(self):
        g = random_graph(random.Random(103), 10, 0.4)
        assert oct_anneal(g, seed=5).removed == oct_anneal(g, seed=5).removed
        assert oct_greedy(g).removed == oct_greedy(g).removed

    def test_heuristics_close_to_optimal_on_small_graphs(self):
        rng = random.Random(107)
        slack = {"greedy": 0, "anneal": 0}
        for _ in range(10):
            g = random_graph(rng, rng.randint(4, 8), 0.5)
            best = len(brute_force_oct(g).removed)
            slack["greedy"] += len(oct_greedy(g).removed) - best
            slack["anneal"] += len(oct_anneal(g, seed=3).removed) - best
        # heuristics may be suboptimal, never invalid; keep them honest
        assert all(v >= 0 for v in slack.values())
        assert slack["greedy"] <= 5

    def test_anneal_matches_the_recounting_loop(self, monkeypatch):
        """Incremental neighbour-label counts make the same moves, so the
        removed set and the accepted count equal the recounting loop's."""
        rng = random.Random(167)
        for i in range(200):
            if i % 5:
                g = random_graph(rng, rng.randint(3, 30), rng.choice([0.1, 0.3, 0.5, 0.8]))
            else:  # larger graphs draw vertices with more bits per draw
                g = random_graph(rng, rng.randint(31, 200), rng.choice([0.02, 0.05, 0.1]))
            seed = rng.randrange(1000)
            set_schedule(monkeypatch, steps=rng.choice([50, 300, 1000]))
            res = oct_anneal(g, seed=seed)
            removed, accepted = anneal_by_recount(g, seed=seed)
            assert res.removed == removed
            assert res.stats.get("accepted", 0) == accepted

    @pytest.mark.parametrize("schedule", [
        dict(steps=1_400),  # past the hot phase, drawing on rejections
        dict(steps=6_000),  # past both boundaries
        dict(t0=1e-13, steps=2_000),  # no hot phase, no draws
        dict(alpha=1.0, steps=2_000),  # no cold phase
        dict(alpha=0.9, steps=2_000),  # early boundaries
    ], ids=lambda schedule: "Anneal(" + ", ".join(f"{k}={v!r}" for k, v in schedule.items()) + ")")
    def test_anneal_matches_the_recounting_loop_across_phases(self, monkeypatch, schedule):
        """The cold loop accepts and draws as the recounting loop does, on
        either side of each schedule boundary."""
        set_schedule(monkeypatch, **schedule)
        rng = random.Random(173)
        for _ in range(12):
            g = random_graph(rng, rng.randint(3, 40), rng.choice([0.1, 0.3, 0.6]))
            seed = rng.randrange(1000)
            res = oct_anneal(g, seed=seed)
            removed, accepted = anneal_by_recount(g, seed=seed)
            assert res.removed == removed
            assert res.stats.get("accepted", 0) == accepted

    def test_schedule_boundaries(self, monkeypatch):
        # the schedule cools past both boundaries well before the last step
        assert (bipartization._HOT, bipartization._QUIET) == _cold_steps() == (1_320, 5_513)
        set_schedule(monkeypatch, alpha=1.0)
        assert _cold_steps() == (10_000, 10_000)
        set_schedule(monkeypatch, t0=1e-13, alpha=0.995)
        assert _cold_steps() == (0, 0)
        set_schedule(monkeypatch, t0=1.0, alpha=0.9)
        hot, quiet = _cold_steps()
        temps = [1.0]
        for _ in range(quiet):
            temps.append(temps[-1] * 0.9)
        assert math.exp(-1 / temps[hot - 1]) > 0.0 == math.exp(-1 / temps[hot])
        assert temps[quiet - 1] > 1e-12 >= temps[quiet]

    def test_bit_draws_match_randrange_and_choice(self):
        """oct_anneal draws its vertex and its new label inline, as CPython's
        randrange(n) and choice(pair) do; a change to those fails here."""

        def draw_below(rng, n):
            bits = n.bit_length()
            r = rng.getrandbits(bits)
            while r >= n:
                r = rng.getrandbits(bits)
            return r

        for seed in (0, 1, 167, 2 ** 40 + 3):
            mine, ref = random.Random(seed), random.Random(seed)
            for n in range(1, 2049):
                assert draw_below(mine, n) == ref.randrange(n)
                pair = (n, -n)
                assert pair[draw_below(mine, 2)] == ref.choice(pair)
            assert mine.random() == ref.random()

    def test_greedy_stats_report_iterations(self):
        res = oct_greedy(two_triangles())
        assert res.method == "greedy"
        assert res.stats["iterations"] >= len(res.removed)


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run a Python snippet under python -O, with assert statements off."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


class TestChecksUnderOptimize:
    def test_invalid_removal_set_exits_3(self, tmp_path):
        path = tmp_path / "s3.order"
        path.write_text("a1 < b2\na1 < b3\na2 < b1\na2 < b3\na3 < b1\na3 < b2\n")
        script = (
            "import sys\n"
            "import orddraw.bipartization as b\n"
            "from orddraw.cli import main\n"
            "b.peel_to_minimal = lambda g, removed: frozenset()\n"
            f"sys.exit(main(['draw', '-i', {str(path)!r}, '--solver', 'greedy']))\n")
        done = run_optimized(script)
        assert done.returncode == 3, done.stderr
        assert "greedy produced a non-solution" in done.stderr

    def test_wrong_solver_model_raises(self):
        script = (
            "from orddraw import sat\n"
            "from orddraw.errors import BackendFailure\n"
            "try:\n"
            "    sat.solve_cnf(sat.CnfInstance(2, ((1, 2),)), lambda cnf: [-1, -2])\n"
            "except BackendFailure as exc:\n"
            "    print('caught:', exc)\n")
        done = run_optimized(script)
        assert done.returncode == 0, done.stderr
        assert "caught: " in done.stdout
