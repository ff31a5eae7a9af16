"""Tests for the odd-cycle-transversal strategies and their CNF encoding."""

import os
import random
import subprocess
import sys
from itertools import combinations, islice, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orddraw.errors import TooLarge
from orddraw.graphs import SimpleGraph
from orddraw import bipartization
from orddraw.bipartization import (MAX_TRANSVERSALS, TransversalSearch,
                                   encode_oct, min_oct_exact, oct_anneal,
                                   peel_to_minimal)
from orddraw.engine import _ends_in_this_pass
from orddraw.orders import bits, mask_of, standard_example
from orddraw.tig import build_tig
from oracles import (anneal_by_recount, anneal_cover_by_recount, bipartite_without,
                     brute_force_oct, first_odd_cycle, peel_to_minimal_by_bfs, random_order,
                     reference_transversals, removal_set, row_masks, solve_by_milp)

SRC = Path(__file__).resolve().parent.parent / "src"


def min_oct_size(g):
    """(minimum size, lower bound, search nodes), read off the first set of
    the transversal search."""
    search = TransversalSearch(g)
    next(iter(search))
    return search.k, search.lower_bound, search.branch_nodes


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
        assert bipartite_without(g, removed)

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
            assert len(removed) <= k and bipartite_without(g, removed)


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
            assert bipartite_without(g, res.removed)

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
        assert len(res.removed) == want and bipartite_without(g, res.removed)

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


# (k, lower_bound, branch_nodes, examined) of min_oct_exact with the
# engine's one-pass check, on the first tig of standard_example(n) and of
# random_order(Random(seed), 10 + seed % 7, 0.3), recorded before the
# search stopped working out the cycles that only count: a search that
# lists the same sets in the same order keeps every figure.
PINNED_SEARCHES = [
    ("standard_example", 3, (1, 1, 2, 1)),
    ("standard_example", 4, (2, 2, 3, 1)),
    ("standard_example", 5, (3, 3, 4, 1)),
    ("standard_example", 6, (4, 4, 5, 1)),
    ("standard_example", 7, (5, 5, 6, 1)),
    ("standard_example", 8, (6, 6, 7, 1)),
    ("random_order", 0, (1, 1, 6, 1)),
    ("random_order", 1, (0, 0, 0, 1)),
    ("random_order", 2, (1, 1, 3, 1)),
    ("random_order", 3, (2, 1, 33, 1)),
    ("random_order", 4, (4, 3, 32, 1)),
    ("random_order", 5, (5, 4, 25, 1)),
    ("random_order", 6, (7, 5, 344, 1)),
    ("random_order", 7, (0, 0, 0, 1)),
    ("random_order", 8, (0, 0, 0, 1)),
    ("random_order", 9, (0, 0, 0, 1)),
    ("random_order", 10, (2, 2, 8, 1)),
    ("random_order", 11, (3, 2, 50, 1)),
    ("random_order", 12, (4, 4, 26, 1)),
    ("random_order", 13, (7, 6, 113, 1)),
    ("random_order", 14, (0, 0, 0, 1)),
    ("random_order", 15, (1, 1, 2, 1)),
    ("random_order", 16, (0, 0, 0, 1)),
    ("random_order", 17, (2, 2, 9, 1)),
    ("random_order", 18, (2, 2, 3, 1)),
    ("random_order", 19, (1, 1, 2, 1)),
]


class TestDisjointOddCycles:
    def test_greedy_cycles_with_the_last_step_counted_only(self):
        # every cycle but a last step's is the oracle's first odd cycle of g
        # minus the set and the cycles before it; a last step may give ()
        # in its place.  Sets repeat under falling and rising limits, so
        # one `known` serves marks of last steps to steps that need cycles.
        rng = random.Random(53)
        marks = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.2, 0.4]))
            known, parent = {}, [-1] * g.n
            pool = [0] + [1 << rng.randrange(g.n) for _ in range(2)]
            for limit in (0, 2, 1, 4, 0, 3):
                removed = rng.choice(pool)
                cycles = bipartization._disjoint_odd_cycles(g, removed, limit, known, parent)
                want, gone = [], removed
                while len(want) <= limit:
                    cycle = first_odd_cycle(g, bits(gone))
                    if cycle is None:
                        break
                    want.append(cycle)
                    gone |= mask_of(cycle)
                assert len(cycles) == len(want)
                if len(want) > limit:
                    assert cycles[:-1] == want[:-1] and cycles[-1] in ((), want[-1])
                    marks += cycles[-1] == ()
                else:
                    assert cycles == want
        assert marks > 100


class TestPinnedSearch:
    @pytest.mark.parametrize("kind, arg, figures", PINNED_SEARCHES,
                             ids=[f"{kind}({arg})" for kind, arg, _ in PINNED_SEARCHES])
    def test_search_figures_are_unchanged(self, kind, arg, figures):
        if kind == "standard_example":
            o = standard_example(arg)
        else:
            o = random_order(random.Random(arg), 10 + arg % 7, 0.3)
        tg = build_tig(o)
        stats = min_oct_exact(tg.graph, accept=_ends_in_this_pass(tg)).stats
        assert (stats["k"], stats["lower_bound"], stats["branch_nodes"],
                stats["examined"]) == figures


class TestTransversalSearch:
    def test_lists_distinct_minimum_sets(self):
        rng = random.Random(151)
        complete = 0
        for _ in range(150):
            g = random_graph(rng, rng.randint(3, 10), rng.choice([0.2, 0.3, 0.5, 0.7]))
            k = len(brute_force_oct(g).removed)
            listed = list(TransversalSearch(g))
            assert len(set(listed)) == len(listed) <= MAX_TRANSVERSALS
            assert all(len(s) == k and bipartite_without(g, s) for s in listed)
            if len(listed) < MAX_TRANSVERSALS:
                every = {frozenset(c) for c in combinations(range(g.n), k)
                         if bipartite_without(g, c)}
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

    def test_thousands_of_blocks_stay_under_the_recursion_limit(self):
        # the product of the blocks' searches nests about log2(5000) deep
        search = TransversalSearch(union([cycle_graph(3)] * 5000))
        assert len(next(iter(search))) == search.k == 5000

    def test_product_draws_each_source_only_as_far_as_needed(self):
        rng = random.Random(7)
        for _ in range(300):
            lengths = [rng.randint(1, 4) for _ in range(rng.randint(0, 6))]
            take = rng.randint(0, 40)
            drawn = [0] * len(lengths)

            def source(i):
                for j in range(lengths[i]):
                    drawn[i] += 1
                    yield 10 * i + j

            got = list(islice(bipartization._lazy_product(
                [source(i) for i in range(len(lengths))]), take))
            assert got == list(islice(product(
                *[[10 * i + j for j in range(n)] for i, n in enumerate(lengths)]), take))
            # each source up to the last item a listed tuple holds
            assert drawn == [max((t[i] % 10 + 1 for t in got), default=0)
                             for i in range(len(lengths))]

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
        assert bipartite_without(g, lean)
        for v in lean:
            assert not bipartite_without(g, lean - {v})

    def test_already_minimal_is_kept(self):
        g = cycle_graph(5)
        assert peel_to_minimal(g, frozenset([2])) == frozenset([2])

    def test_matches_the_bfs_rounds(self):
        """One union-find pass peels exactly as rounds of two-colourings do,
        for valid sets (a random set joined to the heuristic's cover), for
        arbitrary sets and for sets whose rest is not bipartite (which both
        return unchanged)."""
        rng = random.Random(163)
        invalid = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.1, 0.2, 0.4, 0.7]))
            start = {v for v in range(g.n) if rng.random() < rng.choice([0.1, 0.3, 0.6])}
            valid = frozenset(start) | anneal_cover_by_recount(g, rng.randrange(1000))
            assert peel_to_minimal(g, valid) == peel_to_minimal_by_bfs(g, valid)
            arbitrary = frozenset(start)
            peeled = peel_to_minimal(g, arbitrary)
            assert peeled == peel_to_minimal_by_bfs(g, arbitrary)
            if not bipartite_without(g, arbitrary):
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
        if not bipartite_without(g, removed):
            assert peeled == removed

    def test_long_odd_cycle_keeps_its_last_vertex(self):
        # an odd cycle of 2001 vertices with every vertex removed: each
        # return joins the path grown so far, and the last one closes it
        g = cycle_graph(2001)
        assert peel_to_minimal(g, frozenset(range(g.n))) == frozenset([g.n - 1])


class TestHeuristics:
    @pytest.mark.parametrize("strategy", [lambda g: oct_anneal(g, seed=11)],
                             ids=["oct_anneal"])
    def test_valid_and_inclusion_minimal(self, strategy):
        rng = random.Random(101)
        for _ in range(12):
            g = random_graph(rng, rng.randint(3, 10), 0.4)
            res = strategy(g)
            assert bipartite_without(g, res.removed)
            assert res.optimal == (res.removed == frozenset())
            for v in res.removed:
                assert not bipartite_without(g, res.removed - {v})

    @pytest.mark.parametrize("strategy", [oct_anneal])
    def test_bipartite_input_yields_empty(self, strategy):
        res = strategy(cycle_graph(6))
        assert res.removed == frozenset()
        assert res.optimal is True
        # an odd cycle needs one removal, which the flag does not claim
        res = strategy(cycle_graph(5))
        assert len(res.removed) == 1
        assert res.optimal is False

    def test_same_seed_same_answer(self):
        g = random_graph(random.Random(103), 10, 0.4)
        assert oct_anneal(g, seed=5).removed == oct_anneal(g, seed=5).removed

    def test_heuristics_close_to_optimal_on_small_graphs(self):
        rng = random.Random(107)
        slack = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(4, 10), 0.5)
            best = len(brute_force_oct(g).removed)
            excess = len(oct_anneal(g, seed=3).removed) - best
            assert 0 <= excess <= 1
            slack += excess
        # measured: 6 removals above the minimum over these 40 graphs, with
        # at most one on any graph
        assert slack <= 6

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 40), st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.7]),
           st.integers(0, 2 ** 32 - 1), st.integers(0, 10 ** 6))
    def test_anneal_matches_the_recounting_loop(self, n, density, graph_seed, seed):
        """The masks, the heap of conflict counts and the union-find peel
        remove exactly the vertices that recounting on plain lists, a full
        rescan per pick and rounds of two-colourings remove."""
        rng = np.random.default_rng(graph_seed)
        upper = np.triu(rng.random((n, n)) < density, 1)
        g = SimpleGraph.from_masks(row_masks(upper | upper.T))
        assert oct_anneal(g, seed=seed).removed == anneal_by_recount(g, seed=seed)

    def test_stats_report_the_cover_size(self):
        res = oct_anneal(two_triangles())
        assert res.method == "anneal"
        assert res.stats["covered"] >= len(res.removed) == 2


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
            f"sys.exit(main(['draw', '-i', {str(path)!r}, '--solver', 'anneal']))\n")
        done = run_optimized(script)
        assert done.returncode == 3, done.stderr
        assert "anneal produced a non-solution" in done.stderr

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
