"""Tests for the odd-cycle-transversal strategies and their CNF encoding."""

import os
import random
import subprocess
import sys
from collections import deque
from itertools import combinations, islice, product
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orddraw.errors import TooLarge
from orddraw.graphs import SimpleGraph, odd_blocks
from orddraw import bipartization
from orddraw.bipartization import (MAX_TRANSVERSALS, POOL_SIZE, TransversalSearch,
                                   encode_oct, min_oct_exact, oct_anneal,
                                   peel_to_minimal)
from orddraw.engine import _ends_in_this_pass
from orddraw.orders import bits, mask_of, standard_example
from orddraw.tig import build_tig
from oracles import (anneal_by_recount, anneal_cover_by_recount,
                     ascending_sweeps_by_recount, bipartite_without, brute_force_oct,
                     first_odd_cycle, graph_from_edges, greedy_clique_packing,
                     has_k4_by_networkx, peel_to_minimal_by_bfs, random_order,
                     reference_transversals, removal_set, row_masks, solve_by_milp,
                     WalkOnlySearch)

SRC = Path(__file__).resolve().parent.parent / "src"


def min_oct_size(g):
    """(minimum size, lower bound, search nodes), read off the first set of
    the transversal search."""
    search = TransversalSearch(g)
    next(iter(search))
    return search.k, search.lower_bound, search.branch_nodes


def cycle_graph(k):
    return graph_from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, edges)


def two_triangles():
    return graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


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
    return graph_from_edges(len(keep), edges)


def complete_graph(k):
    return graph_from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


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


def heuristic_shaped(rng, n):
    """(g, cover): a graph of n vertices and a valid removal set that leave
    the kept graph the shape the heuristic's covers leave in the tigs of the
    benchmark corpus: one large bipartite component, a few small ones and
    many isolated vertices.  Each cover vertex reaches a random share of
    the kept vertices and about half of the other cover vertices, so some
    cover vertices are needed and some can return."""
    order = list(range(n))
    rng.shuffle(order)
    cover, kept = order[:n // 8], order[n // 8:]
    big, at = kept[:len(kept) // 3], len(kept) // 3
    groups = [big]
    for _ in range(rng.randint(3, 6)):
        size = rng.randint(2, 6)
        groups.append(kept[at:at + size])
        at += size
    edges = []
    for group in groups:  # a random tree coloured by depth parity, plus even-cycle chords
        side = {group[0]: 0}
        for i, u in enumerate(group[1:], 1):
            w = rng.choice(group[:i])
            side[u] = side[w] ^ 1
            edges.append((u, w))
        for _ in range(len(group)):
            u, w = rng.sample(group, 2)
            if side[u] != side[w]:
                edges.append((u, w))
    for i, u in enumerate(cover):
        share = rng.choice([0.005, 0.02, 0.1, 0.3])
        edges += [(u, w) for w in kept if rng.random() < share]
        edges += [(u, w) for w in cover[:i] if rng.random() < 0.5]
    return graph_from_edges(n, edges), frozenset(cover)


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
        g = graph_from_edges(3, [(0, 1)])
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
                             "walks": 0, "examined": 1}

    def test_known_minima(self):
        assert len(min_oct_exact(cycle_graph(5)).removed) == 1
        assert len(min_oct_exact(two_triangles()).removed) == 2
        # K4: removing one vertex leaves a triangle, so the minimum is 2
        k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
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
        assert set(res.stats) == {"k", "lower_bound", "branch_nodes", "walks", "examined"}
        assert res.stats["k"] == 3
        # the K4 block's clique bound 2 beats its one disjoint triangle; the C5 adds 1
        assert res.stats["lower_bound"] == 3
        assert res.stats["branch_nodes"] >= 1
        assert res.stats["examined"] == 1

    def test_walks_count_the_odd_cycle_walks(self, monkeypatch):
        calls = []
        walk = bipartization.first_odd_cycle
        monkeypatch.setattr(bipartization, "first_odd_cycle",
                            lambda g, gone: calls.append(gone) or walk(g, gone))
        rng = random.Random(173)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 14), rng.choice([0.3, 0.5]))
            calls.clear()
            res = min_oct_exact(g, accept=lambda removed: False)  # every listed set
            assert res.stats["walks"] == len(calls) == len(set(calls))

    def test_results_are_deterministic(self):
        g = random_graph(random.Random(97), 9, 0.5)
        assert min_oct_exact(g).removed == min_oct_exact(g).removed


# (k, lower_bound, branch_nodes, examined) of min_oct_exact with the
# engine's one-pass check, on the first tig of standard_example(n) and of
# random_order(Random(seed), 10 + seed % 7, 0.3).  k, lower_bound and
# examined pin what the search finds, and were recorded when it first took
# its cycles off `bfs_layers`: a search that lists the same sets in the
# same order keeps them.  branch_nodes pins how much it searches, and was
# re-recorded when each block began to keep a pool of found odd cycles.
PINNED_SEARCHES = [
    ("standard_example", 3, (1, 1, 2, 1)),
    ("standard_example", 4, (2, 2, 3, 1)),
    ("standard_example", 5, (3, 3, 4, 1)),
    ("standard_example", 6, (4, 4, 5, 1)),
    ("standard_example", 7, (5, 5, 6, 1)),
    ("standard_example", 8, (6, 6, 7, 1)),
    ("random_order", 0, (1, 1, 6, 1)),
    ("random_order", 1, (0, 0, 0, 1)),
    ("random_order", 2, (1, 1, 5, 1)),
    ("random_order", 3, (2, 1, 22, 1)),
    ("random_order", 4, (4, 3, 30, 1)),
    ("random_order", 5, (5, 3, 63, 1)),
    ("random_order", 6, (7, 6, 148, 1)),
    ("random_order", 7, (0, 0, 0, 1)),
    ("random_order", 8, (0, 0, 0, 1)),
    ("random_order", 9, (0, 0, 0, 1)),
    ("random_order", 10, (2, 2, 8, 1)),
    ("random_order", 11, (3, 2, 34, 1)),
    ("random_order", 12, (4, 4, 25, 1)),
    ("random_order", 13, (7, 6, 74, 1)),
    ("random_order", 14, (0, 0, 0, 1)),
    ("random_order", 15, (1, 1, 2, 1)),
    ("random_order", 16, (0, 0, 0, 1)),
    ("random_order", 17, (2, 2, 9, 1)),
    ("random_order", 18, (2, 2, 3, 1)),
    ("random_order", 19, (1, 1, 5, 1)),
]


class TestDisjointOddCycles:
    def test_greedy_cycles_are_the_oracles_first_cycles(self):
        # every cycle, the last one of a count past its limit too, is the
        # oracle's first odd cycle of g minus the set and the cycles before
        # it, and `known` holds that cycle and its vertex mask, or None, for
        # every set it keys.
        # Sets repeat under falling and rising limits, so one `known` serves
        # steps that a count tried before.
        rng = random.Random(53)
        past = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.2, 0.4]))
            known = {}
            pool = [0] + [1 << rng.randrange(g.n) for _ in range(2)]
            for limit in (0, 2, 1, 4, 0, 3):
                removed = rng.choice(pool)
                # an empty pool each time: every cycle comes from a walk
                cycles = bipartization._disjoint_odd_cycles(g, removed, limit, known, deque())
                want, gone = [], removed
                while len(want) <= limit:
                    cycle = first_odd_cycle(g, bits(gone))
                    if cycle is None:
                        break
                    want.append(cycle)
                    gone |= mask_of(cycle)
                assert cycles == want
                past += len(want) > limit
            for gone, found in known.items():
                cycle = first_odd_cycle(g, bits(gone))
                assert found == (None if cycle is None else (cycle, mask_of(cycle)))
        assert past > 100

    def test_a_shared_pool_gives_a_valid_count(self):
        # With one pool across calls, every cycle of a count is a cycle a
        # walk found, and the cycles are disjoint and miss the set.  A count
        # past its limit has limit + 1 of them; any other starts with the
        # oracle's first odd cycle and leaves g minus the set and its cycles
        # bipartite.  The pool holds the most recent walks' cycles, at most
        # POOL_SIZE of them.
        rng = random.Random(59)
        differs = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.2, 0.4]))
            known, pool, walked = {}, deque(maxlen=POOL_SIZE), []
            for _ in range(12):
                removed = mask_of(rng.sample(range(g.n), rng.randint(0, min(3, g.n))))
                limit = rng.randint(0, 4)
                before = len(known)
                cycles = bipartization._disjoint_odd_cycles(g, removed, limit, known, pool)
                walked += [found for found in list(known.values())[before:] if found]
                assert list(pool) == walked[-POOL_SIZE:]
                gone = removed
                for cycle in cycles:
                    assert cycle in {found[0] for found in walked}
                    assert not mask_of(cycle) & gone
                    gone |= mask_of(cycle)
                assert len(cycles) <= limit + 1
                if len(cycles) <= limit:
                    first = first_odd_cycle(g, bits(removed))
                    assert cycles[:1] == ([] if first is None else [first])
                    assert bipartite_without(g, bits(gone))
                want, gone = [], removed  # the walks' count
                while len(want) <= limit:
                    cycle = first_odd_cycle(g, bits(gone))
                    if cycle is None:
                        break
                    want.append(cycle)
                    gone |= mask_of(cycle)
                differs += cycles != want
        assert differs > 100


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
        # one search per block, 5000 sources of one product
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


class TestPooledSearch:
    """A pool cycle only cuts a node that could have yielded nothing, so the
    search lists the walk-only reference's sets in its order, with its `k`
    and `lower_bound`; only `branch_nodes` may differ."""

    @staticmethod
    def branch_nodes(g):
        """(pooled, walk-only) branch nodes, after checking the rest."""
        search, reference = TransversalSearch(g), WalkOnlySearch(g)
        assert list(search) == list(reference)
        assert (search.k, search.lower_bound) == (reference.k, reference.lower_bound)
        return search.branch_nodes, reference.branch_nodes

    def test_random_graphs(self):
        rng = random.Random(167)
        pooled = walk_only = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 14), rng.choice([0.2, 0.3, 0.5, 0.7]))
            nodes = self.branch_nodes(g)
            pooled, walk_only = pooled + nodes[0], walk_only + nodes[1]
        assert pooled < walk_only  # the pool cuts nodes: 12,811 against 13,367

    def test_first_tigs_of_random_orders(self):
        pooled = walk_only = 0
        for seed in range(60):
            o = random_order(random.Random(seed), 10 + seed % 9, 0.3)
            nodes = self.branch_nodes(build_tig(o).graph)
            pooled, walk_only = pooled + nodes[0], walk_only + nodes[1]
        assert pooled < walk_only  # 6,044 against 9,676


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


class TestCliqueBound:
    """The K4 gate of _clique_bound against networkx's clique number, and
    the bound against the greedy packing run on every block."""

    @staticmethod
    def check(g, block):
        """Returns whether the block holds a K4."""
        k4 = has_k4_by_networkx(g, block)
        assert bipartization._has_k4(g.masks, block) == k4
        bound = bipartization._clique_bound(g, block)
        assert bound == greedy_clique_packing(g, block)
        assert k4 or bound == 0
        return k4

    def test_random_graphs_and_their_odd_blocks(self):
        rng = random.Random(61)
        with_k4 = without = 0
        for _ in range(400):
            g = random_graph(rng, rng.randint(0, 24), rng.choice([0.1, 0.2, 0.35, 0.5, 0.8]))
            for block in [(1 << g.n) - 1, rng.getrandbits(g.n)] + odd_blocks(g):
                if self.check(g, block):
                    with_k4 += 1
                else:
                    without += 1
        assert with_k4 > 200 and without > 200

    def test_bridged_cliques(self):
        rng = random.Random(67)
        for _ in range(100):
            sizes = [rng.randint(1, 7) for _ in range(rng.randint(1, 6))]
            parts = [complete_graph(size) for size in sizes]
            links = [(i, rng.randrange(sizes[i]), i + 1, rng.randrange(sizes[i + 1]))
                     for i in range(len(parts) - 1)]
            g = union(parts, links)
            blocks = odd_blocks(g)
            assert [self.check(g, block) for block in blocks] \
                == [size >= 4 for size in sizes if size >= 3]
            assert self.check(g, (1 << g.n) - 1) == (max(sizes) >= 4)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_standard_example_tigs(self, n):
        """The tig of standard_example(n) holds a K_n: a K4 from n = 4 on."""
        g = build_tig(standard_example(n)).graph
        for block in odd_blocks(g):
            assert self.check(g, block) == (n >= 4)


class TestBruteForce:
    """The subset-enumeration oracle that the exact search is checked against."""

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            brute_force_oct(graph_from_edges(21), max_vertices=20)

    def test_trivial_graphs(self):
        assert brute_force_oct(graph_from_edges(0)).removed == frozenset()
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
        """One pass over component masks peels exactly as rounds of two-colourings do,
        for valid sets (a random set joined to the heuristic's cover), for
        arbitrary sets and for sets whose rest is not bipartite (which both
        return unchanged)."""
        rng = random.Random(163)
        invalid = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.1, 0.2, 0.4, 0.7]))
            start = {v for v in range(g.n) if rng.random() < rng.choice([0.1, 0.3, 0.6])}
            valid = frozenset(start) | anneal_cover_by_recount(g)
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
        """The peel on BFS-built component masks does as rounds of two-colourings do,
        also from sets whose rest is not bipartite, which come back whole."""
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((n, n)) < density, 1)
        g = SimpleGraph(row_masks(upper | upper.T))
        removed = frozenset(np.flatnonzero(rng.random(n) < share).tolist())
        peeled = peel_to_minimal(g, removed)
        assert peeled == peel_to_minimal_by_bfs(g, removed)
        if not bipartite_without(g, removed):
            assert peeled == removed

    def test_matches_the_bfs_rounds_on_heuristic_shaped_graphs(self):
        """Wide graphs whose kept graph has one large component, a few small
        ones and many isolated vertices, peeled from the cover and from the
        cover with random vertices added: returns into several components
        at once, and the colour flips they need, peel as rounds of
        two-colourings do."""
        rng = random.Random(167)
        returned = 0
        for _ in range(10):
            g, cover = heuristic_shaped(rng, rng.randint(100, 320))
            kept = nx.Graph()
            kept.add_nodes_from(v for v in range(g.n) if v not in cover)
            kept.add_edges_from(e for e in g.edges if not cover & set(e))
            sizes = sorted(map(len, nx.connected_components(kept)))
            assert sizes[-1] >= g.n // 4 and len(sizes) - sizes.count(1) >= 4
            assert sizes.count(1) >= g.n // 5
            for start in (cover, cover | {v for v in range(g.n) if rng.random() < 0.1}):
                peeled = peel_to_minimal(g, start)
                assert peeled == peel_to_minimal_by_bfs(g, start)
                returned += len(start - peeled)
        assert returned > 200

    def test_long_odd_cycle_keeps_its_last_vertex(self):
        # an odd cycle of 2001 vertices with every vertex removed: each
        # return joins the path grown so far, and the last one closes it
        g = cycle_graph(2001)
        assert peel_to_minimal(g, frozenset(range(g.n))) == frozenset([g.n - 1])


class TestHeuristics:
    @pytest.mark.parametrize("strategy", [oct_anneal], ids=["oct_anneal"])
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

    def test_same_graph_same_answer(self):
        g = random_graph(random.Random(103), 10, 0.4)
        assert oct_anneal(g).removed == oct_anneal(g).removed

    def test_heuristics_close_to_optimal_on_small_graphs(self):
        rng = random.Random(107)
        slack = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(4, 10), 0.5)
            best = len(brute_force_oct(g).removed)
            excess = len(oct_anneal(g).removed) - best
            assert 0 <= excess <= 1
            slack += excess
        # measured: 6 removals above the minimum over these 40 graphs, with
        # at most one on any graph
        assert slack <= 6

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 40), st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.7]),
           st.integers(0, 2 ** 32 - 1))
    def test_anneal_matches_the_recounting_loop(self, n, density, graph_seed):
        """The walk over the due vertices, the heap keyed by the counts of
        the checks with a recount of each popped vertex, and the
        component-mask peel cover and remove exactly the vertices that full
        ascending sweeps recounting on plain lists, a full rescan per pick
        and rounds of two-colourings cover and remove."""
        rng = np.random.default_rng(graph_seed)
        upper = np.triu(rng.random((n, n)) < density, 1)
        g = SimpleGraph(row_masks(upper | upper.T))
        result = oct_anneal(g)
        assert result.removed == anneal_by_recount(g)
        assert result.stats["covered"] == len(anneal_cover_by_recount(g))

    def test_anneal_matches_the_recounting_loop_on_heuristic_shaped_graphs(self):
        """On wide graphs of the shape the heuristic meets the first sweep,
        started from the vertices on a monochromatic edge of the
        breadth-first colouring, and the peel remove what full sweeps,
        rescans and rounds of two-colourings remove."""
        rng = random.Random(173)
        for _ in range(6):
            g, _ = heuristic_shaped(rng, rng.randint(100, 240))
            assert oct_anneal(g).removed == anneal_by_recount(g)

    @pytest.mark.parametrize("n, edges, sweeps, removed", [
        # the breadth-first colouring puts 1 and 4 on one side and 2, 3 and
        # 5 on the other; the first sweep moves only vertex 5, which leaves
        # its lower neighbour 4 with two of three neighbours on its side, so
        # the walk wraps round to 4 and moves it in a second sweep; that
        # leaves the edge (0, 4) alone monochromatic, and 0 is removed
        (6, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
         [[5], [4], []], {0}),
        # vertex 4 is not due when the second sweep starts: only 3 moved in
        # the first, and 4 is not its neighbour; moving 2 in the second
        # sweep makes 4 due above the walk, and it moves in that same sweep
        (9, [(0, 1), (0, 2), (0, 7), (0, 8), (1, 2), (1, 4), (1, 6), (1, 7), (2, 3),
             (2, 4), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6), (4, 5), (4, 6), (4, 8),
             (5, 6), (5, 7)],
         [[3], [2, 4], []], {1, 2, 5}),
    ], ids=["wrap-to-a-lower-vertex", "a-higher-vertex-in-the-same-sweep"])
    def test_a_move_makes_its_neighbours_due_in_sweep_order(self, n, edges, sweeps, removed):
        g = graph_from_edges(n, edges)
        assert ascending_sweeps_by_recount(g)[1] == sweeps
        assert oct_anneal(g).removed == anneal_by_recount(g) == frozenset(removed)

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
