"""Tests for the undirected-graph layer and its coloring primitives."""

import importlib
import random
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orddraw import graphs
from orddraw.graphs import (SimpleGraph, bfs_layers, is_bipartite_without, odd_blocks,
                            odd_cycle_census)
from orddraw.ingest import read_order
from orddraw.orders import bits, mask_of
from orddraw.tig import build_tig
from oracles import (bipartite_without, first_odd_cycle, forced_coloring,
                     graph_from_edges, kept_graph, monochromatic_edges,
                     odd_cycle_census_after_coloring, odd_cycles_by_distance, row_masks,
                     tree_cycle)


def cycle_graph(k):
    return graph_from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def neighbour_matrix(g):
    """The dense boolean adjacency matrix read off g's neighbour masks."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u in range(g.n):
        adj[u, bits(g.masks[u])] = True
    return adj


def walked_cycle(g, gone=0):
    """The cycle of graphs.first_odd_cycle for g minus the vertices in the
    mask `gone`, None when that graph is bipartite."""
    found = graphs.first_odd_cycle(g, gone)
    return found and found[0]


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, edges)


def layer_colours(g, removed=()):
    """Each kept vertex's BFS layer parity from bfs_layers, None for the
    removed ones; these are forced_coloring's colours."""
    colours = [None] * g.n
    for depth, layer, _ in bfs_layers(g, sum(1 << v for v in removed)):
        for v in bits(layer):
            colours[v] = depth & 1
    assert colours == forced_coloring(g, removed)[0]
    return colours


def is_odd_closed_walk(g, cycle):
    return len(cycle) % 2 == 1 and all(
        g.masks[a] >> b & 1 for a, b in zip(cycle, cycle[1:] + cycle[:1]))


class TestSimpleGraph:
    def test_normalizes_and_deduplicates_edges(self):
        g = graph_from_edges(3, [(2, 1), (1, 2), (0, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.m == 2
        assert g.masks == (0b010, 0b101, 0b010)

    def test_adjacency_is_read_only(self):
        # the graph holds its adjacency as a tuple of neighbour masks and
        # hands out its edges as a tuple
        g = SimpleGraph([0b10, 0b01])
        assert g.masks == (0b10, 0b01)
        assert isinstance(g.edges, tuple)
        with pytest.raises(TypeError):
            g.masks[0] = 0

    def test_neighbors_and_adjacency_match_the_edges(self):
        rng = random.Random(19)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 12), 0.4)
            for u in range(g.n):
                assert bits(g.masks[u]) == [
                    w for w in range(g.n) if (min(u, w), max(u, w)) in g.edges]
            adj = neighbour_matrix(g)
            assert np.array_equal(adj, adj.T)


@st.composite
def symmetric_matrices(draw):
    """Random symmetric boolean matrices with a false diagonal, n <= 60."""
    n = draw(st.integers(0, 60))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    return upper | upper.T


class TestFromMatrix:
    """SimpleGraph on the row masks of a symmetric matrix."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(symmetric_matrices())
    def test_matches_the_edge_list_constructor(self, adj):
        n = len(adj)
        g = SimpleGraph(row_masks(adj))
        ref = graph_from_edges(n, [(int(u), int(v)) for u, v in np.argwhere(adj)])
        assert g.n == ref.n == n
        assert g.edges == ref.edges
        assert all(type(u) is int and type(v) is int for u, v in g.edges)
        assert g.masks == ref.masks
        assert np.array_equal(neighbour_matrix(g), adj)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(symmetric_matrices())
    def test_edges_m_and_adjacency_agree_before_and_after_the_lazy_build(self, adj):
        n = len(adj)
        edges = tuple((int(u), int(v)) for u, v in np.argwhere(np.triu(adj, 1)))
        for g in (graph_from_edges(n, edges), SimpleGraph(row_masks(adj))):
            # m and the neighbours come before the first read of edges,
            # which builds the tuples, and must not change after it
            for _ in range(2):
                assert g.m == len(edges)
                assert np.array_equal(neighbour_matrix(g), adj)
                assert g.masks == tuple(row_masks(adj))
                assert g.edges == edges

    def test_empty_and_edgeless(self):
        assert SimpleGraph([]).n == 0
        g = SimpleGraph([0] * 4)
        assert (g.n, g.m, g.edges) == (4, 0, ())
        assert g.masks == (0, 0, 0, 0)

    def test_rejects_malformed_matrices(self):
        # a neighbour beyond the last vertex, a negative mask, a loop
        with pytest.raises(ValueError, match="vertex 1 out of range"):
            SimpleGraph([0b10, 0b101])
        with pytest.raises(ValueError, match="vertex 0 out of range"):
            SimpleGraph([-1, 0])
        with pytest.raises(ValueError, match="loop at vertex 2"):
            SimpleGraph([0, 0, 0b100])
        # the lowest malformed vertex is named, and a mask out of range is
        # reported as such even when it also holds its own bit
        for masks, message in [([0b1, 0b100], "loop at vertex 0"),
                               ([0b10, 0b1000, -1], "vertex 1 out of range"),
                               ([0, 0b1110, 0], "vertex 1 out of range"),
                               ([0, 0, 0b110], "loop at vertex 2")]:
            with pytest.raises(ValueError, match=message):
                SimpleGraph(masks)


def networkx_odd_blocks(g):
    """odd_blocks by networkx: the non-bipartite components left after
    removing nx.bridges, as vertex masks in the order of lowest vertex."""
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    ref.remove_edges_from(list(nx.bridges(ref)))
    parts = [sorted(c) for c in nx.connected_components(ref)
             if not nx.is_bipartite(ref.subgraph(c))]
    return [sum(1 << v for v in part) for part in sorted(parts)]


def bridged_chain(rng, parts):
    """Disjoint copies of the given graphs, each joined to the previous one
    by a bridge between random vertices, with the vertex ids shuffled."""
    edges, total = [], 0
    for h in parts:
        if total:
            edges.append((rng.randrange(total), total + rng.randrange(h.n)))
        edges += [(total + u, total + v) for u, v in h.edges]
        total += h.n
    ids = list(range(total))
    rng.shuffle(ids)
    return graph_from_edges(total, [(ids[u], ids[v]) for u, v in edges])


class TestOddBlocks:
    def test_match_networkx_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(0, 25)
            g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.4]))
            assert odd_blocks(g) == networkx_odd_blocks(g)

    def test_match_networkx_on_bridged_cliques_and_cycles(self):
        rng = random.Random(37)
        families = ([graph_from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
                     for k in range(3, 7)] + [cycle_graph(k) for k in range(3, 7)])
        for _ in range(200):
            parts = [rng.choice(families) for _ in range(rng.randint(1, 6))]
            g = bridged_chain(rng, parts)
            blocks = odd_blocks(g)
            assert blocks == networkx_odd_blocks(g)
            # each part is one block; all but C4 and C6 are odd
            assert len(blocks) == sum(1 for h in parts if not bipartite_without(h))

    def test_path_of_triangles(self):
        # two triangles joined by the bridge 2-3
        g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        assert odd_blocks(g) == [0b000111, 0b111000]
        assert odd_blocks(cycle_graph(5)) == [0b11111]

    def test_even_cycles_give_none(self):
        for k in (4, 6, 8, 10):
            assert odd_blocks(cycle_graph(k)) == []
        rng = random.Random(41)
        assert odd_blocks(bridged_chain(rng, [cycle_graph(4), cycle_graph(6)] * 3)) == []

    def test_a_four_cycle_whose_deepest_vertex_reaches_two_parents(self):
        """The 4-cycle 0-1-2-3 with the triangle 2-4-5: vertex 2, at depth
        2, hangs off 3, its highest neighbour one layer up, and also reaches
        1, so the subtree of 3 has a neighbour outside it besides 0 although
        3 itself has none, and (0, 3) is no bridge.  The graph has no
        bridge: it is one odd block."""
        g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (2, 5)])
        assert [layer for _, layer, _ in bfs_layers(g)] == [0b1, 0b1010, 0b100, 0b110000]
        assert odd_blocks(g) == networkx_odd_blocks(g) == [0b111111]

    def test_a_bridged_chain_of_odd_cycles_with_bridge_ends_mid_layer(self):
        """The triangle 0-1-2 bridged from 1 and 2 to two 5-cycles, and
        from the 5-cycle's vertex 8 to the triangle 12-15-16.  The bridge
        (8, 12) joins a vertex inside the layer {6, 7, 8, 9} to one inside
        the layer {10, 11, 12, 13, 14}, neither the lowest nor the highest
        of its layer, and 8's own neighbours outside its subtree are only
        its parent 3 while its child 10 reaches 13."""
        g = graph_from_edges(17, [(0, 1), (0, 2), (1, 2),
                                  (3, 8), (8, 10), (10, 13), (13, 7), (7, 3),
                                  (4, 9), (9, 11), (11, 14), (14, 6), (6, 4),
                                  (12, 15), (15, 16), (12, 16),
                                  (1, 3), (2, 4), (8, 12)])
        assert [layer for _, layer, _ in bfs_layers(g)][3:5] \
            == [mask_of([6, 7, 8, 9]), mask_of([10, 11, 12, 13, 14])]
        assert odd_blocks(g) == networkx_odd_blocks(g) == [
            mask_of([0, 1, 2]), mask_of([3, 7, 8, 10, 13]),
            mask_of([4, 6, 9, 11, 14]), mask_of([12, 15, 16])]


class TestTwoColoring:
    """The BFS two-colouring: the layer parities of bfs_layers when
    graphs.first_odd_cycle finds no cycle, else its cycle."""

    def test_even_cycle_is_bipartite(self):
        g = cycle_graph(6)
        assert graphs.first_odd_cycle(g) is None
        colors = layer_colours(g)
        assert all(colors[u] != colors[v] for u, v in g.edges)

    def test_odd_cycle_witness_is_an_odd_closed_walk(self):
        g = cycle_graph(5)
        assert any(clash for _, _, clash in bfs_layers(g))
        cyc = walked_cycle(g)
        assert is_odd_closed_walk(g, cyc)
        assert cyc == first_odd_cycle(g)

    def test_witness_on_random_nonbipartite_graphs(self):
        rng = random.Random(23)
        found = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(3, 9), 0.4)
            cyc = walked_cycle(g)
            assert cyc == first_odd_cycle(g)
            if cyc is None:
                colors = layer_colours(g)
                for u, v in g.edges:
                    assert colors[u] != colors[v]
            else:
                found += 1
                assert is_odd_closed_walk(g, cyc)
        assert found > 20, "suite should include non-bipartite samples"

    def test_removed_vertices_are_skipped(self):
        g = cycle_graph(5)
        assert not is_bipartite_without(g)
        assert is_bipartite_without(g, removed=[0])
        assert graphs.first_odd_cycle(g, 0b1) is None
        assert layer_colours(g, removed=[0])[0] is None

    def test_disconnected_components_all_colored(self):
        g = graph_from_edges(5, [(0, 1), (2, 3)])
        assert graphs.first_odd_cycle(g) is None
        assert all(c in (0, 1) for c in layer_colours(g))


class TestForcedColoring:
    """The pushing-past-conflicts colouring, kept as the tests' oracle."""

    def test_colors_every_kept_vertex(self):
        g = cycle_graph(7)
        colors, parent, depth = forced_coloring(g)
        assert all(c in (0, 1) for c in colors)
        # exactly one monochromatic (conflict) edge on an odd cycle
        assert monochromatic_edges(g, colors) == 1

    def test_removed_stay_uncolored(self):
        g = cycle_graph(5)
        colors, _, _ = forced_coloring(g, removed=[2])
        assert colors[2] is None
        assert monochromatic_edges(g, colors) == 0


def random_removed(rng, g):
    share = rng.choice([0.0, 0.1, 0.3])
    return {v for v in range(g.n) if rng.random() < share}


class TestOddCycles:
    def test_census_counts_each_clash_edge_once_from_its_lower_end(self):
        """The census counts one cycle per monochromatic edge of the forced
        colouring, the edge's tree cycle in the oracle's BFS tree of lowest
        parents, and graphs.first_odd_cycle walks the first of them in the
        oracle's order (component, depth, lower end, upper end)."""
        rng = random.Random(37)
        met_some = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.3, 0.6]))
            removed = random_removed(rng, g)
            cycles = odd_cycles_by_distance(g, removed)
            color = forced_coloring(g, removed)[0]
            mono = [(u, v) for u, v in g.edges
                    if color[u] is not None and color[u] == color[v]]
            assert sorted((cycle[0], cycle[-1]) for cycle in cycles) == mono
            counts: dict[int, int] = {}
            for cycle in cycles:
                for x in cycle:
                    counts[x] = counts.get(x, 0) + 1
            assert odd_cycle_census(g, removed) == (counts or None)
            assert walked_cycle(g, mask_of(removed)) == next(iter(cycles), None)
            met_some += bool(cycles)
        assert met_some > 100

    def test_matches_the_oracles_on_random_graphs(self):
        """The cycle of graphs.first_odd_cycle is the oracle's first odd
        cycle, with none the layers of bfs_layers colour the graph; the
        census equals the one read off a finished forced colouring."""
        rng = random.Random(41)
        odd = 0
        for _ in range(1500):
            g = random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.1, 0.2, 0.4, 0.7]))
            removed = random_removed(rng, g)
            assert odd_cycle_census(g, removed) == odd_cycle_census_after_coloring(g, removed)
            cycle = walked_cycle(g, mask_of(removed))
            assert cycle == first_odd_cycle(g, removed)
            if cycle is None:
                assert layer_colours(g, removed) == forced_coloring(g, removed)[0]
            else:
                odd += 1
        assert odd > 500

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(symmetric_matrices(), st.integers(0, 2 ** 60 - 1))
    def test_first_cycle_is_odd_kept_and_closed_by_a_clash_edge(self, adj, gone):
        """The cycle of graphs.first_odd_cycle is an odd closed walk with no
        repeated vertex over the kept vertices, its ends the two ends of a
        clash edge; the census counts both ends of every clash edge; and
        there is no cycle and no census exactly when the kept graph is
        bipartite."""
        g = SimpleGraph(row_masks(adj))
        gone &= (1 << g.n) - 1
        cycle = walked_cycle(g, gone)
        census = odd_cycle_census(g, bits(gone))
        color = forced_coloring(g, bits(gone))[0]
        clashes = [(u, w) for u, w in g.edges if color[u] is not None and color[u] == color[w]]
        if cycle is not None:
            assert is_odd_closed_walk(g, cycle)
            assert len(set(cycle)) == len(cycle) and not mask_of(cycle) & gone
            assert (cycle[0], cycle[-1]) in clashes
        assert all(u in census and w in census for u, w in clashes)
        assert (cycle is None) == (census is None) == (not clashes) \
            == is_bipartite_without(g, bits(gone))


class TestOnTheExactCorpus:
    def test_odd_cycles_match_the_oracles_on_the_corpus_tigs(self, monkeypatch):
        """The tigs the exact search walks, of the seed-0 `exact` corpus of
        perfbench/corpus.py (18 to 128 vertices), each minus a few seeded
        random removed sets: graphs.first_odd_cycle returns the oracle's
        first odd cycle with its vertex mask, and the census is the one
        read off a forced colouring."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        corpus = importlib.import_module("corpus")
        rng = random.Random(59)
        sizes, odd = [], 0
        for item in corpus.build_corpus("exact", 0):
            g = build_tig(read_order(item.text)).graph
            sizes.append(g.n)
            for share in (0.0, 0.05, 0.1, 0.2):
                removed = {v for v in range(g.n) if rng.random() < share}
                gone = sum(1 << v for v in removed)
                first = first_odd_cycle(g, removed)
                assert graphs.first_odd_cycle(g, gone) \
                    == (None if first is None else (first, mask_of(first))), item.name
                assert odd_cycle_census(g, removed) \
                    == odd_cycle_census_after_coloring(g, removed), item.name
                odd += first is not None
        assert (len(sizes), min(sizes), max(sizes)) == (59, 18, 128)
        assert 150 < odd < 4 * len(sizes)


class TestFirstOddCycle:
    """graphs.first_odd_cycle, the walk the exact search and
    is_bipartite_without read, against the oracle built from networkx
    distances."""

    @staticmethod
    def check(g, removed):
        gone = sum(1 << v for v in removed)
        cycle = first_odd_cycle(g, removed)
        assert graphs.first_odd_cycle(g, gone) \
            == (None if cycle is None else (cycle, mask_of(cycle)))
        assert (cycle is None) == is_bipartite_without(g, removed)
        return cycle

    def test_matches_the_oracle_on_random_graphs(self):
        rng = random.Random(43)
        odd = 0
        for _ in range(1500):
            g = random_graph(rng, rng.randint(1, 60), rng.choice([0.02, 0.05, 0.1, 0.3, 0.6]))
            odd += self.check(g, random_removed(rng, g)) is not None
        assert 300 < odd < 1400

    def test_disconnected_graphs(self):
        # disjoint copies with shuffled ids: odd components come after
        # bipartite ones, or lose a vertex to the removed set
        rng = random.Random(47)
        odd = 0
        for _ in range(300):
            edges, total = [], 0
            for _ in range(rng.randint(2, 6)):
                h = rng.choice([cycle_graph(4), cycle_graph(5), path_graph(3),
                                graph_from_edges(1), cycle_graph(7), random_graph(rng, 8, 0.3)])
                edges += [(total + u, total + v) for u, v in h.edges]
                total += h.n
            ids = list(range(total))
            rng.shuffle(ids)
            g = graph_from_edges(total, [(ids[u], ids[v]) for u, v in edges])
            odd += self.check(g, random_removed(rng, g)) is not None
        assert 100 < odd < 290

    def test_layers_wider_than_eight_vertices(self):
        """5-cycles with each vertex blown up into ten twins, at shuffled
        ids and with a random share removed, so the walk expands layers of
        one vertex (read directly), of two to eight (walked from the top
        bit) and of more than eight (walked a byte at a time)."""
        rng = random.Random(71)
        widths = set()
        odd = 0
        for _ in range(60):
            copies = rng.randint(1, 3)
            ids = list(range(50 * copies))
            rng.shuffle(ids)
            edges = [(ids[50 * c + 10 * p + s], ids[50 * c + 10 * ((p + 1) % 5) + t])
                     for c in range(copies) for p in range(5)
                     for s in range(10) for t in range(10)]
            g = graph_from_edges(50 * copies, edges)
            share = rng.choice([0, 0.3, 0.95])
            removed = {v for v in range(g.n) if rng.random() < share}
            odd += self.check(g, removed) is not None
            widths |= {layer.bit_count() for _, layer, _ in
                       bfs_layers(g, sum(1 << v for v in removed))}
        assert 10 < odd < 60
        assert {1, 20} <= widths and any(2 <= w <= 8 for w in widths)

    def test_long_odd_cycle(self):
        g = cycle_graph(2001)
        cycle = self.check(g, ())
        assert sorted(cycle) == list(range(2001))
        assert self.check(g, {1000}) is None

    def test_empty_graphs(self):
        assert self.check(graph_from_edges(0), ()) is None
        assert self.check(graph_from_edges(5), ()) is None
        assert self.check(cycle_graph(3), {0, 1, 2}) is None


def path_graph(k):
    return graph_from_edges(k, [(i, i + 1) for i in range(k - 1)])


class TestBfsLayers:
    """The layer-per-step colouring against the networkx-distance oracle."""

    @staticmethod
    def check(g, removed):
        """Depths and colours equal forced_coloring's on every kept vertex,
        the layers partition the kept vertices, each component starts at
        its lowest kept vertex, each layer's clash mask holds exactly its
        vertices with a neighbour of their own colour under that colouring,
        and is_bipartite_without agrees with networkx on the kept subgraph.
        Returns whether some layer clashed."""
        ref, _, ref_depth = forced_coloring(g, removed)
        colours, depth = [None] * g.n, [0] * g.n
        clash = False
        gone = sum(1 << v for v in removed)
        seen = gone
        for d, layer, layer_clash in bfs_layers(g, gone):
            assert layer and not layer & seen
            if d == 0:
                kept_unseen = ((1 << g.n) - 1) ^ seen
                assert layer == kept_unseen & -kept_unseen
            seen |= layer
            for v in bits(layer):
                colours[v], depth[v] = d & 1, d
            assert layer_clash == sum(1 << v for v in bits(layer)
                                      if any(ref[w] == ref[v] for w in bits(g.masks[v])))
            clash |= layer_clash != 0
        assert colours == ref
        assert [depth[v] for v in range(g.n) if v not in removed] \
            == [ref_depth[v] for v in range(g.n) if v not in removed]
        assert clash == (monochromatic_edges(g, ref) > 0)
        assert is_bipartite_without(g, removed) == nx.is_bipartite(kept_graph(g, removed)) \
            == (not clash)
        return clash

    def test_matches_the_oracles_on_random_graphs(self):
        rng = random.Random(43)
        clashes = 0
        for _ in range(800):
            g = random_graph(rng, rng.randint(0, 40), rng.choice([0.02, 0.05, 0.1, 0.2, 0.4, 0.7]))
            clashes += self.check(g, random_removed(rng, g))
        assert 200 < clashes < 700

    def test_matches_the_oracles_on_wide_sparse_graphs(self):
        """Graphs of 65 to 700 vertices and one to six edges per vertex, so
        the byte walk meets layers over many bytes with zero bytes between
        their set bits, and layers of a single vertex."""
        rng = random.Random(47)
        clashes = gapped = single = 0
        for _ in range(24):
            n = rng.randint(65, 700)
            edges = [rng.sample(range(n), 2) for _ in range(rng.randint(n // 2, 3 * n))]
            g = graph_from_edges(n, edges)
            removed = random_removed(rng, g)
            clashes += self.check(g, removed)
            for _, layer, _ in bfs_layers(g, sum(1 << v for v in removed)):
                inner = layer.to_bytes((layer.bit_length() + 7) // 8, "little").lstrip(b"\0")
                gapped += 0 in inner
                single += layer.bit_count() == 1
        assert 0 < clashes < 24
        assert gapped > 100 and single > 100

    def test_long_odd_cycle(self):
        g = cycle_graph(2001)
        assert self.check(g, set())
        assert not self.check(g, {1000})
        # the two ends of the last edge share the deepest layer
        assert max(d for d, _, _ in bfs_layers(g)) == 1000

    def test_long_path(self):
        g = path_graph(3000)
        assert not self.check(g, set())
        assert not self.check(g, {0, 1500, 2999})
        assert [layer for _, layer, _ in bfs_layers(g)] == [1 << v for v in range(3000)]

    def test_stars_at_the_walk_of_eight_vertices(self):
        """A layer of at most eight vertices is walked from its top bit, a
        wider one a byte at a time: the stars K1,8 and K1,9 put eight and
        nine leaves in one layer, from the centre and from a leaf."""
        for leaves in (8, 9):
            for centre in (0, 4, leaves):
                g = graph_from_edges(leaves + 1, [(centre, v) for v in range(leaves + 1)
                                                  if v != centre])
                assert not self.check(g, set())
                widths = [layer.bit_count() for _, layer, _ in bfs_layers(g)]
                assert widths == ([1, leaves] if centre == 0 else [1, 1, leaves - 1])
            assert not self.check(g, {leaves})

    def test_a_triangle_at_high_ids_among_isolated_vertices(self):
        g = graph_from_edges(10_003, [(10_000, 10_001), (10_001, 10_002), (10_000, 10_002)])
        assert self.check(g, set())
        assert not self.check(g, {10_001})
        assert list(bfs_layers(g, (1 << 10_000) - 1)) \
            == [(0, 1 << 10_000, 0), (1, 0b110 << 10_000, 0b110 << 10_000)]

    def test_empty_graphs(self):
        assert list(bfs_layers(graph_from_edges(0))) == []
        assert not self.check(graph_from_edges(0), set())
        assert list(bfs_layers(graph_from_edges(4))) == [(0, 1 << v, False) for v in range(4)]
        assert not self.check(graph_from_edges(4), {2})
        assert list(bfs_layers(cycle_graph(5), 0b11111)) == []


class TestOddCycleCensus:
    def test_none_for_bipartite(self):
        assert odd_cycle_census(cycle_graph(8)) is None
        assert odd_cycle_census(cycle_graph(5), removed=[3]) is None

    def test_counts_cover_the_triangle(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        census = odd_cycle_census(g)
        assert census is not None
        assert set(census) <= {0, 1, 2}
        assert 3 not in census

    def test_census_vertices_hit_every_witness(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_graph(rng, rng.randint(3, 8), 0.5)
            census = odd_cycle_census(g)
            if census is None:
                assert bipartite_without(g)
            else:
                assert not bipartite_without(g)
                # removing all counted vertices kills every witnessed cycle
                assert monochromatic_edges(
                    g, forced_coloring(g, removed=census)[0]) == 0

    def test_matches_a_walk_over_the_edge_tuples(self):
        # one BFS-tree cycle per monochromatic kept edge, read off `edges`
        rng = random.Random(31)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 25), rng.choice([0.1, 0.3, 0.6]))
            removed = {v for v in range(g.n) if rng.random() < 0.2}
            color, parent, depth = forced_coloring(g, removed)
            ref: dict[int, int] = {}
            for u, v in g.edges:
                if u not in removed and v not in removed and color[u] == color[v]:
                    for x in tree_cycle(parent, depth, u, v):
                        ref[x] = ref.get(x, 0) + 1
            assert odd_cycle_census(g, removed) == (ref or None)
