"""Tests for the incompatibility graph over incomparable pairs."""

import random
import tracemalloc

import pytest

from orddraw.cli import main
from orddraw.engine import STRATEGIES, _insert
from orddraw.errors import TooLarge
from orddraw.ingest import FormalContext, concept_lattice, serialize_order
from orddraw.orders import (antichain, bits, boolean_lattice, build_order, chain,
                            grid, inc_id_pairs, mask_of, standard_example)
from orddraw.graphs import bfs_layers, is_bipartite_without, odd_cycles
from orddraw import tig
from orddraw.tig import MAX_TIG_VERTICES, build_tig
from oracles import (all_linear_extensions, build_tig_by_edge_list,
                     first_odd_cycle, forced_coloring, has_cycle_with,
                     incompatible, random_order, strict_pairs)


class TestPairPredicates:
    """The reference rule that build_tig's edges are checked against."""

    def test_incompatible_is_symmetric(self):
        rng = random.Random(47)
        for _ in range(40):
            o = random_order(rng, rng.randint(2, 6))
            pairs = inc_id_pairs(o)
            for p in pairs:
                for q in pairs:
                    assert incompatible(p, q, o) == incompatible(q, p, o)

    def test_pair_and_its_reverse_are_incompatible(self):
        rng = random.Random(53)
        for _ in range(40):
            o = random_order(rng, rng.randint(2, 6))
            for a, b in inc_id_pairs(o):
                assert incompatible((a, b), (b, a), o)

    def test_incompatibility_matches_cycle_creation(self):
        # the four-lookup test agrees with literally closing the relation
        rng = random.Random(59)
        checked = 0
        for _ in range(60):
            o = random_order(rng, rng.randint(2, 6))
            pairs = inc_id_pairs(o)
            for p in pairs:
                for q in pairs:
                    if p == q:
                        continue
                    assert incompatible(p, q, o) == has_cycle_with(o, p, q)
                    checked += 1
        assert checked > 2000

    def test_reversal_maps_to_the_reversed_order(self):
        # flipping both pairs preserves incompatibility in the dual order
        from orddraw.orders import OrderRelation
        rng = random.Random(67)
        for _ in range(40):
            o = random_order(rng, rng.randint(2, 6))
            dual = OrderRelation(o.ground, o.down, o.up)
            pairs = inc_id_pairs(o)
            for p in pairs:
                for q in pairs:
                    assert incompatible(p, q, o) == incompatible(
                        (p[1], p[0]), (q[1], q[0]), dual)


class TestBuildTig:
    def test_vertices_are_sorted_id_pairs(self):
        g = build_tig(standard_example(3))
        assert list(g.vertices) == sorted(g.vertices)

    def test_standard_example_census(self):
        g = build_tig(standard_example(3))
        assert len(g.vertices) == 18
        assert g.graph.m == 24

    def test_boolean_lattice_census(self):
        g3 = build_tig(boolean_lattice(3))
        assert len(g3.vertices) == 18
        assert g3.graph.m == 24
        g4 = build_tig(boolean_lattice(4))
        assert len(g4.vertices) == 110
        assert g4.graph.m == 385

    def test_chain_has_empty_graph(self):
        g = build_tig(chain(4))
        assert len(g.vertices) == 0
        assert g.graph.n == 0

    def test_edges_match_pairwise_predicate(self):
        rng = random.Random(71)
        for _ in range(30):
            o = random_order(rng, rng.randint(2, 7))
            g = build_tig(o)
            for i, p in enumerate(g.vertices):
                for j in range(i + 1, len(g.vertices)):
                    q = g.vertices[j]
                    assert (g.graph.masks[i] >> j & 1 == 1) == incompatible(p, q, o)

    def test_matches_the_edge_list_build(self):
        rng = random.Random(173)
        for i in range(200):
            if i % 2:
                o = random_order(rng, rng.randint(1, 24))
            else:
                g, m = rng.randint(1, 10), rng.randint(1, 8)
                density = rng.choice([0.2, 0.4, 0.6])
                rows = [[rng.random() < density for _ in range(m)] for _ in range(g)]
                o = concept_lattice(FormalContext(
                    tuple(f"g{j}" for j in range(g)), tuple(f"m{j}" for j in range(m)), rows))
            tg, ref = build_tig(o), build_tig_by_edge_list(o)
            assert tg.vertices == ref.vertices
            assert tg.graph.edges == ref.graph.edges
            assert tg.graph.masks == ref.graph.masks


def assert_matches_the_edge_list_build(o):
    tg, ref = build_tig(o), build_tig_by_edge_list(o)
    assert tg.vertices == ref.vertices
    assert tg.graph.masks == ref.graph.masks


def relabelled(o, ids):
    """o with element ids[k] of the input as element k of the result."""
    labels = [o.ground.label(v) for v in ids]
    return build_order(labels, [(o.ground.label(a), o.ground.label(b))
                                for a, b in strict_pairs(o)])


class TestFoldSweep:
    """build_tig's UF and DS folds sweep by up-set and down-set size, not by
    id, so they must hold however the ids run against the order."""

    def test_ids_along_every_linear_extension(self):
        # ids running top-down along an extension put every element's
        # down-set at higher ids, bottom-up ones its up-set: a fold that
        # swept in id order would read unfinished rows one way or the other
        rng = random.Random(181)
        orders = [standard_example(3), boolean_lattice(2), grid(2, 3)]
        orders += [random_order(rng, rng.randint(3, 6)) for _ in range(12)]
        checked = 0
        for o in orders:
            for ext in all_linear_extensions(o, limit=40):
                bottom_up = [o.ground.id(label) for label in ext.sequence()]
                for ids in (bottom_up[::-1], bottom_up):
                    assert_matches_the_edge_list_build(relabelled(o, ids))
                    checked += 1
        assert checked > 300

    def test_extended_orders_of_a_first_pass(self):
        # the orders a drawing's later passes build their tigs on: random
        # orders of dimension 3 or more, extended by the reversals of the
        # pairs a first anneal pass removes
        rng = random.Random(191)
        extended = 0
        for _ in range(300):
            o = random_order(rng, rng.randint(8, 16), rng.choice([0.1, 0.2, 0.3]))
            tg = build_tig(o)
            removed = STRATEGIES["anneal"](tg).removed
            if not removed:
                continue
            reversal = frozenset((b, a) for a, b in (tg.vertices[v] for v in removed))
            current, kept, _ = _insert(o, reversal)
            assert kept
            assert_matches_the_edge_list_build(current)
            extended += 1
            if extended == 30:
                break
        assert extended == 30

    def test_masks_wider_than_one_word(self):
        rng = random.Random(197)
        for _ in range(6):
            o = random_order(rng, rng.randint(65, 70), rng.choice([0.15, 0.3]))
            assert o.n > 64
            assert_matches_the_edge_list_build(o)


def sides(tg):
    """The two colour classes of a bipartite tig, as vertex pairs: its even
    and its odd BFS layers, which are forced_coloring's colour classes."""
    assert next(odd_cycles(tg.graph), None) is None
    classes = [0, 0]
    for depth, layer, clash in bfs_layers(tg.graph):
        assert not clash
        classes[depth & 1] |= layer
    colors = forced_coloring(tg.graph)[0]
    assert classes == [mask_of(v for v, c in enumerate(colors) if c == side)
                       for side in (0, 1)]
    return tuple(frozenset(tg.vertices[v] for v in bits(mask)) for mask in classes)


class TestBipartiteCheck:
    def test_two_dimensional_orders_are_bipartite(self):
        for o in (boolean_lattice(2), grid(3, 3), antichain(4), chain(3)):
            tg = build_tig(o)
            parts = sides(tg)
            assert parts[0] | parts[1] == set(tg.vertices)
            assert not parts[0] & parts[1]

    def test_split_separates_reverses(self):
        # each pair and its reverse are incompatible, so they split
        p1, p2 = sides(build_tig(grid(2, 4)))
        for a, b in p1:
            assert (b, a) in p2

    def test_standard_example_odd_cycle(self):
        g = build_tig(standard_example(3))
        cycle = next(odd_cycles(g.graph))
        assert cycle == first_odd_cycle(g.graph)
        cyc = [g.vertices[v] for v in cycle]
        assert len(cyc) % 2 == 1
        o = g.order
        for p, q in zip(cyc, cyc[1:] + cyc[:1]):
            assert incompatible(p, q, o)

    def test_removal_by_pair(self):
        g = build_tig(standard_example(3))
        # removing one vertex from every odd cycle makes it bipartite;
        # find such a vertex by trying all
        assert any(is_bipartite_without(g.graph, [g.vertices.index(p)])
                   for p in g.vertices)


class TestSizeBound:
    def test_antichain_400_is_refused_before_any_mask_is_built(self):
        # 400 * 399 = 159,600 incomparable pairs: the neighbour masks alone
        # could take 159,600^2 / 8 bytes, about 3.2 GB; the refusal comes
        # from the popcounts of 400 incomparability masks
        o = antichain(400)
        assert 400 * 399 > MAX_TIG_VERTICES
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="159600 incomparable pairs"):
                build_tig(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_bound_is_inclusive(self, monkeypatch):
        # with the bound at 12, antichain(4) (12 pairs) builds its tig, a
        # perfect matching of each pair with its reverse; antichain(5) does not
        monkeypatch.setattr(tig, "MAX_TIG_VERTICES", 12)
        tg = build_tig(antichain(4))
        assert len(tg.vertices) == 12 and tg.graph.m == 6
        with pytest.raises(TooLarge, match="20 incomparable pairs"):
            build_tig(antichain(5))

    def test_cli_exits_1(self, tmp_path, capsys):
        # S_142 has no conjugate, so draw builds its tig: 2 * 142 * 141
        # pairs within the a's and the b's, plus each a_i with b_i both ways
        path = tmp_path / "wide.order"
        path.write_text(serialize_order(standard_example(142)))
        assert main(["draw", "-i", str(path)]) == 1
        err = capsys.readouterr().err
        assert ("40328 incomparable pairs; the incompatibility graph takes "
                f"at most {MAX_TIG_VERTICES}") in err
