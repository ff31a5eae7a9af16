"""Golden bytes: SVG and JSON output of fixed inputs must not change.

The digests were recorded before the integer collinearity detector and the
set-based orientation replaced their predecessors, and the exact-path ones
(`*_sat`) before the branch search replaced the growing-k SAT loop; only
`random_order_12_sat` was re-recorded since, when the removal set stopped
coming from a SAT call (see its case).  The strategies pinned are `sat`
(the `*_sat` cases) and `anneal` (five), named after the strategy, plus
the two-dimensional path, which calls no strategy.  The five `anneal`
digests were recorded when the local search with a greedy conflict cover
replaced the annealing schedule, the census repair and the `greedy`
strategy; each case's false comparabilities (passes) went from the old
heuristics' to the new one's as follows:

- `random_order_30_anneal`: 8 (1) -> 5 (1);
- `random_order_30b_anneal`: 14 (1) -> 6 (1);
- `grid_8x8_lattice_flipped_anneal`: 152 (2) -> 32 (1);
- `random_order_130_anneal`: 196 (2) -> 150 (2);
- `random_order_10_anneal_perturbed`, formerly
  `random_order_10_greedy_perturbed` under `greedy`: 1 (1) -> 1 (1).

`random_order_130_anneal` alone was re-recorded, in both its SVG/JSON and
its TikZ/dot digest, when the local search's shuffled sweep gave way to an
ascending one: 150 (2) -> 129 (1).  The other four `anneal` drawings kept
their bytes.

`blocked_two_dimensional_120_sat` was recorded before orientation moved
to integer bitsets with one linear-order check, `intersect_linear_150`
while orders, the closure and the tig still ran on numpy matrices and
float32 BLAS products, and `standard_example_10_sat` before the exact
search started at a clique-packing bound and searched bridge blocks in
place on masks.  Any refactor of render,
orientation, bipartization or the engine that moves a byte of these
drawings fails here.

The benchmark corpora at seeds 0 and 1007 are pinned too, as the lines
that `tools/corpus_digest.py --seeds 0 1007` prints.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from orddraw.engine import compute_coordinates, drawing_to_json
from orddraw.ingest import FormalContext, concept_lattice
from orddraw.orders import (GroundSet, boolean_lattice, chain, grid,
                            intersect_linear, linear_from_sequence,
                            standard_example)
from orddraw.render import emit_dot, emit_svg, emit_tikz, perturb
from oracles import blocked_two_dimensional, random_order


def random_two_dimensional(n: int, seed: int):
    rng = random.Random(seed)
    ground = GroundSet([f"v{i}" for i in range(n)])
    extensions = []
    for _ in range(2):
        seq = list(range(n))
        rng.shuffle(seq)
        extensions.append(linear_from_sequence(ground, seq))
    return intersect_linear(extensions)


def flipped_grid_lattice(rows: int, cols: int, seed: int):
    """Concept lattice of the context (X, X, <=) of grid(rows, cols) with
    one to three incidence cells flipped by a seeded draw."""
    o = grid(rows, cols)
    incidence = [list(row) for row in o.matrix]
    rng = random.Random(seed)
    for _ in range(rng.choice([1, 2, 3])):
        i, j = rng.randrange(o.n), rng.randrange(o.n)
        incidence[i][j] = not incidence[i][j]
    names = tuple(f"e{i}" for i in range(o.n))
    return concept_lattice(FormalContext(names, names, incidence))


def doctored_chain():
    """chain(3) with the single cover edge x1-x3, so x2 sits on it."""
    return compute_coordinates(chain(3)).replace(cover_edges=(("x1", "x3"),))


CASES = {
    "grid_10x10": lambda: compute_coordinates(grid(10, 10)),
    "intersect_linear_100": lambda: compute_coordinates(random_two_dimensional(100, 4099)),
    # 120 elements and 51 implication classes; two-dimensional, so `sat` is
    # never called: the case pins the orientation of a many-class graph
    "blocked_two_dimensional_120_sat":
        lambda: compute_coordinates(blocked_two_dimensional(20, 6, 3), strategy="sat"),
    "boolean_lattice_3_sat": lambda: compute_coordinates(boolean_lattice(3), strategy="sat"),
    "standard_example_4_sat": lambda: compute_coordinates(standard_example(4), strategy="sat"),
    # k = 4: a growing-k search proves k = 1, 2, 3 unsatisfiable first
    "standard_example_6_sat": lambda: compute_coordinates(standard_example(6), strategy="sat"),
    # k = 8: the clique bound starts the search there, where the
    # disjoint-cycle bound alone started at k = 3 and searched five rounds
    # that found nothing
    "standard_example_10_sat": lambda: compute_coordinates(standard_example(10), strategy="sat"),
    # one pass, k = 3 on a tig of 68 vertices and 156 edges; re-recorded when
    # the branch search replaced the SAT call: it inserts another minimum
    # set, x10 < x1, x3 < x1, x7 < x5 instead of x10 < x1, x10 < x7,
    # x11 < x3, still with 3 false comparabilities
    "random_order_12_sat":
        lambda: compute_coordinates(random_order(random.Random(18), 12, 0.3), strategy="sat"),
    # k = 11 on a tig of 110 vertices: the headline exact input
    "boolean_lattice_4_sat": lambda: compute_coordinates(boolean_lattice(4), strategy="sat"),
    "doctored_chain_perturbed": doctored_chain,
    # the extension puts x1 on a cover edge, so perturb moves it
    "random_order_10_anneal_perturbed":
        lambda: compute_coordinates(random_order(random.Random(134), 10), strategy="anneal"),
    # dense orders that draw in one pass; anneal removes 5 and 6 tig vertices
    "random_order_30_anneal":
        lambda: compute_coordinates(random_order(random.Random(0), 30, 0.45), strategy="anneal"),
    "random_order_30b_anneal":
        lambda: compute_coordinates(random_order(random.Random(2), 30, 0.45), strategy="anneal"),
    # 66 concepts, a tig of 1752 vertices: the only case large enough to pin
    # the neighbour order of a big tig; one pass removes 32 vertices
    "grid_8x8_lattice_flipped_anneal":
        lambda: compute_coordinates(flipped_grid_lattice(8, 8, 14), strategy="anneal"),
    # above n = 128, where the masks take more than two 64-bit words: a
    # two-dimensional order of 150 elements, and a 130-element order with
    # 1386 incomparable pairs that anneal extends in two passes (150
    # inserted pairs)
    "intersect_linear_150": lambda: compute_coordinates(random_two_dimensional(150, 8191)),
    "random_order_130_anneal":
        lambda: compute_coordinates(random_order(random.Random(1), 130, 0.3), strategy="anneal"),
}

GOLDEN = {
    "blocked_two_dimensional_120_sat":
        "8daa0bba63336a18b1e4d573db15205123d5da9b711a8d8d0de92f04a6db24b2",
    "boolean_lattice_3_sat":
        "ae55a684fcdac2536f4305db1040f36076997d6c738ce2647a7ec6c8394d161e",
    "boolean_lattice_4_sat":
        "f957ff93491542ad64e382aee325cfab761e9208b32007dc29aa9ec963c5bffc",
    "doctored_chain_perturbed":
        "1a9b3cbd724fba4114c29149651aa2d3dbcad1943cbd5a749dba680bfd6b18a3",
    "grid_8x8_lattice_flipped_anneal":
        "6dfe122f5d30d93ab468b5b8e74b826946468c09eae3e2a6cc213d7652297834",
    "grid_10x10":
        "dd964e6ad3602293117172e8324de5a68d074baade6e331b2c90517c62ac47a8",
    "intersect_linear_100":
        "bd99632c828870ea1576cc654f6655269b27772adbcdb0e4fa300fad23923d1f",
    "intersect_linear_150":
        "8d9428c4f35b60ec157d8ada6004d059eec1d9f065f8a30edae7d7dfbdb21bc6",
    "random_order_10_anneal_perturbed":
        "adcf8feca9d90d80faf3640ccd56041a316bfa2df5a57a3484318c0650b55672",
    "random_order_30_anneal":
        "67f8b8cec9d8ebb3e7f1df5630a2b2c7e41322053e5730b93172fb708e54cfc4",
    "random_order_30b_anneal":
        "1fe71de0d4bef3cd1b7d3bf7c6fb0e194b3123986c94b03b362e5f3ba92cd7ce",
    "random_order_12_sat":
        "f9d2dc488055a1bbe38ab992d059b9d71a29de8ebfccf2bf3f8440f6947c3142",
    "random_order_130_anneal":
        "b111539205c4250bc686b29e6a1df773b0bb0967d0a76dcbb4a135be23d757ad",
    "standard_example_4_sat":
        "1383a3162c0d2338fc93105d20220c3c6698f6c5cc45ab2ce6078774d7a66bab",
    "standard_example_10_sat":
        "14218efbb5c9ed29fcde75a1eaea8e471c45ffa1c368de9f9f3da952c269af14",
    "standard_example_6_sat":
        "5364929fd10f65ce1f6431f11a5cd2ef652cc13ae99bd9ea612244dde8c2cc2c",
}


def digest(d) -> str:
    d = perturb(d)
    return hashlib.sha256(emit_svg(d) + drawing_to_json(d).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_unchanged(name):
    assert digest(CASES[name]()) == GOLDEN[name]


# TikZ and dot bytes of the same cases, after the same collinearity repair;
# recorded while the plane still held `Fraction` coordinates, before it
# became integers over one shared denominator
GOLDEN_TIKZ_DOT = {
    "blocked_two_dimensional_120_sat":
        "a6d0a81c0af0ba3d3ebdea92115ceb5957d6e0eb39b0dabe902d9211b1d34e8e",
    "boolean_lattice_3_sat":
        "4b7f32381b2576d32dc8db0a37fd7fbbcc0242e12871ec3cd1073eb3c333664a",
    "boolean_lattice_4_sat":
        "a5698918401236c39ccf5b6b0619f667990767292c1cdcf80632ab9b1b9f7ba3",
    "doctored_chain_perturbed":
        "c465b54f37d15191f2267fd34d4e954682c597936c7ddd85e4c7bd616a2cbbf7",
    "grid_10x10":
        "08263877f000c49c823faf1f5318e2369b1d03acdc54140cff8966a5ff1e7b60",
    "grid_8x8_lattice_flipped_anneal":
        "ba70e204ce99e3bcceaaae17670b93eac2f4d7fb31de0a4149435546bb87ef5f",
    "intersect_linear_100":
        "73ee9f0b09a8af2ff7376a7137059e874585b456b7ffd3215734d620b2a865b7",
    "intersect_linear_150":
        "1eab7c3df6050472780835647baf69fe979937a0fdd0dd13cfa4b4db9a44314a",
    "random_order_10_anneal_perturbed":
        "583c65f243b4bdfa43ff6c081ffb4f8a1de07120b42ccabf7abd268da3b7ba20",
    "random_order_12_sat":
        "72d225fdc910113a8958d84770037d3cf1ef5f0ad3b2e3a9aeb254ffc2aa5a25",
    "random_order_130_anneal":
        "6786dd9728f32ea115ecba8eed1dba022771466ef818c8ff2311a7bf3e9c0e91",
    "random_order_30_anneal":
        "4cc1d07feaa1329dc5b48bb59a73bfaea29a1e1138a4312b6b297bf77e0a5fba",
    "random_order_30b_anneal":
        "a63fb02a0c482f939a2175de6afc3e8798c5be1f1656c6cbdfcbd2e0f5529654",
    "standard_example_10_sat":
        "c97b19258f147eab50b4dcb54982df37a08df7d8afbbc8924f592b576e5e9e79",
    "standard_example_4_sat":
        "ba945c283042883bc12a5a05acaee25c305bcc0358065be1623731f6cf69875e",
    "standard_example_6_sat":
        "fe48e97713900d736cd4b73e5f9df940dea961a6d5bf395006170ea1910ec370",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tikz_and_dot_bytes_are_unchanged(name):
    d = perturb(CASES[name]())
    assert hashlib.sha256(emit_tikz(d) + emit_dot(d)).hexdigest() == GOLDEN_TIKZ_DOT[name]


# `python tools/corpus_digest.py --seeds 1007`, recorded when the input
# reader started telling formats apart by content; the `heuristic` line at
# both seeds was re-recorded when the local search began to sweep in
# ascending order
CORPUS_DIGEST_1007 = [
    "exact 1007 59 6f5549d6c911c1482202a106242b6459e700b99ef38c988cf089777d1f5962a3",
    "exact 1007 search k=201 lower_bound=178 branch_nodes=1236 examined=60",
    "heuristic 1007 52 92dce5a67cf9da442e13dd2b614e85ca01440270adfb4da1d339233859ed47f8",
    "two_dim 1007 64 f70b9679dc691270847ac9ecc6b107ecb66524f359d4067477763ee7959e71db",
]


def corpus_digest_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "corpus_digest.py"
    spec = importlib.util.spec_from_file_location("corpus_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_benchmark_corpora_are_unchanged_at_seed_1007():
    tool = corpus_digest_tool()
    lines = [line for workload in tool.corpus.WORKLOADS
             for line in tool.digest_lines(workload, 1007)]
    assert lines == CORPUS_DIGEST_1007, "the tool now prints:\n" + "\n".join(lines)


# the digest lines of `python tools/corpus_digest.py --seeds 0`; the search
# line is pinned by the next test
CORPUS_DIGEST_0 = [
    "exact 0 59 265db3979e1c18f7e4712d422521631a0d028a8f8002f37d5f8aeefb2426baf6",
    "heuristic 0 52 ce934bb575346ec6b8395cb21421078864e3a76594cf57d0667b81be774b8816",
    "two_dim 0 64 b0dc3d99c99c6b25bfe5ea220cae62e0e8c5830870b4b400190858171f15829a",
]


def test_benchmark_corpora_are_unchanged_at_seed_0():
    tool = corpus_digest_tool()
    # the first line of each workload is its digest; the search is not run
    lines = [next(tool.digest_lines(workload, 0)) for workload in tool.corpus.WORKLOADS]
    assert lines == CORPUS_DIGEST_0, "the tool now prints:\n" + "\n".join(lines)


def test_exact_search_figures_are_unchanged_at_seed_0():
    # the search line of `python tools/corpus_digest.py --seeds 0`
    totals = corpus_digest_tool().search_totals("exact", 0)
    assert totals == {"k": 201, "lower_bound": 178, "branch_nodes": 1047, "examined": 59}
