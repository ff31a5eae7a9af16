"""The one step that closes generator rows into an order, through the
builders that hand it rows, against dense references built from the rows
alone.  `concept_lattice`, the fourth builder, is checked against the
extents of its cross table in test_ingest."""

import random

import numpy as np
import pytest

from orddraw.errors import CycleError
from orddraw.ingest import parse_order_text
from orddraw.orders import GroundSet, build_order, linear_from_sequence
from oracles import assert_order, blas_closure, row_masks

# sizes on both sides of the 64-bit word boundary and of the 128-bit one
SIZES = [1, 2, 3, 63, 64, 65, 127, 128, 129, 130]


def generator_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Pairs i < j along a shuffled base, at one of a few densities, with
    self pairs now and then and, in some draws, pairs that close cycles."""
    perm = list(range(n))
    rng.shuffle(perm)
    density = rng.choice([0.0, 1.5 / n, 4 / n, 0.3])
    pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    pairs += [(v, v) for v in rng.sample(range(n), rng.randint(0, min(n, 2)))]
    for _ in range(rng.choice([0, 0, 1, 2])):
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        pairs.append((perm[j], perm[i]))  # backwards: a cycle if i reaches j
    rng.shuffle(pairs)
    return pairs


def test_both_readers_close_the_rows_as_the_dense_closure_does():
    rng = random.Random(5077)
    sizes = SIZES * 4 + [rng.randint(1, 130) for _ in range(60)]
    outcomes = set()
    for n in sizes:
        pairs = generator_pairs(rng, n)
        labels = [f"v{i}" for i in range(n)]
        relation = np.zeros((n, n), dtype=bool)
        for a, b in pairs:
            relation[a, b] = True
        closed = blas_closure(relation)
        cyclic = bool((closed & closed.T & ~np.eye(n, dtype=bool)).any())
        text = "elements: " + " ".join(labels) + "\n" + "".join(
            f"{labels[a]} < {labels[b]}\n" for a, b in pairs)
        labelled = [(labels[a], labels[b]) for a, b in pairs]
        if cyclic:
            with pytest.raises(CycleError) as built:
                build_order(labels, labelled)
            with pytest.raises(CycleError) as read:
                parse_order_text(text)
            walk = built.value.cycle
            assert read.value.cycle == walk
            # the witness closes a cycle through generator pairs
            assert walk[0] == walk[-1] and len(walk) >= 3
            assert set(zip(walk, walk[1:])) <= set(labelled)
            outcomes.add("cycle")
            continue
        for o in (build_order(labels, labelled), parse_order_text(text)):
            assert o.ground.labels == tuple(labels)
            assert o.up == tuple(row_masks(closed))
            assert o.down == tuple(row_masks(closed.T))
            assert_order(o)
        outcomes.add("order")
    assert outcomes == {"cycle", "order"}


def test_a_sequence_closes_to_the_chain_it_lists():
    rng = random.Random(5081)
    for n in SIZES + [rng.randint(1, 130) for _ in range(20)]:
        ground = GroundSet(f"v{i}" for i in range(n))
        seq = rng.sample(range(n), n)
        position = {v: k for k, v in enumerate(seq)}
        chain = np.array([[position[i] <= position[j] for j in range(n)]
                          for i in range(n)])
        for given in (seq, [ground.label(v) for v in seq]):
            ext = linear_from_sequence(ground, given)
            assert ext.order.up == tuple(row_masks(chain))
            assert ext.order.down == tuple(row_masks(chain.T))
            assert ext.ranks == tuple(position[v] for v in range(n))
            assert ext.sequence() == tuple(ground.label(v) for v in seq)

