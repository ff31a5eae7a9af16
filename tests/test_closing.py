"""The one step that closes generator rows into an order, through the
builders that hand it rows, against dense references built from the rows
alone.  `concept_lattice`, the fourth builder, is checked against the
extents of its cross table in test_ingest.  A cyclic input is turned away
by every route in time linear in its pairs, with a simple cycle along its
pairs as the witness."""

import random
import time

import numpy as np
import pytest

from orddraw.cli import main
from orddraw.errors import CycleError
from orddraw.ingest import parse_order_text
from orddraw.orders import GroundSet, build_order, linear_from_sequence
from oracles import assert_order, blas_closure, failing_after, row_masks

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



def test_every_witness_is_a_simple_cycle_from_its_lowest_element():
    rng = random.Random(5077)
    cycles = 0
    for n in SIZES * 12 + [rng.randint(1, 130) for _ in range(180)]:
        pairs = generator_pairs(rng, n)
        labels = [f"v{i}" for i in range(n)]
        try:
            build_order(labels, [(labels[a], labels[b]) for a, b in pairs])
        except CycleError as err:
            walk = [int(label[1:]) for label in err.cycle]
            cycles += 1
        else:
            continue
        # no element twice but the ends, each step a generator pair, and
        # the lowest element first
        assert walk[0] == walk[-1] and len(set(walk)) == len(walk) - 1 >= 2
        assert set(zip(walk, walk[1:])) <= set(pairs)
        assert walk[0] == min(walk)
    assert cycles >= 20


def cyclic_chain(n: int, back: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Labels x1..xn, each below the next, and one pair closing a cycle
    from xn back down to x{back}."""
    labels = [f"x{i}" for i in range(1, n + 1)]
    pairs = list(zip(labels, labels[1:])) + [(labels[-1], labels[back - 1])]
    return labels, pairs


def pairs_text(pairs) -> str:
    return "".join(f"{a} < {b}\n" for a, b in pairs)


def within_a_second(run):
    """run()'s value, checked to come within a second.  A run still going
    then fails the test with a plain message: the traceback of wherever
    the timer lands is not always one pytest can render."""
    started = time.perf_counter()
    try:
        with failing_after(1.0):
            value = run()
    except TimeoutError:
        pytest.fail("still running after 1 s", pytrace=False)
    assert time.perf_counter() - started < 1.0
    return value


def cycle_of(build):
    """The witness of the CycleError that build() raises."""
    with pytest.raises(CycleError) as err:
        build()
    return err.value.cycle


@pytest.mark.parametrize("back, witness", [
    (1, tuple(f"x{i}" for i in range(1, 20_001)) + ("x1",)),
    (19_998, ("x19998", "x19999", "x20000", "x19998")),
])
def test_a_long_cyclic_chain_is_turned_away_within_a_second(back, witness):
    labels, pairs = cyclic_chain(20_000, back)
    text = pairs_text(pairs)
    assert within_a_second(lambda: cycle_of(lambda: build_order(labels, pairs))) == witness
    assert within_a_second(lambda: cycle_of(lambda: parse_order_text(text))) == witness


def test_draw_names_a_long_cycle_and_exits_1_within_a_second(tmp_path, capsys):
    labels, pairs = cyclic_chain(20_000, 1)
    path = tmp_path / "cyclic.order"
    path.write_text(pairs_text(pairs), encoding="utf-8")
    output = tmp_path / "out.svg"
    assert within_a_second(lambda: main(["draw", "-i", str(path), "-o", str(output)])) == 1
    err = capsys.readouterr().err
    assert err == "orddraw: cycle: " + " < ".join(labels + ["x1"]) + "\n"
    assert not output.exists()
