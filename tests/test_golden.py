"""Golden bytes: SVG and JSON output of fixed inputs must not change.

The digests were recorded before the integer collinearity detector and the
set-based orientation replaced their predecessors; any refactor of render,
orientation or the engine that moves a byte of these drawings fails here.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from orddraw.engine import compute_coordinates, drawing_to_json
from orddraw.orders import (GroundSet, boolean_lattice, chain, grid,
                            intersect_linear, linear_from_sequence,
                            standard_example)
from orddraw.render import emit_svg, perturb
from oracles import random_order


def random_two_dimensional(n: int, seed: int):
    rng = random.Random(seed)
    ground = GroundSet([f"v{i}" for i in range(n)])
    extensions = []
    for _ in range(2):
        seq = list(range(n))
        rng.shuffle(seq)
        extensions.append(linear_from_sequence(ground, seq))
    return intersect_linear(extensions)


def doctored_chain():
    """chain(3) with the single cover edge x1-x3, so x2 sits on it."""
    return replace(compute_coordinates(chain(3)), cover_edges=(("x1", "x3"),))


CASES = {
    "grid_10x10": lambda: compute_coordinates(grid(10, 10)),
    "intersect_linear_100": lambda: compute_coordinates(random_two_dimensional(100, 4099)),
    "boolean_lattice_3_sat": lambda: compute_coordinates(boolean_lattice(3), strategy="sat"),
    "standard_example_4_sat": lambda: compute_coordinates(standard_example(4), strategy="sat"),
    "doctored_chain_perturbed": doctored_chain,
    # greedy's extension puts x1 on the cover edge x9-x8, so perturb moves it
    "random_order_10_greedy_perturbed":
        lambda: compute_coordinates(random_order(random.Random(134), 10), strategy="greedy"),
}

GOLDEN = {
    "boolean_lattice_3_sat":
        "ae55a684fcdac2536f4305db1040f36076997d6c738ce2647a7ec6c8394d161e",
    "doctored_chain_perturbed":
        "1a9b3cbd724fba4114c29149651aa2d3dbcad1943cbd5a749dba680bfd6b18a3",
    "grid_10x10":
        "dd964e6ad3602293117172e8324de5a68d074baade6e331b2c90517c62ac47a8",
    "intersect_linear_100":
        "bd99632c828870ea1576cc654f6655269b27772adbcdb0e4fa300fad23923d1f",
    "random_order_10_greedy_perturbed":
        "9d252e819b20c2302ead34d849442cded8add92a35225c1a482b099c372d7f1b",
    "standard_example_4_sat":
        "1383a3162c0d2338fc93105d20220c3c6698f6c5cc45ab2ce6078774d7a66bab",
}


def digest(d) -> str:
    d = perturb(d)
    return hashlib.sha256(emit_svg(d) + drawing_to_json(d).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_unchanged(name):
    assert digest(CASES[name]()) == GOLDEN[name]
