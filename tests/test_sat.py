"""Tests for the cardinality encoding and checked solving."""

import itertools
import random

import pytest

from orddraw.errors import BackendFailure
from orddraw.sat import (CnfInstance, assignment_satisfies, sinz_at_most_k,
                         solve_cnf)
from oracles import solve_by_milp


def brute_sat(num_vars, clauses):
    """Exhaustive satisfiability check; returns a model or None."""
    for bits in itertools.product([False, True], repeat=num_vars):
        model = [v if bits[v - 1] else -v for v in range(1, num_vars + 1)]
        if assignment_satisfies(clauses, model):
            return model
    return None


def random_cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(4, num_vars))
        vs = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfInstance(num_vars, tuple(clauses))


class TestSinzEncoding:
    def test_clause_and_variable_counts(self):
        for n in range(2, 12):
            for k in range(1, 6):
                out = sinz_at_most_k(list(range(1, n + 1)), k, n + 1)
                assert len(out) == 2 * n * k + n - 3 * k - 1, (n, k)
                auxes = {abs(l) for cl in out for l in cl if abs(l) > n}
                assert len(auxes) == (n - 1) * k
                assert auxes == set(range(n + 1, n + 1 + (n - 1) * k))

    def test_degenerate_cases(self):
        assert sinz_at_most_k([4, 9], 0, 50) == [[-4], [-9]]
        assert sinz_at_most_k([], 2, 10) == []
        assert sinz_at_most_k([7], 2, 10) == []
        with pytest.raises(ValueError):
            sinz_at_most_k([1, 2], -1, 3)

    def test_semantics_exhaustive_small(self):
        # solver-independent: enumerate auxiliary assignments directly
        for n in range(2, 5):
            for k in range(1, 3):
                vs = list(range(1, n + 1))
                clauses = sinz_at_most_k(vs, k, n + 1)
                aux = (n - 1) * k
                for bits in itertools.product([False, True], repeat=n):
                    want = sum(bits) <= k
                    ok = False
                    for ext in itertools.product([False, True], repeat=aux):
                        val = list(bits) + list(ext)
                        model = [v if val[v - 1] else -v
                                 for v in range(1, n + aux + 1)]
                        if assignment_satisfies(clauses, model):
                            ok = True
                            break
                    assert ok == want, (n, k, bits)

    def test_semantics_via_solver(self):
        for n in range(2, 7):
            for k in range(1, 4):
                vs = list(range(1, n + 1))
                base = sinz_at_most_k(vs, k, n + 1)
                nv = n + (n - 1) * k
                for bits in itertools.product([False, True], repeat=n):
                    forced = [[v] if bits[v - 1] else [-v] for v in vs]
                    model = solve_by_milp(CnfInstance(nv, tuple(
                        map(tuple, base + forced))))
                    assert (model is not None) == (sum(bits) <= k), (n, k, bits)


class TestMilpOracle:
    def test_agrees_with_brute_force(self):
        # the oracle that decides CNF instances in these tests is itself
        # checked against exhaustive enumeration
        rng = random.Random(73)
        sat = unsat = 0
        for _ in range(120):
            nv = rng.randint(1, 6)
            cnf = random_cnf(rng, nv, rng.randint(1, 3 * nv))
            got = solve_by_milp(cnf)
            assert (got is None) == (brute_sat(cnf.num_vars, cnf.clauses) is None), cnf
            if got is None:
                unsat += 1
            else:
                sat += 1
                assert assignment_satisfies(cnf.clauses, got)
        assert sat > 20 and unsat > 20


class TestSolveCnf:
    def test_lying_backend_is_caught(self):
        cnf = CnfInstance(1, ((1,),))
        with pytest.raises(BackendFailure):
            solve_cnf(cnf, backend=lambda _: [-1])

    def test_backend_none_passthrough(self):
        assert solve_cnf(CnfInstance(1, ((1,),)), backend=lambda _: None) is None
