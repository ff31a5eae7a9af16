"""Tests for CNF handling, the cardinality encoding, and solver backends."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orddraw.errors import BackendFailure
from orddraw.sat import (CnfInstance, ExternalSolver, assignment_satisfies,
                         parse_dimacs, sinz_at_most_k, solve_cnf)
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


class TestDimacs:
    def test_round_trip(self):
        cnf = CnfInstance(3, ((1, -2), (2, 3), (-1, -3), (2,)))
        again = parse_dimacs(cnf.to_dimacs())
        assert again.num_vars == 3
        assert again.clauses == cnf.clauses

    def test_comments_blanks_and_multiline_clauses(self):
        text = "c header\n\np cnf 3 2\n1 -2\n3 0\n% junk\n-1 2 -3 0\n"
        cnf = parse_dimacs(text)
        assert cnf.clauses == ((1, -2, 3), (-1, 2, -3))

    def test_bad_problem_line(self):
        with pytest.raises(ValueError):
            parse_dimacs("p dnf 2 1\n1 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("1 0\n")

    def test_second_problem_line(self):
        with pytest.raises(ValueError, match="second problem line"):
            parse_dimacs("p cnf 1 1\np cnf 3 1\n3 0\n")

    def test_clause_before_problem_line(self):
        with pytest.raises(ValueError, match="before the problem line"):
            parse_dimacs("1 2 0\np cnf 2 1\n")

    def test_declared_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2 3\n1 0\n2 0\n")

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf -3 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 3 -1\n")

    def test_out_of_range_literal(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 1 1\n5 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2 1\n1 -3 0\n")
        assert parse_dimacs("p cnf 2 1\n1 -2 0\n").clauses == ((1, -2),)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.text(),
        st.lists(st.sampled_from(["p", "cnf", "c", "%", "0", "1", "-2", "3",
                                  "x", "-", " ", "\n"])).map("".join),
        st.tuples(st.integers(-2, 4), st.integers(-1, 3),
                  st.lists(st.lists(st.integers(-5, 5), max_size=4), max_size=4))
        .map(lambda t: f"p cnf {t[0]} {t[1]}\n"
             + "".join(" ".join(map(str, cl)) + "\n" for cl in t[2]))))
    def test_arbitrary_text_raises_only_value_error(self, text):
        try:
            cnf = parse_dimacs(text)
        except ValueError:
            return
        assert cnf.num_vars >= 0
        assert all(1 <= abs(lit) <= cnf.num_vars
                   for cl in cnf.clauses for lit in cl)


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


def script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


class TestExternalSolver:
    def test_competition_dialect(self, tmp_path):
        cmd = script(tmp_path, "comp.sh",
                     'echo "c banner"\necho "s SATISFIABLE"\n'
                     'echo "v 1 -2 0"\nexit 10\n')
        model = ExternalSolver(cmd)(CnfInstance(2, ((1,),)))
        assert model == [1, -2]

    def test_bare_dialect(self, tmp_path):
        cmd = script(tmp_path, "bare.sh", 'echo "SAT"\necho "1 -2 0"\n')
        model = ExternalSolver(cmd)(CnfInstance(2, ((1,),)))
        assert model == [1, -2]

    def test_unsat_both_dialects(self, tmp_path):
        a = script(tmp_path, "u1.sh", 'echo "s UNSATISFIABLE"\nexit 20\n')
        b = script(tmp_path, "u2.sh", 'echo "UNSAT"\n')
        assert ExternalSolver(a)(CnfInstance(1, ((1,), (-1,)))) is None
        assert ExternalSolver(b)(CnfInstance(1, ((1,), (-1,)))) is None

    def test_missing_variables_default_false(self, tmp_path):
        cmd = script(tmp_path, "part.sh", 'echo "SAT"\necho "2 0"\n')
        model = ExternalSolver(cmd)(CnfInstance(3, ((2,),)))
        assert model == [-1, 2, -3]

    def test_solver_receives_dimacs_file(self, tmp_path):
        # echo the problem line back as a comment, then answer from the file
        cmd = script(tmp_path, "real.sh",
                     'grep -q "p cnf 2 1" "$1" || exit 1\n'
                     'echo "s SATISFIABLE"\necho "v 1 2 0"\n')
        model = ExternalSolver(cmd)(CnfInstance(2, ((1,),)))
        assert model == [1, 2]

    def test_no_verdict_is_failure(self, tmp_path):
        cmd = script(tmp_path, "noise.sh", 'echo "hello world"\n')
        with pytest.raises(BackendFailure):
            ExternalSolver(cmd)(CnfInstance(1, ((1,),)))

    def test_bad_exit_code(self, tmp_path):
        cmd = script(tmp_path, "crash.sh", 'echo "boom" >&2\nexit 3\n')
        with pytest.raises(BackendFailure):
            ExternalSolver(cmd)(CnfInstance(1, ((1,),)))

    def test_missing_binary(self):
        with pytest.raises(BackendFailure):
            ExternalSolver("/no/such/solver")(CnfInstance(1, ((1,),)))

    def test_timeout(self, tmp_path):
        cmd = script(tmp_path, "slow.sh", "sleep 5\n")
        with pytest.raises(BackendFailure):
            ExternalSolver(cmd, timeout=0.2)(CnfInstance(1, ((1,),)))

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError):
            ExternalSolver("")

    def test_non_integer_token_in_value_line(self):
        with pytest.raises(BackendFailure, match="non-integer token"):
            ExternalSolver._parse("s SATISFIABLE\nv 1 x 2 0\n", 2)
        with pytest.raises(BackendFailure, match="non-integer token"):
            ExternalSolver._parse("SAT\n1 x 2 0\n", 2)

    def test_out_of_range_literal_in_value_line(self):
        with pytest.raises(BackendFailure, match="out of range"):
            ExternalSolver._parse("s SATISFIABLE\nv 1 7 0\n", 2)
        with pytest.raises(BackendFailure, match="out of range"):
            ExternalSolver._parse("SAT\n-3 0\n", 2)

    def test_banner_lines_are_skipped(self):
        out = "solver 1.0 starting\nSAT\n--- done ---\n1 -2 0\n"
        assert ExternalSolver._parse(out, 2) == [1, -2]

    def test_lying_external_model_is_caught(self, tmp_path):
        cmd = script(tmp_path, "liar.sh", 'echo "SAT"\necho "-1 0"\n')
        with pytest.raises(BackendFailure):
            solve_cnf(CnfInstance(1, ((1,),)), backend=ExternalSolver(cmd))
