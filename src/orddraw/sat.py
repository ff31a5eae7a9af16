"""CNF instances, the sequential at-most-k counter, DIMACS io, and solving.

The package has no SAT solver of its own: the exact bipartization is a
branch search, and CNF is only exported (`orddraw cnf`).  External DIMACS
solvers are run through ExternalSolver, which normalizes both the
competition output dialect ("s SATISFIABLE" + "v" lines) and the bare
"SAT"/"UNSAT" one; solve_cnf runs any such backend and rejects a model
that does not satisfy the formula.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import BackendFailure

Clause = tuple[int, ...]
Model = list[int]
Backend = Callable[["CnfInstance"], "Model | None"]

_LITERAL = re.compile(r"-?\d")


@dataclass(frozen=True)
class CnfInstance:
    """A CNF formula plus a map from semantic names to variable ids."""

    num_vars: int
    clauses: tuple[Clause, ...]
    var_map: dict = field(default_factory=dict, compare=False, repr=False)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for cl in self.clauses:
            lines.append(" ".join(map(str, cl)) + " 0")
        return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF; clauses may span lines, comments start with c.

    Exactly one problem line is allowed, and it must come before the first
    clause literal.
    """
    num_vars = None
    declared = None
    clauses: list[Clause] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {raw!r}")
            if num_vars is not None:
                raise ValueError(f"second problem line: {raw!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            if num_vars < 0 or declared < 0:
                raise ValueError(f"negative count: {raw!r}")
            continue
        if num_vars is None:
            raise ValueError(f"clause before the problem line: {raw!r}")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if num_vars is None:
        raise ValueError("missing problem line")
    if declared != len(clauses):
        raise ValueError(f"declared {declared} clauses, found {len(clauses)}")
    for cl in clauses:
        for lit in cl:
            if abs(lit) > num_vars:
                raise ValueError(f"literal {lit} out of range 1..{num_vars}")
    return CnfInstance(num_vars, tuple(clauses))


def sinz_at_most_k(variables: Sequence[int], k: int, next_free: int) -> list[list[int]]:
    """Clauses forcing at most k of `variables` to be true.

    Sequential counter: register (i, j) -- meaning the first i inputs hold
    at least j trues -- is variable next_free + (i-1)*k + (j-1), allocated
    for i in 1..n-1 and j in 1..k, i.e. (n-1)*k auxiliaries and
    2nk + n - 3k - 1 clauses for n >= 2.  k = 0 degenerates to one unit
    clause per input (no auxiliaries).
    """
    vs = list(variables)
    n = len(vs)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return [[-x] for x in vs]
    if n <= 1:
        return []

    def s(i: int, j: int) -> int:
        return next_free + (i - 1) * k + (j - 1)

    out: list[list[int]] = [[-vs[0], s(1, 1)]]
    for j in range(2, k + 1):
        out.append([-s(1, j)])
    for i in range(2, n):
        x = vs[i - 1]
        out.append([-x, s(i, 1)])
        out.append([-s(i - 1, 1), s(i, 1)])
        for j in range(2, k + 1):
            out.append([-x, -s(i - 1, j - 1), s(i, j)])
            out.append([-s(i - 1, j), s(i, j)])
        out.append([-x, -s(i - 1, k)])
    out.append([-vs[n - 1], -s(n - 1, k)])
    return out


def assignment_satisfies(clauses: Iterable[Iterable[int]], model: Sequence[int]) -> bool:
    """Check a model given as signed literals (one per variable)."""
    true = {lit for lit in model}
    return all(any(lit in true for lit in cl) for cl in clauses)


def solve_cnf(cnf: CnfInstance, backend: Backend) -> Model | None:
    """Run `backend` on `cnf` and return its model only if it satisfies it.

    `backend` is any callable mapping a CnfInstance to a model (signed
    literals, ascending variables) or None for unsatisfiable.
    """
    model = backend(cnf)
    # an explicit raise, not an assert, so the check survives python -O
    if model is not None and not assignment_satisfies(cnf.clauses, model):
        raise BackendFailure("backend model does not satisfy the formula")
    return model


class ExternalSolver:
    """Run a DIMACS solver as a subprocess and normalize its verdict.

    The CNF path is appended to the command line.  Exit codes 0, 10 and 20
    are all treated as normal termination (10/20 is the solver-competition
    convention).  Variables missing from the reported model default to
    false.  The model is returned unchecked; solve_cnf checks it.
    """

    def __init__(self, command: str | Sequence[str], timeout: float | None = None):
        self.argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.argv:
            raise ValueError("empty solver command")
        self.timeout = timeout

    def __call__(self, cnf: CnfInstance) -> Model | None:
        with tempfile.TemporaryDirectory(prefix="orddraw-sat-") as td:
            path = Path(td, "problem.cnf")
            path.write_text(cnf.to_dimacs(), encoding="ascii")
            try:
                proc = subprocess.run(
                    self.argv + [str(path)],
                    capture_output=True, text=True, timeout=self.timeout)
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise BackendFailure(f"solver launch failed: {exc}") from exc
        if proc.returncode not in (0, 10, 20):
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-3:]
            raise BackendFailure(
                f"solver exited with {proc.returncode}: {' / '.join(tail)}")
        return self._parse(proc.stdout, cnf.num_vars)

    @staticmethod
    def _parse(output: str, num_vars: int) -> Model | None:
        verdict: bool | None = None
        lits: list[int] = []
        for raw in output.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            upper = line.upper()
            if upper.startswith("S "):
                word = upper[2:].strip()
                if word == "SATISFIABLE":
                    verdict = True
                elif word == "UNSATISFIABLE":
                    verdict = False
                continue
            if upper in ("SAT", "SATISFIABLE"):
                verdict = True
                continue
            if upper in ("UNSAT", "UNSATISFIABLE"):
                verdict = False
                continue
            # a value line starts with "v" or, in the bare dialect, with a
            # literal; any other line is banner noise
            if line.startswith(("v", "V")):
                line = line[1:]
            elif not _LITERAL.match(line):
                continue
            try:
                values_on_line = [int(t) for t in line.split()]
            except ValueError:
                raise BackendFailure(f"non-integer token in value line {raw!r}") from None
            if any(abs(lit) > num_vars for lit in values_on_line):
                raise BackendFailure(
                    f"literal out of range 1..{num_vars} in value line {raw!r}")
            lits.extend(values_on_line)
        if verdict is None:
            raise BackendFailure("solver output carries no SAT/UNSAT verdict")
        if not verdict:
            return None
        values: dict[int, bool] = {}
        for lit in lits:
            if lit != 0:
                values[abs(lit)] = lit > 0
        return [v if values.get(v, False) else -v for v in range(1, num_vars + 1)]
