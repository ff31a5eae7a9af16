"""CNF instances, the sequential at-most-k counter, DIMACS io, and solving.

The built-in solver is a small deterministic CDCL (two watched literals,
first-UIP learning, no restarts) that always branches on the lowest
unassigned variable and tries true first, so identical inputs yield
identical models.  External DIMACS solvers can be plugged in through
ExternalSolver, which normalizes both the competition output dialect
("s SATISFIABLE" + "v" lines) and the bare "SAT"/"UNSAT" one.
"""

from __future__ import annotations

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
    """Parse DIMACS CNF; clauses may span lines, comments start with c."""
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
            num_vars, declared = int(parts[2]), int(parts[3])
            continue
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
    if declared is not None and declared != len(clauses):
        raise ValueError(f"declared {declared} clauses, found {len(clauses)}")
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


class CdclSolver:
    """Deterministic conflict-driven solver for small instances.

    Values and watch lists are indexed by literal: -v wraps to slot
    2*nv+1-v at the end of a list of 2*nv+1 slots, so no abs() is needed
    on the hot paths.  val[lit] is +1 when lit is true, -1 when it is
    false and 0 when its variable is unassigned.
    """

    def __init__(self, num_vars: int, clauses: Iterable[Iterable[int]]):
        self.nv = num_vars
        slots = 2 * num_vars + 1
        self.val = [0] * slots
        self.level = [0] * (num_vars + 1)
        self.reason: list[list[int] | None] = [None] * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []  # trail length at each decision
        self.qhead = 0
        self.dl = 0
        self.search_head = 1
        self.watches: list[list[list[int]]] = [[] for _ in range(slots)]
        self.units: list[int] = []
        self.ok = True
        for cl in clauses:
            self._add_clause(cl)

    def _add_clause(self, lits_in: Iterable[int]) -> None:
        lits = sorted(set(lits_in), key=lambda l: (abs(l), l))
        for lit in lits:
            if not 1 <= abs(lit) <= self.nv:
                raise ValueError(f"literal {lit} out of range")
        if any(-l in lits for l in lits):  # tautology
            return
        if not lits:
            self.ok = False
            return
        if len(lits) == 1:
            self.units.append(lits[0])
            return
        self.watches[lits[0]].append(lits)
        self.watches[lits[1]].append(lits)

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        var = lit if lit > 0 else -lit
        self.val[lit] = 1
        self.val[-lit] = -1
        self.level[var] = self.dl
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        val, watches, trail = self.val, self.watches, self.trail
        level, reason, dl = self.level, self.reason, self.dl
        qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            wl = watches[neg]
            i, end = 0, len(wl)
            while i < end:
                cl = wl[i]
                first = cl[0]
                if first == neg:
                    first = cl[0] = cl[1]
                    cl[1] = neg
                if val[first] == 1:
                    i += 1
                    continue
                for j in range(2, len(cl)):
                    if val[cl[j]] != -1:
                        cl[1], cl[j] = cl[j], neg
                        watches[cl[1]].append(cl)
                        end -= 1
                        wl[i] = wl[end]
                        wl.pop()
                        break
                else:
                    if val[first] == -1:
                        self.qhead = qhead
                        return cl
                    # _enqueue(first, cl), inlined
                    val[first] = 1
                    val[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = dl
                    reason[var] = cl
                    trail.append(first)
                    i += 1
        self.qhead = qhead
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        level, trail, reason, dl = self.level, self.trail, self.reason, self.dl
        learnt: list[int] = [0]
        seen = [False] * (self.nv + 1)
        path = 0
        p = 0
        index = len(trail)
        confl: list[int] = conflict
        while True:
            for q in (confl if p == 0 else confl[1:]):
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    if level[v] >= dl:
                        path += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                p = trail[index]
                v = p if p > 0 else -p
                if seen[v]:
                    break
            seen[v] = False
            path -= 1
            if path <= 0:
                break
            confl = reason[v]  # type: ignore[assignment]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # watch the highest-level tail literal so the clause asserts on backjump
        hi = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
        learnt[1], learnt[hi] = learnt[hi], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _backjump(self, bl: int) -> None:
        val, reason, trail = self.val, self.reason, self.trail
        start = self.trail_lim[bl]
        for lit in trail[start:]:
            val[lit] = val[-lit] = 0
            reason[lit if lit > 0 else -lit] = None
        del trail[start:]
        del self.trail_lim[bl:]
        self.qhead = start
        self.dl = bl
        self.search_head = 1

    def solve(self) -> Model | None:
        if not self.ok:
            return None
        val, nv = self.val, self.nv
        for u in self.units:
            if val[u] == -1:
                return None
            if val[u] == 0:
                self._enqueue(u, None)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if self.dl == 0:
                    return None
                learnt, back = self._analyze(conflict)
                self._backjump(back)
                if len(learnt) > 1:
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                else:
                    self._enqueue(learnt[0], None)
                continue
            var = self.search_head
            while var <= nv and val[var] != 0:
                var += 1
            self.search_head = var
            if var > nv:
                return [v if val[v] > 0 else -v for v in range(1, nv + 1)]
            self.dl += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(var, None)  # branch: lowest variable, true first


def solve_cnf(cnf: CnfInstance, backend: Backend | None = None) -> Model | None:
    """A satisfying model (signed literals, ascending variables) or None.

    `backend` is any callable mapping a CnfInstance to a model or None;
    by default the built-in CDCL solver runs in process.
    """
    if backend is None:
        model = CdclSolver(cnf.num_vars, cnf.clauses).solve()
        # an explicit raise, not an assert, so the check survives python -O
        if model is not None and not assignment_satisfies(cnf.clauses, model):
            raise AssertionError("the built-in solver's model does not satisfy the formula")
        return model
    model = backend(cnf)
    if model is not None and not assignment_satisfies(cnf.clauses, model):
        raise BackendFailure("backend model does not satisfy the formula")
    return model


class ExternalSolver:
    """Run a DIMACS solver as a subprocess and normalize its verdict.

    The CNF path is appended to the command line.  Exit codes 0, 10 and 20
    are all treated as normal termination (10/20 is the solver-competition
    convention).  Variables missing from the reported model default to
    false; the model is re-checked against the formula before use.
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
            if line.startswith(("v", "V")):
                line = line[1:]
            try:
                lits.extend(int(t) for t in line.split())
            except ValueError:
                continue  # banner noise
        if verdict is None:
            raise BackendFailure("solver output carries no SAT/UNSAT verdict")
        if not verdict:
            return None
        values: dict[int, bool] = {}
        for lit in lits:
            if lit != 0 and abs(lit) <= num_vars:
                values[abs(lit)] = lit > 0
        return [v if values.get(v, False) else -v for v in range(1, num_vars + 1)]
