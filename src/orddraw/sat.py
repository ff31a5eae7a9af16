"""CNF instances, the sequential at-most-k counter, and checked solving.

The package has no SAT solver of its own: the exact bipartization is a
branch search, and the CNF reduction (bipartization.encode_oct) is a
library API for a backend the caller supplies.  solve_cnf runs any
backend callable in process and rejects a model that does not satisfy
the formula.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import BackendFailure
from .records import Record

Clause = tuple[int, ...]
Model = list[int]
Backend = Callable[["CnfInstance"], "Model | None"]


class CnfInstance(Record):
    """A CNF formula over variables 1..num_vars."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple[Clause, ...]):
        self._fill(num_vars, clauses)


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
