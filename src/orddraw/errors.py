"""Exception types shared across the package."""


class OrderDrawError(Exception):
    """Base class for all package-specific errors."""


class UnknownLabel(OrderDrawError, KeyError):
    """A pair or query referenced a label outside the ground set."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message plain
        return self.args[0] if self.args else ""


class CycleError(OrderDrawError):
    """Generator pairs are cyclic, so no order contains them."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("cycle: " + " < ".join(map(str, self.cycle)))


class GroundMismatch(OrderDrawError):
    """Operands live on different ground sets."""


class NotLinear(OrderDrawError):
    """A relation expected to be a linear order is not."""


class BackendFailure(OrderDrawError):
    """A SAT backend's model does not satisfy the formula `solve_cnf` gave it."""


class TooLarge(OrderDrawError):
    """Input exceeds a documented size bound (concepts, tig vertices)."""


class OrderViolation(OrderDrawError):
    """An extension step produced a relation that is not an order."""


class Unresolvable(OrderDrawError):
    """Perturbation could not clear all point-on-line conflicts."""


class ParseError(OrderDrawError):
    """Malformed input text; carries the 1-based source line."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")
