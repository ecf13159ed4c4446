"""Exception types shared across the package.

DivisibilityViolation signals an internal bug: the algebra guarantees that
d^t divides every coefficient of B_t, so valid input cannot trigger it.
"""


class DivisibilityViolation(Exception):
    """A coefficient of B_t was not divisible by d^t."""

    def __init__(self, t, rho):
        self.t = t
        self.rho = rho
        super().__init__(f"d^{t} does not divide the s_{tuple(rho)} coefficient of B_{t}")


class WeightMismatch(ValueError):
    """Kostka query where the content does not sum to the shape's weight."""


class OutOfRange(ValueError):
    """Index outside the range an operation is defined for."""


class BelowValidityFloor(ValueError):
    """Evaluation of a Plucker formula below d = |lambda|, where the
    polynomial/enumerative identification does not hold."""

    def __init__(self, d0, floor):
        self.d0 = d0
        self.floor = floor
        super().__init__(f"d = {d0} is below the validity floor {floor}")


class BadIndex(ValueError):
    """Codimension index with the wrong parity or outside the valid range."""
