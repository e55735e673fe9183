"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class StiffnessError(RuntimeError):
    """A step of the smallest size the controller takes was rejected."""

    def __init__(self, t, norm):
        super().__init__(
            f"step size underflow at t={t:.6g} (||psi||={norm:.6g})"
        )
        self.t = t
        self.norm = norm


class NonconvergenceError(RuntimeError):
    """Fixed-point iteration exceeded its iteration cap."""
