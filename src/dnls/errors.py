"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class DampingTooWeakError(DomainError):
    """Raised when gamma <= 2*sup||g2||, i.e. the effective damping rate
    is not positive and none of the decay estimates apply."""


class StrongDampingError(DomainError):
    """Raised when the strong-damping inequality fails, so the period map
    is not certified to be a contraction and uniqueness is not guaranteed."""


class TruncationTooSmallError(DomainError):
    """The requested site cutoff does not fit on the truncated lattice."""


class StiffnessError(RuntimeError):
    """Step size underflowed below dt_min."""

    def __init__(self, t, norm):
        super().__init__(
            f"step size underflow at t={t:.6g} (||psi||={norm:.6g})"
        )
        self.t = t
        self.norm = norm


class NonconvergenceError(RuntimeError):
    """Fixed-point iteration exceeded its iteration cap."""
