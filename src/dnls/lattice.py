"""Truncated l^2 states, their norms, and the in-place right-hand side of
the equation of motion

    i dpsi_n/dt = kappa*(psi_{n+1} - 2 psi_n + psi_{n-1}) - i*gamma*psi_n
                  + F(|psi_n|^2) psi_n + g1_n(t) + g2_n(t) psi_n

on sites n = -N/2 .. N/2-1.  All operations are pure and states are
immutable once constructed, except the right-hand side built by
``make_rhs``: a closure that owns preallocated scratch and evaluates in
place, because the integrator calls it six times per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DIRICHLET = "dirichlet"
PERIODIC = "periodic"


@dataclass(frozen=True)
class LatticeState:
    """Complex amplitudes on the truncated lattice.

    Array index i holds site n = i - N//2, so site 0 sits at the array
    center.  ``bc`` controls how out-of-range neighbors are resolved:
    Dirichlet treats them as zero, periodic wraps around.
    """

    values: np.ndarray
    bc: str = DIRICHLET

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.size < 3:
            raise DomainError("state needs at least 3 sites")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise DomainError("state contains NaN/Inf")
        if self.bc not in (DIRICHLET, PERIODIC):
            raise DomainError(f"unknown boundary condition {self.bc!r}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_sites(self) -> int:
        return self.values.size

    @staticmethod
    def zeros(n_sites: int, bc: str = DIRICHLET) -> "LatticeState":
        return LatticeState(np.zeros(n_sites, dtype=np.complex128), bc)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power nonlinearity F(s) = sign * s**sigma.  Its two-sided growth
    constants, |F(|x|^2)x - F(|y|^2)y| <= a*(|x|^b + |y|^b)*|x - y|, follow
    from sigma: b = 2*sigma, and a = sigma + 1/2 (sharp) for sigma <= 1,
    else the conservative 2*sigma + 1."""

    sigma: float
    sign: int = 1

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.a)):
            raise DomainError("sigma must be positive, with a finite 2*sigma + 1")
        if self.sign not in (+1, -1):
            raise DomainError("sign must be +1 or -1")

    @property
    def a(self) -> float:
        return (2 * self.sigma + 1) / 2 if self.sigma <= 1 else 2 * self.sigma + 1

    @property
    def b(self) -> float:
        return 2.0 * self.sigma


@dataclass(frozen=True)
class ModelParams:
    """Coupling, damping and nonlinearity of the lattice model.

    ``nonlinearity=None`` means F = 0 (linear model)."""

    kappa: float
    gamma: float
    nonlinearity: NonlinearitySpec | None = None

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise DomainError("kappa must be finite")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise DomainError("gamma must be positive")


def l2_norm(state: LatticeState) -> float:
    """sqrt(sum |psi_n|^2), accumulated as one BLAS dot product."""
    return math.sqrt(norm_sq(state.values))


def norm_sq(values: np.ndarray) -> float:
    x = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    return float(x @ x)


def make_rhs(params: ModelParams, driving, bc: str, shifts=(0.0,)):
    """Build f(t, values, out=None) -> dvalues/dt on raw arrays, written to
    ``out`` (which must not alias ``values``) when given.

    f evaluates a batch of B = len(``shifts``) members, member b driven by
    the driving translated by the hull shift h_b (``translate``).
    ``values`` and ``out`` are flat arrays of N*B entries, site-major with
    the members fastest (entry n*B + b is site n of member b), so B = 1 is
    one state.

    ``driving`` is the driving realized on the N sites of the lattice
    (``DrivingSpec.sampler``): it gives ``n_sites``, and from
    ``fields(shifts)`` g1 and g2 on the batch, each None for a zero field,
    else (sl, buf, write): the slice of the flat arrays where the field is
    nonzero, a buffer holding -i*g(t + h_b) there, and a function of t that
    writes the buffer, None when it is constant.  The equation of motion
    in d/dt form reads

        dpsi/dt = -i*kappa*A psi - gamma*psi - i*F(|psi|^2) psi
                  - i*g1(t) - i*g2(t)*psi

    evaluated as one diagonal coefficient

        c = -gamma + i*(2*kappa - sign*|psi|^(2*sigma)) - i*g2(t)

    times psi, plus the couplings of A and g1.  The closure owns its
    scratch, so a call with ``out`` allocates nothing (and two calls must
    not overlap).  The real part of c is written once; each call rewrites
    its imaginary part in one ufunc, then adds g2 on g2's sites only, as
    one complex update (with F present the real part there is first reset
    to -gamma; for a real profile it adds +-0).  The couplings are two
    whole-array adds of -i*kappa*psi, held in a buffer zero-padded by one
    site at each end, so a site's neighbours sit B entries away, and g1 is
    added on g1's sites only.  Every sum is formed in the order of the
    plain formula.  The fields' values are written once per distinct t, as
    the last two stages of a step share theirs.
    """
    members = len(shifts)
    size = driving.n_sites * members
    # constant operands as 0-d arrays: numpy converts a Python scalar
    # operand on every ufunc call
    hop = np.array(-1j * params.kappa)
    two_kappa = np.array(2.0 * params.kappa)
    diag = complex(-params.gamma, 2.0 * params.kappa)
    nl = params.nonlinearity
    periodic = bc == PERIODIC
    absolute, multiply, add = np.abs, np.multiply, np.add
    pad = np.zeros(size + 2 * members, dtype=np.complex128)
    hv, right, left = pad[members:-members], pad[2 * members:], pad[:-2 * members]
    # the periodic wrap: the last site's -i*kappa*psi before the first
    # site, and the first site's, added to the last after both neighbours
    wrap_in, wrap_from = pad[:members], pad[size:-members]
    first = pad[members:2 * members]
    coef = np.full(size, diag)
    coef_im = coef.imag
    if nl is not None:
        sigma = nl.sigma
        sq = np.empty(size)
        nl_op = np.subtract if nl.sign == 1 else np.add
    # the fields, formed after the scratch above: formed first, their
    # buffers slowed `dnls dimension`'s section (N = 64, B = 19) by 5%
    g1, g2 = driving.fields(shifts)
    timed = [g[2] for g in (g1, g2) if g is not None and g[2]]
    if g2 is not None:
        sl2, g2_buf, _ = g2
        c2 = coef[sl2]
        if nl is not None:  # the imaginary part of c2 is fresh on every
            base2, re2 = c2, coef.real[sl2]  # call, its real part reset
        else:
            base2, re2 = np.array(diag), None
    if g1 is not None:
        sl1, g1_buf, _ = g1
        g1_part = sl1 != slice(0, size)  # else no slice view is needed
    t_laws = math.nan  # the time the timed fields were last formed at

    def f(t, v, out=None):
        nonlocal t_laws
        if t != t_laws:
            t_laws = t
            for write in timed:
                write(t)
        if nl is not None:
            s = absolute(v, sq)
            s *= s
            if sigma != 1.0:
                s **= sigma
            nl_op(two_kappa, s, coef_im)
        if g2 is not None:
            if re2 is not None:
                re2.fill(diag.real)
            add(base2, g2_buf, c2)
        out = multiply(coef, v, out)
        multiply(hop, v, hv)
        if periodic:
            wrap_in[...] = wrap_from
        add(out, right, out)
        add(out, left, out)
        if periodic:
            last = out[-members:]
            add(last, first, last)
        if g1 is not None:
            o = out[sl1] if g1_part else out
            add(o, g1_buf, o)
        return out

    return f


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): output i >= 1 of seed s is
# mix(s + i*_GAMMA mod 2^64), so a seed is any integer in [0, SEED_LIMIT)
SEED_LIMIT = 2**64
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of SplitMix64 from ``seed``, formed from
    the counter in wrapping uint64 arithmetic."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed)
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def random_state(n_sites: int, seed: int, norm: float = 1.0,
                 bc: str = DIRICHLET, localized: bool = True) -> LatticeState:
    """Deterministic pseudo-random state, scaled to the given l^2 norm.

    Array entry k holds one standard complex normal (unit variance in its
    real and in its imaginary part), by Box-Muller from the outputs k and
    N + k (counting from 0) of SplitMix64 from ``seed``:
    sqrt(-2 ln u1) * exp(2*pi*i*u2), with each output's top 53 bits as u
    in (0, 1].  The stream is this arithmetic alone, so a seed gives the
    same state on every numpy version.  With ``localized`` the amplitudes
    are damped by exp(-|n|/8) so the state is compatible with the
    Dirichlet truncation.  ``seed`` must be in [0, 2**64).
    """
    if not 0 <= seed < SEED_LIMIT:
        raise DomainError(f"seed must be in [0, 2**64), got {seed!r}")
    u = ((_splitmix64(seed, 2 * n_sites) >> 11) + 1) * 2.0**-53
    v = np.sqrt(-2.0 * np.log(u[:n_sites])) * np.exp(2j * np.pi * u[n_sites:])
    if localized:
        n = np.arange(n_sites) - n_sites // 2
        v *= np.exp(-np.abs(n) / 8.0)
    current = math.sqrt(norm_sq(v))
    if current > 0 and norm > 0:
        v *= norm / current
    elif norm == 0:
        v = np.zeros(n_sites, dtype=np.complex128)
    return LatticeState(v, bc)
