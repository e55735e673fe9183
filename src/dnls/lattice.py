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
from numpy.random import default_rng

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

    @staticmethod
    def cubic(sign: int = 1) -> "NonlinearitySpec":
        return NonlinearitySpec(sigma=1.0, sign=sign)


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


def tail_mass(state: LatticeState, m: int) -> float:
    """sum_{|n|>m} |psi_n|^2 on the truncation."""
    n_sites = state.n_sites
    if not 0 <= m < n_sites // 2:
        raise DomainError(f"cutoff m={m} out of range [0, {n_sites // 2})")
    c = n_sites // 2
    v = state.values
    outside = np.concatenate([v[: c - m], v[c + m + 1:]])
    return norm_sq(outside)


def make_rhs(params: ModelParams, driving, n_sites: int, bc: str,
             shifts=None):
    """Build f(t, values, out=None) -> dvalues/dt on raw arrays, written to
    ``out`` (which must not alias ``values``) when given.

    ``driving`` must provide ``g1_term`` and ``g2_term``: None for a zero
    field, else (sl, q, law, offset) with -i*g(t) = q * law(t + offset) on
    the sites ``sl`` and zero off them (see ``DrivingSpec.sampler``).  The
    equation of motion in d/dt form reads

        dpsi/dt = -i*kappa*A psi - gamma*psi - i*F(|psi|^2) psi
                  - i*g1(t) - i*g2(t)*psi

    evaluated as one diagonal coefficient

        c = -gamma + i*(2*kappa - sign*|psi|^(2*sigma)) - i*g2(t)

    times psi, plus the couplings of A and g1.  The closure owns its
    scratch, so a call with ``out`` allocates nothing (and two calls must
    not overlap).  The real part of c is written once; each call rewrites
    its imaginary part in one ufunc, then adds g2 on g2's sites only, as
    one complex update (with F present the real part there is first reset
    to -gamma; for a real profile it adds +-0).  For a constant law, q2*law
    is formed once, when the closure is built.  The couplings are two
    whole-array adds of -i*kappa*psi, held in a buffer zero-padded to N+2
    sites, and g1 is added on g1's sites only.  Every sum is formed in the
    order of the plain formula, so the result is the same bit for bit.

    With ``shifts`` (hull shifts h_0 .. h_{B-1}) f evaluates a batch of B
    members: ``values`` and ``out`` are (N, B), sites along axis 0 as for
    one member, so member b is column b, and the couplings and the periodic
    wrap act along each column.  Member b is driven by the driving
    translated by h_b (``translate``).  Every member's law value comes from
    one product per field, since with phi = w*h_b + p

        a*cos(w*(t + h_b) + p) = a*cos(phi)*cos(w*t) - a*sin(phi)*sin(w*t):

    the values of e^{i*w_j*t} for the law's harmonics (a constant law is
    one with w = 0) times a table of q * those coefficients, formed once.
    """
    if driving.n_sites != n_sites:
        raise DomainError(f"driving realized on {driving.n_sites} sites, "
                          f"the lattice has {n_sites}")
    batch = shifts is not None
    shape = (n_sites, len(shifts)) if batch else (n_sites,)
    # constant operands as 0-d arrays, and each law value written into one:
    # numpy converts a Python scalar operand on every ufunc call
    hop = np.array(-1j * params.kappa)
    two_kappa = np.array(2.0 * params.kappa)
    diag = complex(-params.gamma, 2.0 * params.kappa)
    nl = params.nonlinearity
    g1, g2 = driving.g1_term, driving.g2_term
    periodic = bc == PERIODIC
    absolute, multiply, add = np.abs, np.multiply, np.add

    def member_laws(term):
        """For a batch: a (sites, B) buffer for a field's q * law(t + offset
        + h_b) in column b, and a function of t that writes it, as x @ table
        with x the float64 view of e^{i*w*t}."""
        _, q, law, off = term
        a, w, p = np.array(law.harmonics() or ((law(off), 0.0, 0.0),)).T
        phase = np.multiply.outer(off + np.asarray(shifts, dtype=float), w) + p
        # row 2j (2j + 1) multiplies cos(w_j*t) (sin(w_j*t)), as in x
        coeff = np.stack([a * np.cos(phase), -a * np.sin(phase)], axis=-1)
        table = q[:, None, None] * coeff.reshape(len(shifts), -1)
        table = np.ascontiguousarray(np.moveaxis(table, -1, 0))
        table = table.view(np.float64).reshape(2 * w.size, -1)
        buf = np.empty((q.size, len(shifts)), dtype=np.complex128)
        out = buf.reshape(-1).view(np.float64)
        iw, z = 1j * w, np.empty(w.size, dtype=np.complex128)
        x = z.view(np.float64)

        def update(t):
            np.exp(multiply(iw, t, z), z)
            np.dot(x, table, out)
        return buf, update

    pad = np.zeros((n_sites + 2,) + shape[1:], dtype=np.complex128)
    hv, right, left = pad[1:-1], pad[2:], pad[:-2]
    coef = np.full(shape, diag)
    coef_im = coef.imag
    if nl is not None:
        sigma = nl.sigma
        sq = np.empty(shape)
        nl_op = np.subtract if nl.sign == 1 else np.add
    if g2 is not None:
        sl2, q2, law2, off2 = g2
        c2 = coef[sl2]
        if nl is not None:  # the imaginary part of c2 is fresh on every
            base2, re2 = c2, coef.real[sl2]  # call, its real part reset
        else:
            base2, re2 = np.array(diag), None
        const2 = not law2.harmonics()
        if batch:
            g2_buf, update2 = member_laws(g2)
            update2(0.0)  # all that a constant law needs
        else:
            g2_buf = np.empty_like(q2)
            law2_val = np.empty((), dtype=np.complex128)
            if const2:  # q2 * law, formed once
                law2_val[()] = law2(off2)
                multiply(q2, law2_val, g2_buf)
    if g1 is not None:
        sl1, q1, law1, off1 = g1
        if batch:
            g1_buf, update1 = member_laws(g1)
        else:
            g1_buf = np.empty_like(q1)
            law1_val = np.empty((), dtype=np.complex128)
        g1_part = sl1 != slice(0, n_sites)  # else no slice view is needed

    def f(t, v, out=None):
        if nl is not None:
            s = absolute(v, sq)
            s *= s
            if sigma != 1.0:
                s **= sigma
            nl_op(two_kappa, s, coef_im)
        if g2 is not None:
            if re2 is not None:
                re2.fill(diag.real)
            if not const2:
                if batch:
                    update2(t)
                else:
                    law2_val[()] = law2(t + off2)
                    multiply(q2, law2_val, g2_buf)
            add(base2, g2_buf, c2)
        out = multiply(coef, v, out)
        multiply(hop, v, hv)
        if periodic:
            pad[0] = pad[n_sites]
        add(out, right, out)
        add(out, left, out)
        if periodic:
            # the wrap at site N-1 comes after both neighbours, as at site 0
            out[-1] += pad[1]
        if g1 is not None:
            if batch:
                update1(t)
            else:
                law1_val[()] = law1(t + off1)
                multiply(q1, law1_val, g1_buf)
            o = out[sl1] if g1_part else out
            add(o, g1_buf, o)
        return out

    return f


def random_state(n_sites: int, seed: int, norm: float = 1.0,
                 bc: str = DIRICHLET, localized: bool = True) -> LatticeState:
    """Deterministic pseudo-random state, scaled to the given l^2 norm.

    With ``localized`` the amplitudes are damped by exp(-|n|/8) so the
    state is compatible with the Dirichlet truncation.
    """
    rng = default_rng(seed)
    v = rng.standard_normal(n_sites) + 1j * rng.standard_normal(n_sites)
    if localized:
        n = np.arange(n_sites) - n_sites // 2
        v *= np.exp(-np.abs(n) / 8.0)
    current = math.sqrt(norm_sq(v))
    if current > 0 and norm > 0:
        v *= norm / current
    elif norm == 0:
        v = np.zeros(n_sites, dtype=np.complex128)
    return LatticeState(v, bc)
