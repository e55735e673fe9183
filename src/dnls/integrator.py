"""Adaptive time integration of the truncated lattice system.

Dormand-Prince 5(4) embedded pair with a standard safety-factor step
controller (safety 0.9, step-ratio clipped to [0.2, 5]) and the pair's own
4th-order continuous extension for sampling at a fixed stride.  The system
is non-stiff in the regimes studied (the coupling operator has spectral
radius at most 4), so an explicit pair suffices; dissipation is handled by
step control.

One kernel (``_Dopri5``) does the stage arithmetic on buffers allocated
once per trajectory, and the right-hand side from ``lattice.make_rhs``
writes each stage in place, so a step attempt allocates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .driving import DrivingSpec, certificate
from .errors import DomainError, StiffnessError
from .lattice import LatticeState, ModelParams, make_rhs, norm_sq, tail_mass

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980).  Row 6 of _A is the
# 5th-order weights: the last stage point is the new solution (FSAL).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_AE = np.vstack([_A, _A[6] - _B4])  # row 7: the error weights E

# 4th-order continuous extension y(t + theta*h) = y + h*(_P @ [theta^1..4]) @ K
# (Shampine 1986, Math. Comp. 46; Hairer-Norsett-Wanner, Solving ODEs I, II.6)
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-8
    atol: float = 1e-11
    dt_init: float = 1e-2
    dt_min: float = 1e-12
    dt_max: float = 1.0
    sample_stride: float = 0.1

    def __post_init__(self):
        if not (0 < self.atol <= self.rtol):
            raise DomainError("need 0 < atol <= rtol")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise DomainError("need dt_min <= dt_init <= dt_max")
        if self.sample_stride <= 0:
            raise DomainError("sample_stride must be positive")


# reference tolerances for oracle runs and the breather solver
ORACLE_CONFIG = IntegratorConfig(rtol=1e-11, atol=1e-13, dt_init=1e-3)


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0


@dataclass
class Trajectory:
    """Sampled solution: times, raw state values, norm series."""

    times: np.ndarray
    values: np.ndarray  # (n_samples, n_sites) complex; (0, n_sites) if not kept
    bc: str
    norms: np.ndarray
    stats: StepStats
    config: IntegratorConfig
    tail_cutoff: int | None = None
    tails: np.ndarray | None = None

    def state(self, i: int) -> LatticeState:
        return LatticeState(self.values[i], self.bc)

    @property
    def n_samples(self) -> int:
        return self.times.size


class _Dopri5:
    """DOPRI5 steps on preallocated buffers: S = [y; K], so each stage point
    is one real dot product of the row [1, h*A[i, :i]] of the coefficient
    matrix M with the float64 view of S, and the error estimate that of the
    row h*E.  M, its stage rows and the error and scale buffers are
    allocated once, so ``attempt`` allocates nothing.  |y| is kept from the
    accepted attempt's |y_new|."""

    def __init__(self, f, y: np.ndarray, t: float):
        self.f = f
        self.S = S = np.empty((8, y.size), dtype=np.complex128)
        self.Y = Y = np.empty((7, y.size), dtype=np.complex128)  # stage points
        M = np.ones((8, 8))  # column 0 stays 1, the weight of y; then h*A, h*E
        self._hAE = M[:, 1:]
        Sr, Yr = S.view(np.float64), Y.view(np.float64)
        self._stages = [(_C[i], M[i, :i + 1], Sr[:i + 1], Yr[i], Y[i], S[i + 1])
                        for i in range(1, 7)]
        self._hE, self._y_new_r, self._Kr = M[7, 1:], Yr[6], Sr[1:]
        self._err, self._scale, self._tmp, self._abs_y = np.empty((4, 2 * y.size))
        S[0] = y
        np.abs(Sr[0], self._abs_y)
        f(t, y, S[1])

    def attempt(self, t: float, h: float, config: IntegratorConfig) -> float:
        """Stages of a step of size h from (t, S[0]); leaves the 5th-order
        solution in Y[6] and returns the weighted RMS error norm."""
        multiply, dot = np.multiply, np.dot
        multiply(h, _AE, self._hAE)
        f = self.f
        for c, m, s, y_r, y_i, k in self._stages:
            dot(m, s, y_r)
            f(t + c * h, y_i, k)
        err, scale, tmp = self._err, self._scale, self._tmp
        dot(self._hE, self._Kr, err)
        # err /= atol + rtol * max(|y|, |y_new|), componentwise
        np.maximum(self._abs_y, np.abs(self._y_new_r, tmp), out=scale)
        multiply(config.rtol, scale, scale)
        np.add(config.atol, scale, scale)
        np.divide(err, scale, err)
        return math.sqrt(float(dot(err, err)) / err.size)

    def accept(self) -> None:
        self.S[0] = self.Y[6]
        self.S[1] = self.S[7]  # FSAL
        self._abs_y, self._tmp = self._tmp, self._abs_y  # |y_new| of the step

    def sample(self, theta: float, h: float, out: np.ndarray) -> np.ndarray:
        """Continuous extension of the last attempted step at t + theta*h,
        written into ``out``."""
        w = h * (_P @ theta ** np.arange(1, 5))
        np.dot(w, self._Kr, out.view(np.float64))
        out += self.S[0]
        return out


def _next_dt(h: float, err_norm: float, config: IntegratorConfig) -> float:
    fac = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
    return min(config.dt_max, max(config.dt_min, h * fac))


def _sample_times(t0: float, t1: float, stride: float) -> np.ndarray:
    """Sample times of ``integrate`` on [t0, t1]: t0, every t0 + k*stride < t1
    (k >= 1), then t1; only t0 when t1 == t0."""
    if t1 == t0:
        return np.array([t0])
    q = (t1 - t0) / stride
    if not q < 2 ** 53:  # more samples than memory holds, or infinitely many
        raise DomainError(f"sample_stride {stride:g} too small for [{t0:g}, {t1:g}]")
    # t0 + k*stride grows with k; rounding keeps no k > q + 1 below t1
    ts = t0 + np.arange(1, int(q) + 2) * stride
    return np.concatenate(([t0], ts[ts < t1], [t1]))


def integrate(state: LatticeState, t0: float, t1: float, params: ModelParams,
              driving: DrivingSpec, config: IntegratorConfig = IntegratorConfig(),
              tail_cutoff: int | None = None,
              keep_states: bool = True) -> Trajectory:
    """Integrate from t0 to t1, sampling at t0 + k*``config.sample_stride``
    (plus the endpoint) from the continuous extension of each step.

    The norm (and tail) series are reduced at each sample time.  Without
    ``keep_states`` the sample states are dropped once reduced, so memory
    stays O(N) over any horizon and ``values`` is an empty (0, N) array."""
    if t1 < t0:
        raise DomainError("t1 must be >= t0")
    n_sites, bc = state.n_sites, state.bc
    stride = config.sample_stride
    times = _sample_times(t0, t1, stride)
    n = times.size
    norms = np.empty(n)
    tails = None if tail_cutoff is None else np.empty(n)
    values = np.empty((n if keep_states else 0, n_sites), dtype=np.complex128)
    scratch = None if keep_states else np.empty(n_sites, dtype=np.complex128)

    def slot(i: int, src: np.ndarray | None = None) -> np.ndarray:
        """Where sample i goes, filled from ``src`` if given."""
        out = values[i] if keep_states else scratch
        if src is not None:
            out[...] = src
        return out

    def record(i: int, v: np.ndarray) -> None:
        norms[i] = math.sqrt(norm_sq(v))
        if tails is not None:
            # a fresh view: LatticeState marks its array read-only, and v
            # may be the scratch row the next sample is written into
            tails[i] = tail_mass(LatticeState(v[:], bc), tail_cutoff)

    f = make_rhs(params, driving.sampler(n_sites), n_sites, bc)
    stats = StepStats()
    record(0, slot(0, state.values))
    if t1 > t0:
        t, dt = t0, min(config.dt_init, t1 - t0)
        kernel = _Dopri5(f, state.values, t)
        ts, late = times.tolist(), 1e-12 * stride
        accepted = rejected = 0
        k = 1
        while t < t1:
            last = dt >= t1 - t
            h = t1 - t if last else dt
            err_norm = kernel.attempt(t, h, config)
            if err_norm <= 1.0:
                t_new = t1 if last else t + h
                while k < n - 1 and ts[k] <= t_new + late:
                    record(k, kernel.sample((ts[k] - t) / h, h, slot(k)))
                    k += 1
                kernel.accept()
                t = t_new
                accepted += 1
            elif h <= config.dt_min * (1 + 1e-12):
                raise StiffnessError(t, math.sqrt(norm_sq(kernel.S[0])))
            else:
                rejected += 1
            dt = _next_dt(h, err_norm, config)
        stats = StepStats(accepted, rejected, 1 + 6 * (accepted + rejected))
        record(n - 1, slot(n - 1, kernel.S[0]))
    return Trajectory(times=times, values=values, bc=bc, norms=norms,
                      stats=stats, config=config, tail_cutoff=tail_cutoff,
                      tails=tails)


# ---------------------------------------------------------------------------
# dissipation monitoring

@dataclass
class DissipationViolation:
    index: int
    t: float
    lhs: float
    rhs: float
    margin: float


@dataclass
class DissipationReport:
    gamma_tilde: float
    checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _gronwall(y0, rate, forcing, dt):
    """Largest y(t0 + dt) under y' <= -rate*y + forcing, y(t0) = y0, for any
    sign of rate (Gronwall): e^{-rate*dt}*y0 + forcing*(1 - e^{-rate*dt})/rate,
    forcing*dt at rate 0.  Elementwise on arrays; overflow gives inf, silently."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gain = np.where(rate == 0, dt, -np.expm1(-rate * dt) / rate)
        return np.exp(-rate * dt) * y0 + forcing * gain


def monitor_dissipation(traj: Trajectory, params: ModelParams,
                        driving: DrivingSpec) -> DissipationReport:
    """Check the energy inequality

        d/dt ||psi||^2 + Gt*||psi||^2 <= (1/Gt)*||g1(t)||^2

    integrated exactly between samples.  Hopping and F are skew, so
    d/dt ||psi||^2 <= -2*(gamma - sup||g2||)*||psi||^2 + 2*||g1||*||psi||,
    and 2*||g1||*||psi|| <= Gt*||psi||^2 + ||g1||^2/Gt closes it, since
    2*(gamma - sup||g2||) - Gt = gamma >= Gt.  With s_i >= ||g1|| on
    [t_i, t_{i+1}] (``DrivingField.interval_sup``) a sample is flagged when
    n^2_{i+1} > _gronwall(n^2_i, Gt, s_i^2/Gt, dt) + 10*rtol*(1 + n^2_i),
    the integrator's error."""
    gt = certificate(params, driving).dissipative().gamma_tilde
    n2, times = traj.norms ** 2, traj.times
    dt = np.diff(times)
    s = driving.g1.interval_sup(times[:-1], dt)
    bound = _gronwall(n2[:-1], gt, s * s / gt, dt)
    excess = n2[1:] - bound - 10 * traj.config.rtol * (1 + n2[:-1])
    return DissipationReport(gamma_tilde=gt, checked=dt.size, violations=[
        DissipationViolation(index=int(i), t=float(times[i]), lhs=float(n2[i + 1]),
                             rhs=float(bound[i]), margin=float(excess[i]))
        for i in np.flatnonzero(excess > 0)])
