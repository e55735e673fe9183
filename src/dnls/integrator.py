"""Adaptive time integration of the truncated lattice system.

Tsitouras 5(4) embedded pair (Dormand-Prince's FSAL shape, smaller error
constants) with a standard safety-factor step controller (safety 0.9,
step-ratio clipped to [0.2, 5]) and the pair's own 4th-order continuous
extension for sampling at a fixed stride.  The system is non-stiff in the
regimes studied (the coupling operator has spectral radius at most 4), so
an explicit pair suffices; dissipation is handled by step control.

One kernel (``_Tsit5``) does the stage arithmetic on buffers allocated
once per trajectory, and the right-hand side from ``lattice.make_rhs``
writes each stage in place, so a step attempt allocates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driving import DrivingSpec, certificate
from .errors import DomainError, StiffnessError
from .lattice import LatticeState, ModelParams, make_rhs, norm_sq

# Tsitouras 5(4) tableau (Ch. Tsitouras, Comput. Math. Appl. 62 (2011)
# 770-775): _A by rows of its strictly lower triangle, whose row 6 is the
# 5th-order weights b (FSAL), and row 7 of _AE the error weights b - b_hat.
_C = (0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0, 1.0)
_A = np.zeros((7, 7))
_A[np.tril_indices(7, -1)] = [
    0.161,
    -0.008480655492356989, 0.335480655492357,
    2.897153057105493, -6.359448489975075, 4.3622954328695815,
    5.325864828439257, -11.748883564062828, 7.4955393428898365, -0.09249506636175525,
    5.86145544294642, -12.92096931784711, 8.159367898576159, -0.071584973281401,
    -0.028269050394068383,
    0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742, -3.290069515436081,
    2.324710524099774,
]
_AE = np.vstack([_A, [-0.001780011052225777, -0.0008164344596567469, 0.007880878010261995,
                      -0.1447110071732629, 0.5823571654525552, -0.45808210592918697, 1 / 66]])
# its free 4th-order interpolant: y(t + theta*h) = y + h*(_P @ [theta^1..4]) @ K
_P = np.array([
    [1.0, -2.763706197274826, 2.9132554618219126, -1.0530884977290216],
    [0.0, 0.1317, -0.2234, 0.1017],
    [0.0, 3.930296236894751, -5.941033872131505, 2.490627285651253],
    [0.0, -12.411077166933676, 30.33818863028232, -16.548102889244902],
    [0.0, 37.50931341651104, -88.1789048947664, 47.37952196281928],
    [0.0, -27.896526289197286, 65.09189467479368, -34.87065786149661],
    [0.0, 1.5, -4.0, 2.5],
])


# first step, and the limits of the step controller: a step rejected at
# _DT_MIN raises StiffnessError
_DT_INIT, _DT_MIN, _DT_MAX = 1e-2, 1e-12, 1.0


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-8
    atol: float = 1e-11
    sample_stride: float = 0.1

    def __post_init__(self):
        if not (0 < self.atol <= self.rtol):
            raise DomainError("need 0 < atol <= rtol")
        if self.sample_stride <= 0:
            raise DomainError("sample_stride must be positive")


# reference tolerances for oracle runs and the breather solver
ORACLE_CONFIG = IntegratorConfig(rtol=1e-11, atol=1e-13)


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0


@dataclass
class Trajectory:
    """Sampled solution: times, raw state values, norm series, and with a
    reference its distance from it (``integrate``)."""

    times: np.ndarray
    values: np.ndarray  # (n_samples, [B,] n_sites) complex; no samples if not kept
    norms: np.ndarray
    stats: StepStats
    config: IntegratorConfig
    tail_cutoff: int | None = None
    tails: np.ndarray | None = None
    gaps: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return self.times.size

    def record(self) -> dict:
        """``dnls simulate``'s report: the span, the norm (and tail) series
        at the sample times, and the step counts."""
        out = {
            "t1": float(self.times[-1]),
            "n_samples": int(self.n_samples),
            "norms": [float(x) for x in self.norms],
            "times": [float(x) for x in self.times],
            "steps": {
                "accepted": self.stats.accepted,
                "rejected": self.stats.rejected,
                "rhs_evals": self.stats.rhs_evals,
            },
        }
        if self.tails is not None:
            out["tail_cutoff"] = self.tail_cutoff
            out["tails"] = [float(x) for x in self.tails]
        return out


class _Tsit5:
    """Tsitouras 5(4) steps on preallocated buffers: S = [y; K], so each
    stage point is one real dot product of the row [1, h*A[i, :i]] of the
    coefficient matrix M with the float64 view of S, and the error estimate
    that of the row h*E.  M, its stage rows and the error and scale buffers
    are allocated once, so ``attempt`` allocates nothing.  |y| is kept from
    the accepted attempt's |y_new|.

    ``y`` is a batch (N, B) of B members in the columns, or one state (N,),
    a batch of one, for an ``f`` from ``make_rhs`` with B hull shifts.  The
    rows of S hold y flattened, site-major with the members fastest, as
    ``f`` takes them.  The members share each step, and its error norm is
    the largest of the members' RMS norms, so every member meets the
    tolerance it would meet alone."""

    def __init__(self, f, y: np.ndarray, t: float):
        self.f = f
        self.S = S = np.empty((8, y.size), dtype=np.complex128)
        # stage points: stages 1-5 share row 0, each dead once f has read
        # it; row 1 keeps stage 6, the 5th-order solution, for ``accept``
        self.Y = Y = np.empty((2, y.size), dtype=np.complex128)
        M = np.ones((8, 8))  # column 0 stays 1, the weight of y; then h*A, h*E
        self._hAE = M[:, 1:]
        Sr, Yr = S.view(np.float64), Y.view(np.float64)
        self._stages = [(_C[i], M[i, :i + 1], Sr[:i + 1], Yr[i // 6], Y[i // 6],
                         S[i + 1]) for i in range(1, 7)]
        self._hE, self._y_new_r, self._Kr = M[7, 1:], Yr[1], Sr[1:]
        self._err, self._scale, self._tmp, self._abs_y = np.empty((4, 2 * y.size))
        # the error by member and site, and the members' sums of squares
        n_sites = len(y)
        self._err_members = self._err.view(np.complex128).reshape(n_sites, -1).T
        self._sq = np.empty(y.size // n_sites, dtype=np.complex128)
        self._sq_re, self._n_err = self._sq.real, 2 * n_sites
        S[0] = y.reshape(-1)
        np.abs(Sr[0], self._abs_y)
        f(t, S[0], S[1])

    def attempt(self, t: float, h: float, config: IntegratorConfig) -> float:
        """Stages of a step of size h from (t, S[0]); leaves the 5th-order
        solution in Y[1] and returns the weighted RMS error norm."""
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
        e = self._err_members
        np.vecdot(e, e, out=self._sq)
        return math.sqrt(max(self._sq_re.tolist()) / self._n_err)

    def accept(self) -> None:
        self.S[0] = self.Y[1]
        self.S[1] = self.S[7]  # FSAL
        self._abs_y, self._tmp = self._tmp, self._abs_y  # |y_new| of the step

    def sample(self, theta: float, h: float, out: np.ndarray) -> np.ndarray:
        """Continuous extension of the last attempted step at t + theta*h,
        written into ``out``."""
        w = h * (_P @ theta ** np.arange(1, 5))
        np.dot(w, self._Kr, out.view(np.float64))
        out += self.S[0]
        return out


def _next_dt(h: float, err_norm: float) -> float:
    fac = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
    return min(_DT_MAX, max(_DT_MIN, h * fac))


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
              keep_states: bool = True, shifts=None,
              reference: Trajectory | None = None) -> Trajectory:
    """Integrate from t0 to t1, sampling at t0 + k*``config.sample_stride``
    (plus the endpoint) from the continuous extension of each step.

    The norm (and tail) series are reduced at each sample time.  Without
    ``keep_states`` the sample states are dropped once reduced, so memory
    stays O(N) over any horizon and ``values`` has no samples.

    With a ``reference``, a trajectory with stored states at the same
    sample times and of the same shape, ``gaps`` holds
    ||psi(t_i) - reference.values[i]|| at each sample, reduced by
    ``norm_sq`` like the norms: a distance between two solutions needs
    only one of them stored.

    With ``shifts`` (hull shifts h_0 .. h_{B-1}) one call steps B members
    side by side, each from ``state`` and driven by ``translate(driving,
    h_b)``: ``values`` is then (n_samples, B, N) and the norm and tail
    series (n_samples, B), ``gaps`` that of each member from the
    reference's member b.  The members share the steps (see ``_Tsit5``)
    and ``stats`` counts them once.  Without ``shifts`` the state is a
    batch of one with h_0 = 0, returned without the member axis: ``values``
    is (n_samples, N) and the series (n_samples,)."""
    if t1 < t0:
        raise DomainError("t1 must be >= t0")
    n_sites, bc = state.n_sites, state.bc
    hull, one = ((0.0,), 0) if shifts is None else (shifts, slice(None))
    members = len(hull)
    c = n_sites // 2
    if tail_cutoff is not None and not 0 <= tail_cutoff < c:
        raise DomainError(f"cutoff m={tail_cutoff} out of range [0, {c})")
    stride = config.sample_stride
    times = _sample_times(t0, t1, stride)
    n = times.size
    norms = np.empty((n, members))
    tails = None if tail_cutoff is None else np.empty((n, members))
    # sample rows hold the kernel's flat state: site-major, members fastest
    size = n_sites * members
    values = np.empty((n if keep_states else 0, size), dtype=np.complex128)
    scratch = None if keep_states else np.empty(size, dtype=np.complex128)
    y0 = np.repeat(state.values, members).reshape(n_sites, members)
    gaps = None
    if reference is not None:
        if not np.array_equal(reference.times, times):
            raise DomainError("reference trajectory has other sample times")
        shape = reference.values.shape
        if reference.values.size != n * size or shape[-1] != n_sites:
            raise DomainError(f"reference states have shape {shape}, need "
                              f"{n} stored samples of {members} x {n_sites}")
        # the reference's rows in the kernel's layout, and w = psi - ref
        ref = reference.values.reshape(n, -1, n_sites).transpose(0, 2, 1)
        w = np.empty((n_sites, members), dtype=np.complex128)
        gaps = np.empty((n, members))

    def slot(i: int, src: np.ndarray | None = None) -> np.ndarray:
        """Where sample i goes, filled from ``src`` if given."""
        out = values[i] if keep_states else scratch
        if src is not None:
            out[...] = src.reshape(-1)
        return out

    def record(i: int, v: np.ndarray) -> None:
        u = v.reshape(n_sites, members).T  # member b is row b
        np.sqrt(np.vecdot(u, u).real, out=norms[i])
        if tails is not None:
            lo, hi = u[:, :c - tail_cutoff], u[:, c + tail_cutoff + 1:]
            tails[i] = (np.vecdot(lo, lo) + np.vecdot(hi, hi)).real
        if gaps is not None:
            np.subtract(v.reshape(n_sites, members), ref[i], out=w)
            for b in range(members):
                gaps[i, b] = math.sqrt(norm_sq(w[:, b]))

    f = make_rhs(params, driving.sampler(n_sites), bc, shifts=hull)
    stats = StepStats()
    record(0, slot(0, y0))
    if t1 > t0:
        t, dt = t0, min(_DT_INIT, t1 - t0)
        kernel = _Tsit5(f, y0, t)
        ts, late = times.tolist(), 1e-12 * stride
        accepted = rejected = 0
        k = 1
        # a trial step may overflow: its error norm is then inf or nan,
        # which rejects it
        with np.errstate(over="ignore", invalid="ignore"):
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
                elif h <= _DT_MIN * (1 + 1e-12):
                    raise StiffnessError(t, math.sqrt(norm_sq(kernel.S[0])))
                else:
                    rejected += 1
                dt = _next_dt(h, err_norm)
        stats = StepStats(accepted, rejected, 1 + 6 * (accepted + rejected))
        record(n - 1, slot(n - 1, kernel.S[0]))
    values = values.reshape(-1, n_sites, members).transpose(0, 2, 1)
    return Trajectory(times=times, values=values[:, one], norms=norms[:, one],
                      stats=stats, config=config, tail_cutoff=tail_cutoff,
                      tails=None if tails is None else tails[:, one],
                      gaps=None if gaps is None else gaps[:, one])


# ---------------------------------------------------------------------------
# dissipation monitoring

def _gronwall(y0, rate, forcing, dt):
    """Largest y(t0 + dt) under y' <= -rate*y + forcing, y(t0) = y0, for any
    sign of rate (Gronwall): e^{-rate*dt}*y0 + forcing*(1 - e^{-rate*dt})/rate,
    forcing*dt at rate 0.  Elementwise on arrays; overflow gives inf, silently."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gain = np.where(rate == 0, dt, -np.expm1(-rate * dt) / rate)
        return np.exp(-rate * dt) * y0 + forcing * gain


def monitor_dissipation(traj: Trajectory, params: ModelParams,
                        driving: DrivingSpec) -> dict:
    """Check the energy inequality

        d/dt ||psi||^2 + Gt*||psi||^2 <= (1/Gt)*||g1(t)||^2

    integrated exactly between samples.  Hopping and F are skew, so
    d/dt ||psi||^2 <= -2*(gamma - sup||g2||)*||psi||^2 + 2*||g1||*||psi||,
    and 2*||g1||*||psi|| <= Gt*||psi||^2 + ||g1||^2/Gt closes it, since
    2*(gamma - sup||g2||) - Gt = gamma >= Gt.  With s_i >= ||g1|| on
    [t_i, t_{i+1}] (``DrivingField.interval_sup``) a sample is flagged when
    n^2_{i+1} > _gronwall(n^2_i, Gt, s_i^2/Gt, dt) + 10*rtol*(1 + n^2_i),
    the integrator's error.  The record counts the intervals ``checked``
    and the ``violations``, and lists the index i of each flagged interval
    [t_i, t_{i+1}] (``flagged``)."""
    gt = certificate(params, driving).dissipative().gamma_tilde
    n2, times = traj.norms ** 2, traj.times
    dt = np.diff(times)
    s = driving.g1.interval_sup(times[:-1], dt)
    bound = _gronwall(n2[:-1], gt, s * s / gt, dt)
    excess = n2[1:] - bound - 10 * traj.config.rtol * (1 + n2[:-1])
    flagged = np.flatnonzero(excess > 0).tolist()
    return {"ok": not flagged, "checked": dt.size,
            "violations": len(flagged), "flagged": flagged}
