"""Time-periodic, spatially localized solutions under periodic driving.

With strong damping the flow over one driving period is a contraction on
the ball the dynamics settles into, so plain fixed-point iteration of the
period map converges geometrically to the unique periodic orbit; the
solver doubles as a computational witness of uniqueness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import driving as drv
from .diagnostics import line_fit
from .driving import DrivingSpec
from .errors import DomainError, NonconvergenceError, StrongDampingError
from .integrator import ORACLE_CONFIG, IntegratorConfig, integrate
from .lattice import LatticeState, ModelParams, l2_norm, norm_sq


def period_map(state: LatticeState, t0: float, params: ModelParams,
               spec: DrivingSpec, period: float | None = None,
               config: IntegratorConfig = ORACLE_CONFIG) -> LatticeState:
    """Flow over one driving period at reference tolerance."""
    period = spec.period if period is None else period
    if period is None:
        raise DomainError("driving is not periodic; pass the period explicitly")
    traj = integrate(state, t0, t0 + period, params, spec,
                     replace(config, sample_stride=period))
    return traj.state(traj.n_samples - 1)


@dataclass
class BreatherSolution:
    state0: LatticeState
    period: float
    phase_t0: float
    periodicity_residual: float
    iterations: int
    contraction_ratio: float
    ratios: list = field(default_factory=list)
    localization_rate: float | None = None
    localization_r2: float | None = None


def find_breather(params: ModelParams, spec: DrivingSpec, tol: float = 1e-10,
                  seed: LatticeState | None = None,
                  period: float | None = None, n_sites: int = 256,
                  config: IntegratorConfig = ORACLE_CONFIG) -> BreatherSolution:
    """Fixed-point iteration of the period map from phase t0 = 0, with at
    most 1000 updates of the iterate.  The iterate returned is the first
    whose residual ||P(psi) - psi|| is at most ``tol``, so a solve makes
    ``iterations + 1`` maps.

    Refuses to run unless the strong-damping inequality holds and the seed
    lies in the R_u-ball (which the flow keeps), since only then is the
    iteration certified to contract (and the orbit unique).
    """
    cert = drv.certificate(params, spec).dissipative()
    r_u = cert.breather_radius
    rate = cert.gap_rate(r_u)
    if not rate > 0:
        raise StrongDampingError(
            f"uniqueness not guaranteed: gamma={cert.gamma:.6g} <= "
            f"a*R_u^b + sup||g2|| = {cert.gamma - rate:.6g}")
    period = spec.period if period is None else period
    if period is None:
        raise DomainError("driving is not periodic; pass the period explicitly")
    psi = seed if seed is not None else LatticeState.zeros(n_sites, "dirichlet")
    if l2_norm(psi) > r_u * (1 + 1e-9):
        raise DomainError(
            f"seed norm {l2_norm(psi):.6g} outside the certified ball of "
            f"radius R_u = {r_u:.6g}")

    noise_floor = 100.0 * config.atol * math.sqrt(psi.n_sites)
    ratios = []
    prev_d = None
    iterations = 0
    while True:  # each map measures the residual d of the iterate psi
        nxt = period_map(psi, 0.0, params, spec, period, config)
        d = math.sqrt(norm_sq(nxt.values - psi.values))
        if prev_d is not None and prev_d > max(noise_floor, 10 * tol):
            ratios.append(d / prev_d)
        if not d > tol:
            break
        if iterations >= 1000:
            raise NonconvergenceError(
                f"no convergence after {iterations} iterations "
                f"(last residual {d:.3g})")
        psi, prev_d = nxt, d
        iterations += 1

    rate, r2 = _localization_fit(psi)
    return BreatherSolution(
        state0=psi, period=period, phase_t0=0.0,
        periodicity_residual=d, iterations=iterations,
        contraction_ratio=max(ratios) if ratios else 0.0, ratios=ratios,
        localization_rate=rate, localization_r2=r2)


def _envelope(state: LatticeState) -> np.ndarray:
    """Symmetrized amplitude envelope: env[k] = max(|psi_k|, |psi_-k|)."""
    c = state.n_sites // 2
    amp = np.abs(state.values)
    return np.maximum(amp[c:2 * c], amp[c:0:-1])


def _localization_fit(state: LatticeState) -> tuple[float | None,
                                                     float | None]:
    """Least-squares exponential decay rate of the amplitude envelope
    from site 2 on, with its R^2."""
    env = _envelope(state)
    peak = float(np.max(env))
    if peak == 0.0:
        return None, None
    ks = np.arange(env.size)
    usable = (ks >= 2) & (env > 1e-10 * peak)
    if np.count_nonzero(usable) < 3:
        return None, None
    slope, r, _ = line_fit(ks[usable], np.log(env[usable]))
    return float(-slope), float(r ** 2)


@dataclass
class BreatherReport:
    ok: bool
    max_phase_residual: float
    tolerance: float
    envelope_monotone: bool
    localization_r2: float | None
    localization_rate: float | None


def verify_breather(sol: BreatherSolution, params: ModelParams,
                    spec: DrivingSpec, phases: int = 8, tol: float = 1e-10,
                    config: IntegratorConfig = ORACLE_CONFIG) -> BreatherReport:
    """Re-integrate over two periods and check periodicity at ``phases``
    equispaced times, plus localization of the amplitude envelope."""
    period = sol.period
    stride = period / phases
    traj = integrate(sol.state0, sol.phase_t0, sol.phase_t0 + 2 * period,
                     params, spec, replace(config, sample_stride=stride))
    max_res = 0.0
    for i in range(phases):
        t_i = sol.phase_t0 + i * stride
        j = int(np.argmin(np.abs(traj.times - t_i)))
        k = int(np.argmin(np.abs(traj.times - (t_i + period))))
        res = math.sqrt(norm_sq(traj.values[k] - traj.values[j]))
        max_res = max(max_res, res)
    periodic_ok = max_res <= 10 * tol

    env = _envelope(sol.state0)
    peak = float(np.max(env)) if env.size else 0.0
    core = _driving_core(spec)
    k = np.arange(core + 1, env.size)
    # a rise above the 1e-10 floor, where round-off ripple is ignored
    monotone = not np.any((env[k] > env[k - 1] * (1 + 1e-6) + 1e-12 * peak)
                          & (env[k] > 1e-10 * peak))
    loc_ok = peak == 0 or (sol.localization_r2 is not None
                           and sol.localization_r2 >= 0.99)
    ok = periodic_ok and monotone and loc_ok
    return BreatherReport(ok=ok, max_phase_residual=max_res, tolerance=tol,
                          envelope_monotone=monotone,
                          localization_r2=sol.localization_r2,
                          localization_rate=sol.localization_rate)


def _driving_core(spec: DrivingSpec) -> int:
    """Half-width of the region where the additive driving is concentrated."""
    p = spec.g1.profile
    if p.kind == "single_site":
        return abs(p.site) + 1
    if p.kind == "custom":
        sites = [abs(p.start + k) for k, v in enumerate(p.values) if v != 0]
        return (max(sites) + 1) if sites else 1
    total = p.l2_norm_sq()
    if total == 0:
        return 1
    m = 1
    while p.tail_sq(m) > 1e-12 * total and m < 10 ** 6:
        m += 1
    return max(2, m // 4 + 1)
