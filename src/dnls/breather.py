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
from .errors import DomainError, NonconvergenceError
from .integrator import ORACLE_CONFIG, IntegratorConfig, integrate
from .lattice import LatticeState, ModelParams, l2_norm, norm_sq


_PHASES = 8  # equispaced times per period that ``verify_breather`` checks


def period_map(state: LatticeState, t0: float, params: ModelParams,
               spec: DrivingSpec, period: float,
               config: IntegratorConfig = ORACLE_CONFIG) -> LatticeState:
    """Flow over one driving period at reference tolerance."""
    traj = integrate(state, t0, t0 + period, params, spec,
                     replace(config, sample_stride=period))
    return LatticeState(traj.values[-1], state.bc)


@dataclass
class BreatherSolution:
    state0: LatticeState
    period: float
    phase_t0: float
    periodicity_residual: float
    iterations: int
    contraction_ratio: float
    gap_rate: float
    ratios: list = field(default_factory=list)
    localization_rate: float | None = None
    localization_r2: float | None = None


def find_breather(params: ModelParams, spec: DrivingSpec, seed: LatticeState,
                  tol: float = 1e-10, period: float | None = None,
                  config: IntegratorConfig = ORACLE_CONFIG) -> BreatherSolution:
    """Fixed-point iteration of the period map from ``seed`` at phase t0 = 0
    over the driving's period, with at most 1000 updates of the iterate.
    ``period`` is for a constant driving only, which has none of its own;
    a harmonic sum, which has no period, is refused.  The iterate returned
    is the first whose residual ||P(psi) - psi|| is at most ``tol``, so a
    solve makes ``iterations + 1`` maps.

    Refuses a driving with no period first, then runs only if the
    strong-damping inequality holds and the seed lies in the R_u-ball
    (which the flow keeps), since only then is the iteration certified to
    contract (and the orbit unique).

    ``gap_rate`` is the certified rate rho = ``gap_rate(R_u)`` at which two
    solutions in the R_u-ball approach.  ``ratios`` holds each quotient d_{k+1}/d_k of consecutive residuals
    with d_k above max(noise_floor, 10*tol) and d_{k+1} above noise_floor
    = 100*atol*sqrt(N), the round-off level of a map at tolerance atol: a
    residual below it measures the integrator, not the contraction.
    """
    if spec.aperiodic:
        raise DomainError(f"{spec.aperiodic[0][0]} is a harmonic sum, which "
                          f"has no period: breather needs periodic or "
                          f"constant laws")
    if period is None:
        period = spec.period
        if period is None:
            raise DomainError("driving is not periodic: breather needs a "
                              "periodic law (kind \"periodic\") in "
                              "driving.g1.law or driving.g2.law")
    elif spec.period is not None:
        raise DomainError(f"the driving has period {spec.period:.6g}; an "
                          f"explicit period is for a constant driving only")
    cert = drv.certificate(params, spec).dissipative()
    r_u = cert.breather_radius
    gap = cert.gap_rate(r_u)
    if not gap > 0:
        raise DomainError(
            f"uniqueness not guaranteed: gamma={cert.gamma:.6g} <= "
            f"a*R_u^b + sup||g2|| = {cert.gamma - gap:.6g}")
    if l2_norm(seed) > r_u * (1 + 1e-9):
        raise DomainError(
            f"seed norm {l2_norm(seed):.6g} outside the certified ball of "
            f"radius R_u = {r_u:.6g}")

    noise_floor = 100.0 * config.atol * math.sqrt(seed.n_sites)
    psi = seed
    ratios = []
    prev_d = None
    iterations = 0
    while True:  # each map measures the residual d of the iterate psi
        nxt = period_map(psi, 0.0, params, spec, period, config)
        d = math.sqrt(norm_sq(nxt.values - psi.values))
        if prev_d is not None and prev_d > max(noise_floor, 10 * tol) \
                and d > noise_floor:
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
        contraction_ratio=max(ratios) if ratios else 0.0, gap_rate=gap,
        ratios=ratios,
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


def verify_breather(sol: BreatherSolution, params: ModelParams,
                    spec: DrivingSpec, tol: float = 1e-10,
                    config: IntegratorConfig = ORACLE_CONFIG) -> dict:
    """Re-integrate over two periods and check periodicity at ``_PHASES``
    equispaced times, plus localization of the amplitude envelope, and
    check the measured contraction ratio against the certificate: on the
    R_u-ball two solutions approach at rate rho = ``sol.gap_rate``, so the
    period map contracts by at least e^{-rho*T}.  ``ratio_margin`` is the
    ratio over that bound; the check passes up to 1.  The comparison is
    made in logarithms, since e^{-rho*T} underflows to 0 once rho*T
    exceeds about 745.  The record holds the solution's fields, its site
    ``amplitudes`` as [re, im] pairs, and the verdict as ``verified``."""
    period = sol.period
    traj = integrate(sol.state0, sol.phase_t0, sol.phase_t0 + 2 * period,
                     params, spec, replace(config, sample_stride=period / _PHASES))
    # sample i is at t0 + i*period/_PHASES, one period before sample i + _PHASES
    max_res = max(math.sqrt(norm_sq(traj.values[i + _PHASES] - traj.values[i]))
                  for i in range(_PHASES))
    periodic_ok = max_res <= 10 * tol

    env = _envelope(sol.state0)
    peak = float(np.max(env)) if env.size else 0.0
    k = np.arange(spec.g1.core(env.size) + 1, env.size)
    # a rise above the 1e-10 floor, where round-off ripple is ignored
    monotone = not np.any((env[k] > env[k - 1] * (1 + 1e-6) + 1e-12 * peak)
                          & (env[k] > 1e-10 * peak))
    loc_ok = peak == 0 or (sol.localization_r2 is not None
                           and sol.localization_r2 >= 0.99)
    log_margin = (math.log(sol.contraction_ratio) + sol.gap_rate * period
                  if sol.contraction_ratio > 0 else -math.inf)
    return {
        "period": period,
        "phase_t0": sol.phase_t0,
        "periodicity_residual": sol.periodicity_residual,
        "iterations": sol.iterations,
        "contraction_ratio": sol.contraction_ratio,
        "localization_rate": sol.localization_rate,
        "localization_r2": sol.localization_r2,
        "amplitudes": [[z.real, z.imag] for z in sol.state0.values],
        "max_phase_residual": max_res,
        "envelope_monotone": monotone,
        "certified_ratio": math.exp(-sol.gap_rate * period),
        # capped below the float range: a finite JSON number
        "ratio_margin": math.exp(min(log_margin, 700.0)),
        "verified": periodic_ok and monotone and loc_ok and log_margin <= 0.0,
    }

