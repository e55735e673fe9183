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
from .lattice import LatticeState, ModelParams, l2_norm, norm_sq, random_state


_PHASES = 8  # equispaced times per period that ``verify_breather`` checks


def period_map(state: LatticeState, params: ModelParams, spec: DrivingSpec,
               period: float,
               config: IntegratorConfig = ORACLE_CONFIG) -> LatticeState:
    """Flow from t = 0 over one driving period at the oracle tolerance."""
    traj = integrate(state, 0.0, period, params, spec,
                     replace(config, sample_stride=period))
    return LatticeState(traj.values[-1], state.bc)


@dataclass
class BreatherSolution:
    """What one solve measured; ``state0`` is psi at t = 0."""
    state0: LatticeState
    period: float
    periodicity_residual: float
    iterations: int
    gap_rate: float
    ratios: list = field(default_factory=list)


def find_breather(params: ModelParams, spec: DrivingSpec, seed: LatticeState,
                  tol: float = 1e-10,
                  config: IntegratorConfig = ORACLE_CONFIG) -> BreatherSolution:
    """Fixed-point iteration of the period map from ``seed`` at t = 0 over
    the driving's period, with at most 1000 updates of the iterate.  The
    iterate returned is the first whose residual ||P(psi) - psi|| is at
    most ``tol``, so a solve makes ``iterations + 1`` maps.

    Refuses a driving with no period (no field of nonzero norm with a
    periodic law, or a harmonic sum) first, then runs only if the
    strong-damping inequality holds and the seed lies in the R_u-ball
    (which the flow keeps), since only then is the iteration certified to
    contract (and the orbit unique).

    ``gap_rate`` is the certified rate rho = ``gap_rate(R_u)`` at which two
    solutions in the R_u-ball approach.  ``ratios`` holds each quotient
    d_{k+1}/d_k of consecutive residuals with d_k above max(noise_floor,
    10*tol) and d_{k+1} above noise_floor = 100*atol*sqrt(N), the round-off
    level of a map at tolerance atol: a residual below it measures the
    integrator, not the contraction.
    """
    if spec.aperiodic:
        raise DomainError(f"{spec.aperiodic[0][0]} is a harmonic sum, which "
                          f"has no period: breather needs periodic or "
                          f"constant laws")
    period = spec.period
    if period is None:
        raise DomainError("driving is not periodic: no field of nonzero "
                          "norm has a periodic law, and breather needs one "
                          "(kind \"periodic\" in driving.g1.law or "
                          "driving.g2.law)")
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
        nxt = period_map(psi, params, spec, period, config)
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

    return BreatherSolution(state0=psi, period=period,
                            periodicity_residual=d, iterations=iterations,
                            gap_rate=gap, ratios=ratios)


def _envelope(state: LatticeState) -> np.ndarray:
    """Symmetrized amplitude envelope: env[k] = max(|psi_k|, |psi_-k|)."""
    c = state.n_sites // 2
    amp = np.abs(state.values)
    return np.maximum(amp[c:2 * c], amp[c:0:-1])


def verify_breather(sol: BreatherSolution, params: ModelParams,
                    spec: DrivingSpec, tol: float = 1e-10,
                    config: IntegratorConfig = ORACLE_CONFIG) -> dict:
    """Re-integrate from t = 0 over two periods and check periodicity at
    ``_PHASES`` equispaced times, plus localization of the amplitude
    envelope, and check the contraction ratio, the largest of
    ``sol.ratios``, against the certificate: on the R_u-ball two solutions
    approach at rate rho = ``sol.gap_rate``, so the period map contracts
    by at least e^{-rho*T}.  ``ratio_margin`` is the ratio over that bound;
    the check passes up to 1.  The comparison is made in logarithms, since
    e^{-rho*T} underflows to 0 once rho*T exceeds about 745.  The record
    holds the solution's numbers, its site ``amplitudes`` at t = 0 as
    [re, im] pairs, and the verdict as ``verified``."""
    period = sol.period
    traj = integrate(sol.state0, 0.0, 2 * period, params, spec,
                     replace(config, sample_stride=period / _PHASES))
    # sample i is at i*period/_PHASES, one period before sample i + _PHASES
    max_res = max(math.sqrt(norm_sq(traj.values[i + _PHASES] - traj.values[i]))
                  for i in range(_PHASES))
    periodic_ok = max_res <= 10 * tol

    env = _envelope(sol.state0)
    peak = float(np.max(env)) if env.size else 0.0
    k = np.arange(spec.g1.core(env.size) + 1, env.size)
    # a rise above the 1e-10 floor, where round-off ripple is ignored
    monotone = not np.any((env[k] > env[k - 1] * (1 + 1e-6) + 1e-12 * peak)
                          & (env[k] > 1e-10 * peak))
    # least-squares exponential decay rate of the envelope from site 2 on,
    # with its R^2, when 3 or more of those sites are above 1e-10*peak;
    # with fewer above it the envelope counts as localized, where it has
    # those 3 sites (N >= 10)
    rate = r2 = None
    ks = np.arange(env.size)
    usable = (ks >= 2) & (env > 1e-10 * peak)
    if np.count_nonzero(usable) >= 3:
        slope, r, _ = line_fit(ks[usable], np.log(env[usable]))
        rate, r2 = float(-slope), float(r ** 2)
    loc_ok = peak == 0 or (r2 >= 0.99 if r2 is not None else env.size >= 5)
    ratio = max(sol.ratios, default=0.0)
    log_margin = (math.log(ratio) + sol.gap_rate * period if ratio > 0
                  else -math.inf)
    return {
        "period": period,
        "periodicity_residual": sol.periodicity_residual,
        "iterations": sol.iterations,
        "contraction_ratio": ratio,
        "localization_rate": rate,
        "localization_r2": r2,
        "amplitudes": [[z.real, z.imag] for z in sol.state0.values],
        "max_phase_residual": max_res,
        "envelope_monotone": monotone,
        "certified_ratio": math.exp(-sol.gap_rate * period),
        # capped below the float range: a finite JSON number
        "ratio_margin": math.exp(min(log_margin, 700.0)),
        "verified": periodic_ok and monotone and loc_ok and log_margin <= 0.0,
    }


def check_breather(params: ModelParams, spec: DrivingSpec, n_sites: int,
                   bc: str, seeds, tol: float = 1e-10
                   ) -> tuple[bool, dict, LatticeState]:
    """The ``dnls breather`` check at the oracle tolerance: one solve per
    seed, from zero for a null seed, else from a random state of norm R_u/2
    inside the certified ball, and the first solution verified.  Returns
    the verdict (verified, and ``seed_spread``, the largest distance of a
    solution from the first, at most 10*tol), the record of
    ``verify_breather`` with ``seed_spread``, and the first solution.
    Refused before any solve when N < 10, which leaves the envelope fewer
    than 3 sites from site 2 on to check localization on."""
    if n_sites < 10:
        raise DomainError(f"lattice.n_sites must be >= 10 for breather, "
                          f"which checks localization on the envelope from "
                          f"site 2 on, got {n_sites}")

    def start(seed) -> LatticeState:
        if seed is None:
            return LatticeState.zeros(n_sites, bc)
        r_u = drv.certificate(params, spec).dissipative().breather_radius
        return random_state(n_sites, seed, norm=0.5 * r_u, bc=bc)

    sols = [find_breather(params, spec, start(s), tol=tol) for s in seeds]
    first = sols[0].state0
    spread = max((float(np.linalg.norm(s.state0.values - first.values))
                  for s in sols[1:]), default=0.0)
    rec = {**verify_breather(sols[0], params, spec, tol=tol),
           "seed_spread": spread}
    return rec["verified"] and spread <= 10 * tol, rec, first
