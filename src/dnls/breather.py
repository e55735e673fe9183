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
                  config: IntegratorConfig = ORACLE_CONFIG, *,
                  confirmed: bool = False) -> BreatherSolution:
    """Fixed-point iteration of the period map P from ``seed`` at t = 0
    over the driving's period T, with at most 1000 updates of the iterate.
    Each map measures the residual d = ||P(psi) - psi|| of the iterate psi.
    On the R_u-ball P contracts by q = e^{-rho*T}, so its image P(psi) has
    residual at most q*d (Banach's a-posteriori estimate); the solve stops
    and returns that image, with ``periodicity_residual`` the bound q*d,
    once q*d is at most ``tol`` and at least one ratio is kept, none above
    q: the measured contraction confirms the certificate before the solve
    trusts it.  Otherwise it stops at the first iterate whose measured
    residual is at most ``tol`` and returns that iterate with d.
    ``iterations`` counts the maps that did not stop the solve, so a solve
    makes ``iterations + 1`` maps.

    ``confirmed`` says that an earlier solve on the same model kept a
    ratio at most q (``check_breather`` passes it for its later seeds).
    Then the solve may stop on the bound q*d with no kept ratio of its
    own, and its first map, from the seed, runs at the loose tolerance
    rtol_1 = min(1e-3, max(rtol, tol/(100*q*R_u))), with atol in the
    config's ratio to rtol; every later map runs at ``config``.  The loose
    map stops nothing and starts no ratio.  This is safe: Banach's
    estimate ||P(x_2) - x_2|| <= q*||x_2 - x_1|| holds for any x_1 in the
    R_u-ball, however x_1 was computed, so the loose map's error e_1 does
    not decide whether the result is correct.  It decides only whether one
    exact map is enough (d_1 <= e_1 + q*d_0 and q*d_1 <= tol), and it
    moves the returned state by at most q*e_1; at rtol_1 the measured e_1
    is at most about 2*rtol_1*R_u, which keeps q*e_1 <= tol/50.  A loose
    image outside the ball (the seed's test; a state is always finite) is
    discarded: the solve goes on from the seed at ``config``, and the
    discarded map counts in ``iterations``.  With R_u = 0 no map runs
    loose.

    Refuses a driving with no period (no field of nonzero norm with a
    periodic law, or a harmonic sum) first, then runs only if the
    strong-damping inequality holds and the seed lies in the R_u-ball
    (which the flow keeps), since only then is the iteration certified to
    contract (and the orbit unique), and only if 10*tol < 2*R_u when
    R_u > 0: any two states of the ball lie within 2*R_u, so no gate at
    10*tol could fail.

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
    if r_u > 0 and 10 * tol >= 2 * r_u:
        raise DomainError(
            f"scenario.tol must be below R_u/5 = {r_u / 5:.6g}, since the "
            f"checks at 10*tol would pass any state of the R_u-ball, got "
            f"{tol:.6g}")

    q = math.exp(-gap * period)
    noise_floor = 100.0 * config.atol * math.sqrt(seed.n_sites)
    psi = seed
    ratios = []
    prev_d = None
    iterations = 0
    if confirmed and r_u > 0:
        # 1/(q*R_u) may overflow to inf, which the cap takes
        rtol = min(1e-3, max(config.rtol, tol / (100 * q * r_u)))
        loose = replace(config, rtol=rtol,
                        atol=rtol * (config.atol / config.rtol))
        nxt = period_map(seed, params, spec, period, loose)
        iterations = 1
        if l2_norm(nxt) <= r_u * (1 + 1e-9):
            psi = nxt
    while True:  # each map measures the residual d of the iterate psi
        nxt = period_map(psi, params, spec, period, config)
        d = math.sqrt(norm_sq(nxt.values - psi.values))
        if prev_d is not None and prev_d > max(noise_floor, 10 * tol) \
                and d > noise_floor:
            ratios.append(d / prev_d)
        if (ratios or confirmed) and max(ratios, default=0.0) <= q \
                and q * d <= tol:
            psi, d = nxt, q * d
            break
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
    """Re-integrate from t = 0 to the last time read, (2 - 1/``_PHASES``)
    periods, and check periodicity at ``_PHASES`` equispaced times of the
    first period against the same times one period on (for a solve that
    stopped on its certified bound, the first period is the map that
    measures the returned state's residual), plus localization of the
    amplitude envelope, and check the contraction ratio, the largest of
    ``sol.ratios``, against the certificate: on the R_u-ball two solutions
    approach at rate rho = ``sol.gap_rate``, so the period map contracts
    by at least e^{-rho*T}.  ``ratio_margin`` is the ratio over that bound;
    the check passes up to 1.  The comparison is made in logarithms, since
    e^{-rho*T} underflows to 0 once rho*T exceeds about 745.  The record
    holds the solution's numbers, its site ``amplitudes`` at t = 0 as
    [re, im] pairs, and the verdict as ``verified``."""
    period = sol.period
    stride = period / _PHASES
    traj = integrate(sol.state0, 0.0, (2 * _PHASES - 1) * stride, params,
                     spec, replace(config, sample_stride=stride))
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
    ``verify_breather`` with ``seed_spread``, and the first solution.  The
    record's ``periodicity_residual`` is the residual the first solve
    stopped on, the certified bound q*d where it stopped on that bound;
    ``max_phase_residual`` is the periodicity the verifier measured.

    The first seed's solve is the one the record reads, so every map of it
    runs at the oracle tolerance.  When it kept a contraction ratio at most
    q = e^{-rho*T}, that ratio confirms the certificate for the model, and
    each later seed's solve runs ``confirmed``: its first map at the loose
    tolerance ``find_breather`` derives from q, R_u and tol.  Otherwise the
    later seeds solve as the first.

    Refused before any solve when N < 10, which leaves the envelope fewer
    than 3 sites from site 2 on to check localization on, when a seed is
    repeated, since equal starts witness nothing of uniqueness, and by
    ``find_breather`` before its first map when 10*tol >= 2*R_u > 0."""
    if n_sites < 10:
        raise DomainError(f"lattice.n_sites must be >= 10 for breather, "
                          f"which checks localization on the envelope from "
                          f"site 2 on, got {n_sites}")
    for i, s in enumerate(seeds):
        if s in seeds[:i]:
            raise DomainError(
                f"scenario.seeds repeats {'null' if s is None else s}: "
                f"equal seeds start equal solves, which witness nothing of "
                f"uniqueness")

    def start(seed) -> LatticeState:
        if seed is None:
            return LatticeState.zeros(n_sites, bc)
        r_u = drv.certificate(params, spec).dissipative().breather_radius
        return random_state(n_sites, seed, norm=0.5 * r_u, bc=bc)

    sol = find_breather(params, spec, start(seeds[0]), tol=tol)
    confirmed = max(sol.ratios, default=math.inf) <= math.exp(
        -sol.gap_rate * sol.period)
    sols = [sol] + [find_breather(params, spec, start(s), tol=tol,
                                  confirmed=confirmed) for s in seeds[1:]]
    first = sol.state0
    spread = max((float(np.linalg.norm(s.state0.values - first.values))
                  for s in sols[1:]), default=0.0)
    rec = {**verify_breather(sols[0], params, spec, tol=tol),
           "seed_spread": spread}
    return rec["verified"] and spread <= 10 * tol, rec, first
