"""Quantitative checks on the dissipative dynamics: a-priori norm bound,
absorbing ball, spatial tail decay, two-trajectory contraction, continuity
in the driving, and an empirical correlation-dimension estimate.

Each check returns its record: a plain dict whose keys are those of its
command's ``--json`` report, built where the numbers are computed.  A
predict_* turns the closed-form constants into the prediction's record;
the matching verify_* tests a simulated trajectory against it and returns
what it measured with the verdict, and the command merges the two.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import driving as drv
from .driving import DrivingSpec
from .errors import DomainError
from .integrator import IntegratorConfig, Trajectory, _gronwall, integrate
from .lattice import DIRICHLET, LatticeState, ModelParams, random_state


def line_fit(x, y):
    """Least-squares line through the points (x, y): its slope, the
    correlation coefficient r and the standard error of the slope, by the
    formulas of scipy.stats.linregress (r clamped to [-1, 1]; r is nan and
    so is the error when y is constant)."""
    n = len(x)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if not ssxm > 0:
        raise DomainError("a line fit needs two distinct x values")
    if ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    stderr = 0.0 if n == 2 else np.sqrt((1 - r ** 2) * ssym / ssxm / (n - 2))
    return ssxym / ssxm, r, stderr


# ---------------------------------------------------------------------------
# a-priori bound

def check_apriori_bound(traj: Trajectory, params: ModelParams,
                        spec: DrivingSpec) -> dict:
    """||psi(t)||^2 <= e^{-Gt (t-t0)} ||psi(t0)||^2
    + (1 - e^{-Gt (t-t0)}) sup||g1||^2/Gt^2 at every sample, with slack
    1e-6*(1 + ||psi(t0)||^2): the dissipation inequality of
    ``monitor_dissipation`` integrated from t0 with the global sup||g1||.
    The bound meets the first sample, so ``max_excess`` is read after it."""
    cert = drv.certificate(params, spec).dissipative()
    gt, n0_sq = cert.gamma_tilde, traj.norms[0] ** 2
    bound = _gronwall(n0_sq, gt, cert.g1_sup ** 2 / gt, traj.times - traj.times[0])
    excess = traj.norms ** 2 - bound - 1e-6 * (1 + n0_sq)
    return {"ok": not np.any(excess > 0),
            "max_excess": float(np.max(excess[min(1, excess.size - 1):]))}


# ---------------------------------------------------------------------------
# absorbing ball

def predict_absorbing(params: ModelParams, spec: DrivingSpec,
                      r: float) -> dict:
    """Ball radius K, with K^2 = 2 sup||g1||^2/Gamma^2, and entry time
    T = 2 ln(Gamma r / sup||g1||)/Gamma, clamped to >= 0, for initial data
    of norm <= r; refused when T is not finite."""
    cert = drv.certificate(params, spec).dissipative()
    gamma_eff, g1_sup = cert.gamma_tilde, cert.g1_sup
    ratio = gamma_eff * r / g1_sup if g1_sup > 0 else math.inf
    entry = max(0.0, 2.0 * math.log(ratio) / gamma_eff) if r > 0 else 0.0
    if not math.isfinite(entry):
        raise DomainError(f"entry time into the absorbing ball is not finite "
                          f"(sup||g1|| = {g1_sup:.6g}, r = {r:.6g})")
    return {"gamma_eff": gamma_eff, "radius": cert.absorbing_radius,
            "entry_time": entry}


def _after_entry(traj: Trajectory, series: np.ndarray,
                 entry_time: float) -> tuple[float, float]:
    """The deadline t0 + ``entry_time`` and the largest of ``series`` from
    it on; refused when the trajectory ends before the deadline."""
    deadline = traj.times[0] + entry_time
    if traj.times[-1] < deadline:
        raise DomainError(
            f"trajectory ends at t={traj.times[-1]:.6g}, before the "
            f"predicted entry time {deadline:.6g}")
    return deadline, float(np.max(series[traj.times >= deadline - 1e-12]))


def verify_absorbing(traj: Trajectory, pred: dict) -> dict:
    """Assert ||psi(t)|| <= K*(1 + 1e-6) for all samples past t0 + T."""
    deadline, max_after = _after_entry(traj, traj.norms, pred["entry_time"])
    limit = pred["radius"] * (1 + 1e-6)
    inside = np.flatnonzero(traj.norms <= limit)
    first_entry = float(traj.times[inside[0]]) if inside.size else None
    # a plain bool: the times are numpy floats, and a record is plain JSON
    ok = bool(first_entry is not None and first_entry <= deadline + 1e-12
              and max_after <= limit)
    return {"first_entry_t": first_entry, "max_norm_after_entry": max_after,
            "pass": ok}


# ---------------------------------------------------------------------------
# tail decay

def predict_tail(xi: float, r: float, params: ModelParams,
                 spec: DrivingSpec, n_sites: int) -> dict:
    """Entry time T(xi, r) = ln(2 r^2/xi)/Gamma, clamped to >= 0, and the
    cutoff M(xi), the least m with sup_t sum_{|n|>m} |g1_n(t)|^2 <= Gamma^2
    xi/2.  It bounds only the forcing beyond m, not the mass the coupling
    carries there from the driven sites, so the tail of psi beyond M(xi)
    is checked against xi, not certified (a single-site g1 has M = 0)."""
    if xi <= 0:
        raise DomainError("xi must be positive")
    gamma_eff = drv.certificate(params, spec).dissipative().gamma_tilde
    entry = max(0.0, math.log(2.0 * r * r / xi) / gamma_eff) if r > 0 else 0.0
    cutoff = spec.g1.tail_cutoff(gamma_eff ** 2 * xi / 2.0, n_sites // 2)
    if cutoff >= n_sites // 2:
        raise DomainError(
            f"driving tail needs cutoff >= {cutoff}, but truncation has "
            f"only {n_sites // 2} sites per side")
    return {"xi": xi, "entry_time": entry, "cutoff": cutoff,
            "gamma_eff": gamma_eff}


def verify_tail(traj: Trajectory, pred: dict) -> dict:
    if traj.tails is None or traj.tail_cutoff != pred["cutoff"]:
        raise DomainError("trajectory lacks a tail series at the predicted cutoff")
    _, max_tail = _after_entry(traj, traj.tails, pred["entry_time"])
    return {"max_tail_after_entry": max_tail,
            "pass": bool(max_tail <= pred["xi"])}


# ---------------------------------------------------------------------------
# two-trajectory contraction

def contraction_rate(params: ModelParams, spec: DrivingSpec, seeds,
                     horizon: float = 3.0, n_sites: int = 256,
                     config: IntegratorConfig = IntegratorConfig(),
                     bc: str = DIRICHLET) -> dict:
    """Two trajectories seeded at norm 0.9*K in the absorbing ball of
    radius K (``ball_radius``) against ``continuity_gap``'s recursion at
    h = 0, where the driving gaps vanish: the record is its record, with
    ``pass`` for ``ok``.  Refused unless the paper's gap rate
    gamma - a*K^b - sup||g2|| (``predicted_rate``) is positive.  In the
    linear case with g2 = 0 the bound is exact, ||w(t)|| =
    e^{-gamma*t}*||w(0)||, so there the verdict rests on the recursion's
    slack of 1e-9*(1 + bound)."""
    s0, s1 = seeds
    if s0 == s1:
        raise DomainError("seeds must differ (degenerate pair)")
    cert = drv.certificate(params, spec).dissipative()
    radius = cert.absorbing_radius
    predicted = cert.gap_rate(radius)
    if predicted <= 0:
        raise DomainError(
            f"damping too weak for contraction: gamma - a*K^b - sup||g2|| "
            f"= {predicted:.6g} <= 0")
    r_init = 0.9 * radius if radius > 0 else 0.5
    psi0 = random_state(n_sites, s0, norm=r_init, bc=bc)
    phi0 = random_state(n_sites, s1, norm=r_init, bc=bc)
    rec = continuity_gap(params, spec, 0.0, psi0, phi0, horizon, config)
    return {"predicted_rate": float(predicted), "ball_radius": radius,
            "pass": rec.pop("ok"), **rec}


# ---------------------------------------------------------------------------
# continuity in initial data and driving

def continuity_gap(params: ModelParams, spec: DrivingSpec, h: float,
                   theta: LatticeState, theta_n: LatticeState,
                   horizon: float = 5.0,
                   config: IntegratorConfig = IntegratorConfig()) -> dict:
    """Distance w = psi_a - psi_b of the evolution psi_a of ``theta_n``
    under the driving translated by ``h`` in its hull from psi_b, that of
    ``theta`` under ``spec``, against a Gronwall bound; needs no Gt > 0.

    Hopping and F are skew and Re<u, -i*g2*u> <= sup||g2||*||u||^2, so
    d/dt ||psi|| <= -(gamma - sup||g2||)*||psi|| + sup||g1||: both norms stay
    below its monotone envelope R(t) from max(||theta||, ||theta_n||), and
    R <= Rbar_i = max(R(t_i), R(t_{i+1})) between samples.  There, with
    g2a*psi_a - g2b*psi_b = g2a*w + (g2a - g2b)*psi_b and the gaps dg1, dg2
    of ``DrivingField.hull_gap``, d/dt ||w|| <= -gap_rate(Rbar_i)*||w|| + dg1
    + Rbar_i*dg2, since for F = +-s^sigma pointwise
    Re(conj(x - y)*(-i)*(F(|x|^2)x - F(|y|^2)y)) = (F(|y|^2) - F(|x|^2))
    * Im(conj(y)*x) <= sigma*max(|x|, |y|)^{2 sigma}*|x - y|^2 (maximize
    over the phase, then |y|/|x|), and the growth bound of
    ``NonlinearitySpec`` derives b = 2 sigma and a >= sigma + 1/2 from
    sigma, for every sigma.  So the bound is the recursion
    b_{i+1} = _gronwall(b_i, gap_rate(Rbar_i), dg1 + Rbar_i*dg2, dt_i) from
    b_0 = gap(0); ``growth_rate`` is the largest -gap_rate(Rbar_i).  Only
    psi_b's states are stored: w is taken as psi_a is sampled.  The record
    holds ``gap`` and ``bound`` at every sample, and their largest values."""
    tb = integrate(theta, 0.0, horizon, params, spec, config)
    ta = integrate(theta_n, 0.0, horizon, params, spec, config,
                   keep_states=False, shifts=[h], reference=tb)
    gap = ta.gaps[:, 0]
    cert = drv.certificate(params, spec)
    env = _gronwall(max(ta.norms[0, 0], tb.norms[0]), cert.gamma - cert.g2_sup,
                    cert.g1_sup, ta.times)
    r_bar = np.maximum(env[:-1], env[1:])
    rates = cert.gap_rate(r_bar)
    dg1, dg2 = spec.g1.hull_gap(h), spec.g2.hull_gap(h)
    bound = [gap[0]]
    for rate, force, dt in zip(rates, dg1 + r_bar * dg2, np.diff(ta.times)):
        bound.append(float(_gronwall(bound[-1], rate, force, dt)))
    bound = np.array(bound)
    return {"ok": bool(np.all(gap <= bound + 1e-9 * (1 + bound))),
            "growth_rate": float(np.max(-rates)),
            "max_gap": float(np.max(gap)), "max_bound": float(np.max(bound)),
            "gap": gap.tolist(), "bound": bound.tolist()}


# ---------------------------------------------------------------------------
# correlation dimension (Grassberger-Procaccia)

def _dimension(slope: float, half: float, radii: np.ndarray,
               corr: np.ndarray, degenerate: bool) -> tuple[dict, np.ndarray]:
    ci_low, ci_high = slope - half, slope + half
    return ({"dimension": slope, "ci_low": ci_low, "ci_high": ci_high,
             "ci_width": ci_high - ci_low, "degenerate": degenerate},
            np.column_stack([radii, corr]))


def correlation_dimension(points: np.ndarray, theiler_window: int = 10,
                          resolution: float = 0.0) -> tuple[dict, np.ndarray]:
    """Correlation-integral dimension estimate of a point cloud: its record
    and the (radius, correlation) table, one row per radius.

    ``points`` is (n_points >= 100, dim) real.  C(eps) is the fraction of
    pairs closer than eps, excluding pairs of temporal index distance up to
    the Theiler window; the dimension is the log-log slope over the central
    scaling region, with a 95% confidence interval from the regression.
    A cloud whose pairs all lie within ``resolution`` (the error of the
    points) or round-off is one point: degenerate, dimension 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 100:
        raise DomainError("need at least 100 points")
    dists = _theiler_distances(pts, theiler_window)
    dists.sort()  # the maximum, the quantile and every count read it sorted
    dmax = float(dists[-1])
    if dmax <= max(resolution, 1e3 * np.finfo(float).eps
                   * max(1.0, float(np.max(np.abs(pts))))):
        radii = np.geomspace(1e-3, 1.0, 8)
        return _dimension(0.0, 0.0, radii, np.ones_like(radii), True)
    # the 0.2% quantile, by np.quantile's default (linear) rule bit for bit
    k = (dists.size - 1) * 0.002
    i = int(k)
    lo, hi, t = dists[i], dists[min(i + 1, dists.size - 1)], k - i
    q = float(lo + (hi - lo) * t if t < 0.5 else hi - (hi - lo) * (1 - t))
    radii = np.geomspace(max(q, 1e-12 * dmax), dmax, 32)
    corr = np.searchsorted(dists, radii) / dists.size  # fraction below each
    # fit on the scaling region: enough pairs for statistics, but well
    # below saturation; prefer the smallest usable decade (the dimension
    # is a small-radius limit)
    min_count = 50
    usable = (corr * dists.size >= min_count) & (corr < 0.2)
    if np.count_nonzero(usable) < 3:
        usable = (corr * dists.size >= 2) & (corr < 0.5)
    fit_r = radii[usable]
    if fit_r.size >= 3 and fit_r[-1] / fit_r[0] > 10.0:
        low = usable & (radii <= fit_r[0] * 10.0)
        if np.count_nonzero(low) >= 3:
            usable = low
    fit_r = radii[usable]  # ascending
    if fit_r.size < 2 or fit_r[0] == fit_r[-1]:
        # a section collapsed to one point up to round-off, with too few
        # pairs apart to fit a scaling region: dimension 0
        return _dimension(0.0, 0.0, radii, corr, True)
    fit_slope, _, stderr = line_fit(np.log(fit_r), np.log(corr[usable]))
    half = 1.96 * (stderr if stderr == stderr else 0.0)
    return _dimension(max(0.0, float(fit_slope)), half, radii, corr, False)


def _theiler_distances(pts: np.ndarray, window: int) -> np.ndarray:
    """Euclidean distances of the pairs i < j with j - i > window, in the
    order of scipy's pdist, one row i at a time.  With the coordinates
    along axis 0 each distance sums its squares in coordinate order, as
    pdist does."""
    n = pts.shape[0]
    if n <= window + 1:
        raise DomainError("Theiler window leaves no pairs")
    cols = np.ascontiguousarray(pts.T)
    sq = []
    for i in range(n - window - 1):
        d = cols[:, i + window + 1:] - cols[:, i, None]
        sq.append(np.einsum("ij,ij->j", d, d))
    return np.sqrt(np.concatenate(sq))


def poincare_points(params: ModelParams, spec: DrivingSpec, n_points: int,
                    section_period: float, n_sites: int = 64,
                    seed: int = 0, *, config: IntegratorConfig,
                    bc: str = DIRICHLET) -> tuple[np.ndarray, np.ndarray]:
    """Stroboscopic section of the driven dynamics: the states at the
    multiples of ``section_period`` T from the first one past a burn-in of
    T(1) + 20/Gamma, by when the trajectory has settled into the absorbing
    ball.  Returns their times (n_points,) and (n_points, 2*n_sites) real
    coordinates.

    The orbit is cut into B chunks of c points, stepped side by side as one
    batch (``integrate`` with hull shifts): member b starts from the orbit's
    initial state under the driving translated by b*c*T and runs for the
    burn-in plus c - 1 periods.  Where orbits from different states
    synchronize, as on dimension.json's model, member b's k-th point past
    the burn-in is the orbit's point b*c + k, so the points keep the
    orbit's order and the Theiler window its meaning.  ``_section_batch``
    picks B and c."""
    config = replace(config, sample_stride=section_period)
    pred = predict_absorbing(params, spec, r=1.0)
    burn = math.ceil((pred["entry_time"] + 20.0 / pred["gamma_eff"])
                     / section_period - 1e-9)  # in periods
    members, chunk = _section_batch(n_points, burn, n_sites)
    shifts = [b * chunk * section_period for b in range(members)]
    psi0 = random_state(n_sites, seed, norm=min(1.0, max(pred["radius"], 0.1)),
                        bc=bc)
    traj = integrate(psi0, 0.0, (burn + chunk - 1) * section_period, params,
                     spec, config, shifts=shifts)
    # sample burn + k of member b is point b*chunk + k: member-major order
    times = (traj.times[burn:, None] + shifts).T.reshape(-1)[:n_points]
    vals = traj.values[burn:].reshape(chunk, members, n_sites)
    vals = vals.transpose(1, 0, 2).reshape(-1, n_sites)[:n_points]
    return times, vals.view(np.float64)


# the most lattice sites, B members times N, that one section batch steps:
# up to about this size a step's cost is mostly its fixed overhead
_SECTION_SITES = 2048


def _section_batch(n_points: int, burn: int, n_sites: int) -> tuple[int, int]:
    """Members B and points per member c of a section of ``n_points`` after
    ``burn`` periods of burn-in at N = ``n_sites``.  B members step
    B*(burn + c) member-periods in burn + c steps of B*N sites, so B is
    about n_points/burn, which spends as many periods per member sampling
    as settling, within B*N <= _SECTION_SITES; B = 1 from N = 1025 on."""
    members = max(1, min(round(n_points / burn), _SECTION_SITES // n_sites))
    chunk = -(-n_points // members)
    return -(-n_points // chunk), chunk
