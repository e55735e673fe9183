"""Quantitative checks on the dissipative dynamics: a-priori norm bound,
absorbing ball, spatial tail decay, two-trajectory contraction, continuity
in the driving, and an empirical correlation-dimension estimate.

Each predict_* turns the closed-form constants into a prediction object;
the matching verify_* tests a simulated trajectory against it and reports
pass/fail with margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import driving as drv
from .driving import DrivingSpec
from .errors import DomainError, TruncationTooSmallError
from .integrator import IntegratorConfig, Trajectory, _gronwall, integrate
from .lattice import LatticeState, ModelParams, norm_sq, random_state


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

@dataclass
class BoundReport:
    ok: bool
    max_excess: float
    first_violation_t: float | None = None


def check_apriori_bound(traj: Trajectory, params: ModelParams,
                        spec: DrivingSpec) -> BoundReport:
    """||psi(t)||^2 <= e^{-Gt (t-t0)} ||psi(t0)||^2
    + (1 - e^{-Gt (t-t0)}) sup||g1||^2/Gt^2 at every sample, with slack
    1e-6*(1 + ||psi(t0)||^2): the dissipation inequality of
    ``monitor_dissipation`` integrated from t0 with the global sup||g1||.
    The bound meets the first sample, so ``max_excess`` is read after it."""
    cert = drv.certificate(params, spec).dissipative()
    gt, n0_sq = cert.gamma_tilde, traj.norms[0] ** 2
    bound = _gronwall(n0_sq, gt, cert.g1_sup ** 2 / gt, traj.times - traj.times[0])
    excess = traj.norms ** 2 - bound - 1e-6 * (1 + n0_sq)
    bad = np.nonzero(excess > 0)[0]
    return BoundReport(
        ok=bad.size == 0,
        max_excess=float(np.max(excess[min(1, excess.size - 1):])),
        first_violation_t=float(traj.times[bad[0]]) if bad.size else None,
    )


# ---------------------------------------------------------------------------
# absorbing ball

@dataclass
class AbsorbingPrediction:
    gamma_eff: float
    radius: float  # K, with K^2 = 2 sup||g1||^2 / Gamma^2
    entry_time: float  # T(r), clamped to >= 0


def predict_absorbing(params: ModelParams, spec: DrivingSpec,
                      r: float) -> AbsorbingPrediction:
    """Ball radius K and entry time T = 2 ln(Gamma r / sup||g1||)/Gamma
    for initial data of norm <= r; refused when T is not finite."""
    cert = drv.certificate(params, spec).dissipative()
    gamma_eff, g1_sup = cert.gamma_tilde, cert.g1_sup
    ratio = gamma_eff * r / g1_sup if g1_sup > 0 else math.inf
    entry = max(0.0, 2.0 * math.log(ratio) / gamma_eff) if r > 0 else 0.0
    if not math.isfinite(entry):
        raise DomainError(f"entry time into the absorbing ball is not finite "
                          f"(sup||g1|| = {g1_sup:.6g}, r = {r:.6g})")
    return AbsorbingPrediction(gamma_eff=gamma_eff,
                               radius=cert.absorbing_radius,
                               entry_time=entry)


@dataclass
class AbsorbingReport:
    ok: bool
    first_entry_t: float | None
    max_norm_after_entry: float
    predicted_entry_t: float
    radius: float


def verify_absorbing(traj: Trajectory,
                     pred: AbsorbingPrediction) -> AbsorbingReport:
    """Assert ||psi(t)|| <= K*(1 + 1e-6) for all samples past t0 + T."""
    t0 = traj.times[0]
    deadline = t0 + pred.entry_time
    if traj.times[-1] < deadline:
        raise DomainError(
            f"trajectory ends at t={traj.times[-1]:.6g}, before the "
            f"predicted entry time {deadline:.6g}")
    limit = pred.radius * (1 + 1e-6)
    inside = np.flatnonzero(traj.norms <= limit)
    first_entry = float(traj.times[inside[0]]) if inside.size else None
    after = traj.times >= deadline - 1e-12
    max_after = float(np.max(traj.norms[after])) if np.any(after) else 0.0
    ok = (first_entry is not None and first_entry <= deadline + 1e-12
          and max_after <= limit)
    return AbsorbingReport(ok=ok, first_entry_t=first_entry,
                           max_norm_after_entry=max_after,
                           predicted_entry_t=deadline, radius=pred.radius)


# ---------------------------------------------------------------------------
# tail decay

@dataclass
class TailPrediction:
    xi: float
    entry_time: float  # T(xi, r) = ln(2 r^2/xi)/Gamma, clamped to >= 0
    cutoff: int        # M(xi): driving tail beyond it is <= Gamma^2 xi / 2
    gamma_eff: float


def predict_tail(xi: float, r: float, params: ModelParams,
                 spec: DrivingSpec, n_sites: int) -> TailPrediction:
    if xi <= 0:
        raise DomainError("xi must be positive")
    gamma_eff = drv.certificate(params, spec).dissipative().gamma_tilde
    entry = max(0.0, math.log(2.0 * r * r / xi) / gamma_eff) if r > 0 else 0.0
    target = gamma_eff ** 2 * xi / 2.0
    amp1 = spec.g1.law.amp_bound()
    cutoff = 0
    while spec.g1.profile.tail_sq(cutoff) * amp1 ** 2 > target:
        cutoff += 1
        if cutoff >= n_sites // 2:
            raise TruncationTooSmallError(
                f"driving tail needs cutoff >= {cutoff}, but truncation has "
                f"only {n_sites // 2} sites per side")
    return TailPrediction(xi=xi, entry_time=entry, cutoff=cutoff,
                          gamma_eff=gamma_eff)


@dataclass
class TailReport:
    ok: bool
    max_tail_after_entry: float
    predicted_entry_t: float
    cutoff: int


def verify_tail(traj: Trajectory, pred: TailPrediction) -> TailReport:
    if traj.tails is None or traj.tail_cutoff != pred.cutoff:
        raise DomainError("trajectory lacks a tail series at the predicted cutoff")
    t0 = traj.times[0]
    deadline = t0 + pred.entry_time
    if traj.times[-1] < deadline:
        raise DomainError("trajectory shorter than the predicted tail entry time")
    after = traj.times >= deadline - 1e-12
    max_tail = float(np.max(traj.tails[after])) if np.any(after) else 0.0
    return TailReport(ok=max_tail <= pred.xi, max_tail_after_entry=max_tail,
                      predicted_entry_t=deadline, cutoff=pred.cutoff)


# ---------------------------------------------------------------------------
# two-trajectory contraction

@dataclass
class ContractionReport:
    fitted_rate: float     # slope of ln||w(t)|| (negative when contracting)
    predicted_rate: float  # gamma - a*r^b - sup||g2||
    ball_radius: float
    pass_: bool


def contraction_rate(params: ModelParams, spec: DrivingSpec, seeds,
                     horizon: float, n_sites: int = 256,
                     config: IntegratorConfig = IntegratorConfig()
                     ) -> ContractionReport:
    """Integrate two trajectories seeded inside the absorbing ball and fit
    the decay rate of their distance.  Pass iff the fitted decay is at
    least 95% of the predicted rate, the gap rate at R = K."""
    s0, s1 = seeds
    if s0 == s1:
        raise DomainError("seeds must differ (degenerate fit)")
    cert = drv.certificate(params, spec).dissipative()
    radius = cert.absorbing_radius
    predicted = cert.gap_rate(radius)
    if predicted <= 0:
        raise DomainError(
            f"damping too weak for contraction: gamma - a*K^b - sup||g2|| "
            f"= {predicted:.6g} <= 0")
    r_init = 0.9 * radius if radius > 0 else 0.5
    psi0 = random_state(n_sites, s0, norm=r_init)
    phi0 = random_state(n_sites, s1, norm=r_init)
    tp = integrate(psi0, 0.0, horizon, params, spec, config)
    tq = integrate(phi0, 0.0, horizon, params, spec, config)
    dist = np.array([math.sqrt(norm_sq(tp.values[i] - tq.values[i]))
                     for i in range(tp.n_samples)])
    # skip transients (first 20% of the window) and anything at noise level
    floor = 1e3 * config.rtol * max(1.0, radius)
    mask = (dist > floor) & (np.arange(dist.size) >= int(0.2 * dist.size))
    if np.count_nonzero(mask) < 3:
        raise DomainError("distance decayed to noise before the fit window")
    slope, _, _ = line_fit(tp.times[mask], np.log(dist[mask]))
    return ContractionReport(
        fitted_rate=float(slope), predicted_rate=float(predicted),
        ball_radius=radius, pass_=bool(slope <= -0.95 * predicted))


# ---------------------------------------------------------------------------
# continuity in initial data and driving

@dataclass
class ContinuityReport:
    ok: bool
    times: np.ndarray
    gap: np.ndarray
    bound: np.ndarray
    growth_rate: float


def continuity_gap(params: ModelParams, spec: DrivingSpec, h: float,
                   theta: LatticeState, theta_n: LatticeState, horizon: float,
                   config: IntegratorConfig = IntegratorConfig()) -> ContinuityReport:
    """Distance w = psi_a - psi_b of the evolution psi_a of ``theta_n``
    under the driving translated by ``h`` in its hull from psi_b, that of
    ``theta`` under ``spec``, against a Gronwall bound; needs no Gt > 0.

    Hopping and F are skew and Re<u, -i*g2*u> <= sup||g2||*||u||^2, so
    d/dt ||psi|| <= -(gamma - sup||g2||)*||psi|| + sup||g1||: both norms stay
    below its monotone envelope R(t) from max(||theta||, ||theta_n||), and
    R <= Rbar_i = max(R(t_i), R(t_{i+1})) between samples.  There, with
    g2a*psi_a - g2b*psi_b = g2a*w + (g2a - g2b)*psi_b and the gaps dg1, dg2
    of ``_driving_gap``, d/dt ||w|| <= -gap_rate(Rbar_i)*||w|| + dg1
    + Rbar_i*dg2, since for F = +-s^sigma pointwise
    Re(conj(x - y)*(-i)*(F(|x|^2)x - F(|y|^2)y)) = (F(|y|^2) - F(|x|^2))
    * Im(conj(y)*x) <= sigma*max(|x|, |y|)^{2 sigma}*|x - y|^2 (maximize
    over the phase, then |y|/|x|), and the growth bound of
    ``NonlinearitySpec`` forces b = 2 sigma and a >= sigma + 1/2, for every
    sigma (a user-set (a, b) is not checked).  So the bound is the recursion
    b_{i+1} = _gronwall(b_i, gap_rate(Rbar_i), dg1 + Rbar_i*dg2, dt_i) from
    b_0 = gap(0); ``growth_rate`` is the largest -gap_rate(Rbar_i)."""
    ta = integrate(theta_n, 0.0, horizon, params, drv.translate(spec, h),
                   config)
    tb = integrate(theta, 0.0, horizon, params, spec, config)
    gap = np.array([math.sqrt(norm_sq(ta.values[i] - tb.values[i]))
                    for i in range(ta.n_samples)])
    cert = drv.certificate(params, spec)
    env = _gronwall(max(ta.norms[0], tb.norms[0]), cert.gamma - cert.g2_sup,
                    cert.g1_sup, ta.times)
    r_bar = np.maximum(env[:-1], env[1:])
    rates = cert.gap_rate(r_bar)
    dg1, dg2 = _driving_gap(spec, h, ta.values.shape[1])
    bound = [gap[0]]
    for rate, force, dt in zip(rates, dg1 + r_bar * dg2, np.diff(ta.times)):
        bound.append(float(_gronwall(bound[-1], rate, force, dt)))
    bound = np.array(bound)
    ok = bool(np.all(gap <= bound + 1e-9 * (1 + bound)))
    return ContinuityReport(ok=ok, times=ta.times, gap=gap, bound=bound,
                            growth_rate=float(np.max(-rates)))


def _driving_gap(spec: DrivingSpec, h: float,
                 n_sites: int) -> tuple[float, float]:
    """sup_t ||g(t + h) - g(t)|| on the truncation, for g1 and for g2, in
    closed form: ||p|| * sum_j |a_j| * 2|sin(w_j h/2)|, from
    |cos(w(s+h)+phi) - cos(ws+phi)| <= 2|sin(wh/2)|."""
    return tuple(
        math.sqrt(norm_sq(f.profile.realize(n_sites)))
        * math.fsum(2.0 * abs(a * math.sin(w * h / 2.0))
                    for a, w in f.law.harmonics())
        for f in (spec.g1, spec.g2))


# ---------------------------------------------------------------------------
# correlation dimension (Grassberger-Procaccia)

@dataclass
class DimensionEstimate:
    slope: float
    ci_low: float
    ci_high: float
    radii: np.ndarray
    correlations: np.ndarray
    degenerate: bool = False

    @property
    def ci_width(self) -> float:
        return self.ci_high - self.ci_low


def correlation_dimension(points: np.ndarray,
                          theiler_window: int = 10) -> DimensionEstimate:
    """Correlation-integral dimension estimate of a point cloud.

    ``points`` is (n_points >= 100, dim) real.  C(eps) is the fraction of
    pairs closer than eps, excluding pairs of temporal index distance up to
    the Theiler window; the dimension is the log-log slope over the central
    scaling region, with a 95% confidence interval from the regression.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 100:
        raise DomainError("need at least 100 points")
    dists = _theiler_distances(pts, theiler_window)
    dmax = float(np.max(dists))
    if dmax <= 1e3 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(pts)))):
        radii = np.geomspace(1e-3, 1.0, 8)
        return DimensionEstimate(slope=0.0, ci_low=0.0, ci_high=0.0,
                                 radii=radii, correlations=np.ones_like(radii),
                                 degenerate=True)
    radii = np.geomspace(max(_quantile(dists, 0.002), 1e-12 * dmax), dmax, 32)
    corr = np.array([np.count_nonzero(dists < eps) for eps in radii],
                    dtype=float) / dists.size
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
        return DimensionEstimate(slope=0.0, ci_low=0.0, ci_high=0.0,
                                 radii=radii, correlations=corr,
                                 degenerate=True)
    fit_slope, _, stderr = line_fit(np.log(fit_r), np.log(corr[usable]))
    half = 1.96 * (stderr if stderr == stderr else 0.0)
    slope = max(0.0, float(fit_slope))
    return DimensionEstimate(slope=slope, ci_low=slope - half,
                             ci_high=slope + half, radii=radii,
                             correlations=corr)


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


def _quantile(x: np.ndarray, q: float) -> float:
    """np.quantile(x, q) by its default (linear) method, bit for bit,
    without the numpy.ma import np.quantile makes on first use."""
    k = (x.size - 1) * q
    i = int(k)
    j = min(i + 1, x.size - 1)
    part = np.partition(x, (i, j))
    a, b, t = part[i], part[j], k - i
    return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))


def poincare_points(params: ModelParams, spec: DrivingSpec, n_points: int,
                    section_period: float, n_sites: int = 64,
                    seed: int = 0,
                    config: IntegratorConfig | None = None) -> np.ndarray:
    """Stroboscopic section of the driven dynamics: states sampled once per
    ``section_period`` after a burn-in of T(1) + 20/Gamma, by when the
    trajectory has settled into the absorbing ball.  Returns
    (n_points, 2*n_sites) real coordinates."""
    if config is None:
        config = IntegratorConfig(rtol=1e-7, atol=1e-10)
    config = replace(config, sample_stride=section_period)
    pred = predict_absorbing(params, spec, r=1.0)
    burn_in = pred.entry_time + 20.0 / pred.gamma_eff
    psi0 = random_state(n_sites, seed, norm=min(1.0, max(pred.radius, 0.1)))
    t1 = burn_in + n_points * section_period
    traj = integrate(psi0, 0.0, t1, params, spec, config)
    keep = traj.times >= burn_in - 1e-9
    vals = traj.values[keep][-n_points:]
    return vals.view(np.float64).reshape(vals.shape[0], -1)
