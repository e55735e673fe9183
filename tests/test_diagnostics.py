"""Absorbing ball, tail, contraction, continuity and dimension checks."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dnls import (ConstantLaw, DrivingField, DrivingSpec, HarmonicSumLaw,
                  IntegratorConfig,
                  LatticeState, ModelParams, NonlinearitySpec, PeriodicLaw,
                  SpatialProfile, check_apriori_bound, continuity_gap,
                  contraction_rate, correlation_dimension, integrate,
                  predict_absorbing, predict_tail, translate, verify_absorbing,
                  verify_tail)
from dnls import cli
from dnls import diagnostics as dg
from dnls.config import load_config
from dnls.diagnostics import (_driving_gap, _quantile, _theiler_distances,
                              line_fit)
from dnls.errors import (DampingTooWeakError, DomainError,
                         TruncationTooSmallError)
from dnls.lattice import random_state

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def _unit_exp_profile(rate=1.0):
    # exponential profile scaled so its l^2 norm is exactly 1
    return SpatialProfile("exponential", rate=rate,
                          amplitude=1.0 / math.sqrt(1.0 / math.tanh(rate)))


def _scenario(gamma=2.0, g2_amp=0.25):
    g1 = DrivingField(_unit_exp_profile(), PeriodicLaw(period=2 * math.pi))
    g2 = DrivingField(SpatialProfile("single_site", amplitude=g2_amp),
                      ConstantLaw(1.0))
    spec = DrivingSpec(g1=g1, g2=g2)
    params = ModelParams(kappa=1.0, gamma=gamma,
                         nonlinearity=NonlinearitySpec.cubic())
    return params, spec


class TestAprioriBound:
    def test_holds_on_scenario(self):
        params, spec = _scenario()
        psi0 = random_state(64, 0, norm=3.0)
        traj = integrate(psi0, 0.0, 10.0, params, spec)
        assert check_apriori_bound(traj, params, spec).ok

    def test_fails_on_inflated_norms(self):
        params, spec = _scenario()
        psi0 = random_state(64, 0, norm=3.0)
        traj = integrate(psi0, 0.0, 10.0, params, spec)
        bad = dataclasses.replace(traj, norms=traj.norms + 10.0)
        report = check_apriori_bound(bad, params, spec)
        assert not report.ok and report.first_violation_t is not None


class TestAbsorbing:
    def test_prediction_formulas(self):
        params, spec = _scenario()
        pred = predict_absorbing(params, spec, r=5.0)
        assert pred.gamma_eff == pytest.approx(1.5)
        assert pred.radius == pytest.approx(math.sqrt(2.0) / 1.5)
        expect_t = math.log(1.5 ** 2 * 25.0) / 1.5
        assert pred.entry_time == pytest.approx(expect_t)

    def test_entry_time_clamped(self):
        params, spec = _scenario()
        pred = predict_absorbing(params, spec, r=1e-3)
        assert pred.entry_time == 0.0

    def test_verify_on_trajectory(self):
        params, spec = _scenario()
        pred = predict_absorbing(params, spec, r=3.0)
        psi0 = random_state(64, 0, norm=3.0)
        traj = integrate(psi0, 0.0, 3.0 * pred.entry_time + 2.0, params, spec)
        report = verify_absorbing(traj, pred)
        assert report.ok
        assert report.first_entry_t <= report.predicted_entry_t

    def test_verify_rejects_short_trajectory(self):
        params, spec = _scenario()
        pred = predict_absorbing(params, spec, r=100.0)
        psi0 = random_state(64, 0, norm=1.0)
        traj = integrate(psi0, 0.0, 0.5, params, spec)
        with pytest.raises(DomainError):
            verify_absorbing(traj, pred)

    def test_requires_positive_effective_damping(self):
        params, spec = _scenario(gamma=0.4)
        with pytest.raises(DampingTooWeakError):
            predict_absorbing(params, spec, r=1.0)

    def test_entry_time_for_tiny_forcing(self):
        # sup||g1||^2 is subnormal here: the entry time must not pass
        # through it
        params, _ = _scenario()
        tiny = DrivingSpec(g1=DrivingField(_unit_exp_profile(),
                                           PeriodicLaw(2 * math.pi, 1e-160)))
        pred = predict_absorbing(params, tiny, r=5.0)
        assert pred.entry_time == pytest.approx(
            2.0 * math.log(2.0 * 5.0 / 1e-160) / 2.0, rel=1e-12)


class TestTail:
    def test_cutoff_is_minimal(self):
        params, spec = _scenario()
        pred = predict_tail(1e-4, 1.0, params, spec, n_sites=256)
        target = pred.gamma_eff ** 2 * 1e-4 / 2.0
        amp = spec.g1.law.amp_bound()
        assert spec.g1.profile.tail_sq(pred.cutoff) * amp ** 2 <= target
        if pred.cutoff > 0:
            assert spec.g1.profile.tail_sq(pred.cutoff - 1) * amp ** 2 > target

    def test_entry_time_formula(self):
        params, spec = _scenario()
        pred = predict_tail(1e-4, 2.0, params, spec, n_sites=256)
        assert pred.entry_time == pytest.approx(math.log(2 * 4.0 / 1e-4) / 1.5)

    def test_truncation_too_small(self):
        params, spec = _scenario()
        with pytest.raises(TruncationTooSmallError):
            predict_tail(1e-30, 1.0, params, spec, n_sites=8)

    def test_verify_round_trip(self):
        params, spec = _scenario()
        pred = predict_tail(1e-3, 1.0, params, spec, n_sites=128)
        psi0 = random_state(128, 0, norm=1.0)
        traj = integrate(psi0, 0.0, 2.0 * pred.entry_time + 2.0, params, spec,
                         tail_cutoff=pred.cutoff)
        assert verify_tail(traj, pred).ok
        inflated = dataclasses.replace(traj, tails=traj.tails + 1.0)
        assert not verify_tail(inflated, pred).ok

    def test_verify_needs_matching_cutoff(self):
        params, spec = _scenario()
        pred = predict_tail(1e-3, 1.0, params, spec, n_sites=128)
        psi0 = random_state(128, 0, norm=1.0)
        traj = integrate(psi0, 0.0, 2.0 * pred.entry_time + 2.0, params, spec)
        with pytest.raises(DomainError):
            verify_tail(traj, pred)


class TestContraction:
    def test_linear_rate_matches_gamma(self):
        g1 = DrivingField(_unit_exp_profile(), PeriodicLaw(period=2 * math.pi))
        spec = DrivingSpec(g1=g1)
        params = ModelParams(kappa=1.0, gamma=1.0)
        report = contraction_rate(params, spec, seeds=(1, 2), horizon=6.0,
                                  n_sites=64)
        assert report.pass_
        assert report.fitted_rate == pytest.approx(-1.0, rel=2e-2)

    def test_rejects_equal_seeds(self):
        params, spec = _scenario()
        with pytest.raises(DomainError):
            contraction_rate(params, spec, seeds=(1, 1), horizon=1.0)

    def test_rejects_weak_contraction(self):
        # gamma barely above 2*sup||g2|| but below a*K^b + sup||g2||
        g1 = DrivingField(SpatialProfile("exponential", rate=0.5,
                                         amplitude=3.0), ConstantLaw(1.0))
        spec = DrivingSpec(g1=g1)
        params = ModelParams(kappa=1.0, gamma=1.0,
                             nonlinearity=NonlinearitySpec.cubic())
        with pytest.raises(DomainError):
            contraction_rate(params, spec, seeds=(1, 2), horizon=1.0)


class TestContinuity:
    def test_gap_within_gronwall_bound(self):
        params, spec = _scenario()
        theta = random_state(64, 5, norm=0.5)
        bump = random_state(64, 6, norm=1e-3)
        theta_n = LatticeState(theta.values + bump.values)
        report = continuity_gap(params, spec, 0.01, theta, theta_n,
                                horizon=3.0)
        assert report.ok
        assert report.gap[0] == pytest.approx(1e-3, rel=1e-10)

    def test_gap_scales_linearly_in_initial_distance(self):
        g1 = DrivingField(_unit_exp_profile(), PeriodicLaw(period=2 * math.pi))
        spec = DrivingSpec(g1=g1)
        params = ModelParams(kappa=1.0, gamma=1.0)
        theta = random_state(64, 5, norm=0.5)
        bump = random_state(64, 6, norm=1e-3)
        full = LatticeState(theta.values + bump.values)
        half = LatticeState(theta.values + 0.5 * bump.values)
        r_full = continuity_gap(params, spec, 0.0, theta, full, horizon=2.0)
        r_half = continuity_gap(params, spec, 0.0, theta, half, horizon=2.0)
        assert r_half.gap[-1] / r_full.gap[-1] == pytest.approx(0.5, rel=1e-6)

    def test_runs_without_positive_effective_damping(self):
        # gamma = 0.4 < 2*sup||g2|| = 0.5: no dissipative estimate holds,
        # but the Gronwall bound needs none
        params, spec = _scenario(gamma=0.4)
        theta = random_state(64, 5, norm=0.5)
        bump = random_state(64, 6, norm=1e-3)
        report = continuity_gap(params, spec, 0.01, theta,
                                LatticeState(theta.values + bump.values),
                                horizon=1.0)
        assert report.ok and report.gap[0] == pytest.approx(1e-3, rel=1e-10)
        with pytest.raises(DampingTooWeakError):
            predict_absorbing(params, spec, r=0.5)


class TestContinuityBound:
    """The recursion bound holds over a grid of models, and a driving gap
    taken too small is caught."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("gamma", [0.4, 2.0])
    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("h", [0.0, 0.3])
    def test_bound_holds(self, sigma, sign, gamma, radius, h):
        cfg = load_config(CONFIGS / "absorbing.json")
        params = ModelParams(kappa=1.0, gamma=gamma,
                             nonlinearity=NonlinearitySpec(sigma, sign))
        theta = random_state(64, 0, norm=radius)
        bump = random_state(64, 1, norm=1e-3)
        report = continuity_gap(params, cfg.driving, h, theta,
                                LatticeState(theta.values + bump.values),
                                horizon=3.0)
        assert report.ok
        assert report.bound[0] == report.gap[0]

    def test_flags_driving_gap_too_small(self, tmp_path, monkeypatch):
        # ``dnls continuity`` on absorbing.json with driving_shift 0.5
        data = json.loads((CONFIGS / "absorbing.json").read_text())
        data["scenario"]["driving_shift"] = 0.5
        path = tmp_path / "absorbing.json"
        path.write_text(json.dumps(data))
        argv = ["continuity", "--config", str(path)]
        assert cli.main(argv) == cli.EXIT_PASS
        honest = dg._driving_gap
        monkeypatch.setattr(dg, "_driving_gap",
                            lambda *a: tuple(0.1 * d for d in honest(*a)))
        assert cli.main(argv) == cli.EXIT_CHECK_FAILED


class TestDrivingGap:
    @staticmethod
    def _scan(fa, fb, n_sites, t1):
        # dense scan of ||a(t) pa - b(t) pb|| on 10^5 points of [0, t1],
        # expanded through the Gram matrix of the two profiles
        pa, pb = fa.profile.realize(n_sites), fb.profile.realize(n_sites)
        ts = np.linspace(0.0, t1, 10 ** 5)
        a = np.array([fa.scalar(t) for t in ts])
        b = np.array([fb.scalar(t) for t in ts])
        sq = (a * a * np.vdot(pa, pa).real + b * b * np.vdot(pb, pb).real
              - 2 * a * b * np.vdot(pa, pb).real)
        return math.sqrt(max(float(np.max(sq)), 0.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_translation_bound_covers_dense_scan(self, seed):
        rng = np.random.default_rng(seed)
        laws = [PeriodicLaw(period=rng.uniform(1.0, 10.0),
                            amplitude=rng.normal(),
                            phase=rng.uniform(0, 2 * np.pi)),
                HarmonicSumLaw(frequencies=(1.0, math.sqrt(2.0)),
                               amplitudes=tuple(rng.normal(size=2)),
                               phases=tuple(rng.uniform(0, 2 * np.pi, 2)))]
        for law in laws:
            g1 = DrivingField(_unit_exp_profile(rng.uniform(0.5, 2.0)), law,
                              offset=rng.uniform(-5.0, 5.0))
            spec = DrivingSpec(g1=g1)
            h = rng.uniform(-10.0, 10.0)
            shifted = translate(spec, h)
            d1, d2 = _driving_gap(spec, h, 64)
            scan = self._scan(spec.g1, shifted.g1, 64, 20.0)
            assert d2 == 0.0
            assert d1 >= scan * (1 - 1e-12)
            assert d1 <= 1.01 * scan + 1e-12

    def test_translation_closed_forms(self):
        profile = _unit_exp_profile()
        periodic = DrivingField(profile, PeriodicLaw(period=4.0,
                                                     amplitude=-0.7))
        constant = DrivingField(profile, ConstantLaw(0.3))
        spec = DrivingSpec(g1=periodic, g2=constant)
        d1, d2 = _driving_gap(spec, 1.3, 64)
        norm = np.linalg.norm(profile.realize(64))
        assert d1 == pytest.approx(norm * 2 * 0.7 * abs(math.sin(math.pi * 1.3 / 4.0)),
                                   rel=1e-14)
        assert d2 == 0.0


class TestLineFit:
    @pytest.mark.parametrize("n", [2, 3, 10, 200])
    def test_matches_linregress_bit_for_bit(self, n):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(n)
        cases = [(rng.normal(size=n), rng.normal(size=n)) for _ in range(50)]
        x = np.arange(n)
        cases += [(x, 0.5 - 0.25 * x), (x, np.full(n, 1.5)),
                  (x, rng.normal(size=n))]
        for x, y in cases:
            ref = stats.linregress(x, y)
            np.testing.assert_array_equal(
                line_fit(x, y), (ref.slope, ref.rvalue, ref.stderr))

    def test_needs_distinct_x(self):
        with pytest.raises(DomainError):
            line_fit(np.ones(5), np.arange(5.0))


class TestPairDistances:
    @pytest.mark.parametrize("dim, window", [(2, 0), (7, 3), (128, 10)])
    def test_match_filtered_pdist(self, dim, window):
        distance = pytest.importorskip("scipy.spatial.distance")
        pts = np.random.default_rng(dim).normal(size=(300, dim))
        ii, jj = np.triu_indices(len(pts), k=1)
        ref = distance.pdist(pts)[(jj - ii) > window]
        got = _theiler_distances(pts, window)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))

    def test_quantile_matches_numpy(self):
        rng = np.random.default_rng(3)
        for size in (1, 2, 3, 10, 501, 4096):
            x = rng.exponential(size=size)
            for q in (0.0, 0.002, 0.25, 0.5, 0.7, 1.0):
                assert _quantile(x.copy(), q) == np.quantile(x, q)


class TestCorrelationDimension:
    def test_circle(self):
        rng = np.random.default_rng(0)
        ang = rng.uniform(0, 2 * np.pi, 1500)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        est = correlation_dimension(pts, theiler_window=0)
        assert est.slope == pytest.approx(1.0, abs=0.1)
        assert est.ci_width < 0.5

    def test_disc(self):
        rng = np.random.default_rng(1)
        r = np.sqrt(rng.uniform(0, 1, 2000))
        ang = rng.uniform(0, 2 * np.pi, 2000)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        est = correlation_dimension(pts, theiler_window=0)
        assert est.slope == pytest.approx(2.0, abs=0.15)

    def test_degenerate_cloud(self):
        pts = np.zeros((200, 3))
        est = correlation_dimension(pts, theiler_window=0)
        assert est.degenerate and est.slope == 0.0

    def test_one_point_apart_is_degenerate(self):
        # a section synchronized up to round-off with one point off by
        # 1e-10: 98% of the pairs are at distance 0, so no radius has a
        # scaling region to fit
        pts = np.ones((120, 3))
        pts[50, 0] += 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = correlation_dimension(pts, theiler_window=10)
        assert est.degenerate and est.slope == 0.0 and est.ci_width == 0.0

    def test_needs_enough_points(self):
        with pytest.raises(DomainError):
            correlation_dimension(np.zeros((10, 2)))

    def test_theiler_window_can_exhaust_pairs(self):
        pts = np.random.default_rng(2).normal(size=(120, 2))
        with pytest.raises(DomainError):
            correlation_dimension(pts, theiler_window=500)
