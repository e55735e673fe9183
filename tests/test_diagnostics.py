"""Absorbing ball, tail, contraction, continuity and dimension checks."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dnls import (CosineLaw, DrivingField, DrivingSpec, IntegratorConfig,
                  LatticeState, ModelParams, NonlinearitySpec, SpatialProfile,
                  continuity_gap, contraction_rate, correlation_dimension,
                  integrate, predict_absorbing, predict_tail, translate,
                  verify_absorbing, verify_bounds, verify_tail)
from dnls import cli
from dnls import diagnostics as dg
from dnls.config import load_config
from dnls.diagnostics import _theiler_distances, line_fit
from dnls.errors import DomainError
from dnls.lattice import random_state

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def _unit_exp_profile(rate=1.0):
    # exponential profile scaled so its l^2 norm is exactly 1
    return SpatialProfile("exponential", rate=rate,
                          amplitude=1.0 / math.sqrt(1.0 / math.tanh(rate)))


def _scenario(gamma=2.0, g2_amp=0.25):
    g1 = DrivingField(_unit_exp_profile(), CosineLaw.periodic(period=2 * math.pi))
    g2 = DrivingField(SpatialProfile.single_site(g2_amp),
                      CosineLaw.constant(1.0))
    spec = DrivingSpec(g1=g1, g2=g2)
    params = ModelParams(kappa=1.0, gamma=gamma,
                         nonlinearity=NonlinearitySpec(sigma=1.0, sign=1))
    return params, spec


class TestAprioriBound:
    def test_holds_on_scenario(self):
        params, spec = _scenario()
        psi0 = random_state(64, 0, norm=3.0)
        traj = integrate(psi0, 0.0, 10.0, params, spec)
        assert verify_bounds(traj, params, spec)["apriori"]["ok"]

    def test_fails_on_inflated_norms(self):
        params, spec = _scenario()
        psi0 = random_state(64, 0, norm=3.0)
        traj = integrate(psi0, 0.0, 10.0, params, spec)
        bad = dataclasses.replace(traj, norms=traj.norms + 10.0)
        report = verify_bounds(bad, params, spec)
        apriori = report["apriori"]
        assert not apriori["ok"] and apriori["max_excess"] > 0
        assert report["pass"] is False


class TestAbsorbing:
    def test_prediction_formulas(self):
        params, spec = _scenario()
        pred = predict_absorbing(params, spec, r=5.0)
        assert pred["gamma_eff"] == pytest.approx(1.5)
        assert pred["radius"] == pytest.approx(math.sqrt(2.0) / 1.5)
        expect_t = math.log(1.5 ** 2 * 25.0) / 1.5
        assert pred["entry_time"] == pytest.approx(expect_t)

    def test_entry_time_clamped(self):
        params, spec = _scenario()
        pred = predict_absorbing(params, spec, r=1e-3)
        assert pred["entry_time"] == 0.0

    def test_verify_on_trajectory(self):
        params, spec = _scenario()
        pred = predict_absorbing(params, spec, r=3.0)
        psi0 = random_state(64, 0, norm=3.0)
        traj = integrate(psi0, 0.0, 3.0 * pred["entry_time"] + 2.0, params, spec)
        report = verify_absorbing(traj, pred)
        assert report["pass"]
        assert report["first_entry_t"] <= pred["entry_time"]
        assert report.items() >= pred.items()  # the command's whole record

    def test_verify_rejects_short_trajectory(self):
        params, spec = _scenario()
        pred = predict_absorbing(params, spec, r=100.0)
        psi0 = random_state(64, 0, norm=1.0)
        traj = integrate(psi0, 0.0, 0.5, params, spec)
        with pytest.raises(DomainError):
            verify_absorbing(traj, pred)

    def test_requires_positive_effective_damping(self):
        params, spec = _scenario(gamma=0.4)
        with pytest.raises(DomainError, match=r"need gamma > 2\*sup"):
            predict_absorbing(params, spec, r=1.0)

    def test_entry_time_for_tiny_forcing(self):
        # sup||g1||^2 is subnormal here: the entry time must not pass
        # through it
        params, _ = _scenario()
        tiny = DrivingSpec(g1=DrivingField(_unit_exp_profile(),
                                           CosineLaw.periodic(2 * math.pi, 1e-160)))
        pred = predict_absorbing(params, tiny, r=5.0)
        assert pred["entry_time"] == pytest.approx(
            2.0 * math.log(2.0 * 5.0 / 1e-160) / 2.0, rel=1e-12)


class TestTail:
    def test_cutoff_is_minimal(self):
        params, spec = _scenario()
        pred = predict_tail(1e-4, 1.0, params, spec, n_sites=256)
        target = pred["gamma_eff"] ** 2 * 1e-4 / 2.0
        amp = spec.g1.law.amp_bound()
        assert spec.g1.profile.tail_sq(pred["cutoff"]) * amp ** 2 <= target
        if pred["cutoff"] > 0:
            assert spec.g1.profile.tail_sq(pred["cutoff"] - 1) * amp ** 2 > target

    def test_entry_time_formula(self):
        params, spec = _scenario()
        pred = predict_tail(1e-4, 2.0, params, spec, n_sites=256)
        assert pred["entry_time"] == pytest.approx(math.log(2 * 4.0 / 1e-4) / 1.5)

    def test_truncation_too_small(self):
        params, spec = _scenario()
        with pytest.raises(DomainError, match="truncation has only"):
            predict_tail(1e-30, 1.0, params, spec, n_sites=8)

    def test_verify_round_trip(self):
        params, spec = _scenario()
        pred = predict_tail(1e-3, 1.0, params, spec, n_sites=128)
        psi0 = random_state(128, 0, norm=1.0)
        traj = integrate(psi0, 0.0, 2.0 * pred["entry_time"] + 2.0, params, spec,
                         tail_cutoff=pred["cutoff"])
        report = verify_tail(traj, pred)
        assert report["pass"] and report.items() >= pred.items()
        inflated = dataclasses.replace(traj, tails=traj.tails + 1.0)
        assert not verify_tail(inflated, pred)["pass"]

    def test_verify_needs_matching_cutoff(self):
        params, spec = _scenario()
        pred = predict_tail(1e-3, 1.0, params, spec, n_sites=128)
        psi0 = random_state(128, 0, norm=1.0)
        traj = integrate(psi0, 0.0, 2.0 * pred["entry_time"] + 2.0, params, spec)
        with pytest.raises(DomainError):
            verify_tail(traj, pred)

    def test_verify_rejects_short_trajectory(self):
        params, spec = _scenario()
        pred = predict_tail(1e-3, 100.0, params, spec, n_sites=64)
        traj = integrate(random_state(64, 0, norm=1.0), 0.0, 0.5, params,
                         spec, tail_cutoff=pred["cutoff"])
        with pytest.raises(DomainError, match="before the predicted entry"):
            verify_tail(traj, pred)


class TestContraction:
    def test_linear_rate_matches_gamma(self):
        g1 = DrivingField(_unit_exp_profile(), CosineLaw.periodic(period=2 * math.pi))
        spec = DrivingSpec(g1=g1)
        params = ModelParams(kappa=1.0, gamma=1.0)
        report = contraction_rate(params, spec, seeds=(1, 2), horizon=6.0,
                                  n_sites=64)
        # F = 0 and g2 = 0: ||w(t)|| = e^{-gamma t}||w(0)||, the bound itself
        assert report["pass"] and report["growth_rate"] == -1.0
        ratio = np.divide(report["gap"], report["bound"])
        assert np.max(np.abs(ratio[1:] - 1.0)) <= 1e-6

    def test_rejects_equal_seeds(self):
        params, spec = _scenario()
        with pytest.raises(DomainError):
            contraction_rate(params, spec, seeds=(1, 1), horizon=1.0)

    def test_rejects_weak_contraction(self):
        # gamma barely above 2*sup||g2|| but below a*K^b + sup||g2||
        g1 = DrivingField(SpatialProfile("exponential", rate=0.5,
                                         amplitude=3.0), CosineLaw.constant(1.0))
        spec = DrivingSpec(g1=g1)
        params = ModelParams(kappa=1.0, gamma=1.0,
                             nonlinearity=NonlinearitySpec(sigma=1.0, sign=1))
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
        assert report["ok"]
        assert report["gap"][0] == pytest.approx(1e-3, rel=1e-10)

    def test_gap_scales_linearly_in_initial_distance(self):
        g1 = DrivingField(_unit_exp_profile(), CosineLaw.periodic(period=2 * math.pi))
        spec = DrivingSpec(g1=g1)
        params = ModelParams(kappa=1.0, gamma=1.0)
        theta = random_state(64, 5, norm=0.5)
        bump = random_state(64, 6, norm=1e-3)
        full = LatticeState(theta.values + bump.values)
        half = LatticeState(theta.values + 0.5 * bump.values)
        r_full = continuity_gap(params, spec, 0.0, theta, full, horizon=2.0)
        r_half = continuity_gap(params, spec, 0.0, theta, half, horizon=2.0)
        assert r_half["gap"][-1] / r_full["gap"][-1] == pytest.approx(0.5, rel=1e-6)

    def test_runs_without_positive_effective_damping(self):
        # gamma = 0.4 < 2*sup||g2|| = 0.5: no dissipative estimate holds,
        # but the Gronwall bound needs none
        params, spec = _scenario(gamma=0.4)
        theta = random_state(64, 5, norm=0.5)
        bump = random_state(64, 6, norm=1e-3)
        report = continuity_gap(params, spec, 0.01, theta,
                                LatticeState(theta.values + bump.values),
                                horizon=1.0)
        assert report["ok"] and report["gap"][0] == pytest.approx(1e-3, rel=1e-10)
        with pytest.raises(DomainError, match=r"need gamma > 2\*sup"):
            predict_absorbing(params, spec, r=0.5)


class TestPairReports:
    """The pair checks store both trajectories on the same sample times;
    their reports' gaps equal the distances of the stored states taken
    with numpy's own norm, sample by sample."""

    @pytest.mark.parametrize("command", ["contraction", "continuity"])
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_equal_those_of_two_stored_runs(self, tmp_path, monkeypatch,
                                            command, bc):
        data = json.loads((CONFIGS / "absorbing.json").read_text())
        data["lattice"]["bc"] = bc
        path = tmp_path / "absorbing.json"
        path.write_text(json.dumps(data))
        runs = []
        real = dg.integrate

        def stored(*args, **kwargs):
            runs.append((kwargs.get("shifts"), real(*args, **kwargs)))
            return runs[-1][1]
        monkeypatch.setattr(dg, "integrate", stored)
        out = tmp_path / "report.json"
        assert cli.main([command, "--config", str(path),
                         "--json", str(out)]) == cli.EXIT_PASS
        report = json.loads(out.read_text())

        (no_shift, tb), (shifts, ta) = runs
        assert no_shift is None and len(shifts) == 1
        assert np.array_equal(ta.times, tb.times)
        assert ta.values.shape == (tb.n_samples, 1) + tb.values.shape[1:]
        gap = np.linalg.norm(ta.values[:, 0] - tb.values, axis=1)
        assert len(report["gap"]) == tb.n_samples
        np.testing.assert_allclose(report["gap"], gap, rtol=1e-12, atol=0)
        assert report["max_gap"] == max(report["gap"])
        assert report["bound"][0] == report["gap"][0]


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
        assert report["ok"]
        assert report["bound"][0] == report["gap"][0]

    def test_flags_driving_gap_too_small(self, tmp_path, monkeypatch):
        # ``dnls continuity`` on absorbing.json with driving_shift 0.5
        data = json.loads((CONFIGS / "absorbing.json").read_text())
        data["scenario"]["driving_shift"] = 0.5
        path = tmp_path / "absorbing.json"
        path.write_text(json.dumps(data))
        argv = ["continuity", "--config", str(path)]
        assert cli.main(argv) == cli.EXIT_PASS
        honest = DrivingField.hull_gap
        monkeypatch.setattr(DrivingField, "hull_gap",
                            lambda g, h: 0.1 * honest(g, h))
        assert cli.main(argv) == cli.EXIT_CHECK_FAILED


class TestDrivingGap:
    @staticmethod
    def _scan(fa, fb, n_sites, t1):
        # dense scan of ||a(t) pa - b(t) pb|| on 10^5 points of [0, t1],
        # expanded through the Gram matrix of the two profiles
        pa, pb = fa.profile.realize(n_sites), fb.profile.realize(n_sites)
        ts = np.linspace(0.0, t1, 10 ** 5)
        a = np.array([fa.law(t) for t in ts])
        b = np.array([fb.law(t) for t in ts])
        sq = (a * a * np.vdot(pa, pa).real + b * b * np.vdot(pb, pb).real
              - 2 * a * b * np.vdot(pa, pb).real)
        return math.sqrt(max(float(np.max(sq)), 0.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_translation_bound_covers_dense_scan(self, seed):
        rng = np.random.default_rng(seed)
        laws = [CosineLaw.periodic(period=rng.uniform(1.0, 10.0),
                                   amplitude=rng.normal(),
                                   phase=rng.uniform(0, 2 * np.pi)),
                CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                                   amplitudes=tuple(rng.normal(size=2)),
                                   phases=tuple(rng.uniform(0, 2 * np.pi, 2)))]
        for law in laws:
            profile = _unit_exp_profile(rng.uniform(0.5, 2.0))
            g1 = DrivingField(profile,
                              CosineLaw(law.shifted(rng.uniform(-5.0, 5.0))))
            spec = DrivingSpec(g1=g1)
            h = rng.uniform(-10.0, 10.0)
            shifted = translate(spec, h)
            d1, d2 = spec.g1.hull_gap(h), spec.g2.hull_gap(h)
            scan = self._scan(spec.g1, shifted.g1, 64, 20.0)
            assert d2 == 0.0
            assert d1 >= scan * (1 - 1e-12)
            assert d1 <= 1.01 * scan + 1e-12

    def test_translation_closed_forms(self):
        profile = _unit_exp_profile()
        periodic = DrivingField(profile, CosineLaw.periodic(period=4.0,
                                                            amplitude=-0.7))
        constant = DrivingField(profile, CosineLaw.constant(0.3))
        spec = DrivingSpec(g1=periodic, g2=constant)
        d1, d2 = spec.g1.hull_gap(1.3), spec.g2.hull_gap(1.3)
        norm = math.sqrt(profile.l2_norm_sq())
        assert d1 == pytest.approx(norm * 2 * 0.7 * abs(math.sin(math.pi * 1.3 / 4.0)),
                                   rel=1e-14)
        assert d2 == 0.0

    def test_translation_gap_uses_the_lattice_norm(self):
        # a slow exponential keeps most of its mass off a 16-site
        # truncation: the gap takes the norm on the whole lattice, as the
        # sup norms of the certificate do, not the truncated one
        profile = SpatialProfile("exponential", rate=0.01)
        law = CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                                 amplitudes=(0.6, -0.3))
        h = 0.7
        terms = sum(2 * abs(a * math.sin(w * h / 2)) for a, w, _ in law.terms)
        gap = DrivingField(profile, law).hull_gap(h)
        assert gap == pytest.approx(math.sqrt(1 / math.tanh(0.01)) * terms,
                                    rel=1e-14)
        assert gap > 2 * np.linalg.norm(profile.realize(16)) * terms


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
        # the radii span np.quantile's 0.2% quantile to the largest
        # distance, and each count is that of the pairs below the radius;
        # the quantile's fractional index is 0.90, 0.46, 0.26 and 0.59, so
        # both branches of the linear rule run
        rng = np.random.default_rng(3)
        for n, window in ((100, 0), (150, 10), (257, 3), (501, 10)):
            pts = rng.exponential(size=(n, 3))
            dists = _theiler_distances(pts, window)
            _, table = correlation_dimension(pts, theiler_window=window)
            radii, correlations = table.T
            assert radii[0] == np.quantile(dists, 0.002)
            assert radii[-1] == np.max(dists)
            counts = [np.count_nonzero(dists < eps) for eps in radii]
            assert np.array_equal(correlations, np.array(counts) / dists.size)


class TestCorrelationDimension:
    def test_circle(self):
        rng = np.random.default_rng(0)
        ang = rng.uniform(0, 2 * np.pi, 1500)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        est, _ = correlation_dimension(pts, theiler_window=0)
        assert est["dimension"] == pytest.approx(1.0, abs=0.1)
        assert est["ci_width"] < 0.5

    def test_disc(self):
        rng = np.random.default_rng(1)
        r = np.sqrt(rng.uniform(0, 1, 2000))
        ang = rng.uniform(0, 2 * np.pi, 2000)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        est, _ = correlation_dimension(pts, theiler_window=0)
        assert est["dimension"] == pytest.approx(2.0, abs=0.15)

    def test_degenerate_cloud(self):
        pts = np.zeros((200, 3))
        est, _ = correlation_dimension(pts, theiler_window=0)
        assert est["degenerate"] and est["dimension"] == 0.0

    def test_one_point_apart_is_degenerate(self):
        # a section synchronized up to round-off with one point off by
        # 1e-10: 98% of the pairs are at distance 0, so no radius has a
        # scaling region to fit
        pts = np.ones((120, 3))
        pts[50, 0] += 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, _ = correlation_dimension(pts, theiler_window=10)
        assert est["degenerate"] and est["dimension"] == 0.0 and est["ci_width"] == 0.0

    def test_spread_within_the_resolution_is_one_point(self):
        # noise of 1e-9 around one point: fitted as a cloud of its own,
        # unless the points are known to carry errors of 1e-7
        pts = 0.3 + 1e-9 * np.random.default_rng(3).normal(size=(200, 4))
        assert not correlation_dimension(pts)[0]["degenerate"]
        est, _ = correlation_dimension(pts, resolution=1e-7)
        assert est["degenerate"] and est["dimension"] == 0.0

    def test_needs_enough_points(self):
        with pytest.raises(DomainError):
            correlation_dimension(np.zeros((10, 2)))

    def test_theiler_window_can_exhaust_pairs(self):
        pts = np.random.default_rng(2).normal(size=(120, 2))
        with pytest.raises(DomainError):
            correlation_dimension(pts, theiler_window=500)


class TestSection:
    """``poincare_points`` on dimension.json's model at N = 16, whose
    burn-in is 20/Gamma = 40, between the 6th and 7th multiple of 2*pi."""

    T = 2 * math.pi

    @pytest.fixture(autouse=True)
    def _integrate_calls(self, monkeypatch):
        """Record the hull shifts of each ``integrate`` call."""
        self.shifts = []

        def spy(*args, shifts=None, **kwargs):
            self.shifts.append(shifts)
            return integrate(*args, shifts=shifts, **kwargs)
        monkeypatch.setattr(dg, "integrate", spy)

    def _section(self, n_points, driving=None):
        cfg = load_config(CONFIGS / "dimension.json")
        return dg.poincare_points(cfg.model, driving or cfg.driving, n_points,
                                  n_sites=16, seed=0,
                                  config=IntegratorConfig(rtol=1e-7,
                                                          atol=1e-10))

    @pytest.mark.parametrize("profile, law", [
        (_unit_exp_profile(), CosineLaw.constant(0.5)),
        (SpatialProfile("exponential", amplitude=0.0, rate=1.0),
         CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                            amplitudes=(1.0, 0.8)))],
        ids=["constant-law", "zero-field"])
    def test_refuses_a_driving_with_no_period(self, profile, law):
        # constant laws only, or a harmonic sum on a field of zero norm,
        # which sets no period: nothing to sample at, refused before
        # stepping
        with pytest.raises(DomainError) as err:
            self._section(5, DrivingSpec(g1=DrivingField(profile, law)))
        assert str(err.value) == (
            'driving has no period: no field of nonzero norm has a '
            'periodic law (kind "periodic" in driving.g1.law or '
            'driving.g2.law)')
        assert self.shifts == []

    @pytest.mark.parametrize("n_points, batched", [(5, False), (100, True)])
    def test_times_are_consecutive_multiples_of_the_period(self, n_points,
                                                           batched):
        # one orbit, and one batch: the last point is on the grid too, not
        # at burn-in + n_points*T
        times, points = self._section(n_points)
        [shifts] = self.shifts
        if batched:  # B chunks of c points: shift b is b*c*T
            c = round(shifts[1] / self.T)
            assert shifts == [b * c * self.T for b in range(len(shifts))]
            assert (len(shifts) - 1) * c < n_points <= len(shifts) * c
        else:  # one orbit: a batch of one
            assert shifts == [0.0]
        k = times / self.T
        assert np.max(np.abs(k - np.rint(k))) <= 1e-12 * k[-1]
        assert np.array_equal(np.diff(np.rint(k)), np.ones(n_points - 1))
        assert np.rint(k[0]) == 7 and points.shape == (n_points, 32)

    def test_chunked_section_matches_one_long_orbit(self):
        times, points = self._section(100)
        assert len(self.shifts[0]) > 1
        k = np.rint(times / self.T).astype(int)
        cfg = load_config(CONFIGS / "dimension.json")
        orbit = integrate(random_state(16, 0, norm=1.0), 0.0, k[-1] * self.T,
                          cfg.model, cfg.driving,
                          IntegratorConfig(rtol=1e-7, atol=1e-10,
                                           sample_stride=self.T))
        ref = orbit.values[k].view(np.float64)
        assert np.max(np.linalg.norm(points - ref, axis=1)) <= 1e-6
