"""Periodic breather solver and its verification."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dnls.breather
from dnls import (CosineLaw, DrivingField, DrivingSpec, LatticeState,
                  ModelParams, NonlinearitySpec, SpatialProfile,
                  certificate, find_breather, period_map, translate,
                  verify_breather)
from dnls.breather import _envelope
from dnls.config import load_config
from dnls.driving import Certificate
from dnls.errors import DomainError, NonconvergenceError
from dnls.integrator import ORACLE_CONFIG, IntegratorConfig
from dnls.lattice import l2_norm, norm_sq, random_state

BREATHER_JSON = (Path(__file__).resolve().parent.parent / "scripts"
                 / "configs" / "breather.json")

# a moderately tight tolerance keeps the unit suite fast; the acceptance
# suite exercises the reference tolerance
FAST = IntegratorConfig(rtol=1e-10, atol=1e-12)
# the zero seed of the N = 64 solves
ZERO = LatticeState.zeros(64)


def _breather_scenario(gamma=3.0, amp=0.5):
    g1 = DrivingField(SpatialProfile("exponential", amplitude=amp, rate=1.0),
                      CosineLaw.periodic(period=2 * math.pi))
    spec = DrivingSpec(g1=g1)
    params = ModelParams(kappa=1.0, gamma=gamma,
                         nonlinearity=NonlinearitySpec(sigma=1.0, sign=-1))
    return params, spec


class TestStrongDampingCheck:
    """The strong-damping inequality as the solver reads it: the gap rate
    of the certificate on the R_u-ball."""

    def test_numbers(self):
        params, spec = _breather_scenario()
        cert = certificate(params, spec).dissipative()
        r_u = cert.breather_radius
        g1_sup = 0.5 * math.sqrt(1.0 / math.tanh(1.0))
        assert r_u == pytest.approx(g1_sup / 3.0)
        # a*R_u^b + sup||g2|| with (a, b) = (1.5, 2) and no g2
        assert cert.gamma - cert.gap_rate(r_u) == pytest.approx(1.5 * r_u ** 2)
        assert cert.gap_rate(r_u) > 0

    def test_violated_for_strong_driving(self):
        params, spec = _breather_scenario(gamma=3.0, amp=50.0)
        cert = certificate(params, spec).dissipative()
        assert not cert.gap_rate(cert.breather_radius) > 0

    def test_solver_refuses_without_certificate(self):
        params, spec = _breather_scenario(gamma=3.0, amp=50.0)
        with pytest.raises(DomainError, match="uniqueness not guaranteed"):
            find_breather(params, spec, LatticeState.zeros(32))


class TestFindBreather:
    @pytest.mark.parametrize("amplitude, law", [
        (0.1, CosineLaw.constant(1.0)),
        (0.0, CosineLaw.periodic(period=2 * math.pi))],
        ids=["constant-law", "zero-field"])
    def test_requires_period_for_aperiodic_driving(self, amplitude, law):
        # a constant driving has no period of its own, a field of zero norm
        # sets none, and none can be passed: it is refused as the CLI
        # refuses it
        params = ModelParams(kappa=0.0, gamma=1.0)
        spec = DrivingSpec(g1=DrivingField(
            SpatialProfile.single_site(amplitude), law))
        with pytest.raises(DomainError) as err:
            find_breather(params, spec, LatticeState.zeros(16))
        assert str(err.value) == (
            'driving is not periodic: no field of nonzero norm has a '
            'periodic law, and breather needs one (kind "periodic" in '
            'driving.g1.law or driving.g2.law)')

    def test_refuses_a_driving_with_no_period(self):
        # g1 periodic and g2 a harmonic sum, however weak: there is no
        # period map
        cfg = load_config(BREATHER_JSON)
        spec = replace(cfg.driving, g2=DrivingField(
            SpatialProfile.single_site(1e-13),
            CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                               amplitudes=(1.0, 1.0))))
        assert spec.period is None
        with pytest.raises(DomainError, match="driving.g2.law is a harmonic"):
            find_breather(cfg.model, spec, LatticeState.zeros(cfg.n_sites))

    def test_analytic_single_site_fixed_point(self):
        # kappa = 0, F = 0, drive g*cos(w*t) at one site: the site solves
        # psi' = -gamma*psi - i*g*cos(w*t), whose unique periodic orbit is
        # -i*g*(gamma*cos(w*t) + w*sin(w*t))/(gamma^2 + w^2)
        g, gamma, w = 0.3 + 0.1j, 2.0, 2 * math.pi
        params = ModelParams(kappa=0.0, gamma=gamma)
        spec = DrivingSpec(g1=DrivingField(
            SpatialProfile("custom", values=(g,), start=0),
            CosineLaw.periodic(period=2 * math.pi / w)))
        sol = find_breather(params, spec, LatticeState.zeros(16), tol=1e-12,
                            config=FAST)
        expect = np.zeros(16, dtype=complex)
        expect[8] = -1j * g * gamma / (gamma ** 2 + w ** 2)
        assert np.linalg.norm(sol.state0.values - expect) <= 1e-10

    def test_converges_and_verifies(self):
        params, spec = _breather_scenario()
        sol = find_breather(params, spec, ZERO, tol=1e-9, config=FAST)
        assert sol.periodicity_residual <= 1e-8
        cert = certificate(params, spec)
        theo = math.exp(-cert.gap_rate(cert.breather_radius) * sol.period)
        assert max(sol.ratios) <= theo + 0.05
        report = verify_breather(sol, params, spec, tol=1e-9, config=FAST)
        assert report["contraction_ratio"] == max(sol.ratios)
        assert report["localization_r2"] >= 0.99
        assert report["verified"] and report["envelope_monotone"]

    def test_seed_independence(self):
        params, spec = _breather_scenario()
        r_u = certificate(params, spec).breather_radius
        sols = []
        for s in (ZERO, random_state(64, 7, norm=0.5 * r_u)):
            sols.append(find_breather(params, spec, s, tol=1e-9, config=FAST))
        spread = np.linalg.norm(sols[0].state0.values - sols[1].state0.values)
        assert spread <= 1e-8

    def test_phase_covariance(self):
        # the breather of the translated driving is the time-h flow of the
        # original breather
        params, spec = _breather_scenario()
        sol = find_breather(params, spec, ZERO, tol=1e-9, config=FAST)
        h = sol.period / 3.0
        sol_h = find_breather(params, translate(spec, h), ZERO, tol=1e-9,
                              config=FAST)
        flowed = period_map(sol.state0, params, spec, period=h, config=FAST)
        assert np.linalg.norm(sol_h.state0.values - flowed.values) <= 1e-7

    def test_rejects_seed_outside_ball(self):
        params, spec = _breather_scenario()
        big = random_state(64, 0, norm=100.0)
        with pytest.raises(DomainError):
            find_breather(params, spec, big)

    def test_seed_ball_is_the_certificate_ball(self):
        # the contraction exponent holds on the R_u-ball: a seed on its
        # boundary is taken, one just outside is refused
        params, spec = _breather_scenario()
        r_u = certificate(params, spec).breather_radius
        on = random_state(64, 3, norm=r_u)
        sol = find_breather(params, spec, on, tol=1e-9, config=FAST)
        assert sol.periodicity_residual <= 1e-8
        with pytest.raises(DomainError):
            find_breather(params, spec, random_state(64, 3, norm=1.01 * r_u),
                          config=FAST)

    def test_verify_fails_on_perturbed_state(self):
        params, spec = _breather_scenario()
        sol = find_breather(params, spec, ZERO, tol=1e-9, config=FAST)
        bump = random_state(64, 3, norm=1e-3)
        import dataclasses
        fake = dataclasses.replace(
            sol, state0=LatticeState(sol.state0.values + bump.values))
        report = verify_breather(fake, params, spec, tol=1e-9, config=FAST)
        assert not report["verified"]


def _residual(state, image):
    return math.sqrt(norm_sq(image.values - state.values))


class TestMapAccounting:
    """Each period map measures the residual of the iterate it is applied
    to, and the solve stops at the first residual at or below tol."""

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_bundled_solve_maps_once_per_measured_residual(self, monkeypatch,
                                                           seed):
        cfg = load_config(BREATHER_JSON)
        tol = cfg.scenario["tol"]
        r_u = certificate(cfg.model, cfg.driving).breather_radius
        start = (LatticeState.zeros(cfg.n_sites, cfg.bc) if seed is None
                 else random_state(cfg.n_sites, seed, norm=0.5 * r_u, bc=cfg.bc))
        original = dnls.breather.period_map
        residuals = []

        def recording(state, *args, **kwargs):
            image = original(state, *args, **kwargs)
            residuals.append(_residual(state, image))
            return image

        monkeypatch.setattr(dnls.breather, "period_map", recording)
        sol = find_breather(cfg.model, cfg.driving, start, tol=tol,
                            config=ORACLE_CONFIG)

        assert len(residuals) == sol.iterations + 1
        assert all(d > tol for d in residuals[:-1]) and residuals[-1] <= tol
        again = period_map(sol.state0, cfg.model, cfg.driving, sol.period,
                           config=ORACLE_CONFIG)
        assert sol.periodicity_residual == residuals[-1] \
            == _residual(sol.state0, again)
        noise = 100.0 * ORACLE_CONFIG.atol * math.sqrt(cfg.n_sites)
        ratios = [d / prev for prev, d in zip(residuals, residuals[1:])
                  if prev > max(noise, 10 * tol) and d > noise]
        assert sol.ratios == ratios

    def test_nonconvergence_after_1000_updates(self, monkeypatch):
        # a shift by one on every site never contracts: each map measures
        # the residual sqrt(16) = 4, so the solver gives up after the cap
        params, spec = _breather_scenario()
        maps = []

        def shift(state, *args, **kwargs):
            maps.append(state)
            return LatticeState(state.values + 1.0, state.bc)

        monkeypatch.setattr(dnls.breather, "period_map", shift)
        with pytest.raises(NonconvergenceError,
                           match=r"after 1000 iterations \(last residual 4\)"):
            find_breather(params, spec, LatticeState.zeros(16))
        assert len(maps) == 1001


class TestContractionCertificate:
    """The measured contraction ratio of the period map against the
    certified e^{-rho*T}, rho = gap_rate(R_u), on the bundled model."""

    @pytest.fixture(scope="class")
    def bundled(self):
        cfg = load_config(BREATHER_JSON)
        sol = find_breather(cfg.model, cfg.driving,
                            LatticeState.zeros(cfg.n_sites, cfg.bc),
                            tol=cfg.scenario["tol"], config=ORACLE_CONFIG)
        return cfg, sol

    def _verify(self, cfg, sol):
        return verify_breather(sol, cfg.model, cfg.driving,
                               tol=cfg.scenario["tol"], config=ORACLE_CONFIG)

    def test_ratio_is_below_the_certificate(self, bundled):
        # the first ratio is 6.56e-9; a round-off ratio (last residual near
        # 1e-16 over 1e-9) read 4e-8 to 9e-8 and must not be counted
        cfg, sol = bundled
        cert = certificate(cfg.model, cfg.driving)
        assert sol.gap_rate == cert.gap_rate(cert.breather_radius)
        certified = math.exp(-sol.gap_rate * sol.period)
        assert sol.ratios and 0 < max(sol.ratios) <= certified
        report = self._verify(cfg, sol)
        assert report["verified"]
        assert report["contraction_ratio"] == max(sol.ratios)
        assert report["certified_ratio"] == certified
        assert report["ratio_margin"] == pytest.approx(
            max(sol.ratios) / certified, rel=1e-12)
        assert 0.5 < report["ratio_margin"] < 0.9

    def test_shrunk_certificate_fails(self, bundled, monkeypatch):
        # doubling rho squares the certified ratio (9.2e-9 -> 8.4e-17)
        cfg, sol = bundled
        gap_rate = Certificate.gap_rate
        monkeypatch.setattr(Certificate, "gap_rate",
                            lambda self, r: 2.0 * gap_rate(self, r))
        shrunk = find_breather(cfg.model, cfg.driving,
                               LatticeState.zeros(cfg.n_sites, cfg.bc),
                               tol=cfg.scenario["tol"], config=ORACLE_CONFIG)
        assert shrunk.gap_rate == 2.0 * sol.gap_rate
        assert shrunk.ratios == sol.ratios
        report = self._verify(cfg, shrunk)
        assert report["ratio_margin"] > 1 and not report["verified"]
        assert report["max_phase_residual"] <= 10 * cfg.scenario["tol"]

    def test_no_kept_ratio_passes(self, bundled):
        # a map that contracts below the round-off floor at once keeps no
        # ratio: contraction_ratio 0 is within any certificate
        cfg, sol = bundled
        report = self._verify(cfg, replace(sol, ratios=[]))
        assert report["contraction_ratio"] == 0.0
        assert report["verified"] and report["ratio_margin"] == 0.0


class TestEnvelope:
    @pytest.mark.parametrize("n_sites", [15, 16, 64])
    def test_matches_site_by_site_maximum(self, n_sites):
        state = random_state(n_sites, n_sites, norm=1.0)
        amp, c = np.abs(state.values), n_sites // 2
        ref = [amp[c]] + [max(amp[c + k], amp[c - k]) for k in range(1, c)]
        assert np.array_equal(_envelope(state), ref)

    def test_monotone_flag_ignores_rises_below_the_floor(self):
        import dataclasses
        params, spec = _breather_scenario()
        sol = find_breather(params, spec, ZERO, tol=1e-9, config=FAST)
        peak = float(np.max(np.abs(sol.state0.values)))
        for bump, monotone in ((1e-12 * peak, True), (1e-6 * peak, False)):
            values = sol.state0.values.copy()
            values[-3] += bump
            fake = dataclasses.replace(sol, state0=LatticeState(values))
            report = verify_breather(fake, params, spec, tol=1e-9, config=FAST)
            assert report["envelope_monotone"] is monotone

    @pytest.mark.parametrize("width, unbounded", [(100.0, True),
                                                  (3000.0, False)])
    def test_core_scan_stops_at_the_truncation(self, monkeypatch, width,
                                               unbounded):
        # a gaussian g1 of either width holds more than 1e-12 of its mass
        # beyond every site of N = 128, so the scan for its core stops at
        # 2N tail sums, past which the half-width leaves the lattice; the
        # unbounded scan makes about 530 and 15,000 sums to the same
        # record, and is rerun here at the width where that is cheap
        cfg = load_config(BREATHER_JSON)
        g1 = replace(cfg.driving.g1, profile=SpatialProfile(
            "gaussian", amplitude=0.01, width=width))
        spec = replace(cfg.driving, g1=g1)
        sol = find_breather(cfg.model, spec, LatticeState.zeros(128))
        tail_sq, calls = SpatialProfile.tail_sq, []
        monkeypatch.setattr(SpatialProfile, "tail_sq",
                            lambda p, m: calls.append(m) or tail_sq(p, m))
        report = verify_breather(sol, cfg.model, spec)
        assert 0 < len(calls) <= 2 * 128
        if unbounded:
            def core(g, sites):
                p, m = g.profile, 1
                bound = 1e-12 * p.l2_norm_sq()
                while p.tail_sq(m) > bound and m < 10 ** 6:
                    m += 1
                return max(2, m // 4 + 1)
            monkeypatch.setattr(DrivingField, "core", core)
            assert verify_breather(sol, cfg.model, spec) == report
            assert len(calls) > 2 * 128 + 500
