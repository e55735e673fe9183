"""Periodic breather solver and its verification."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dnls.breather
from dnls import cli
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
            'driving has no period: no field of nonzero norm has a '
            'periodic law (kind "periodic" in driving.g1.law or '
            'driving.g2.law)')

    def test_refuses_a_driving_with_no_period(self):
        # g1 periodic and g2 a harmonic sum, however weak: there is no
        # period map
        cfg = load_config(BREATHER_JSON)
        spec = replace(cfg.driving, g2=DrivingField(
            SpatialProfile.single_site(1e-13),
            CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                               amplitudes=(1.0, 1.0))))
        with pytest.raises(DomainError) as err:
            find_breather(cfg.model, spec, LatticeState.zeros(cfg.n_sites))
        assert str(err.value) == ("driving.g2.law is a harmonic sum, which "
                                  "has no period")

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
    to.  The solve stops on the certified bound q*d of the image's residual
    once a kept ratio confirms q, else at the first measured residual at or
    below tol.  In ``check_breather`` the first seed's ratio confirms q for
    the later seeds, whose first map then runs loose."""

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_bundled_solve_stops_on_the_certified_bound(self, monkeypatch,
                                                        seed):
        cfg = load_config(BREATHER_JSON)
        tol = cfg.scenario["tol"]
        r_u = certificate(cfg.model, cfg.driving).breather_radius
        start = (LatticeState.zeros(cfg.n_sites, cfg.bc) if seed is None
                 else random_state(cfg.n_sites, seed, norm=0.5 * r_u, bc=cfg.bc))
        original = dnls.breather.period_map
        residuals, images, configs = [], [], []

        def recording(state, params, spec, period, config=ORACLE_CONFIG):
            image = original(state, params, spec, period, config)
            residuals.append(_residual(state, image))
            images.append(image)
            configs.append(config)
            return image

        monkeypatch.setattr(dnls.breather, "period_map", recording)
        sol = find_breather(cfg.model, cfg.driving, start, tol=tol,
                            config=ORACLE_CONFIG)

        # a lone solve is unconfirmed: every map at the oracle tolerance.
        # The second map's residual (1.09e-9) is above tol, but its image's
        # certified bound q*d (1.0e-17) is not
        assert configs == [ORACLE_CONFIG] * 2
        assert len(residuals) == sol.iterations + 1 == 2
        q = math.exp(-sol.gap_rate * sol.period)
        assert residuals[0] > tol and residuals[-1] > tol
        assert q * residuals[-1] <= tol
        assert sol.state0 is images[-1]
        assert sol.periodicity_residual == q * residuals[-1]
        again = period_map(sol.state0, cfg.model, cfg.driving, sol.period,
                           config=ORACLE_CONFIG)
        assert _residual(sol.state0, again) <= tol
        noise = 100.0 * ORACLE_CONFIG.atol * math.sqrt(cfg.n_sites)
        ratios = [d / prev for prev, d in zip(residuals, residuals[1:])
                  if prev > max(noise, 10 * tol) and d > noise]
        assert sol.ratios == ratios and max(ratios) <= q

    def test_ratio_above_the_certificate_stops_on_a_measured_residual(
            self, monkeypatch):
        # a map that contracts by 0.5 towards c, far above q = 9e-9: the
        # certified bound is never trusted, and the solve returns the
        # first iterate whose measured residual is at most tol
        params, spec = _breather_scenario()
        c = random_state(16, 5, norm=0.1).values
        residuals, states = [], []

        def halving(state, *args, **kwargs):
            image = LatticeState(c + 0.5 * (state.values - c), state.bc)
            residuals.append(_residual(state, image))
            states.append(state)
            return image

        monkeypatch.setattr(dnls.breather, "period_map", halving)
        tol = 1e-10
        sol = find_breather(params, spec, LatticeState.zeros(16), tol=tol)
        assert math.exp(-sol.gap_rate * sol.period) < 1e-8
        assert len(residuals) == sol.iterations + 1
        assert all(d > tol for d in residuals[:-1]) and residuals[-1] <= tol
        assert sol.state0 is states[-1]
        assert sol.periodicity_residual == residuals[-1]
        assert sol.ratios and all(r == pytest.approx(0.5, rel=1e-6)
                                  for r in sol.ratios)

    def test_later_seeds_map_loose_once_the_first_confirms(self,
                                                           monkeypatch):
        # the first seed's ratio 6.56e-9 <= q confirms the certificate, so
        # seeds 1 and 2 take their first map at rtol_1 = 5.7e-4 and stop
        # after one oracle map on the bound q*d, with no ratio of their own
        cfg = load_config(BREATHER_JSON)
        tol = cfg.scenario["tol"]
        mapped, solved = dnls.breather.period_map, dnls.breather.find_breather
        maps, sols = [], []  # per solve: (config, residual) of each map

        def recording(state, params, spec, period, config=ORACLE_CONFIG):
            image = mapped(state, params, spec, period, config)
            maps[-1].append((config, _residual(state, image)))
            return image

        def solving(*args, **kwargs):
            maps.append([])
            sols.append(solved(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(dnls.breather, "period_map", recording)
        monkeypatch.setattr(dnls.breather, "find_breather", solving)
        ok, rec, _ = dnls.breather.check_breather(
            cfg.model, cfg.driving, cfg.n_sites, cfg.bc,
            cfg.scenario["seeds"], tol=tol)
        assert ok and len(sols) == 3
        first = sols[0]
        q = math.exp(-first.gap_rate * first.period)
        assert [c for c, _ in maps[0]] == [ORACLE_CONFIG] * 2
        assert first.ratios and max(first.ratios) <= q
        assert rec["contraction_ratio"] == max(first.ratios)
        r_u = certificate(cfg.model, cfg.driving).breather_radius
        rtol = min(1e-3, max(ORACLE_CONFIG.rtol, tol / (100 * q * r_u)))
        assert rtol == pytest.approx(5.70e-4, rel=1e-3)
        for sol, seen in zip(sols[1:], maps[1:]):
            (loose, _), (exact, d) = seen
            assert loose.rtol == rtol
            assert loose.atol == pytest.approx(1e-2 * rtol, rel=1e-12)
            assert replace(loose, rtol=ORACLE_CONFIG.rtol,
                           atol=ORACLE_CONFIG.atol) == ORACLE_CONFIG
            assert exact == ORACLE_CONFIG
            assert len(seen) == sol.iterations + 1
            assert sol.ratios == []
            assert sol.periodicity_residual == q * d <= tol
        assert rec["seed_spread"] <= tol / 10

    def test_unconfirmed_first_solve_keeps_every_map_exact(self,
                                                           monkeypatch):
        # the map contracting by 0.5 keeps ratios above q: nothing is
        # confirmed, and every seed maps at the oracle tolerance only
        params, spec = _breather_scenario()
        c = random_state(16, 5, norm=0.1).values
        configs = []

        def halving(state, params, spec, period, config=ORACLE_CONFIG):
            configs.append(config)
            return LatticeState(c + 0.5 * (state.values - c), state.bc)

        monkeypatch.setattr(dnls.breather, "period_map", halving)
        dnls.breather.check_breather(params, spec, 16, "dirichlet",
                                     (None, 1, 2), tol=1e-10)
        assert len(configs) > 3
        assert configs == [ORACLE_CONFIG] * len(configs)

    def test_loose_image_outside_the_ball_is_discarded(self, monkeypatch):
        # a loose image outside the R_u-ball is dropped: the solve maps the
        # seed again at the oracle tolerance and still makes iterations + 1
        # maps
        cfg = load_config(BREATHER_JSON)
        tol = cfg.scenario["tol"]
        r_u = certificate(cfg.model, cfg.driving).breather_radius
        first = find_breather(cfg.model, cfg.driving,
                              LatticeState.zeros(cfg.n_sites, cfg.bc),
                              tol=tol)
        original = dnls.breather.period_map
        starts, configs = [], []

        def pushing(state, params, spec, period, config=ORACLE_CONFIG):
            starts.append(state)
            configs.append(config)
            out = original(state, params, spec, period, config)
            if config == ORACLE_CONFIG:
                return out
            return LatticeState(out.values * (1.01 * r_u / l2_norm(out)),
                                out.bc)

        monkeypatch.setattr(dnls.breather, "period_map", pushing)
        seed = random_state(cfg.n_sites, 1, norm=0.5 * r_u, bc=cfg.bc)
        sol = find_breather(cfg.model, cfg.driving, seed, tol=tol,
                            confirmed=True)
        assert configs[0] != ORACLE_CONFIG
        assert configs[1:] == [ORACLE_CONFIG] * (len(configs) - 1)
        assert starts[0] is seed and starts[1] is seed
        assert len(configs) == sol.iterations + 1
        assert np.linalg.norm(sol.state0.values
                              - first.state0.values) <= 10 * tol

    def test_bundled_command_integrates_seven_times(self, monkeypatch,
                                                    tmp_path):
        # two maps for each of the three seeds, then one verification
        calls = []
        integrate = dnls.breather.integrate

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(dnls.breather, "integrate", counting)
        assert cli.main(["breather", "--config", str(BREATHER_JSON),
                         "--json", str(tmp_path / "report.json")]) \
            == cli.EXIT_PASS
        assert len(calls) == 7

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
        # ratio: none is measured, and none contradicts the certificate
        cfg, sol = bundled
        report = self._verify(cfg, replace(sol, ratios=[]))
        assert report["contraction_ratio"] is None
        assert report["verified"] and report["ratio_margin"] is None


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

    @pytest.mark.parametrize("rate, unbounded", [(0.01, True),
                                                 (0.001, False)])
    def test_core_scan_stops_at_the_truncation(self, monkeypatch, rate,
                                               unbounded):
        # an exponential g1 of either rate holds more than 1e-12 of its
        # mass beyond every site of N = 128, so the scan for its core stops
        # at 2N tail sums, past which the half-width leaves the lattice; the
        # unbounded scan makes about 1,380 and 13,800 sums to the same
        # record, and is rerun here at the rate where that is cheap
        cfg = load_config(BREATHER_JSON)
        g1 = replace(cfg.driving.g1, profile=SpatialProfile(
            "exponential", amplitude=0.01, rate=rate))
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
