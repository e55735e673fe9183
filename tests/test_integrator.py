"""Adaptive integrator against closed-form oracles, plus the dissipation
monitor."""

import dataclasses
import math

import numpy as np
import pytest

from dnls import (ConstantLaw, DrivingField, DrivingSpec, IntegratorConfig,
                  LatticeState, ModelParams, NonlinearitySpec, PeriodicLaw,
                  SpatialProfile, integrate, monitor_dissipation, step)
from dnls.errors import DomainError, StiffnessError
from dnls.integrator import ORACLE_CONFIG
from dnls.lattice import random_state


def _affine_setup(g=0.3 + 0.4j, gamma=1.5, n_sites=16):
    """Decoupled single-site model dpsi/dt = -gamma*psi - i*g with fixed
    point psi* = -i*g/gamma and explicit exponential relaxation."""
    params = ModelParams(kappa=0.0, gamma=gamma)
    profile = SpatialProfile("custom", values=(g,), start=0)
    spec = DrivingSpec(g1=DrivingField(profile, ConstantLaw(1.0)))

    def exact(t, psi0):
        fp = -1j * g / gamma
        out = psi0 * math.exp(-gamma * t)
        out[n_sites // 2] += fp * (1 - math.exp(-gamma * t))
        return out

    return params, spec, exact


def _dft_setup(kappa=1.0, gamma=1.0, n_sites=64):
    """kappa-only periodic-bc model, diagonalized by the DFT: mode k evolves
    by exp((4i*kappa*sin^2(pi k/N) - gamma) t)."""
    params = ModelParams(kappa=kappa, gamma=gamma)
    spec = DrivingSpec(g1=DrivingField.zero())

    def exact(t, psi0):
        k = np.arange(n_sites)
        lam = 4.0 * np.sin(np.pi * k / n_sites) ** 2
        hat = np.fft.fft(psi0) * np.exp((1j * kappa * lam - gamma) * t)
        return np.fft.ifft(hat)

    return params, spec, exact


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(rtol=1e-10, atol=1e-8)
        with pytest.raises(DomainError):
            IntegratorConfig(dt_init=2.0, dt_max=1.0)
        with pytest.raises(DomainError):
            IntegratorConfig(sample_stride=0.0)

    def test_oracle_config_is_tighter(self):
        assert ORACLE_CONFIG.rtol < IntegratorConfig().rtol


class TestOracles:
    def test_affine_closed_form(self):
        params, spec, exact = _affine_setup()
        psi0 = random_state(16, 0, norm=0.5)
        traj = integrate(psi0, 0.0, 10.0, params, spec, ORACLE_CONFIG)
        for i in range(traj.n_samples):
            err = np.linalg.norm(traj.values[i] - exact(traj.times[i],
                                                        psi0.values))
            assert err <= 1e-8

    def test_dft_closed_form(self):
        params, spec, exact = _dft_setup()
        psi0 = random_state(64, 1, norm=1.0, bc="periodic", localized=False)
        traj = integrate(psi0, 0.0, 1.0, params, spec, ORACLE_CONFIG)
        err = np.linalg.norm(traj.values[-1] - exact(1.0, psi0.values))
        assert err <= 1e-8

    def test_error_shrinks_with_tolerance(self):
        # halving rtol must at least halve the endpoint error
        params, spec, exact = _dft_setup()
        psi0 = random_state(64, 2, norm=1.0, bc="periodic", localized=False)
        errs = []
        for rtol in (1e-6, 5e-7):
            cfg = IntegratorConfig(rtol=rtol, atol=1e-12)
            traj = integrate(psi0, 0.0, 1.0, params, spec, cfg)
            errs.append(np.linalg.norm(traj.values[-1] - exact(1.0, psi0.values)))
        assert errs[1] <= 0.5 * errs[0]


class TestIntegrate:
    def test_sampling_grid(self):
        params, spec, _ = _affine_setup()
        psi0 = random_state(16, 0, norm=0.5)
        cfg = IntegratorConfig(sample_stride=0.25)
        traj = integrate(psi0, 0.0, 2.0, params, spec, cfg)
        assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
        assert np.all(np.diff(traj.times) > 0)
        interior = traj.times[1:-1]
        assert np.allclose(interior / 0.25, np.round(interior / 0.25))

    def test_zero_span(self):
        params, spec, _ = _affine_setup()
        psi0 = random_state(16, 0)
        traj = integrate(psi0, 3.0, 3.0, params, spec)
        assert traj.n_samples == 1
        assert np.array_equal(traj.values[0], psi0.values)

    def test_rejects_reversed_interval(self):
        params, spec, _ = _affine_setup()
        with pytest.raises(DomainError):
            integrate(random_state(16, 0), 1.0, 0.0, params, spec)

    def test_tail_series(self):
        params, spec, _ = _affine_setup()
        psi0 = random_state(32, 0, norm=0.5)
        traj = integrate(psi0, 0.0, 1.0, params, spec, tail_cutoff=4)
        assert traj.tails is not None and traj.tail_cutoff == 4
        assert np.all(traj.tails >= 0)

    def test_step_counts(self):
        params, spec, _ = _dft_setup()
        psi0 = random_state(64, 0, bc="periodic")
        traj = integrate(psi0, 0.0, 1.0, params, spec)
        assert traj.stats.accepted > 0
        # FSAL: one initial slope, then six new stages per attempted step
        assert traj.stats.rhs_evals == 1 + 6 * (traj.stats.accepted
                                                + traj.stats.rejected)

    def test_stiffness_error_on_forced_large_step(self):
        params, spec, _ = _dft_setup(kappa=50.0)
        psi0 = random_state(64, 0, bc="periodic")
        cfg = IntegratorConfig(rtol=1e-13, atol=1e-13, dt_init=0.5,
                               dt_min=0.5, dt_max=0.5)
        with pytest.raises(StiffnessError):
            integrate(psi0, 0.0, 1.0, params, spec, cfg)

    def test_single_step_accepts_and_matches_integrate(self):
        params, spec, _ = _affine_setup()
        psi0 = random_state(16, 0, norm=0.5)
        cfg = IntegratorConfig(dt_init=1e-3)
        nxt, err, dt_next = step(psi0, 0.0, 1e-3, params, spec, cfg)
        assert err <= 1.0
        assert dt_next >= 1e-3
        traj = integrate(psi0, 0.0, 1e-3, params, spec, cfg)
        assert traj.stats.accepted == 1 and traj.stats.rejected == 0
        assert np.array_equal(nxt.values, traj.values[-1])


class TestDissipationMonitor:
    def _scenario(self):
        g1 = DrivingField(
            SpatialProfile("exponential", rate=1.0,
                           amplitude=1.0 / math.sqrt(1.0 / math.tanh(1.0))),
            PeriodicLaw(period=2 * math.pi))
        g2 = DrivingField(SpatialProfile("single_site", amplitude=0.25),
                          ConstantLaw(1.0))
        spec = DrivingSpec(g1=g1, g2=g2)
        params = ModelParams(kappa=1.0, gamma=2.0,
                             nonlinearity=NonlinearitySpec.cubic())
        return params, spec

    def test_no_violations_on_honest_trajectory(self):
        params, spec = self._scenario()
        psi0 = random_state(64, 0, norm=2.0)
        traj = integrate(psi0, 0.0, 5.0, params, spec)
        report = monitor_dissipation(traj, params, spec)
        assert report.ok
        assert report.checked == traj.n_samples - 1
        assert report.gamma_tilde == pytest.approx(1.5)

    def test_detects_injected_energy(self):
        params, spec = self._scenario()
        psi0 = random_state(64, 0, norm=2.0)
        traj = integrate(psi0, 0.0, 5.0, params, spec)
        norms = traj.norms.copy()
        norms[20:] += 5.0  # a jump no dissipative flow can produce
        bad = dataclasses.replace(traj, norms=norms)
        assert not monitor_dissipation(bad, params, spec).ok

    def test_refuses_weak_damping(self):
        params, spec = self._scenario()
        weak = ModelParams(kappa=1.0, gamma=0.4,
                           nonlinearity=NonlinearitySpec.cubic())
        psi0 = random_state(64, 0, norm=1.0)
        traj = integrate(psi0, 0.0, 1.0, weak, spec)
        from dnls.errors import DampingTooWeakError
        with pytest.raises(DampingTooWeakError):
            monitor_dissipation(traj, weak, spec)
