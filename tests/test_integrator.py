"""Adaptive integrator against closed-form oracles, plus the dissipation
monitor."""

import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dnls import (ConstantLaw, DrivingField, DrivingSpec, IntegratorConfig,
                  LatticeState, ModelParams, NonlinearitySpec, PeriodicLaw,
                  SpatialProfile, integrate, load_config, monitor_dissipation)
from dnls.diagnostics import predict_absorbing
from dnls.errors import DomainError, StiffnessError
from dnls.integrator import (ORACLE_CONFIG, _A, _AE, _C, _P, _gronwall,
                             _sample_times, _Tsit5)
from dnls.lattice import make_rhs, random_state

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def _bundled_run(name):
    """State, horizon and config of the bundled scenario the CLI's
    ``simulate`` (simulate.json) or ``absorbing`` (absorbing.json) runs."""
    cfg = load_config(CONFIGS / name)
    sc = cfg.scenario
    if name == "simulate.json":
        init = sc["initial"]
        return (random_state(cfg.n_sites, init["seed"], norm=init["norm"]),
                sc["t1"], cfg)
    pred = predict_absorbing(cfg.model, cfg.driving, sc["radius"])
    return (random_state(cfg.n_sites, sc["seed"], norm=sc["radius"]),
            pred.entry_time * 6.0 + 1.0, cfg)


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


def _trees(A):
    """(order, elementary weight Phi, density gamma) of the 17 rooted trees
    of order <= 5 (Hairer, Norsett & Wanner, Solving ODEs I, II.2), with the
    nodes c the row sums of A: weights w have order p when w @ Phi =
    1/gamma on every tree of order <= p."""
    c = A.sum(axis=1)
    Ac, Ac2 = A @ c, A @ c ** 2
    AAc = A @ Ac
    return [(1, np.ones_like(c), 1), (2, c, 2), (3, c ** 2, 3), (3, Ac, 6),
            (4, c ** 3, 4), (4, c * Ac, 8), (4, Ac2, 12), (4, AAc, 24),
            (5, c ** 4, 5), (5, c ** 2 * Ac, 10), (5, c * Ac2, 15),
            (5, c * AAc, 30), (5, Ac * Ac, 20), (5, A @ c ** 3, 20),
            (5, A @ (c * Ac), 40), (5, A @ Ac2, 60), (5, A @ AAc, 120)]


class TestTableau:
    """Order conditions of the kernel's coefficients, which a wrong digit
    in any of them breaks by far more than round-off."""

    b = _A[6]

    def test_rows_sum_to_nodes(self):
        assert np.abs(_A.sum(axis=1) - _C).max() <= 1e-15

    def test_solution_weights_have_order_5(self):
        trees = _trees(_A)
        assert len(trees) == 17
        for _, phi, gamma in trees:
            assert abs(self.b @ phi - 1 / gamma) <= 1e-13

    def test_embedded_weights_have_order_4_only(self):
        b_hat = self.b - _AE[7]
        res = {p: max(abs(b_hat @ phi - 1 / g) for q, phi, g in _trees(_A)
                      if q == p) for p in range(1, 6)}
        assert max(res[p] for p in range(1, 5)) <= 1e-13
        assert res[5] > 1e-4  # else the error estimate would estimate nothing

    @pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_continuous_extension_has_order_4(self, theta):
        w = _P @ theta ** np.arange(1, 5)
        for order, phi, gamma in _trees(_A):
            if order <= 4:
                assert abs(w @ phi - theta ** order / gamma) <= 1e-13
        if theta == 1.0:
            assert np.abs(w - self.b).max() <= 1e-13


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(rtol=1e-10, atol=1e-8)
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

    def test_local_error_falls_with_the_order(self):
        # one attempt against the DFT oracle: the local error is O(h^6) at
        # the step's end and O(h^5) from the extension at its middle, so
        # halving h divides them by about 64 and 32 (here 96, 81 and 49, 40)
        params, spec, exact = _dft_setup()
        psi0 = random_state(64, 1, norm=1.0, bc="periodic",
                            localized=False).values
        f = make_rhs(params, spec.sampler(64), 64, "periodic")
        end, mid = [], []
        for h in (0.1, 0.05, 0.025):
            kernel = _Tsit5(f, psi0, 0.0)
            kernel.attempt(0.0, h, ORACLE_CONFIG)
            end.append(np.linalg.norm(kernel.Y[6] - exact(h, psi0)))
            out = kernel.sample(0.5, h, np.empty(64, dtype=np.complex128))
            mid.append(np.linalg.norm(out - exact(h / 2, psi0)))
        assert end[0] > 40 * end[1] and end[1] > 40 * end[2]
        assert mid[0] > 20 * mid[1] and mid[1] > 20 * mid[2]


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
        # no step meets tolerances of 1e-100: rejected down to the smallest
        # step, then StiffnessError, and no overflow warning on the way
        params, spec, _ = _dft_setup(kappa=50.0)
        psi0 = random_state(64, 0, bc="periodic")
        cfg = IntegratorConfig(rtol=1e-100, atol=1e-100)
        with warnings.catch_warnings(), pytest.raises(StiffnessError):
            warnings.simplefilter("error")
            integrate(psi0, 0.0, 1.0, params, spec, cfg)

    def test_attempt_allocates_nothing(self):
        cfg = load_config(CONFIGS / "simulate.json")
        psi0 = random_state(4096, 0, norm=2.0)
        f = make_rhs(cfg.model, cfg.driving.sampler(4096), 4096, cfg.bc)
        kernel = _Tsit5(f, psi0.values, 0.0)
        kernel.attempt(0.0, 1e-3, cfg.integrator)
        tracemalloc.start()
        try:
            for i in range(100):
                kernel.attempt(1e-3 * i, 1e-3, cfg.integrator)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one full-size temporary at N=4096 takes 32 KiB (real) or 64 KiB
        assert peak < 16 * 2 ** 10

    def test_attempt_after_reject_and_accept_is_a_fresh_start(self):
        # the kernel carries FSAL's slope and |y| from one attempt to the
        # next; both must be what a kernel built at that state computes
        cfg = load_config(CONFIGS / "dimension.json")
        ic = cfg.integrator
        f = make_rhs(cfg.model, cfg.driving.sampler(64), 64, cfg.bc)
        kernel = _Tsit5(f, random_state(64, 0, norm=2.0).values, 0.0)

        def attempt_matches_fresh(t, h):
            fresh = _Tsit5(f, kernel.S[0].copy(), t)
            err = kernel.attempt(t, h, ic)
            assert err == fresh.attempt(t, h, ic)
            assert kernel.Y[6].tobytes() == fresh.Y[6].tobytes()
            return err

        assert attempt_matches_fresh(0.0, 0.5) > 1.0  # rejected
        assert attempt_matches_fresh(0.0, 1e-2) <= 1.0
        kernel.accept()
        assert attempt_matches_fresh(1e-2, 1e-2) <= 1.0


class TestStreaming:
    @pytest.mark.parametrize("name", ["simulate.json", "absorbing.json"])
    def test_dropping_states_keeps_every_series(self, name):
        psi0, t1, cfg = _bundled_run(name)
        full, lean = [integrate(psi0, 0.0, t1, cfg.model, cfg.driving,
                                cfg.integrator, tail_cutoff=8,
                                keep_states=keep)
                      for keep in (True, False)]
        for attr in ("times", "norms", "tails"):
            assert getattr(lean, attr).tobytes() == getattr(full, attr).tobytes()
        assert lean.stats == full.stats
        assert full.values.shape == (full.n_samples, cfg.n_sites)
        assert lean.values.shape == (0, cfg.n_sites)

    @pytest.mark.parametrize("t0, t1, stride", [
        (3.0, 3.0, 0.1),     # empty span
        (0.0, 0.05, 0.1),    # shorter than one stride
        (0.0, 2.0, 0.25),    # t1 an exact multiple of the stride
        (0.3, 50.0, 0.1),    # long horizon, inexact grid
    ])
    def test_sample_count_is_samples_taken(self, t0, t1, stride):
        params, spec, _ = _affine_setup()
        cfg = IntegratorConfig(sample_stride=stride)
        traj = integrate(random_state(16, 0), t0, t1, params, spec, cfg)
        # reference: t0, each t0 + k*stride < t1, then t1
        interior = [t0 + k * stride for k in range(1, int((t1 - t0) / stride) + 3)
                    if t0 + k * stride < t1]
        expected = np.array([t0] if t1 == t0 else [t0, *interior, t1])
        assert _sample_times(t0, t1, stride).size == expected.size
        assert traj.times.tobytes() == expected.tobytes()
        assert traj.n_samples == traj.values.shape[0] == expected.size

    def test_dropping_states_keeps_memory_flat(self):
        cfg = load_config(CONFIGS / "simulate.json")
        psi0 = random_state(4096, 0, norm=2.0)
        tracemalloc.start()
        try:
            traj = integrate(psi0, 0.0, 50.0, cfg.model, cfg.driving,
                             cfg.integrator, keep_states=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 501 stored samples would take 31 MB; the kernel's buffers take 1
        assert traj.n_samples == 501
        assert peak < 5 * 2 ** 20


class TestGronwall:
    def test_closed_form_and_zero_rate(self):
        y = _gronwall(np.array([2.0, 2.0, 2.0]), np.array([1.5, -0.5, 0.0]),
                      0.3, 0.7)
        expected = [math.exp(-r * 0.7) * 2.0 + 0.3 * (1 - math.exp(-r * 0.7)) / r
                    for r in (1.5, -0.5)] + [2.0 + 0.3 * 0.7]
        assert y == pytest.approx(expected, rel=1e-15)

    def test_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _gronwall(1.0, -1e3, 1.0, 1.0) == math.inf


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

    def test_detects_realistic_energy_ramp(self):
        # simulate.json's scenario; after t = 25, ||psi||^2 gains 1% of the
        # forcing level sup||g1||^2/Gt per unit time
        psi0, t1, cfg = _bundled_run("simulate.json")
        traj = integrate(psi0, 0.0, t1, cfg.model, cfg.driving,
                         cfg.integrator, keep_states=False)
        honest = monitor_dissipation(traj, cfg.model, cfg.driving)
        assert honest.ok
        rate = 0.01 * cfg.driving.g1.sup_norm() ** 2 / honest.gamma_tilde
        n2 = traj.norms ** 2 + rate * np.maximum(traj.times - 25.0, 0.0)
        ramped = dataclasses.replace(traj, norms=np.sqrt(n2))
        assert not monitor_dissipation(ramped, cfg.model, cfg.driving).ok

    def test_detects_energy_step(self):
        # simulate.json's scenario with 0.05 added to ||psi||^2 from t = 25
        # on; the late ||psi||^2 is 0.002-0.19, so the step is no round-off
        psi0, t1, cfg = _bundled_run("simulate.json")
        traj = integrate(psi0, 0.0, t1, cfg.model, cfg.driving,
                         cfg.integrator, keep_states=False)
        n2 = traj.norms ** 2 + 0.05 * (traj.times >= 25.0)
        stepped = dataclasses.replace(traj, norms=np.sqrt(n2))
        report = monitor_dissipation(stepped, cfg.model, cfg.driving)
        first = int(np.argmax(traj.times >= 25.0))
        assert [v.index for v in report.violations] == [first - 1]

    def test_refuses_weak_damping(self):
        params, spec = self._scenario()
        weak = ModelParams(kappa=1.0, gamma=0.4,
                           nonlinearity=NonlinearitySpec.cubic())
        psi0 = random_state(64, 0, norm=1.0)
        traj = integrate(psi0, 0.0, 1.0, weak, spec)
        from dnls.errors import DampingTooWeakError
        with pytest.raises(DampingTooWeakError):
            monitor_dissipation(traj, weak, spec)
