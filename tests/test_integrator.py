"""Adaptive integrator against closed-form oracles, plus the dissipation
monitor (``diagnostics.verify_bounds``) on its trajectories."""

import dataclasses
import functools
import inspect
import math
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dnls import (CosineLaw, DrivingField, DrivingSpec, IntegratorConfig,
                  LatticeState, ModelParams, NonlinearitySpec, SpatialProfile,
                  integrate, load_config, verify_bounds)
from dnls import diagnostics as dg
from dnls import integrator
from dnls.diagnostics import _gronwall, predict_absorbing
from dnls.driving import certificate, translate
from dnls.errors import DomainError, StiffnessError
from dnls.integrator import (ORACLE_CONFIG, _A, _AE, _C, _P, _sample_times,
                             _Tsit5)
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
            pred["entry_time"] * 6.0 + 1.0, cfg)


def _affine_setup(g=0.3 + 0.4j, gamma=1.5, n_sites=16):
    """Decoupled single-site model dpsi/dt = -gamma*psi - i*g with fixed
    point psi* = -i*g/gamma and explicit exponential relaxation."""
    params = ModelParams(kappa=0.0, gamma=gamma)
    profile = SpatialProfile("custom", values=(g,), start=0)
    spec = DrivingSpec(g1=DrivingField(profile, CosineLaw.constant(1.0)))

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
        f = make_rhs(params, spec.sampler(64), "periodic")
        end, mid = [], []
        for h in (0.1, 0.05, 0.025):
            kernel = _Tsit5(f, psi0, 0.0)
            kernel.attempt(0.0, h, ORACLE_CONFIG)
            end.append(np.linalg.norm(kernel.Y[1] - exact(h, psi0)))
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

    def test_tail_series_is_the_direct_sum(self):
        # each sample's tail against sum_{|n|>m} |psi_n|^2 of its state
        params, spec, _ = _dft_setup(n_sites=16)
        psi0 = random_state(16, 3, bc="periodic", localized=False)
        for m in range(8):
            traj = integrate(psi0, 0.0, 0.3, params, spec, tail_cutoff=m)
            for v, tail in zip(traj.values, traj.tails):
                direct = sum(abs(z) ** 2 for i, z in enumerate(v)
                             if abs(i - 8) > m)
                assert tail == pytest.approx(direct, rel=1e-13), m

    @pytest.mark.parametrize("m", [8, -1])
    def test_tail_cutoff_out_of_range(self, m):
        params, spec, _ = _affine_setup()
        with pytest.raises(DomainError, match="out of range"):
            integrate(random_state(16, 3), 0.0, 1.0, params, spec,
                      tail_cutoff=m)

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

    def test_overflow_on_a_rejected_step_is_silent(self):
        # at kappa = 1e6 some trial steps overflow; their error norm is not
        # finite, so they are rejected, and no warning is raised
        cfg = load_config(CONFIGS / "simulate.json")
        params = dataclasses.replace(cfg.model, kappa=1e6)
        psi0 = random_state(cfg.n_sites, 0, norm=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(psi0, 0.0, 1e-4, params, cfg.driving,
                             cfg.integrator)
        assert traj.stats.rejected > 0
        assert np.all(np.isfinite(traj.values)) and traj.times[-1] == 1e-4

    def test_attempt_allocates_nothing(self):
        cfg = load_config(CONFIGS / "simulate.json")
        psi0 = random_state(4096, 0, norm=2.0)
        f = make_rhs(cfg.model, cfg.driving.sampler(4096), cfg.bc)
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
        f = make_rhs(cfg.model, cfg.driving.sampler(64), cfg.bc)
        kernel = _Tsit5(f, random_state(64, 0, norm=2.0).values, 0.0)

        def attempt_matches_fresh(t, h):
            fresh = _Tsit5(f, kernel.S[0].copy(), t)
            err = kernel.attempt(t, h, ic)
            assert err == fresh.attempt(t, h, ic)
            assert kernel.Y[1].tobytes() == fresh.Y[1].tobytes()
            return err

        assert attempt_matches_fresh(0.0, 0.5) > 1.0  # rejected
        assert attempt_matches_fresh(0.0, 1e-2) <= 1.0
        kernel.accept()
        assert attempt_matches_fresh(1e-2, 1e-2) <= 1.0


def _mutated(obj, old, new):
    """``obj`` of the integrator (``_Tsit5``, ``integrate``) compiled from
    its source with ``old`` replaced by ``new``, in a copy of the module's
    namespace."""
    src = textwrap.dedent(inspect.getsource(obj))
    assert src.count(old) == 1, old
    namespace = dict(vars(integrator))
    exec(compile(src.replace(old, new), integrator.__file__, "exec"),
         namespace)
    return namespace[obj.__name__]


class TestOneState:
    """One state is a batch of one, returned without the member axis."""

    def test_shapes(self):
        cfg = load_config(CONFIGS / "dimension.json")
        psi0 = random_state(32, 0, norm=1.0)
        kept, dropped = (integrate(psi0, 0.0, 2.0, cfg.model, cfg.driving,
                                   cfg.integrator, tail_cutoff=4,
                                   keep_states=keep)
                         for keep in (True, False))
        n = kept.n_samples
        assert kept.values.shape == (n, 32) and dropped.values.shape == (0, 32)
        for traj in (kept, dropped):
            assert traj.norms.shape == traj.tails.shape == (n,)

    @pytest.mark.parametrize("name", ["dimension.json", "simulate.json"])
    def test_equals_the_batch_of_one_bit_for_bit(self, name):
        cfg = load_config(CONFIGS / name)
        psi0 = random_state(32, 3, norm=1.5, bc=cfg.bc)
        ic = dataclasses.replace(cfg.integrator, sample_stride=0.5)
        one, batch = (integrate(psi0, 0.0, 6.0, cfg.model, cfg.driving, ic,
                                tail_cutoff=4, **kwargs)
                      for kwargs in ({}, {"shifts": [0.0]}))
        assert one.stats == batch.stats
        for attr in ("values", "norms", "tails"):
            assert getattr(one, attr).tobytes() == \
                np.ascontiguousarray(getattr(batch, attr)[:, 0]).tobytes()


class TestBatch:
    """Members stepped side by side under hull shifts (``shifts``)."""

    @pytest.mark.parametrize("name, bc", [("dimension.json", "dirichlet"),
                                          ("simulate.json", "periodic")])
    def test_members_match_their_single_runs(self, name, bc):
        # the batch shares its steps, so a member's samples differ from its
        # own run's at the tolerance's level, not bit for bit
        cfg = load_config(CONFIGS / name)
        ic = dataclasses.replace(cfg.integrator, sample_stride=0.5)
        psi0 = random_state(32, 4, norm=1.5, bc=bc)
        shifts = (0.0, 0.3, 2 * math.pi * 7, -11.0)
        batch = integrate(psi0, 0.0, 6.0, cfg.model, cfg.driving, ic,
                          tail_cutoff=4, shifts=shifts)
        assert batch.values.shape == (batch.n_samples, 4, 32)
        assert batch.norms.shape == batch.tails.shape == (batch.n_samples, 4)
        assert batch.stats.rhs_evals == 1 + 6 * (batch.stats.accepted
                                                 + batch.stats.rejected)
        for b, h in enumerate(shifts):
            one = integrate(psi0, 0.0, 6.0, cfg.model,
                            translate(cfg.driving, h), ic, tail_cutoff=4)
            assert np.array_equal(batch.times, one.times)
            bound = 10 * ic.rtol * (1 + one.norms)
            assert np.all(np.linalg.norm(batch.values[:, b] - one.values,
                                         axis=1) <= bound), b
            assert np.all(np.abs(batch.norms[:, b] - one.norms) <= bound)
            assert np.all(np.abs(batch.tails[:, b] - one.tails) <= bound)
            assert batch.norms[:, b] == pytest.approx(
                np.linalg.norm(batch.values[:, b], axis=1), rel=1e-14)

    def test_dropping_states_keeps_the_member_series(self):
        cfg = load_config(CONFIGS / "dimension.json")
        psi0 = random_state(16, 0, norm=1.0)
        kept, dropped = (integrate(psi0, 0.0, 2.0, cfg.model, cfg.driving,
                                   cfg.integrator, keep_states=keep,
                                   shifts=(0.0, 1.0))
                         for keep in (True, False))
        assert dropped.values.shape == (0, 2, 16)
        assert np.array_equal(kept.norms, dropped.norms)

    @staticmethod
    def _error_norms(kernel_cls):
        """A batch attempt's error norm, and those of its members alone:
        three states far apart in size, so their errors differ."""
        cfg = load_config(CONFIGS / "dimension.json")
        states = [np.zeros(32, dtype=complex),
                  random_state(32, 1, norm=0.1).values,
                  random_state(32, 2, norm=3.0).values]
        one = make_rhs(cfg.model, cfg.driving.sampler(32), cfg.bc,
                       shifts=(0.0,))
        batch = make_rhs(cfg.model, cfg.driving.sampler(32), cfg.bc,
                         shifts=(0.0,) * len(states))
        alone = [kernel_cls(one, y[:, None], 0.0).attempt(0.0, 0.05,
                                                          cfg.integrator)
                 for y in states]
        together = kernel_cls(batch, np.stack(states, axis=1), 0.0).attempt(
            0.0, 0.05, cfg.integrator)
        return together, alone

    def test_error_norm_is_the_worst_members(self):
        together, alone = self._error_norms(_Tsit5)
        assert max(alone) > 2 * min(alone)
        assert together == pytest.approx(max(alone), rel=1e-9)

    def test_mean_error_norm_is_caught(self):
        # the RMS over all members lets the worst one exceed its tolerance
        together, alone = self._error_norms(
            _mutated(_Tsit5, "max(self._sq_re.tolist())", "self._sq_re.mean()"))
        assert together != pytest.approx(max(alone), rel=1e-9)


class TestWindow:
    """The active window against the whole lattice, which a cut-off of 0
    gives on a random state: that is nonzero at every site."""

    EPS = integrator._CUT * 1e-11  # at the configs' atol

    @staticmethod
    def _model(gamma=2.0):
        """simulate.json's model at damping ``gamma``, and its driving and
        integrator config, sampled every 0.5."""
        cfg = load_config(CONFIGS / "simulate.json")
        ic = dataclasses.replace(cfg.integrator, sample_stride=0.5)
        assert ic.atol == 1e-11
        return dataclasses.replace(cfg.model, gamma=gamma), cfg.driving, ic

    @classmethod
    def _runs(cls, monkeypatch, gamma=2.0, n_sites=4096, t1=6.0,
              bc="dirichlet", window_run=None, **kwargs):
        """(window, whole lattice) of ``integrate`` (``window_run`` on the
        window) on ``_model(gamma)``."""
        runs = [functools.partial(f, random_state(n_sites, 0, norm=2.0, bc=bc),
                                  0.0, t1, *cls._model(gamma), **kwargs)
                for f in (window_run or integrate, integrate)]
        window = runs[0]()
        monkeypatch.setattr(integrator, "_CUT", 0.0)
        full = runs[1]()
        assert full.stats.sites == n_sites
        return window, full

    @pytest.mark.parametrize("gamma, n_sites, t1, sites", [
        (2.0, 4096, 50.0, 655),   # simulate.json at N = 4096: never grows
        (0.1, 2048, 30.0, 2048),  # grows twice, then steps the whole lattice
    ])
    def test_matches_the_whole_lattice(self, monkeypatch, gamma, n_sites,
                                       t1, sites):
        window, full = self._runs(monkeypatch, gamma, n_sites, t1,
                                  tail_cutoff=8)
        assert window.stats.sites == sites
        np.testing.assert_allclose(window.norms, full.norms, rtol=1e-12)
        np.testing.assert_allclose(window.tails, full.tails, rtol=1e-12)
        s = window.stats
        assert (s.accepted, s.rejected) == (full.stats.accepted,
                                            full.stats.rejected)
        assert s.rhs_evals == 1 + 6 * (s.accepted + s.rejected)
        # zero outside one run of ``sites`` sites, and nonzero wherever the
        # whole lattice's state exceeds the cut-off
        nz = np.flatnonzero(np.any(window.values != 0, axis=0))
        assert nz[-1] - nz[0] < sites
        assert np.all(np.abs(full.values[window.values == 0]) <= self.EPS)

    def test_skipping_the_edge_check_is_caught(self, monkeypatch):
        frozen = _mutated(integrate, "grow(kernel, t) if", "kernel if")
        window, full = self._runs(monkeypatch, 0.1, 2048, 30.0,
                                  window_run=frozen)
        assert window.stats.sites < 2048
        assert np.abs(full.values[window.values == 0]).max() > self.EPS

    def test_batch_members_match_the_whole_lattice(self, monkeypatch):
        shifts = (0.0, 0.3, -2.0)
        window, full = self._runs(monkeypatch, n_sites=2048,
                                  tail_cutoff=4, shifts=shifts)
        assert window.stats.sites < 2048
        for b in range(len(shifts)):
            bound = 10 * full.config.rtol * (1 + full.norms[:, b])
            assert np.all(np.linalg.norm(window.values[:, b]
                                         - full.values[:, b], axis=1) <= bound)
            assert np.all(np.abs(window.norms[:, b] - full.norms[:, b]) <= bound)
            assert np.all(np.abs(window.tails[:, b] - full.tails[:, b]) <= bound)

    def test_pair_gaps_match_the_whole_lattice(self, monkeypatch):
        # continuity's two runs at hull shift 0.3, as its gap record reads
        params, spec, ic = self._model()
        theta = random_state(4096, 0, norm=2.0)
        theta_n = random_state(4096, 7, norm=1.0)
        sites = []

        def spy(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            sites.append(traj.stats.sites)
            return traj
        monkeypatch.setattr(dg, "integrate", spy)

        def gaps():
            return np.array(dg.continuity_gap(params, spec, 0.3, theta,
                                              theta_n, 5.0, ic)["gap"])
        window = gaps()
        monkeypatch.setattr(integrator, "_CUT", 0.0)
        full = gaps()
        assert max(sites[:2]) < 4096 and sites[2:] == [4096, 4096]
        bound = 10 * ic.rtol * (1 + full)
        assert np.all(np.abs(window - full) <= bound)

    @pytest.mark.parametrize("n_sites, bc", [(4096, "periodic"),
                                             (512, "dirichlet")])
    def test_whole_lattice_when_periodic_or_wide(self, monkeypatch, n_sites,
                                                 bc):
        # the state exceeds the cut-off on ~625 sites, more than 512/2
        window, full = self._runs(monkeypatch, n_sites=n_sites, t1=1.0,
                                  bc=bc)
        assert window.stats == full.stats
        assert window.values.tobytes() == full.values.tobytes()


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
            CosineLaw.periodic(period=2 * math.pi))
        g2 = DrivingField(SpatialProfile.single_site(0.25),
                          CosineLaw.constant(1.0))
        spec = DrivingSpec(g1=g1, g2=g2)
        params = ModelParams(kappa=1.0, gamma=2.0,
                             nonlinearity=NonlinearitySpec(sigma=1.0, sign=1))
        return params, spec

    def test_no_violations_on_honest_trajectory(self):
        params, spec = self._scenario()
        psi0 = random_state(64, 0, norm=2.0)
        traj = integrate(psi0, 0.0, 5.0, params, spec)
        report = verify_bounds(traj, params, spec)["dissipation"]
        assert report["ok"]
        assert report["checked"] == traj.n_samples - 1

    def test_detects_injected_energy(self):
        params, spec = self._scenario()
        psi0 = random_state(64, 0, norm=2.0)
        traj = integrate(psi0, 0.0, 5.0, params, spec)
        norms = traj.norms.copy()
        norms[20:] += 5.0  # a jump no dissipative flow can produce
        bad = dataclasses.replace(traj, norms=norms)
        assert not verify_bounds(bad, params, spec)["dissipation"]["ok"]

    def test_detects_realistic_energy_ramp(self):
        # simulate.json's scenario; after t = 25, ||psi||^2 gains 1% of the
        # forcing level sup||g1||^2/Gt per unit time
        psi0, t1, cfg = _bundled_run("simulate.json")
        traj = integrate(psi0, 0.0, t1, cfg.model, cfg.driving,
                         cfg.integrator, keep_states=False)
        honest = verify_bounds(traj, cfg.model, cfg.driving)["dissipation"]
        assert honest["ok"]
        gt = certificate(cfg.model, cfg.driving).gamma_tilde
        rate = 0.01 * cfg.driving.g1.sup_norm() ** 2 / gt
        n2 = traj.norms ** 2 + rate * np.maximum(traj.times - 25.0, 0.0)
        ramped = dataclasses.replace(traj, norms=np.sqrt(n2))
        assert not verify_bounds(ramped, cfg.model, cfg.driving)["dissipation"]["ok"]

    def test_detects_energy_step(self):
        # simulate.json's scenario with 0.05 added to ||psi||^2 from t = 25
        # on; the late ||psi||^2 is 0.002-0.19, so the step is no round-off
        psi0, t1, cfg = _bundled_run("simulate.json")
        traj = integrate(psi0, 0.0, t1, cfg.model, cfg.driving,
                         cfg.integrator, keep_states=False)
        n2 = traj.norms ** 2 + 0.05 * (traj.times >= 25.0)
        stepped = dataclasses.replace(traj, norms=np.sqrt(n2))
        report = verify_bounds(stepped, cfg.model, cfg.driving)["dissipation"]
        first = int(np.argmax(traj.times >= 25.0))
        assert report["flagged"] == [first - 1]

    def test_refuses_weak_damping(self):
        params, spec = self._scenario()
        weak = ModelParams(kappa=1.0, gamma=0.4,
                           nonlinearity=NonlinearitySpec(sigma=1.0, sign=1))
        psi0 = random_state(64, 0, norm=1.0)
        traj = integrate(psi0, 0.0, 1.0, weak, spec)
        with pytest.raises(DomainError, match=r"need gamma > 2\*sup"):
            verify_bounds(traj, weak, spec)
