"""Lattice states, operators and the nonlinearity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls import (LatticeState, ModelParams, NonlinearitySpec,
                  apply_difference, apply_laplacian, evaluate_nonlinearity,
                  l2_norm, random_state, rhs, tail_mass)
from dnls.driving import (ConstantLaw, DrivingField, DrivingSpec,
                          HarmonicSumLaw, PeriodicLaw, SpatialProfile)
from dnls.errors import DomainError
from dnls.lattice import make_rhs, norm_sq


def _rand(n, seed, bc="dirichlet"):
    rng = np.random.default_rng(seed)
    return LatticeState(rng.standard_normal(n) + 1j * rng.standard_normal(n), bc)


def _inner(a: LatticeState, b: LatticeState) -> complex:
    return complex(np.vdot(b.values, a.values))


class TestLatticeState:
    def test_values_are_immutable(self):
        s = _rand(8, 0)
        with pytest.raises(ValueError):
            s.values[0] = 1.0

    def test_rejects_nan(self):
        v = np.zeros(8, dtype=complex)
        v[3] = np.nan
        with pytest.raises(DomainError):
            LatticeState(v)

    def test_rejects_tiny_lattice(self):
        with pytest.raises(DomainError):
            LatticeState(np.zeros(2, dtype=complex))

    def test_rejects_unknown_bc(self):
        with pytest.raises(DomainError):
            LatticeState(np.zeros(8, dtype=complex), bc="absorbing")

    def test_site_index_centering(self):
        s = LatticeState.zeros(8)
        assert s.site_index(0) == 4
        assert s.site_index(-4) == 0
        assert s.site_index(3) == 7
        with pytest.raises(DomainError):
            s.site_index(4)

    def test_single_site(self):
        s = LatticeState.single_site(9, 2, amplitude=1j)
        assert s.values[s.site_index(2)] == 1j
        assert l2_norm(s) == 1.0


class TestOperators:
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_laplacian_bounded_by_4(self, bc):
        for seed in range(50):
            s = _rand(64, seed, bc)
            assert l2_norm(apply_laplacian(s)) <= 4.0 * l2_norm(s) * (1 + 1e-12)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_difference_adjoint(self, bc):
        for seed in range(50):
            psi = _rand(64, 2 * seed, bc)
            theta = _rand(64, 2 * seed + 1, bc)
            lhs = _inner(apply_difference(psi, "forward"), theta)
            rhs_ = _inner(psi, apply_difference(theta, "backward"))
            assert abs(lhs - rhs_) <= 1e-12 * l2_norm(psi) * l2_norm(theta)

    def test_laplacian_factorization_periodic(self):
        # -A = B*B holds exactly under periodic wrap-around
        for seed in range(50):
            psi = _rand(64, seed, "periodic")
            bstar_b = apply_difference(apply_difference(psi, "forward"), "backward")
            total = bstar_b.values + apply_laplacian(psi).values
            assert math.sqrt(norm_sq(total)) <= 1e-12 * l2_norm(psi)

    def test_laplacian_explicit_stencil(self):
        s = LatticeState.single_site(8, 0)
        out = apply_laplacian(s).values
        i = s.site_index(0)
        assert out[i] == -2.0 and out[i - 1] == 1.0 and out[i + 1] == 1.0

    def test_difference_rejects_bad_direction(self):
        with pytest.raises(DomainError):
            apply_difference(_rand(8, 0), "sideways")


class TestNorms:
    def test_l2_norm_matches_numpy(self):
        s = _rand(128, 7)
        assert l2_norm(s) == pytest.approx(np.linalg.norm(s.values), rel=1e-14)

    def test_tail_mass_direct(self):
        s = _rand(16, 3)
        c = 8
        for m in range(8):
            direct = sum(abs(z) ** 2 for i, z in enumerate(s.values)
                         if abs(i - c) > m)
            assert tail_mass(s, m) == pytest.approx(direct, rel=1e-13)

    def test_tail_mass_range(self):
        s = _rand(16, 3)
        with pytest.raises(DomainError):
            tail_mass(s, 8)
        with pytest.raises(DomainError):
            tail_mass(s, -1)


class TestNonlinearity:
    def test_cubic_values(self):
        s = _rand(16, 5)
        spec = NonlinearitySpec.cubic(-1)
        out = evaluate_nonlinearity(s, spec).values
        expect = -np.abs(s.values) ** 2 * s.values
        assert np.allclose(out, expect, rtol=1e-13)

    def test_defaults(self):
        spec = NonlinearitySpec(sigma=0.5)
        assert spec.b == 1.0 and spec.a == pytest.approx(1.0)
        spec2 = NonlinearitySpec(sigma=2.0)
        assert spec2.b == 4.0 and spec2.a == 5.0

    def test_validation(self):
        with pytest.raises(DomainError):
            NonlinearitySpec(sigma=0.0)
        with pytest.raises(DomainError):  # a = 2*sigma + 1 overflows
            NonlinearitySpec(sigma=1e308)
        with pytest.raises(DomainError):
            NonlinearitySpec(sigma=1.0, sign=2)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 2.0])
    @settings(max_examples=200, deadline=None)
    @given(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                              allow_infinity=False),
           st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                              allow_infinity=False))
    def test_two_sided_growth_bound(self, sigma, sign, x, y):
        # |F(|x|^2)x - F(|y|^2)y| <= a*(|x|^b + |y|^b)*|x - y| with the
        # (a, b) derived from sigma
        spec = NonlinearitySpec(sigma=sigma, sign=sign)
        fx, fy = (sign * abs(z) ** (2 * sigma) * z for z in (x, y))
        bound = spec.a * (abs(x) ** spec.b + abs(y) ** spec.b) * abs(x - y)
        assert abs(fx - fy) <= bound + 1e-12


class TestRhs:
    def test_zero_state_sees_only_additive_driving(self):
        g1 = DrivingField(SpatialProfile("single_site", amplitude=0.7),
                          ConstantLaw(1.0))
        spec = DrivingSpec(g1=g1)
        params = ModelParams(kappa=1.0, gamma=2.0,
                             nonlinearity=NonlinearitySpec.cubic())
        s = LatticeState.zeros(16)
        out = rhs(s, 0.0, params, spec.sampler(16))
        expect = np.zeros(16, dtype=complex)
        expect[8] = -1j * 0.7
        assert np.allclose(out.values, expect)

    def test_linear_terms(self):
        params = ModelParams(kappa=0.5, gamma=2.0)
        s = _rand(16, 1)
        out = rhs(s, 0.0, params, DrivingSpec(g1=DrivingField.zero()).sampler(16))
        expect = -0.5j * apply_laplacian(s).values - 2.0 * s.values
        assert np.allclose(out.values, expect)

    def test_model_params_validation(self):
        with pytest.raises(DomainError):
            ModelParams(kappa=1.0, gamma=0.0)
        with pytest.raises(DomainError):
            ModelParams(kappa=math.inf, gamma=1.0)


def _reference_rhs(params, spec, n_sites, bc):
    """The right-hand side written plainly: both fields realized on every
    site at every call, one diagonal coefficient times psi, the couplings
    as shifted adds, then the wrap terms and g1."""
    p1, p2 = [g.profile.realize(n_sites) if g.sup_norm() > 0 else None
              for g in (spec.g1, spec.g2)]
    diag = complex(-params.gamma, 2.0 * params.kappa)
    nl = params.nonlinearity

    def f(t, v):
        g1 = None if p1 is None else p1 * spec.g1.scalar(t)
        g2 = None if p2 is None else p2 * spec.g2.scalar(t)
        d = diag
        if nl is not None:
            s = np.abs(v)
            s *= s
            if nl.sigma != 1.0:
                s **= nl.sigma
            d = s * (-1j * nl.sign)
            d += diag
        if g2 is not None:
            d = d - 1j * g2
        out = d * v
        hv = -1j * params.kappa * v
        out[:-1] += hv[1:]
        out[1:] += hv[:-1]
        if bc == "periodic":
            out[-1] += hv[0]
            out[0] += hv[-1]
        if g1 is not None:
            out -= 1j * g1
        return out

    return f


_EXP = SpatialProfile("exponential", amplitude=0.6, rate=0.8)
_PERIODIC = PeriodicLaw(period=2.5, amplitude=0.9, phase=0.4)
_CUSTOM = SpatialProfile("custom", values=(0.1 + 0.2j, -0.3 + 0.05j, 0.2),
                         start=-1)
_SITE_G2 = DrivingField(SpatialProfile("single_site", amplitude=0.25, site=3),
                        ConstantLaw(1.0))
# (nonlinearity, g1, g2) of each case; None is a zero field
_RHS_CASES = {
    "F=0": (None, None, None),
    "cubic+": (NonlinearitySpec.cubic(1), DrivingField(_EXP, _PERIODIC), None),
    "cubic-": (NonlinearitySpec.cubic(-1), DrivingField(_EXP, _PERIODIC),
               None),
    "sigma=1.5": (NonlinearitySpec(sigma=1.5),
                  DrivingField(SpatialProfile("gaussian", amplitude=0.4,
                                              width=3.0), _PERIODIC), None),
    "g1 only": (None, DrivingField(_EXP, _PERIODIC, offset=0.3), None),
    "single-site g2": (NonlinearitySpec.cubic(1), DrivingField(_EXP, _PERIODIC),
                       _SITE_G2),
    "single-site g2, F=0": (None, None, _SITE_G2),
    "complex custom": (NonlinearitySpec.cubic(-1),
                       DrivingField(_CUSTOM, _PERIODIC),
                       DrivingField(_CUSTOM, PeriodicLaw(period=4.0))),
    "complex custom g2, F=0": (None, None,
                               DrivingField(_CUSTOM, PeriodicLaw(period=4.0))),
    "harmonic law": (NonlinearitySpec.cubic(-1),
                     DrivingField(_EXP, HarmonicSumLaw(
                         frequencies=(1.0, math.sqrt(2.0)),
                         amplitudes=(1.0, 0.8), phases=(0.1, 0.0)),
                         offset=1.7),
                     _SITE_G2),
    # g2's law is constant: q2*law is formed once, when the closure is built
    "constant custom g2": (NonlinearitySpec.cubic(1),
                           DrivingField(_EXP, _PERIODIC),
                           DrivingField(_CUSTOM, ConstantLaw(0.7), offset=0.2)),
    "constant custom g2, F=0": (None, None,
                                DrivingField(_CUSTOM, ConstantLaw(-1.3))),
    "three harmonics": (NonlinearitySpec(sigma=1.5),
                        DrivingField(_EXP, HarmonicSumLaw(
                            frequencies=(1.0, math.sqrt(2.0), math.pi),
                            amplitudes=(1.0, 0.8, 0.3),
                            phases=(0.1, 0.0, -0.5))),
                        None),
}


def _rhs_pair(case, n_sites, bc, kappa=0.7):
    """The closure from ``make_rhs`` and the reference, for one case."""
    nl, g1, g2 = _RHS_CASES[case]
    params = ModelParams(kappa=kappa, gamma=1.3, nonlinearity=nl)
    spec = DrivingSpec(g1=g1 or DrivingField.zero(),
                       g2=g2 or DrivingField.zero())
    return (make_rhs(params, spec.sampler(n_sites), n_sites, bc),
            _reference_rhs(params, spec, n_sites, bc))


class TestInPlaceRhs:
    @pytest.mark.parametrize("kappa", [0.7, -0.4])
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("case", sorted(_RHS_CASES))
    def test_matches_reference_bit_for_bit(self, case, bc, kappa):
        f, ref = _rhs_pair(case, 64, bc, kappa)
        out = np.empty(64, dtype=complex)
        # the same out buffer over several states and times: no call may
        # leave anything behind that the next one reads
        for seed, t in [(0, 0.0), (1, 0.77), (2, 13.1), (0, 0.77)]:
            v = _rand(64, seed).values
            got = f(t, v, out)
            assert got is out
            assert got.view(np.uint64).tobytes() == \
                ref(t, v).view(np.uint64).tobytes(), (seed, t)

    def test_without_out_returns_a_fresh_array(self):
        f, _ = _rhs_pair("single-site g2", 64, "periodic")
        v, w = _rand(64, 0).values, _rand(64, 1).values
        a = f(0.1, v)
        kept = a.copy()
        b = f(0.1, w)
        assert a is not b and not np.shares_memory(a, b)
        assert np.array_equal(a, kept)

    @pytest.mark.parametrize("case", sorted(_RHS_CASES))
    def test_in_place_evaluation_allocates_nothing(self, case):
        # one full-size temporary at N=4096 takes 32 KiB (real) or 64 KiB
        n = 4096
        f, _ = _rhs_pair(case, n, "periodic")
        v = random_state(n, 0, norm=2.0, localized=False).values
        out = np.empty(n, dtype=complex)
        f(0.0, v, out)
        tracemalloc.start()
        try:
            for i in range(1000):
                f(1e-3 * i, v, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 10

    @pytest.mark.parametrize("sampled_at", [32, 8])
    def test_sampler_of_another_size_is_rejected(self, sampled_at):
        # site 3 realized at N=32 is index 19, beyond a 16-site lattice,
        # and at N=8 index 7, not 11: either would put g1 in the wrong place
        # or drop it without an error
        params = ModelParams(kappa=0.7, gamma=1.3)
        spec = DrivingSpec(g1=_SITE_G2)
        with pytest.raises(DomainError, match="realized on"):
            make_rhs(params, spec.sampler(sampled_at), 16, "dirichlet")
        with pytest.raises(DomainError, match="realized on"):
            rhs(_rand(16, 0), 0.0, params, spec.sampler(sampled_at))


class TestRandomState:
    def test_norm_and_determinism(self):
        a = random_state(64, 11, norm=0.7)
        b = random_state(64, 11, norm=0.7)
        assert l2_norm(a) == pytest.approx(0.7, rel=1e-13)
        assert np.array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self):
        a = random_state(64, 1)
        b = random_state(64, 2)
        assert not np.array_equal(a.values, b.values)

    def test_localization_envelope(self):
        s = random_state(256, 0, localized=True)
        assert abs(s.values[0]) < 1e-5 * max(abs(s.values))
