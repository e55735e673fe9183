"""Driving fields: profiles, temporal laws, translation, and the
certificate constants (sup norms, effective damping, radii, gap rate)."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls import (ConstantLaw, DrivingField, DrivingSpec, HarmonicSumLaw,
                  ModelParams, NonlinearitySpec, PeriodicLaw, SpatialProfile,
                  certificate, translate)
from dnls.driving import check_rationally_independent
from dnls.errors import DampingTooWeakError, DomainError
from dnls.lattice import make_rhs, random_state


class TestSpatialProfile:
    def test_exponential_norm_closed_form(self):
        p = SpatialProfile("exponential", amplitude=0.5, rate=0.8)
        direct = 0.25 * sum(math.exp(-1.6 * abs(n)) for n in range(-500, 501))
        assert p.l2_norm_sq() == pytest.approx(direct, rel=1e-13)
        assert p.l2_norm_sq() == pytest.approx(0.25 / math.tanh(0.8), rel=1e-15)

    @pytest.mark.parametrize("m", [0, 1, 3, 10])
    def test_exponential_tail_closed_form(self, m):
        p = SpatialProfile("exponential", amplitude=1.3, rate=0.6)
        direct = 1.69 * 2 * sum(math.exp(-1.2 * n) for n in range(m + 1, 2000))
        assert p.tail_sq(m) == pytest.approx(direct, rel=1e-12)

    def test_gaussian_sums(self):
        p = SpatialProfile("gaussian", amplitude=2.0, width=1.5)
        direct = 4.0 * sum(math.exp(-n * n / 1.5 ** 2) for n in range(-100, 101))
        assert p.l2_norm_sq() == pytest.approx(direct, rel=1e-12)
        tail = 4.0 * 2 * sum(math.exp(-n * n / 1.5 ** 2) for n in range(4, 100))
        assert p.tail_sq(3) == pytest.approx(tail, rel=1e-12)

    @pytest.mark.parametrize("width", [40.0, 300.0])
    def test_wide_gaussian_sums_are_upper_bounds(self, width):
        # past the terms summed one by one, the rest is bounded by an integral
        p = SpatialProfile("gaussian", width=width)
        n = np.arange(1, int(30 * width))
        direct = 2 * math.fsum(np.exp(-(n * n) / width ** 2))
        assert direct <= p.l2_norm_sq() - 1.0 <= direct * (1 + 1e-2)
        tail = 2 * math.fsum(np.exp(-(n[5:] * n[5:]) / width ** 2))
        assert tail <= p.tail_sq(5) <= tail * (1 + 1e-2)

    def test_huge_gaussian_width_returns(self):
        p = SpatialProfile("gaussian", width=1e308)
        start = time.perf_counter()
        assert p.l2_norm_sq() > 1e307 and p.tail_sq(10) > 1e307
        assert time.perf_counter() - start < 1.0

    def test_exponential_tail_at_small_rate(self):
        # sum_{|n|>0} exp(-2r|n|) = coth(r) - 1; a denominator formed as
        # 1 - exp(-2r) is off by about 5e-8 relative at this rate
        p = SpatialProfile("exponential", rate=1e-9)
        assert p.tail_sq(0) == pytest.approx(1 / math.tanh(1e-9) - 1,
                                             rel=1e-12)

    def test_gaussian_whose_width_squared_underflows(self):
        # width^2 = 0 in floats: every site but 0 underflows to 0
        p = SpatialProfile("gaussian", amplitude=2.0, width=1e-200)
        expected = np.zeros(16, dtype=complex)
        expected[8] = 2.0
        with np.errstate(all="raise"):
            assert np.array_equal(p.realize(16), expected)
        assert p.l2_norm_sq() == 4.0 and p.tail_sq(0) == 0.0

    def test_single_site_and_custom(self):
        p = SpatialProfile("single_site", amplitude=0.4, site=3)
        assert p.l2_norm_sq() == pytest.approx(0.16)
        assert p.tail_sq(2) == pytest.approx(0.16)
        assert p.tail_sq(3) == 0.0
        q = SpatialProfile("custom", values=(1.0, 1j), start=-1)
        assert q.l2_norm_sq() == pytest.approx(2.0)
        assert q.tail_sq(0) == pytest.approx(1.0)

    def test_realize_matches_formula(self):
        p = SpatialProfile("exponential", amplitude=1.0, rate=0.5)
        v = p.realize(16)
        for i, z in enumerate(v):
            assert z == pytest.approx(math.exp(-0.5 * abs(i - 8)))

    def test_realize_custom_out_of_range(self):
        p = SpatialProfile("custom", values=(1.0,) * 4, start=6)
        with pytest.raises(DomainError):
            p.realize(16)

    def test_truncation_fraction_decays(self):
        # the share of the profile's mass beyond a 256-site truncation
        def lost(p):
            return p.tail_sq(256 // 2 - 1) / p.l2_norm_sq()
        for rate in (0.15, 0.5, 1.0):
            assert lost(SpatialProfile("exponential", rate=rate)) <= 1e-12
        # very slow spatial decay needs a slightly wider budget
        assert lost(SpatialProfile("exponential", rate=0.1)) <= 1e-10

    def test_validation(self):
        with pytest.raises(DomainError):
            SpatialProfile("exponential", rate=0.0)
        with pytest.raises(DomainError):
            SpatialProfile("gaussian", width=-1.0)
        with pytest.raises(DomainError):
            SpatialProfile("plateau")

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.2, max_value=2.0),
           st.integers(min_value=0, max_value=20))
    def test_tail_monotone_and_consistent(self, rate, m):
        p = SpatialProfile("exponential", rate=rate)
        assert p.tail_sq(m + 1) < p.tail_sq(m)
        assert p.tail_sq(m) < p.l2_norm_sq()


class TestTemporalLaws:
    def test_constant(self):
        law = ConstantLaw(0.3)
        assert law(12.5) == 0.3
        assert law.amp_bound() == 0.3

    def test_periodic(self):
        law = PeriodicLaw(period=2.0, amplitude=1.5, phase=0.25)
        assert law(0.7) == pytest.approx(1.5 * math.cos(math.pi * 0.7 + 0.25))
        assert law.amp_bound() == 1.5
        with pytest.raises(DomainError):
            PeriodicLaw(period=0.0)

    def test_harmonic_sum(self):
        law = HarmonicSumLaw(frequencies=(1.0, math.sqrt(2.0)),
                             amplitudes=(0.5, 0.25))
        for t in np.linspace(0, 50, 500):
            assert abs(law(t)) <= law.amp_bound() + 1e-12
        assert law.amp_bound() == pytest.approx(0.75)

    def test_two_term_sum_equals_fsum(self):
        # one float addition is correctly rounded, as fsum is
        law = HarmonicSumLaw(frequencies=(1.0, math.sqrt(2.0)),
                             amplitudes=(1.0, 0.8), phases=(0.1, -2.3))
        rng = np.random.default_rng(7)
        for t in np.concatenate([rng.uniform(-1e3, 1e3, 10 ** 4),
                                 rng.uniform(0, 20, 10 ** 4)]).tolist():
            terms = [a * math.cos(w * t + p) for w, a, p in
                     zip(law.frequencies, law.amplitudes, law.phases)]
            assert law(t) == math.fsum(terms), t

    def test_three_term_sum_uses_fsum(self, monkeypatch):
        law = HarmonicSumLaw(frequencies=(1.0, math.sqrt(2.0), math.pi),
                             amplitudes=(1.0, 0.8, 0.5),
                             phases=(0.0, 0.3, 1.0))
        calls = []

        def fsum(terms):
            calls.append(len(terms))
            return 42.0
        monkeypatch.setattr(math, "fsum", fsum)
        assert law(1.7) == 42.0 and calls == [3]
        two = HarmonicSumLaw(frequencies=(1.0, math.sqrt(2.0)),
                             amplitudes=(1.0, 0.8))
        two(1.7)
        assert calls == [3]

    def test_harmonic_rejects_commensurate(self):
        with pytest.raises(DomainError):
            HarmonicSumLaw(frequencies=(1.0, 2.0), amplitudes=(1.0, 1.0))
        with pytest.raises(DomainError):
            HarmonicSumLaw(frequencies=(2.0 / 3.0, 1.0), amplitudes=(1.0, 1.0))

    def test_harmonic_needs_two(self):
        with pytest.raises(DomainError):
            HarmonicSumLaw(frequencies=(1.0,), amplitudes=(1.0,))

    def test_rational_independence_check(self):
        check_rationally_independent((1.0, math.sqrt(2.0), math.pi))
        with pytest.raises(DomainError):
            check_rationally_independent((1.5, 4.5))
        with pytest.raises(DomainError):
            check_rationally_independent((0.0, 1.0))


CUBIC = ModelParams(kappa=1.0, gamma=1.0,
                    nonlinearity=NonlinearitySpec.cubic())


class TestDrivingSpec:
    def _spec(self):
        g1 = DrivingField(SpatialProfile("exponential", amplitude=0.5, rate=1.0),
                          PeriodicLaw(period=2 * math.pi))
        g2 = DrivingField(SpatialProfile("single_site", amplitude=0.1),
                          ConstantLaw(1.0))
        return DrivingSpec(g1=g1, g2=g2)

    def test_sup_norm(self):
        cert = certificate(CUBIC, self._spec())
        assert cert.g1_sup == pytest.approx(0.5 * math.sqrt(1 / math.tanh(1.0)))
        assert cert.g2_sup == pytest.approx(0.1)

    def test_effective_damping(self):
        assert certificate(CUBIC, self._spec()).gamma_tilde == pytest.approx(0.8)

    def test_period(self):
        spec = self._spec()
        assert spec.period == pytest.approx(2 * math.pi)
        const = DrivingSpec(g1=DrivingField(SpatialProfile.zero()))
        assert const.period is None
        clash = DrivingSpec(
            g1=DrivingField(SpatialProfile.zero(), PeriodicLaw(period=1.0)),
            g2=DrivingField(SpatialProfile.zero(), PeriodicLaw(period=2.0)))
        with pytest.raises(DomainError):
            clash.period

    def test_translate_shifts_samples(self):
        # the right-hand side under the translate at t is the one under the
        # original at t + h: at psi = 0 it is -i*g1, elsewhere g2 adds in
        spec = self._spec()
        shifted = translate(spec, 1.3)
        params = ModelParams(kappa=1.0, gamma=1.0)
        f, f_shifted = (make_rhs(params, s.sampler(32), 32, "dirichlet")
                        for s in (spec, shifted))
        for t in (0.0, 0.7, 5.1):
            for v in (np.zeros(32, dtype=complex),
                      random_state(32, 0).values):
                assert np.allclose(f_shifted(t, v), f(t + 1.3, v))

    @pytest.mark.parametrize("profile, law", [
        (SpatialProfile("custom", values=(1e200, 1.0)), ConstantLaw(1.0)),
        (SpatialProfile("exponential", amplitude=1e200), ConstantLaw(1.0)),
        (SpatialProfile("single_site"),
         HarmonicSumLaw(frequencies=(1.0, math.sqrt(2.0)),
                        amplitudes=(1e308, 1e308))),
        (SpatialProfile("single_site", amplitude=1e200),
         PeriodicLaw(period=1.0, amplitude=1e200))])
    def test_overflowing_magnitude_is_refused(self, profile, law):
        # finite parts whose squares, sum or product leave the float range
        with pytest.raises(DomainError, match="not a finite float"):
            DrivingField(profile, law)

    def test_translate_preserves_sup_norm(self):
        spec = self._spec()
        assert certificate(CUBIC, translate(spec, 17.0)) == certificate(CUBIC, spec)

    def test_sampler_realizes_profile_once(self):
        spec = self._spec()
        s = spec.sampler(16)
        g1, g2 = s.sample_values(0.0, 16)
        assert g1 is not None and g2 is not None
        zero = DrivingSpec(g1=DrivingField.zero()).sampler(16)
        assert zero.sample_values(0.0, 16) == (None, None)


class TestCertificate:
    def _spec(self, g2_amp=0.1):
        g1 = DrivingField(SpatialProfile("single_site", amplitude=0.6),
                          PeriodicLaw(period=3.0, amplitude=-0.5))
        g2 = DrivingField(SpatialProfile("single_site", amplitude=g2_amp))
        return DrivingSpec(g1=g1, g2=g2)

    def test_constants(self):
        cert = certificate(CUBIC, self._spec())
        assert (cert.gamma, cert.g1_sup, cert.g2_sup) == (1.0, 0.3, 0.1)
        assert (cert.a, cert.b) == (1.5, 2.0)
        assert cert.absorbing_radius == pytest.approx(math.sqrt(2) * 0.3 / 0.8)
        assert cert.breather_radius == pytest.approx(0.3 / 0.8)
        r = cert.breather_radius
        assert cert.gap_rate(r) == pytest.approx(1.0 - 1.5 * r ** 2 - 0.1)

    def test_linear_model_growth_constants(self):
        cert = certificate(ModelParams(kappa=1.0, gamma=2.0), self._spec())
        assert (cert.a, cert.b) == (0.0, 1.0)
        assert cert.gap_rate(5.0) == pytest.approx(1.9)

    def test_weak_damping_builds_but_is_not_dissipative(self):
        cert = certificate(CUBIC, self._spec(g2_amp=0.5))
        assert cert.gamma_tilde == 0.0
        with pytest.raises(DampingTooWeakError, match=r"need gamma > 2\*sup"):
            cert.dissipative()
        ok = certificate(CUBIC, self._spec())
        assert ok.dissipative() is ok
