"""Driving fields: profiles, temporal laws, translation, and the
certificate constants (sup norms, effective damping, radii, gap rate)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls import (CosineLaw, DrivingField, DrivingSpec, ModelParams,
                  NonlinearitySpec, SpatialProfile, certificate, translate)
from dnls.driving import check_rationally_independent
from dnls.errors import DomainError
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

    def test_exponential_tail_at_small_rate(self):
        # sum_{|n|>0} exp(-2r|n|) = coth(r) - 1; a denominator formed as
        # 1 - exp(-2r) is off by about 5e-8 relative at this rate
        p = SpatialProfile("exponential", rate=1e-9)
        assert p.tail_sq(0) == pytest.approx(1 / math.tanh(1e-9) - 1,
                                             rel=1e-12)

    def test_single_site_and_custom(self):
        p = SpatialProfile.single_site(0.4, 3)
        assert p == SpatialProfile("custom", values=(0.4,), start=3)
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
        # every profile is the exponential or a table
        for kind in ("gaussian", "plateau"):
            with pytest.raises(DomainError, match="unknown profile kind"):
                SpatialProfile(kind)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.2, max_value=2.0),
           st.integers(min_value=0, max_value=20))
    def test_tail_monotone_and_consistent(self, rate, m):
        p = SpatialProfile("exponential", rate=rate)
        assert p.tail_sq(m + 1) < p.tail_sq(m)
        assert p.tail_sq(m) < p.l2_norm_sq()


class TestTemporalLaws:
    def test_constant(self):
        law = CosineLaw.constant(0.3)
        assert law(12.5) == 0.3
        assert law.amp_bound() == 0.3

    def test_periodic(self):
        law = CosineLaw.periodic(period=2.0, amplitude=1.5, phase=0.25)
        assert law(0.7) == pytest.approx(1.5 * math.cos(math.pi * 0.7 + 0.25))
        assert law.amp_bound() == 1.5
        with pytest.raises(DomainError):
            CosineLaw.periodic(period=0.0)
        # 2 pi/period overflows below about 3.5e-308
        with pytest.raises(DomainError, match="period 1e-320 is too short"):
            CosineLaw.periodic(period=1e-320)

    def test_harmonic_sum(self):
        law = CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                                 amplitudes=(0.5, 0.25))
        for t in np.linspace(0, 50, 500):
            assert abs(law(t)) <= law.amp_bound() + 1e-12
        assert law.amp_bound() == pytest.approx(0.75)

    def test_two_term_sum_equals_fsum(self):
        # one float addition is correctly rounded, as fsum is
        law = CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                                 amplitudes=(1.0, 0.8), phases=(0.1, -2.3))
        rng = np.random.default_rng(7)
        for t in np.concatenate([rng.uniform(-1e3, 1e3, 10 ** 4),
                                 rng.uniform(0, 20, 10 ** 4)]).tolist():
            terms = [a * math.cos(w * t + p) for a, w, p in law.terms]
            assert law(t) == math.fsum(terms), t

    def test_three_term_sum_uses_fsum(self, monkeypatch):
        law = CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0), math.pi),
                                 amplitudes=(1.0, 0.8, 0.5),
                                 phases=(0.0, 0.3, 1.0))
        calls = []

        def fsum(terms):
            calls.append(len(terms))
            return 42.0
        monkeypatch.setattr(math, "fsum", fsum)
        assert law(1.7) == 42.0 and calls == [3]
        two = CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                                 amplitudes=(1.0, 0.8))
        two(1.7)  # two terms take the same sum
        assert calls == [3, 2]

    def test_period_from_the_frequencies(self):
        assert CosineLaw.constant(0.3).period is None
        assert CosineLaw.periodic(period=2.5).period == pytest.approx(
            2.5, rel=1e-15)
        assert CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                                  amplitudes=(1.0, 0.0)).period == math.inf

    def test_shift_moves_each_phase(self):
        law = CosineLaw.harmonic(frequencies=(1.0, -math.sqrt(2.0)),
                                 amplitudes=(1.0, 0.8), phases=(0.1, -2.3))
        moved = CosineLaw(law.shifted(1.3))
        assert [a for a, _, _ in moved.terms] == [1.0, 0.8]
        for t in (0.0, 0.7, -5.1):
            assert moved(t) == pytest.approx(law(t + 1.3), abs=1e-14)
        constant = CosineLaw.constant(0.3)
        assert constant.shifted(1.3) == constant.terms

    @pytest.mark.parametrize("h", [1e308, -1e308])
    def test_shift_whose_phase_overflows(self, h):
        # 2 pi*h is not a finite float: the translate and the hull gap both
        # refuse it; a constant law has no phase to move
        field = DrivingField(SpatialProfile.single_site(1.0),
                             CosineLaw.periodic(period=1.0))
        for call in (field.law.shifted, field.hull_gap):
            with pytest.raises(DomainError, match="past the float range"):
                call(h)
        assert CosineLaw.constant(0.3).shifted(h) == ((0.3, 0.0, 0.0),)

    def test_harmonic_rejects_commensurate(self):
        with pytest.raises(DomainError):
            CosineLaw.harmonic(frequencies=(1.0, 2.0), amplitudes=(1.0, 1.0))
        with pytest.raises(DomainError):
            CosineLaw.harmonic(frequencies=(2.0 / 3.0, 1.0), amplitudes=(1.0, 1.0))

    def test_harmonic_needs_two(self):
        with pytest.raises(DomainError):
            CosineLaw.harmonic(frequencies=(1.0,), amplitudes=(1.0,))

    def test_rational_independence_check(self):
        check_rationally_independent((1.0, math.sqrt(2.0), math.pi))
        with pytest.raises(DomainError):
            check_rationally_independent((1.5, 4.5))
        with pytest.raises(DomainError):
            check_rationally_independent((0.0, 1.0))


CUBIC = ModelParams(kappa=1.0, gamma=1.0,
                    nonlinearity=NonlinearitySpec(sigma=1.0, sign=1))


class TestDrivingSpec:
    def _spec(self):
        g1 = DrivingField(SpatialProfile("exponential", amplitude=0.5, rate=1.0),
                          CosineLaw.periodic(period=2 * math.pi))
        g2 = DrivingField(SpatialProfile.single_site(0.1),
                          CosineLaw.constant(1.0))
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
        with pytest.raises(DomainError, match="driving has no period"):
            const.period
        def both(p1, p2, profile=SpatialProfile.single_site(0.1)):
            return DrivingSpec(*(DrivingField(profile,
                                              CosineLaw.periodic(period=p))
                                 for p in (p1, p2)))
        # a period that is an integer multiple of the other is the common one
        assert both(1.0, 2.0).period == both(2.0, 1.0).period == 2.0
        assert both(2 * math.pi, math.pi).period == 2 * math.pi
        assert both(0.1, 0.3).period == 0.3
        with pytest.raises(DomainError, match="different periods"):
            both(1.0, 1.5).period
        # a harmonic sum has no period, which no other law can supply
        harmonic = CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                                      amplitudes=(1.0, 1.0))
        mixed = replace(spec, g2=DrivingField(SpatialProfile.single_site(0.1),
                                              harmonic))
        with pytest.raises(DomainError) as err:
            mixed.period
        assert str(err.value) == ("driving.g2.law is a harmonic sum, which "
                                  "has no period")
        # ... though a section samples it at its first harmonic's period
        assert mixed.section_period == pytest.approx(2 * math.pi)
        # a field of zero norm sets no period, whatever its law
        with pytest.raises(DomainError, match="driving has no period"):
            both(1.0, 1.5, SpatialProfile.zero()).period
        off = replace(mixed, g2=DrivingField(SpatialProfile.zero(), harmonic))
        assert off.period == pytest.approx(2 * math.pi)
        assert off.section_period == off.period

    def test_translate_shifts_samples(self):
        # the right-hand side under the translate at t is the one under the
        # original at t + h: at psi = 0 it is -i*g1, elsewhere g2 adds in
        spec = self._spec()
        shifted = translate(spec, 1.3)
        params = ModelParams(kappa=1.0, gamma=1.0)
        f, f_shifted = (make_rhs(params, s.sampler(32), "dirichlet")
                        for s in (spec, shifted))
        for t in (0.0, 0.7, 5.1):
            for v in (np.zeros(32, dtype=complex),
                      random_state(32, 0).values):
                assert np.allclose(f_shifted(t, v), f(t + 1.3, v))

    @pytest.mark.parametrize("profile, law", [
        (SpatialProfile("custom", values=(1e200, 1.0)), CosineLaw.constant(1.0)),
        (SpatialProfile("exponential", amplitude=1e200), CosineLaw.constant(1.0)),
        (SpatialProfile.single_site(),
         CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                            amplitudes=(1e308, 1e308))),
        (SpatialProfile.single_site(1e200),
         CosineLaw.periodic(period=1.0, amplitude=1e200))])
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
        g1 = DrivingField(SpatialProfile.single_site(0.6),
                          CosineLaw.periodic(period=3.0, amplitude=-0.5))
        g2 = DrivingField(SpatialProfile.single_site(g2_amp))
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
        with pytest.raises(DomainError, match=r"need gamma > 2\*sup"):
            cert.dissipative()
        ok = certificate(CUBIC, self._spec())
        assert ok.dissipative() is ok
