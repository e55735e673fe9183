"""Lattice states, the operators of the right-hand side and the
nonlinearity."""

import inspect
import math
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls import (LatticeState, ModelParams, NonlinearitySpec, l2_norm,
                  random_state)
from dnls import lattice
from dnls.driving import (CosineLaw, DrivingField, DrivingSpec,
                          SpatialProfile, translate)
from dnls.errors import DomainError
from dnls.lattice import make_rhs


def _rand(n, seed, bc="dirichlet"):
    rng = np.random.default_rng(seed)
    return LatticeState(rng.standard_normal(n) + 1j * rng.standard_normal(n), bc)


_NO_DRIVING = DrivingSpec(g1=DrivingField.zero())


def _coupling(n_sites, bc, build=make_rhs):
    """A as the simulator applies it: with kappa = 1, F = 0 and no driving
    the closure ``build`` returns is f(t, psi) = -i*A psi - gamma*psi, so
    A psi = i*(f(0, psi) + gamma*psi)."""
    params = ModelParams(kappa=1.0, gamma=1.0)
    f = build(params, _NO_DRIVING.sampler(n_sites), bc)
    return lambda v: 1j * (f(0.0, v) + v)


def _shifted(v, k, bc):
    """psi_{n+k} at every site n, for k = +-1: wrapped around under
    periodic, zero past the edge under Dirichlet."""
    out = np.roll(v, -k)
    if bc == "dirichlet":
        out[-1 if k == 1 else 0] = 0.0
    return out


def _b(v, bc):  # (B psi)_n = psi_{n+1} - psi_n
    return _shifted(v, 1, bc) - v


def _b_star(v, bc):  # (B* psi)_n = psi_{n-1} - psi_n
    return _shifted(v, -1, bc) - v


def _lemma_ratios(apply_a, bc, n_sites=64, pairs=50):
    """Worst ratio over random pairs (psi, theta) of each operator lemma:
    ||A psi|| / (4 ||psi||), which is at most 1; |<B psi, theta> - <psi,
    B* theta>| and |<A psi, theta> - <psi, A theta>| over ||psi|| ||theta||;
    and, under periodic wrap-around, ||B*B psi + A psi|| / ||psi||.  The
    last three are round-off on a correct coupling."""
    worst = dict.fromkeys(["norm", "adjoint", "symmetric", "factorization"],
                          0.0)
    for seed in range(pairs):
        psi = _rand(n_sites, 2 * seed).values
        theta = _rand(n_sites, 2 * seed + 1).values
        a_psi, a_theta = apply_a(psi), apply_a(theta)
        npsi = np.linalg.norm(psi)
        scale = npsi * np.linalg.norm(theta)
        ratios = {
            "norm": np.linalg.norm(a_psi) / (4.0 * npsi),
            "adjoint": abs(np.vdot(theta, _b(psi, bc))
                           - np.vdot(_b_star(theta, bc), psi)) / scale,
            "symmetric": abs(np.vdot(theta, a_psi)
                             - np.vdot(a_theta, psi)) / scale,
        }
        if bc == "periodic":
            ratios["factorization"] = np.linalg.norm(
                _b_star(_b(psi, bc), bc) + a_psi) / npsi
        for key, r in ratios.items():
            worst[key] = max(worst[key], float(r))
    return worst


def _lemmas_hold(worst) -> bool:
    return (worst["norm"] <= 1 + 1e-12 and worst["adjoint"] <= 1e-12
            and worst["symmetric"] <= 1e-12 and worst["factorization"] <= 1e-12)


def _mutated_make_rhs(edits):
    """``make_rhs`` compiled from its source with each (old, new) of
    ``edits`` applied, in a copy of the module's namespace."""
    src = textwrap.dedent(inspect.getsource(make_rhs))
    for old, new in edits:
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    namespace = dict(vars(lattice))
    exec(compile(src, lattice.__file__, "exec"), namespace)
    return namespace["make_rhs"]


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


class TestOperators:
    """The lemmas the energy estimates rest on, checked on the coupling
    ``make_rhs`` builds."""

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_laplacian_bounded_by_4(self, bc):
        assert _lemma_ratios(_coupling(64, bc), bc)["norm"] <= 1 + 1e-12

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_difference_adjoint(self, bc):
        assert _lemma_ratios(_coupling(64, bc), bc)["adjoint"] <= 1e-12

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_coupling_is_symmetric(self, bc):
        # <A psi, theta> = <psi, A theta>: -i*kappa*A is skew, so the
        # hopping neither adds nor removes l^2 mass
        assert _lemma_ratios(_coupling(64, bc), bc)["symmetric"] <= 1e-12

    def test_laplacian_factorization_periodic(self):
        # -A = B*B holds exactly under periodic wrap-around
        worst = _lemma_ratios(_coupling(64, "periodic"), "periodic")
        assert worst["factorization"] <= 1e-12

    def test_laplacian_explicit_stencil(self):
        for bc in ("dirichlet", "periodic"):
            for i in (0, 4, 7):  # an edge site, the center, the other edge
                e = np.zeros(8, dtype=complex)
                e[i] = 1.0
                expect = _shifted(e, 1, bc) + _shifted(e, -1, bc) - 2.0 * e
                assert np.array_equal(_coupling(8, bc)(e), expect), (bc, i)

    # a wrong sign on the wrap at the last site, at the first, or at both
    # (then A stays symmetric, but is no longer -B*B)
    _LAST = ("add(last, first, last)", "np.subtract(last, first, last)")
    _FIRST = ("wrap_in[...] = wrap_from", "wrap_in[...] = -wrap_from")

    @pytest.mark.parametrize("edits", [[_LAST], [_FIRST], [_LAST, _FIRST]],
                             ids=["last", "first", "both"])
    def test_lemmas_fail_on_a_wrong_periodic_wrap(self, edits):
        mutated = _mutated_make_rhs(edits)
        assert not _lemmas_hold(
            _lemma_ratios(_coupling(64, "periodic", mutated), "periodic"))


class TestNorms:
    def test_l2_norm_matches_numpy(self):
        s = _rand(128, 7)
        assert l2_norm(s) == pytest.approx(np.linalg.norm(s.values), rel=1e-14)


class TestNonlinearity:
    def test_cubic_values(self):
        # with kappa = 0 and no driving, f(t, psi) = -gamma*psi
        # - i*F(|psi|^2)*psi
        s = _rand(16, 5)
        params = ModelParams(kappa=0.0, gamma=1.0,
                             nonlinearity=NonlinearitySpec(sigma=1.0, sign=-1))
        f = make_rhs(params, _NO_DRIVING.sampler(16), "dirichlet")
        out = 1j * (f(0.0, s.values) + s.values)
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
        g1 = DrivingField(SpatialProfile.single_site(0.7),
                          CosineLaw.constant(1.0))
        spec = DrivingSpec(g1=g1)
        params = ModelParams(kappa=1.0, gamma=2.0,
                             nonlinearity=NonlinearitySpec(sigma=1.0, sign=1))
        f = make_rhs(params, spec.sampler(16), "dirichlet")
        out = f(0.0, LatticeState.zeros(16).values)
        expect = np.zeros(16, dtype=complex)
        expect[8] = -1j * 0.7
        assert np.allclose(out, expect)

    def test_linear_terms(self):
        params = ModelParams(kappa=0.5, gamma=2.0)
        v = _rand(16, 1).values
        out = make_rhs(params, _NO_DRIVING.sampler(16), "dirichlet")(0.0, v)
        a_v = _shifted(v, 1, "dirichlet") + _shifted(v, -1, "dirichlet") - 2.0 * v
        expect = -0.5j * a_v - 2.0 * v
        assert np.allclose(out, expect)

    def test_model_params_validation(self):
        with pytest.raises(DomainError):
            ModelParams(kappa=1.0, gamma=0.0)
        with pytest.raises(DomainError):
            ModelParams(kappa=math.inf, gamma=1.0)


def _plain_fields(spec, n_sites):
    """-i*g1(t) and -i*g2(t) on every site as functions of t, each field's
    profile times its law's value; None for a zero field."""
    def field(g):
        p = g.profile.realize(n_sites)
        return lambda t: -1j * (p * g.law(t))
    return [field(g) if g.sup_norm() > 0 else None for g in (spec.g1, spec.g2)]


def _product_fields(spec, n_sites):
    """The fields of ``_plain_fields`` with the law values of ``make_rhs``:
    the sampler's harmonic product (``_Sampler.fields``), with no shift."""
    def field(sl, buf, write):
        def g(t):
            if write is not None:
                write(t)
            out = np.zeros(n_sites, dtype=np.complex128)
            out[sl] = buf
            return out
        return g
    return [None if term is None else field(*term)
            for term in spec.sampler(n_sites).fields((0.0,))]


def _reference_rhs(params, spec, n_sites, bc, fields=_plain_fields):
    """The right-hand side written plainly: both fields realized on every
    site at every call (by ``fields``), one diagonal coefficient times psi,
    the couplings as shifted adds, then the wrap terms and g1."""
    field1, field2 = fields(spec, n_sites)
    diag = complex(-params.gamma, 2.0 * params.kappa)
    nl = params.nonlinearity

    def f(t, v):
        g1 = None if field1 is None else field1(t)
        g2 = None if field2 is None else field2(t)
        d = diag
        if nl is not None:
            s = np.abs(v)
            s *= s
            if nl.sigma != 1.0:
                s **= nl.sigma
            d = s * (-1j * nl.sign)
            d += diag
        if g2 is not None:
            d = d + g2
        out = d * v
        hv = -1j * params.kappa * v
        out[:-1] += hv[1:]
        out[1:] += hv[:-1]
        if bc == "periodic":
            out[-1] += hv[0]
            out[0] += hv[-1]
        if g1 is not None:
            out += g1
        return out

    return f


_EXP = SpatialProfile("exponential", amplitude=0.6, rate=0.8)
_PERIODIC = CosineLaw.periodic(period=2.5, amplitude=0.9, phase=0.4)
_CUSTOM = SpatialProfile("custom", values=(0.1 + 0.2j, -0.3 + 0.05j, 0.2),
                         start=-1)
_SITE_G2 = DrivingField(SpatialProfile.single_site(0.25, 3),
                        CosineLaw.constant(1.0))
# (nonlinearity, g1, g2) of each case; None is a zero field
_RHS_CASES = {
    "F=0": (None, None, None),
    "cubic+": (NonlinearitySpec(sigma=1.0, sign=1),
               DrivingField(_EXP, _PERIODIC), None),
    "cubic-": (NonlinearitySpec(sigma=1.0, sign=-1),
               DrivingField(_EXP, _PERIODIC), None),
    # a real table of 17 sites, gaussian in shape
    "sigma=1.5": (NonlinearitySpec(sigma=1.5),
                  DrivingField(SpatialProfile("custom", values=tuple(
                      0.4 * math.exp(-n * n / 18.0) for n in range(-8, 9)),
                      start=-8), _PERIODIC), None),
    "g1 only": (None, DrivingField(_EXP, CosineLaw(_PERIODIC.shifted(0.3))),
                None),
    "single-site g2": (NonlinearitySpec(sigma=1.0, sign=1),
                       DrivingField(_EXP, _PERIODIC), _SITE_G2),
    "single-site g2, F=0": (None, None, _SITE_G2),
    "complex custom": (NonlinearitySpec(sigma=1.0, sign=-1),
                       DrivingField(_CUSTOM, _PERIODIC),
                       DrivingField(_CUSTOM, CosineLaw.periodic(period=4.0))),
    "complex custom g2, F=0": (None, None,
                               DrivingField(_CUSTOM, CosineLaw.periodic(period=4.0))),
    "harmonic law": (NonlinearitySpec(sigma=1.0, sign=-1),
                     DrivingField(_EXP, CosineLaw(CosineLaw.harmonic(
                         frequencies=(1.0, math.sqrt(2.0)),
                         amplitudes=(1.0, 0.8),
                         phases=(0.1, 0.0)).shifted(1.7))),
                     _SITE_G2),
    "constant g1": (NonlinearitySpec(sigma=1.0, sign=1),
                    DrivingField(_CUSTOM, CosineLaw.constant(0.5)), None),
    # g2's law is constant: q2*law is formed once, when the closure is built
    "constant custom g2": (NonlinearitySpec(sigma=1.0, sign=1),
                           DrivingField(_EXP, _PERIODIC),
                           DrivingField(_CUSTOM, CosineLaw.constant(0.7))),
    "constant custom g2, F=0": (None, None,
                                DrivingField(_CUSTOM, CosineLaw.constant(-1.3))),
    "three harmonics": (NonlinearitySpec(sigma=1.5),
                        DrivingField(_EXP, CosineLaw.harmonic(
                            frequencies=(1.0, math.sqrt(2.0), math.pi),
                            amplitudes=(1.0, 0.8, 0.3),
                            phases=(0.1, 0.0, -0.5))),
                        None),
}


def _case(case, kappa=0.7):
    """Model and driving of one case."""
    nl, g1, g2 = _RHS_CASES[case]
    return (ModelParams(kappa=kappa, gamma=1.3, nonlinearity=nl),
            DrivingSpec(g1=g1 or DrivingField.zero(),
                        g2=g2 or DrivingField.zero()))


def _rhs_pair(case, n_sites, bc, kappa=0.7):
    """The closure from ``make_rhs`` and the reference with its law
    values, for one case."""
    params, spec = _case(case, kappa)
    return (make_rhs(params, spec.sampler(n_sites), bc),
            _reference_rhs(params, spec, n_sites, bc, _product_fields))


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


class TestBatchRhs:
    """``make_rhs`` with hull shifts: member b of a batch is the plain
    right-hand side, with its laws' own values, under the driving
    translated by h_b."""

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("case", sorted(_RHS_CASES))
    def test_column_b_is_the_translated_member(self, case, bc):
        params, spec = _case(case)
        shifts = (0.0, 0.77, -3.1, 80 * math.pi)
        n = 32
        f = make_rhs(params, spec.sampler(n), bc, shifts=shifts)
        # site-major with the members fastest: member b is column b
        v = np.stack([_rand(n, seed).values for seed in range(len(shifts))],
                     axis=1)
        out = np.empty(v.size, dtype=complex)
        for t in (0.0, 0.77, 13.1):
            got = f(t, v.reshape(-1), out)
            assert got is out
            for b, h in enumerate(shifts):
                one = _reference_rhs(params, translate(spec, h), n, bc)(
                    t, v[:, b].copy())
                assert np.max(np.abs(got.reshape(n, -1)[:, b] - one)) <= \
                    1e-12 * (1 + np.max(np.abs(one))), (t, b)


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

    # large enough that a moment off by 5/sqrt(N) is a real defect
    MOMENT_SITES = 2 ** 16

    def _components(self, seed):
        """The real and imaginary parts of an unlocalized state scaled to
        norm sqrt(2N), so each has variance 1 on average."""
        n = self.MOMENT_SITES
        v = random_state(n, seed, norm=math.sqrt(2 * n), localized=False)
        return v.values.real, v.values.imag

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_moments_of_a_standard_complex_normal(self, seed):
        x, y = self._components(seed)
        # five standard errors of each sample moment of N(0, 1)
        se = 5 / math.sqrt(self.MOMENT_SITES)
        for part in (x, y):
            assert abs(part.mean()) < se
            # unit variance per component, Gaussian fourth moment 3
            assert abs(np.mean(part ** 2) - 1) < math.sqrt(2) * se
            assert abs(np.mean(part ** 4) - 3) < math.sqrt(96) * se
        assert abs(np.corrcoef(x, y)[0, 1]) < se

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
    def test_consecutive_seeds_are_uncorrelated(self, seed):
        # continuity draws theta from its seed and the bump from seed ^ 1
        corr = np.corrcoef([*self._components(seed),
                            *self._components(seed ^ 1)])
        assert np.max(np.abs(corr[:2, 2:])) < 5 / math.sqrt(self.MOMENT_SITES)

    def test_stream_is_pinned(self):
        # SplitMix64's published outputs from seed 0, and the state they
        # give: an edit to the stream moves every seeded output, so it
        # must fail here first
        assert [int(z) for z in lattice._splitmix64(0, 3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        v = random_state(3, 0, localized=False).values
        assert v == pytest.approx([0.16153703547384232 - 0.029888053886611705j,
                                   0.3355981185101644 + 0.26489497900906395j,
                                   -0.41510193825713604 + 0.7860708773441412j],
                                  rel=1e-13)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_the_stream_is_refused(self, seed):
        with pytest.raises(DomainError, match="seed must be in"):
            random_state(8, seed)
