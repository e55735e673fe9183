"""External driving fields g1 (additive) and g2 (multiplicative).

A field is separable: a spatial profile realized on the truncation times a
scalar temporal law.  Temporal laws come in three classes: constant /
periodic (single harmonic) / finite harmonic sums with pairwise rationally
independent frequencies (quasiperiodic; three or more harmonics serve as
the almost-periodic class).  Translation by h shifts the time argument and
stays inside the hull of the original field.  ``certificate`` collects the
constants every estimate rests on (effective damping, absorbing radius,
breather ball, gap rate) in one place.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import DampingTooWeakError, DomainError
from .lattice import ModelParams

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # the smallest normal float
# gaussian terms summed one by one before the rest is bounded by an integral
# (all of them while width < 36, so those sums are exact)
_GAUSSIAN_TERMS = 1000


# ---------------------------------------------------------------------------
# spatial profiles

@dataclass(frozen=True)
class SpatialProfile:
    """Spatial shape of a driving field on the lattice.

    kinds:
      exponential  amplitude * exp(-rate*|n|)
      gaussian     amplitude * exp(-n^2 / (2*width^2))
      single_site  amplitude at site ``site``, zero elsewhere
      custom       explicit table ``values`` starting at site ``start``
    """

    kind: str
    amplitude: float = 1.0
    rate: float = 1.0
    width: float = 1.0
    site: int = 0
    values: tuple = ()
    start: int = 0

    def __post_init__(self):
        if self.kind not in ("exponential", "gaussian", "single_site", "custom"):
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if self.kind == "exponential" and self.rate <= 0:
            raise DomainError("exponential rate must be positive")
        if self.kind == "gaussian" and self.width <= 0:
            raise DomainError("gaussian width must be positive")
        if self.kind == "custom":
            object.__setattr__(
                self, "values", tuple(complex(v) for v in self.values))

    def realize(self, n_sites: int) -> np.ndarray:
        """Profile values on sites -N/2 .. N/2-1 as a complex array."""
        out = np.zeros(n_sites, dtype=np.complex128)
        c = n_sites // 2
        n = np.arange(n_sites) - c
        if self.kind == "exponential":
            with np.errstate(over="ignore"):  # -rate*|n| = -inf: exp gives 0
                out[:] = self.amplitude * np.exp(-self.rate * np.abs(n))
        elif self.kind == "gaussian":
            w2 = self.width ** 2
            if w2 < _TINY:  # exp(-n^2/(2 width^2)) underflows off site 0
                out[c] = self.amplitude
            else:
                with np.errstate(over="ignore"):  # -n^2/(2 w2) = -inf: 0
                    out[:] = self.amplitude * np.exp(-(n * n) / (2.0 * w2))
        elif self.kind == "single_site":
            i = self.site + c
            if not 0 <= i < n_sites:
                raise DomainError(f"site {self.site} outside truncation")
            out[i] = self.amplitude
        elif self.kind == "custom":
            for k, v in enumerate(self.values):
                i = self.start + k + c
                if not 0 <= i < n_sites:
                    raise DomainError("custom table does not fit truncation")
                out[i] = v
        return out

    def l2_norm_sq(self) -> float:
        """Squared l^2 norm on the infinite lattice (closed form where one
        exists); never smaller than the truncated norm."""
        a2 = self.amplitude * self.amplitude
        if self.kind == "exponential":
            # sum exp(-2r|n|) = coth(r)
            return a2 / math.tanh(self.rate)
        if self.kind == "gaussian":
            return a2 * self._gaussian_sum(0) + a2  # n=0 term plus both tails
        if self.kind == "single_site":
            return a2
        return math.fsum(abs(v) ** 2 for v in self.values)

    def _gaussian_sum(self, m: int) -> float:
        """2 * sum_{n>m} exp(-n^2/width^2), never below the true sum.

        Terms are added one by one up to n = M = m + _GAUSSIAN_TERMS; those
        below 1e-320 are dropped.  The summand decreases for n > 0, so the
        rest is at most its integral from M:
        (width*sqrt(pi)/2) * erfc(M/width)."""
        w2 = self.width * self.width
        if w2 < _TINY:  # every term underflows
            return 0.0
        total = 0.0
        stop = m + _GAUSSIAN_TERMS
        for n in range(m + 1, stop + 1):
            if (n * n) / w2 >= 740:
                return 2.0 * total
            total += math.exp(-(n * n) / w2)
        rest = 0.5 * self.width * math.sqrt(math.pi) * math.erfc(stop / self.width)
        return 2.0 * (total + rest)

    def tail_sq(self, m: int) -> float:
        """sum_{|n|>m} |profile_n|^2 on the infinite lattice."""
        if m < 0:
            raise DomainError("cutoff must be nonnegative")
        a2 = self.amplitude * self.amplitude
        if self.kind == "exponential":
            r = self.rate
            return a2 * 2.0 * math.exp(-2.0 * r * (m + 1)) / -math.expm1(-2.0 * r)
        if self.kind == "gaussian":
            return a2 * self._gaussian_sum(m)
        if self.kind == "single_site":
            return a2 if abs(self.site) > m else 0.0
        return math.fsum(
            abs(v) ** 2
            for k, v in enumerate(self.values)
            if abs(self.start + k) > m
        )

    @staticmethod
    def zero() -> "SpatialProfile":
        return SpatialProfile(kind="single_site", amplitude=0.0)


# ---------------------------------------------------------------------------
# temporal laws

def _is_commensurate(ratio: float) -> bool:
    approx = Fraction(ratio).limit_denominator(10 ** 6)
    return abs(ratio - float(approx)) <= 16 * _EPS * max(1.0, abs(ratio))


def check_rationally_independent(frequencies) -> None:
    """Reject frequency sets with a commensurate pair (continued-fraction
    test up to denominator 10^6)."""
    freqs = list(frequencies)
    if any(f == 0 for f in freqs):
        raise DomainError("frequencies must be nonzero")
    for i in range(len(freqs)):
        for j in range(i + 1, len(freqs)):
            if _is_commensurate(freqs[i] / freqs[j]):
                raise DomainError(
                    f"frequencies {freqs[i]} and {freqs[j]} are commensurate")


@dataclass(frozen=True)
class ConstantLaw:
    value: float = 1.0

    period = None

    def __call__(self, t: float) -> float:
        return self.value

    def amp_bound(self) -> float:
        return abs(self.value)

    def harmonics(self) -> tuple:
        """(amplitude, angular frequency) of each cosine term."""
        return ()


@dataclass(frozen=True)
class PeriodicLaw:
    """amplitude * cos(2 pi t / period + phase)"""

    period: float
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise DomainError("period must be positive")

    def __call__(self, t: float) -> float:
        return self.amplitude * math.cos(2.0 * math.pi * t / self.period + self.phase)

    def amp_bound(self) -> float:
        return abs(self.amplitude)

    def harmonics(self) -> tuple:
        return ((self.amplitude, 2.0 * math.pi / self.period),)


@dataclass(frozen=True)
class HarmonicSumLaw:
    """sum_j amplitudes[j] * cos(frequencies[j]*t + phases[j]) with pairwise
    rationally independent frequencies.  Two harmonics give the
    quasiperiodic class; three or more with pairwise irrational ratios
    realize the almost-periodic class."""

    frequencies: tuple
    amplitudes: tuple
    phases: tuple = ()

    period = None

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        amps = tuple(float(a) for a in self.amplitudes)
        phases = tuple(float(p) for p in self.phases) if self.phases else (0.0,) * len(freqs)
        if len(freqs) < 2:
            raise DomainError("harmonic sum needs at least two frequencies")
        if len(amps) != len(freqs) or len(phases) != len(freqs):
            raise DomainError("frequencies/amplitudes/phases length mismatch")
        check_rationally_independent(freqs)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "_terms", tuple(zip(freqs, amps, phases)))

    def __call__(self, t: float) -> float:
        terms = self._terms
        if len(terms) == 2:  # one float addition rounds as fsum does
            (w0, a0, p0), (w1, a1, p1) = terms
            return a0 * math.cos(w0 * t + p0) + a1 * math.cos(w1 * t + p1)
        return math.fsum([a * math.cos(w * t + p) for w, a, p in terms])

    def amp_bound(self) -> float:
        # triangle inequality; certified overestimate of sup_t |law(t)|
        return math.fsum(abs(a) for a in self.amplitudes)

    def harmonics(self) -> tuple:
        return tuple(zip(self.amplitudes, self.frequencies))


# ---------------------------------------------------------------------------
# driving fields

@dataclass(frozen=True)
class DrivingField:
    """Separable field profile(n) * law(t + offset)."""

    profile: SpatialProfile
    law: object = field(default_factory=ConstantLaw)
    offset: float = 0.0

    def __post_init__(self):
        try:  # squares, sums and products of finite magnitudes can overflow
            sup = self.sup_norm()
        except OverflowError:
            sup = math.inf
        if not math.isfinite(sup):
            raise DomainError(f"driving field bound sup||g|| = ||profile|| * "
                              f"sup|law| = {sup} is not a finite float")

    def scalar(self, t: float) -> float:
        return self.law(t + self.offset)

    def sup_norm(self) -> float:
        return math.sqrt(self.profile.l2_norm_sq()) * self.law.amp_bound()

    def interval_sup(self, t: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Bound on ||g(s)|| over each [t, t + dt]: the law's derivative is
        at most sum_j |a_j w_j|, and the law never exceeds amp_bound."""
        slope = math.fsum(abs(a * w) for a, w in self.law.harmonics())
        law = np.abs([self.scalar(s) for s in t]) + slope * dt
        return math.sqrt(self.profile.l2_norm_sq()) * np.minimum(
            self.law.amp_bound(), law)

    @staticmethod
    def zero() -> "DrivingField":
        return DrivingField(SpatialProfile.zero(), ConstantLaw(0.0))


def _rhs_term(g: DrivingField, p: np.ndarray | None):
    """(sl, q, law, offset) with -i*g(t) = q * law(t + offset) on the sites
    ``sl`` and zero off them, where ``p`` is g's realized profile; None for
    a zero field."""
    nz = np.flatnonzero(p) if p is not None else ()
    if len(nz) == 0:
        return None
    sl = slice(int(nz[0]), int(nz[-1]) + 1)
    return sl, -1j * p[sl], g.law, g.offset


class _Sampler:
    """Driving realized on a fixed truncation, for fast rhs evaluation.

    ``g1_term`` and ``g2_term`` hand the RHS each field as -i times its
    profile, cut to the span of its nonzero sites, with its scalar law (see
    ``_rhs_term``); ``sample_values`` gives the fields themselves."""

    def __init__(self, spec: "DrivingSpec", n_sites: int):
        self.n_sites = n_sites
        self._g1 = spec.g1
        self._g2 = spec.g2
        self._p1 = spec.g1.profile.realize(n_sites) if spec.g1.sup_norm() > 0 else None
        self._p2 = spec.g2.profile.realize(n_sites) if spec.g2.sup_norm() > 0 else None
        self.g1_term = _rhs_term(spec.g1, self._p1)
        self.g2_term = _rhs_term(spec.g2, self._p2)

    def sample_values(self, t: float, n_sites: int):
        assert n_sites == self.n_sites
        g1 = None if self._p1 is None else self._p1 * self._g1.scalar(t)
        g2 = None if self._p2 is None else self._p2 * self._g2.scalar(t)
        return g1, g2


@dataclass(frozen=True)
class DrivingSpec:
    g1: DrivingField
    g2: DrivingField = field(default_factory=DrivingField.zero)

    def sampler(self, n_sites: int) -> _Sampler:
        return _Sampler(self, n_sites)

    @property
    def period(self) -> float | None:
        """Common driving period, if the time dependence is periodic.
        Constant laws are compatible with any period."""
        periods = [f.law.period for f in (self.g1, self.g2) if f.law.period is not None]
        if not periods:
            return None
        if len(periods) == 2 and not math.isclose(periods[0], periods[1], rel_tol=1e-12):
            raise DomainError("g1 and g2 have different periods")
        return periods[0]


def translate(spec: DrivingSpec, h: float) -> DrivingSpec:
    """Hull translation: samples of the result at t equal samples of the
    original at t + h."""
    return DrivingSpec(
        g1=replace(spec.g1, offset=spec.g1.offset + h),
        g2=replace(spec.g2, offset=spec.g2.offset + h),
    )


@dataclass(frozen=True)
class Certificate:
    """The constants every estimate of the model rests on: gamma, certified
    sup||g1|| and sup||g2||, and the nonlinearity's growth constants (a, b).
    Built for any gamma; the dissipative estimates need ``dissipative()``."""

    gamma: float
    g1_sup: float
    g2_sup: float
    a: float
    b: float

    @property
    def gamma_tilde(self) -> float:  # effective damping Gamma
        return self.gamma - 2.0 * self.g2_sup

    @property
    def absorbing_radius(self) -> float:  # K
        return math.sqrt(2.0) * self.g1_sup / self.gamma_tilde

    @property
    def breather_radius(self) -> float:  # R_u, the ball of the breather
        return self.g1_sup / self.gamma_tilde

    def gap_rate(self, r: float) -> float:
        """Decay rate of the distance of two solutions in the r-ball."""
        return self.gamma - self.a * r ** self.b - self.g2_sup

    def dissipative(self) -> "Certificate":
        """This certificate, refused unless gamma_tilde > 0."""
        if self.gamma_tilde <= 0:
            raise DampingTooWeakError(
                f"need gamma > 2*sup||g2|| (gamma={self.gamma:.6g}, "
                f"2*sup||g2||={2 * self.g2_sup:.6g})")
        return self


def certificate(params: ModelParams, spec: DrivingSpec) -> Certificate:
    """The certificate constants of a model under a driving.  The sup norms
    are exact for constant and periodic laws, a triangle-inequality
    overestimate for harmonic sums, and invariant under ``translate``."""
    nl = params.nonlinearity  # F = 0 meets the growth bound with (0, 1)
    a, b = (nl.a, nl.b) if nl is not None else (0.0, 1.0)
    return Certificate(gamma=params.gamma, g1_sup=spec.g1.sup_norm(),
                       g2_sup=spec.g2.sup_norm(), a=a, b=b)
