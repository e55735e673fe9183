"""External driving fields g1 (additive) and g2 (multiplicative).

A field is separable: a spatial profile realized on the truncation times a
scalar temporal law.  Every law is a finite cosine sum (``CosineLaw``):
one constant term, one periodic harmonic, or a sum of harmonics with
pairwise rationally independent frequencies (quasiperiodic; three or more
serve as the almost-periodic class).  Translation by h in the hull of a
field adds w*h to the phase of each harmonic of frequency w, so a
translate is again such a law; ``translate`` and the fields the sampler
hands the batched right-hand side (``_Sampler.fields``) both use that
phase shift.  ``certificate`` collects the constants every estimate rests
on (effective damping, absorbing radius, breather ball, gap rate) in one
place.  Every other fact a check reads from a driving is a method here
too, with the profile's norm on l^2(Z): a field's tail cutoff, hull gap
and core, the driving's period (the one refusal of a driving with none)
and the period a section samples at.  No other module reads a law's
terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .lattice import ModelParams

_EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# spatial profiles

@dataclass(frozen=True)
class SpatialProfile:
    """Spatial shape of a driving field on the lattice.

    kinds:
      exponential  amplitude * exp(-rate*|n|)
      custom       explicit table ``values`` starting at site ``start``
                   (``single_site`` builds a one-entry table)
    """

    kind: str
    amplitude: float = 1.0
    rate: float = 1.0
    values: tuple = ()
    start: int = 0

    def __post_init__(self):
        if self.kind not in ("exponential", "custom"):
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if self.kind == "exponential" and self.rate <= 0:
            raise DomainError("exponential rate must be positive")
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
        else:
            for k, v in enumerate(self.values):
                i = self.start + k + c
                if not 0 <= i < n_sites:
                    raise DomainError(f"profile site {i - c} outside truncation")
                out[i] = v
        return out

    def l2_norm_sq(self) -> float:
        """Squared l^2 norm on the infinite lattice: in closed form for an
        exponential, the sum of a table's entries; never smaller than the
        truncated norm."""
        a2 = self.amplitude * self.amplitude
        if self.kind == "exponential":
            # sum exp(-2r|n|) = coth(r)
            return a2 / math.tanh(self.rate)
        return math.fsum(abs(v) ** 2 for v in self.values)

    def tail_sq(self, m: int) -> float:
        """sum_{|n|>m} |profile_n|^2 on the infinite lattice."""
        if m < 0:
            raise DomainError("cutoff must be nonnegative")
        a2 = self.amplitude * self.amplitude
        if self.kind == "exponential":
            r = self.rate
            return a2 * 2.0 * math.exp(-2.0 * r * (m + 1)) / -math.expm1(-2.0 * r)
        return math.fsum(
            abs(v) ** 2
            for k, v in enumerate(self.values)
            if abs(self.start + k) > m
        )

    @staticmethod
    def single_site(amplitude: float = 1.0, site: int = 0) -> "SpatialProfile":
        """``amplitude`` at site ``site`` and zero elsewhere: a one-entry
        table."""
        return SpatialProfile("custom", values=(amplitude,), start=site)

    @staticmethod
    def zero() -> "SpatialProfile":
        return SpatialProfile("custom")


def _first_at_most(tail, bound: float, start: int, stop: int) -> int:
    """The least m in [start, stop) with tail(m) <= ``bound``, else
    ``stop``: the one tail scan, cut where the truncation stops using it."""
    return next((m for m in range(start, stop) if not tail(m) > bound), stop)


# ---------------------------------------------------------------------------
# temporal laws

def _is_near(ratio: float, approx: float) -> bool:
    return abs(ratio - approx) <= 16 * _EPS * max(1.0, abs(ratio))


def _is_commensurate(ratio: float) -> bool:
    return _is_near(ratio, float(Fraction(ratio).limit_denominator(10 ** 6)))


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
class CosineLaw:
    """sum_j a_j*cos(w_j*t + p_j) over ``terms`` (a_j, w_j, p_j); a term
    with w_j = 0 is the constant a_j*cos(p_j).  ``constant``, ``periodic``
    and ``harmonic`` build the three classes of the config; the last one
    checks that its frequencies are pairwise rationally independent, so
    two or more nonzero frequencies have no common period."""

    terms: tuple = ()

    @classmethod
    def constant(cls, value: float = 1.0) -> "CosineLaw":
        return cls(((float(value), 0.0, 0.0),))

    @classmethod
    def periodic(cls, period: float, amplitude: float = 1.0,
                 phase: float = 0.0) -> "CosineLaw":
        """amplitude * cos(2 pi t / period + phase)"""
        if period <= 0:
            raise DomainError("period must be positive")
        w = 2.0 * math.pi / period
        if not math.isfinite(w):
            raise DomainError(f"period {period!r} is too short: its frequency "
                              f"2 pi/period is not a finite float")
        return cls(((float(amplitude), w, float(phase)),))

    @classmethod
    def harmonic(cls, frequencies, amplitudes, phases=()) -> "CosineLaw":
        """sum_j amplitudes[j] * cos(frequencies[j]*t + phases[j]).  Two
        harmonics give the quasiperiodic class; three or more realize the
        almost-periodic class."""
        freqs = tuple(float(f) for f in frequencies)
        amps = tuple(float(a) for a in amplitudes)
        phases = tuple(float(p) for p in phases) if phases else (0.0,) * len(freqs)
        if len(freqs) < 2:
            raise DomainError("harmonic sum needs at least two frequencies")
        if len(amps) != len(freqs) or len(phases) != len(freqs):
            raise DomainError("frequencies/amplitudes/phases length mismatch")
        check_rationally_independent(freqs)
        return cls(tuple(zip(amps, freqs, phases)))

    @property
    def period(self) -> float | None:
        """None without a nonzero frequency, 2 pi/|w| with one, and inf (no
        period) with more."""
        freqs = [w for _, w, _ in self.terms if w != 0]
        if not freqs:
            return None
        return 2.0 * math.pi / abs(freqs[0]) if len(freqs) == 1 else math.inf

    def __call__(self, t: float) -> float:
        return math.fsum([a * math.cos(w * t + p) for a, w, p in self.terms])

    def amp_bound(self) -> float:
        # triangle inequality; certified overestimate of sup_t |law(t)|,
        # exact for one term
        return math.fsum(abs(a) for a, _, _ in self.terms)

    def shifted(self, h: float) -> tuple:
        """The terms of the law translated by h in its hull, t -> t + h:
        each phase p_j becomes p_j + w_j*h, refused unless a finite float."""
        terms = tuple((a, w, p + w * h) for a, w, p in self.terms)
        if not all(math.isfinite(p) for _, _, p in terms):
            raise DomainError(f"hull shift {h!r} takes a phase p + w*h of the "
                              f"driving law past the float range")
        return terms


# ---------------------------------------------------------------------------
# driving fields

@dataclass(frozen=True)
class DrivingField:
    """Separable field profile(n) * law(t)."""

    profile: SpatialProfile
    law: CosineLaw = field(default_factory=CosineLaw.constant)

    def __post_init__(self):
        try:  # squares, sums and products of finite magnitudes can overflow
            sup = self.sup_norm()
        except OverflowError:
            sup = math.inf
        if not math.isfinite(sup):
            raise DomainError(f"driving field bound sup||g|| = ||profile|| * "
                              f"sup|law| = {sup} is not a finite float")

    def sup_norm(self) -> float:
        return math.sqrt(self.profile.l2_norm_sq()) * self.law.amp_bound()

    def tail_cutoff(self, bound: float, stop: int) -> int:
        """The least m in [0, stop) with sup_t sum_{|n|>m} |g_n(t)|^2, the
        profile's tail times sup|law|^2, at most ``bound``; else ``stop``."""
        amp_sq = self.law.amp_bound() ** 2
        return _first_at_most(lambda m: self.profile.tail_sq(m) * amp_sq,
                              bound, 0, stop)

    def core(self, sites: int) -> int:
        """Half-width of the region where the field is concentrated: one
        past the profile's outermost nonzero entry for a table, else one
        plus a quarter of the least m >= 1 whose tail holds at most 1e-12
        of the profile's squared norm, and at least 2.  The scan stops at
        m = 4*``sites``, where the half-width passes ``sites``."""
        p = self.profile
        if p.kind == "custom":
            nz = [abs(p.start + k) for k, v in enumerate(p.values) if v != 0]
            return max(nz) + 1 if nz else 1
        total = p.l2_norm_sq()
        if total == 0:
            return 1
        return max(2, _first_at_most(p.tail_sq, 1e-12 * total, 1, 4 * sites)
                   // 4 + 1)

    def hull_gap(self, h: float) -> float:
        """sup_t ||g(t + h) - g(t)|| in l^2(Z), in closed form:
        ||p|| * sum_j 2|a_j sin(w_j h/2)|, from
        |cos(w(s+h)+phi) - cos(ws+phi)| <= 2|sin(wh/2)|; refused where
        ``CosineLaw.shifted`` refuses h."""
        return math.sqrt(self.profile.l2_norm_sq()) * math.fsum(
            2.0 * abs(a * math.sin(w * h / 2.0))
            for a, w, _ in self.law.shifted(h))

    def interval_sup(self, t: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Bound on ||g(s)|| over each [t, t + dt]: the law's derivative is
        at most sum_j |a_j w_j|, and the law never exceeds amp_bound."""
        slope = math.fsum(abs(a * w) for a, w, _ in self.law.terms)
        law = np.abs([self.law(s) for s in t]) + slope * dt
        return math.sqrt(self.profile.l2_norm_sq()) * np.minimum(
            self.law.amp_bound(), law)

    @staticmethod
    def zero() -> "DrivingField":
        return DrivingField(SpatialProfile.zero(), CosineLaw.constant(0.0))


def _field(law: CosineLaw, p: np.ndarray | None, shifts):
    """A field's slice of the flat arrays of a batch with hull ``shifts``
    (site-major, members fastest), a buffer for -i*g(t + h_b) on it, and a
    function of t that writes the buffer: None for a constant law, whose
    buffer is written here.  The slice spans the nonzero sites of ``p``,
    the field's realized profile; the result is None for a zero field.

    With q = -i*p on the slice and phi the phase of a harmonic translated
    by h_b (``CosineLaw.shifted``)

        a*cos(w*t + phi) = a*cos(phi)*cos(w*t) - a*sin(phi)*sin(w*t),

    so the values of all members come from one product x @ table, with x
    the cos(w_j*t) and sin(w_j*t) of the law's harmonics and a table of
    q * those coefficients, formed once.  Rows of zeros (the sines of one
    member at phase 0) are left out."""
    nz = np.flatnonzero(p) if p is not None else ()
    if len(nz) == 0:
        return None
    lo, hi, members = int(nz[0]), int(nz[-1]) + 1, len(shifts)
    q, sl = -1j * p[lo:hi], slice(lo * members, hi * members)
    if law.period is None:
        return sl, np.repeat(q * law(0.0), members), None
    # (members, harmonics) arrays; w is the same in every row
    terms = np.array([law.shifted(h) for h in shifts])
    a, w, phase = np.moveaxis(terms, -1, 0)
    w = w[0]
    # row 2j (2j + 1) multiplies cos(w_j*t) (sin(w_j*t))
    coeff = np.stack([a * np.cos(phase), -a * np.sin(phase)], axis=-1)
    table = q[:, None, None] * coeff.reshape(members, -1)
    table = np.ascontiguousarray(np.moveaxis(table, -1, 0))
    table = table.view(np.float64).reshape(2 * w.size, -1)
    # a subnormal entry, as in the far tail of an exponential profile, adds
    # nothing to a normal psi but slows every product it enters
    table[np.abs(table) < np.finfo(np.float64).tiny] = 0.0
    rows = np.flatnonzero(table.any(axis=1))
    table, w = table[rows], w.tolist()
    terms = [(i, w[r // 2], (math.cos, math.sin)[r % 2])
             for i, r in enumerate(rows.tolist())]
    buf = np.empty(q.size * members, dtype=np.complex128)
    out, x, dot = buf.view(np.float64), np.empty(rows.size), np.dot

    def write(t):
        for i, wj, trig in terms:
            x[i] = trig(wj * t)
        dot(x, table, out)
    return sl, buf, write


class _Sampler:
    """Driving realized on a fixed truncation, for fast rhs evaluation.

    ``fields`` hands the batched RHS g1 and g2 as ``_field`` forms them;
    ``sample_values`` gives the fields, ``window`` those on a run of sites."""

    def __init__(self, laws: list, n_sites: int):
        self.n_sites = n_sites
        # (law, realized profile) of g1 and g2; no profile for a zero field
        self._laws = laws

    def fields(self, shifts) -> list:
        """g1's and g2's ``_field`` on a batch with hull ``shifts``."""
        return [_field(law, p, shifts) for law, p in self._laws]

    def g1_sup(self) -> np.ndarray:
        """sup_t |g1_n(t)| at each site, from the law's ``amp_bound``."""
        law, p = self._laws[0]
        return np.zeros(self.n_sites) if p is None else abs(p) * law.amp_bound()

    def window(self, lo: int, hi: int) -> "_Sampler":
        """The driving on sites [lo, hi) alone, as a lattice of hi - lo."""
        return _Sampler([(law, None if p is None else p[lo:hi])
                         for law, p in self._laws], hi - lo)

    def sample_values(self, t: float, n_sites: int):
        assert n_sites == self.n_sites
        return tuple(None if p is None else p * law(t) for law, p in self._laws)


@dataclass(frozen=True)
class DrivingSpec:
    g1: DrivingField
    g2: DrivingField = field(default_factory=DrivingField.zero)

    def sampler(self, n_sites: int) -> _Sampler:
        return _Sampler([(g.law, g.profile.realize(n_sites) if g.sup_norm() > 0
                          else None) for g in (self.g1, self.g2)], n_sites)

    @property
    def section_period(self) -> float:
        """The period a stroboscopic section samples at: for a harmonic sum
        of nonzero norm, which has no period, 2 pi/|w| of its first
        harmonic (cos is even), else ``period``."""
        for g in (self.g1, self.g2):
            if g.law.period == math.inf and g.sup_norm() > 0:
                return 2 * math.pi / abs(g.law.terms[0][1])
        return self.period

    @property
    def period(self) -> float:
        """Common driving period of the fields of nonzero norm (a field of
        zero norm sets none).  Refused when one of them has a harmonic sum,
        which has no period, and when all have constant laws, which are
        compatible with any period.  Of two periods one must be an integer
        multiple of the other (to the tolerance of ``_is_commensurate``),
        and the longer is the common one."""
        periods = []
        for name, g in (("g1", self.g1), ("g2", self.g2)):
            if g.law.period is None or not g.sup_norm() > 0:
                continue
            if g.law.period == math.inf:
                raise DomainError(f"driving.{name}.law is a harmonic sum, "
                                  f"which has no period")
            periods.append(g.law.period)
        if not periods:
            raise DomainError("driving has no period: no field of nonzero "
                              "norm has a periodic law (kind \"periodic\" in "
                              "driving.g1.law or driving.g2.law)")
        if len(periods) == 2 and not math.isclose(periods[0], periods[1], rel_tol=1e-12):
            short, long = sorted(periods)
            if not _is_near(long / short, round(long / short)):
                raise DomainError(f"g1 and g2 have different periods {periods[0]:g} "
                                  f"and {periods[1]:g}, neither a multiple of the other")
            return long
        return periods[0]


def translate(spec: DrivingSpec, h: float) -> DrivingSpec:
    """Hull translation: the result at t is the original at t + h (to
    round-off), as each law's phases move by w_j*h (``CosineLaw.shifted``)."""
    return DrivingSpec(*(replace(g, law=CosineLaw(g.law.shifted(h)))
                         for g in (spec.g1, spec.g2)))


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
            raise DomainError(
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
