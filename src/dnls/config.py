"""JSON scenario configuration: schema-validated parsing and canonical
(byte-reproducible) emission.

Complex numbers are stored as two-element [re, im] arrays.  Emission is
canonical (sorted keys, fixed indentation), so dump(load(dump(x))) is
byte-identical to dump(x).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

from .driving import (ConstantLaw, DrivingField, DrivingSpec, HarmonicSumLaw,
                      PeriodicLaw, SpatialProfile)
from .errors import DomainError
from .integrator import IntegratorConfig
from .lattice import DIRICHLET, PERIODIC, ModelParams, NonlinearitySpec

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    model: ModelParams
    n_sites: int
    bc: str
    driving: DrivingSpec
    integrator: IntegratorConfig
    scenario: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_sites < 3:
            raise DomainError("lattice needs at least 3 sites")
        if self.bc not in (DIRICHLET, PERIODIC):
            raise DomainError(f"unknown boundary condition {self.bc!r}")


def _object(value, where: str, keys=None) -> dict:
    """``value``, refused unless it is an object whose keys are all among
    ``keys`` (when given): a misspelled key must not run on the default."""
    if not isinstance(value, dict):
        raise DomainError(f"{where} must be an object, got {value!r}")
    unknown = sorted(value.keys() - set(keys)) if keys is not None else ()
    if unknown:
        raise DomainError("unknown config field(s): " + ", ".join(
            f"{where}.{k}" if where else k for k in unknown))
    return value


def _kind(d, where: str, what: str, kinds: dict, default=None) -> str:
    """The ``kind`` of block ``d``, refused when ``kinds`` does not list it
    or when ``d`` holds a key other than the fields that kind reads."""
    kind = _object(d, where).get("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise DomainError(f"unknown {what} kind {kind!r}")
    _object(d, where, ("kind", *kinds[kind]))
    return kind


def _complex_pair(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float)):
        return complex(v)
    raise DomainError(f"expected [re, im] pair, got {v!r}")


def _checked(d: dict, key: str, where: str, parse, *default):
    """``d[key]`` (or ``default`` if given), checked by ``parse`` as
    ``where.key`` but returned as read, so a dump shows it as written."""
    value = d.get(key, *default) if default else d[key]
    parse(f"{where}.{key}", value)
    return value


_PROFILE_FIELDS = {"exponential": ("amplitude", "rate"),
                   "gaussian": ("amplitude", "width"),
                   "single_site": ("amplitude", "site"),
                   "custom": ("values", "start")}


def _profile_from_dict(d: dict, where: str) -> SpatialProfile:
    kind = _kind(d, where, "profile", _PROFILE_FIELDS)
    if kind == "custom":
        return SpatialProfile(kind=kind,
                              values=tuple(_complex_pair(v) for v in d["values"]),
                              start=int(_checked(d, "start", where, _INTEGER, 0)))
    amplitude = _checked(d, "amplitude", where, _REAL, 1.0)
    if kind == "exponential":
        return SpatialProfile(kind=kind, amplitude=amplitude,
                              rate=_checked(d, "rate", where, _POSITIVE))
    if kind == "gaussian":
        return SpatialProfile(kind=kind, amplitude=amplitude,
                              width=_checked(d, "width", where, _POSITIVE))
    return SpatialProfile(kind=kind, amplitude=amplitude,
                          site=int(_checked(d, "site", where, _INTEGER, 0)))


def _profile_to_dict(p: SpatialProfile) -> dict:
    if p.kind == "exponential":
        return {"kind": p.kind, "amplitude": p.amplitude, "rate": p.rate}
    if p.kind == "gaussian":
        return {"kind": p.kind, "amplitude": p.amplitude, "width": p.width}
    if p.kind == "single_site":
        return {"kind": p.kind, "amplitude": p.amplitude, "site": p.site}
    return {"kind": p.kind, "start": p.start,
            "values": [[v.real, v.imag] for v in p.values]}


_LAW_FIELDS = {"constant": ("value",),
               "periodic": ("period", "amplitude", "phase"),
               "harmonic": ("frequencies", "amplitudes", "phases")}


def _law_from_dict(d: dict, where: str):
    kind = _kind(d, where, "temporal law", _LAW_FIELDS)
    if kind == "constant":
        return ConstantLaw(value=_checked(d, "value", where, _REAL, 1.0))
    if kind == "periodic":
        return PeriodicLaw(period=_checked(d, "period", where, _POSITIVE),
                           amplitude=_checked(d, "amplitude", where, _REAL, 1.0),
                           phase=_checked(d, "phase", where, _REAL, 0.0))
    reals = _list_of(_REAL)
    phases = _checked(d, "phases", where, reals) if d.get("phases") else ()
    return HarmonicSumLaw(
        frequencies=tuple(_checked(d, "frequencies", where, reals)),
        amplitudes=tuple(_checked(d, "amplitudes", where, reals)),
        phases=tuple(phases))


def _law_to_dict(law) -> dict:
    if isinstance(law, ConstantLaw):
        return {"kind": "constant", "value": law.value}
    if isinstance(law, PeriodicLaw):
        return {"kind": "periodic", "period": law.period,
                "amplitude": law.amplitude, "phase": law.phase}
    if isinstance(law, HarmonicSumLaw):
        return {"kind": "harmonic", "frequencies": list(law.frequencies),
                "amplitudes": list(law.amplitudes), "phases": list(law.phases)}
    raise DomainError(f"cannot serialize law {law!r}")


def _field_from_dict(d: dict, where: str) -> DrivingField:
    _object(d, where, ("profile", "law", "offset"))
    return DrivingField(
        profile=_profile_from_dict(d["profile"], f"{where}.profile"),
        law=_law_from_dict(d.get("law", {"kind": "constant"}), f"{where}.law"),
        offset=_checked(d, "offset", where, _REAL, 0.0))


def _field_to_dict(f: DrivingField) -> dict:
    return {"profile": _profile_to_dict(f.profile),
            "law": _law_to_dict(f.law), "offset": f.offset}


def config_from_dict(d: dict) -> ScenarioConfig:
    if not isinstance(d, dict):
        raise DomainError("config must be a JSON object")
    version = d.get("version")
    if version != SCHEMA_VERSION:
        raise DomainError(f"unsupported config version {version!r}")
    _object(d, "", ("version", "model", "lattice", "driving", "integrator",
                    "scenario"))
    try:
        m = _object(d["model"], "model", ("kappa", "gamma", "nonlinearity"))
        nl = m.get("nonlinearity")
        nonlinearity = None
        if nl is not None:
            where = "model.nonlinearity"
            if "a" in _object(nl, where) or "b" in nl:
                raise DomainError(f"{where}.a and .b are derived from sigma, not set")
            _object(nl, where, ("sigma", "sign"))
            nonlinearity = NonlinearitySpec(
                sigma=_checked(nl, "sigma", where, _POSITIVE),
                sign=_checked(nl, "sign", where, _INTEGER, 1))
        model = ModelParams(kappa=_checked(m, "kappa", "model", _REAL),
                            gamma=_checked(m, "gamma", "model", _POSITIVE),
                            nonlinearity=nonlinearity)
        lat = _object(d["lattice"], "lattice", ("n_sites", "bc"))
        dr = _object(d["driving"], "driving", ("g1", "g2"))
        g1, g2 = (_field_from_dict(dr[g], f"driving.{g}") if g in dr
                  else DrivingField.zero() for g in ("g1", "g2"))
        integ = _object(d.get("integrator", {}), "integrator",
                        IntegratorConfig.__dataclass_fields__)
        cfg = IntegratorConfig(**{
            k: _checked(integ, k, "integrator", _POSITIVE) for k in integ})
        n_sites = int(_checked(lat, "n_sites", "lattice", _SITES))
        return ScenarioConfig(model=model, n_sites=n_sites,
                              bc=lat.get("bc", DIRICHLET),
                              driving=DrivingSpec(g1=g1, g2=g2),
                              integrator=cfg,
                              scenario=dict(d.get("scenario", {})))
    except KeyError as exc:
        raise DomainError(f"config missing required key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"malformed config: {exc}") from exc


# ---------------------------------------------------------------------------
# typed fields of the driving, lattice and scenario blocks, checked on read

def _number(minimum: float = -math.inf, maximum: float = math.inf, *,
            strict: bool = False, integer: bool = False):
    """Parser of a finite number >= ``minimum`` (> with ``strict``) and
    <= ``maximum``, integral with ``integer``; ``name`` is the field's
    dotted path."""
    def parse(name: str, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DomainError(f"{name} must be a number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise DomainError(f"{name} must be finite, got {value!r}")
        if integer and value != int(value):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if value < minimum or (strict and value == minimum):
            bound = ">" if strict else ">="
            raise DomainError(f"{name} must be {bound} {minimum:g}, "
                              f"got {value!r}")
        if value > maximum:
            raise DomainError(f"{name} must be <= {maximum:g}, got {value!r}")
        return int(value) if integer else float(value)
    return parse


_REAL = _number()
_INTEGER = _number(integer=True)
# the integrator's (8, n_sites) complex128 stage buffer must be addressable
_SITES = _number(3, sys.maxsize // 128, integer=True)
_NONNEG = _number(0.0)
_POSITIVE = _number(0.0, strict=True)
_COUNT = _number(0, integer=True)
_POSITIVE_COUNT = _number(1, integer=True)


def _optional(item):
    def parse(name: str, value):
        return None if value is None else item(name, value)
    return parse


def _list_of(item, length: int | None = None):
    """Parser of a non-empty list (of exactly ``length`` items if given)."""
    def parse(name: str, value):
        if (not isinstance(value, list) or not value
                or (length is not None and len(value) != length)):
            size = "a non-empty" if length is None else f"a {length}-item"
            raise DomainError(f"{name} must be {size} list, got {value!r}")
        return tuple(item(f"{name}[{i}]", v) for i, v in enumerate(value))
    return parse


_INITIAL_FIELDS = {"zero": (), "random": ("seed", "norm"),
                   "values": ("values",)}


def _initial(name: str, value) -> SimpleNamespace:
    """``{"kind": "zero"}``, ``{"kind": "random", "seed", "norm"}`` or
    ``{"kind": "values", "values": [[re, im], ...]}``."""
    kind = _kind(value, name, "initial state", _INITIAL_FIELDS, "zero")
    if kind == "zero":
        return SimpleNamespace(kind=kind)
    if kind == "random":
        return SimpleNamespace(
            kind=kind, seed=_COUNT(f"{name}.seed", value.get("seed", 0)),
            norm=_NONNEG(f"{name}.norm", value.get("norm", 1.0)))
    values = value.get("values")
    if not isinstance(values, list):
        raise DomainError(f"{name}.values must be a list")
    try:
        return SimpleNamespace(kind=kind,
                               values=[_complex_pair(v) for v in values])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name}.values: {exc}") from exc


# Every scenario field each command reads: name -> (parser, default).  A
# default of None marks a field the command derives when it is absent.
SCENARIO_FIELDS = {
    "simulate": {"t0": (_REAL, 0.0), "t1": (_REAL, 10.0),
                 "tail_cutoff": (_COUNT, None),
                 "initial": (_initial, {"kind": "zero"})},
    "verify-bounds": {"t0": (_REAL, 0.0), "t1": (_REAL, 50.0),
                      "initial": (_initial, {"kind": "zero"})},
    "absorbing": {"radius": (_NONNEG, 1.0), "seed": (_COUNT, 0)},
    "tail": {"xi": (_POSITIVE, 1e-4), "radius": (_NONNEG, 1.0),
             "seed": (_COUNT, 0)},
    "contraction": {"seeds": (_list_of(_COUNT, 2), [1, 2]),
                    "horizon": (_POSITIVE, 3.0)},
    "continuity": {"seed": (_COUNT, 0), "theta_norm": (_NONNEG, 0.5),
                   "delta": (_NONNEG, 1e-3), "driving_shift": (_REAL, 0.0),
                   "horizon": (_POSITIVE, 5.0)},
    "dimension": {"section_period": (_POSITIVE, None), "seed": (_COUNT, 0),
                  "n_points": (_POSITIVE_COUNT, 2000),
                  "theiler_window": (_COUNT, 10),
                  "max_ci_width": (_POSITIVE, 0.5)},
    "breather": {"tol": (_POSITIVE, 1e-10),
                 "seeds": (_list_of(_optional(_COUNT)), [None]),
                 "phases": (_POSITIVE_COUNT, 8)},
}


def parse_scenario(command: str, scenario: dict) -> SimpleNamespace:
    """The fields ``command`` reads from a scenario block, defaults filled
    in; other commands' keys are ignored, since commands share configs.
    Raises DomainError on a key no command reads, or on a field of the
    wrong type or out of range."""
    unknown = sorted(scenario.keys() - set().union(*SCENARIO_FIELDS.values()))
    if unknown:
        raise DomainError("unknown scenario field(s), read by no command: "
                          + ", ".join(f"scenario.{k}" for k in unknown))
    out = {}
    for name, (parse, default) in SCENARIO_FIELDS[command].items():
        value = scenario.get(name, default)
        if value is None and default is None:
            out[name] = None
        else:
            out[name] = parse(f"scenario.{name}", value)
    return SimpleNamespace(**out)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    nl = cfg.model.nonlinearity
    return {
        "version": SCHEMA_VERSION,
        "model": {
            "kappa": cfg.model.kappa,
            "gamma": cfg.model.gamma,
            "nonlinearity": None if nl is None else {
                "sigma": nl.sigma, "sign": nl.sign},
        },
        "lattice": {"n_sites": cfg.n_sites, "bc": cfg.bc},
        "driving": {"g1": _field_to_dict(cfg.driving.g1),
                    "g2": _field_to_dict(cfg.driving.g2)},
        "integrator": {
            "rtol": cfg.integrator.rtol, "atol": cfg.integrator.atol,
            "dt_init": cfg.integrator.dt_init, "dt_min": cfg.integrator.dt_min,
            "dt_max": cfg.integrator.dt_max,
            "sample_stride": cfg.integrator.sample_stride,
        },
        "scenario": cfg.scenario,
    }


def dumps_config(cfg: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def loads_config(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    return config_from_dict(data)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())
