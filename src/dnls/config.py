"""JSON scenario configuration, checked on read.

Each block of a config has one table, field name -> (parser, default), and
``_read`` applies it: it refuses a key the table does not name and a missing
field whose default is ``_REQUIRED``, and parses every value as its dotted
path (``driving.g1.profile.rate``), so each message names its field.  A
default is the parsed value itself.  Nested blocks are parsers too, and in
a block with a ``kind`` the kind selects a (table, constructor) pair.
Complex numbers are real numbers or two-element [re, im] arrays.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from types import SimpleNamespace

from .driving import CosineLaw, DrivingField, DrivingSpec, SpatialProfile
from .errors import DomainError
from .integrator import IntegratorConfig
from .lattice import (DIRICHLET, PERIODIC, SEED_LIMIT, ModelParams,
                      NonlinearitySpec)

SCHEMA_VERSION = 1
_REQUIRED = object()  # the default of a field that must be given


@dataclass(frozen=True)
class ScenarioConfig:
    model: ModelParams
    n_sites: int
    bc: str
    driving: DrivingSpec
    integrator: IntegratorConfig
    scenario: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# field parsers: ``parse(name, value)`` checks ``value`` as the field
# ``name`` (its dotted path) and returns it parsed

def _number(minimum: float = -math.inf, maximum: float = math.inf, *,
            strict: bool = False, integer: bool = False):
    """Parser of a finite number >= ``minimum`` (> with ``strict``) and
    <= ``maximum``, integral with ``integer``."""
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
            raise DomainError(f"{name} must be <= {maximum}, got {value!r}")
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
# random_state's range, of a config seed and of the --seed flag
SEED = _number(0, SEED_LIMIT - 1, integer=True)


def _one_of(*choices):
    def parse(name: str, value):
        if value not in choices:
            raise DomainError(f"{name} must be one of "
                              f"{', '.join(map(repr, choices))}, got {value!r}")
        return value
    return parse


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


_REALS = _list_of(_REAL)


def _complex(name: str, value) -> complex:
    if isinstance(value, list):
        return complex(*_list_of(_REAL, 2)(name, value))
    return complex(_REAL(name, value))


def _object(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"{name} must be an object, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# blocks

def _read(block, where: str, table: dict, known=None) -> dict:
    """The fields of ``table`` read from ``block``, parsed, with defaults
    filled in.  A key outside ``known`` (default: the table's keys) is
    refused: a misspelled key must not run on the default."""
    unknown = sorted(_object(where or "config", block).keys()
                     - set(table if known is None else known))
    if unknown:
        raise DomainError("unknown config field(s): " + ", ".join(
            f"{where}.{k}" if where else k for k in unknown))
    out = {}
    for name, (parse, default) in table.items():
        path = f"{where}.{name}" if where else name
        if name in block:
            out[name] = parse(path, block[name])
        elif default is _REQUIRED:
            raise DomainError(f"{path} is required")
        else:
            out[name] = default
    return out


def _block(table: dict, make=dict):
    """Parser of a block that ``table`` reads into ``make(**fields)``."""
    return lambda where, value: make(**_read(value, where, table))


def _kind(kinds: dict, default=None):
    """Parser of a block whose ``kind`` (``default`` when absent) selects
    the pair (table, make) of ``kinds`` that reads it."""
    def parse(where: str, value):
        kind = _one_of(*kinds)(f"{where}.kind",
                               _object(where, value).get("kind", default))
        table, make = kinds[kind]
        return make(**_read(value, where, table, known=("kind", *table)))
    return parse


_PROFILE = _kind({
    "exponential": ({"amplitude": (_REAL, 1.0), "rate": (_POSITIVE, _REQUIRED)},
                    partial(SpatialProfile, "exponential")),
    "gaussian": ({"amplitude": (_REAL, 1.0), "width": (_POSITIVE, _REQUIRED)},
                 partial(SpatialProfile, "gaussian")),
    "single_site": ({"amplitude": (_REAL, 1.0), "site": (_INTEGER, 0)},
                    SpatialProfile.single_site),
    "custom": ({"values": (_list_of(_complex), _REQUIRED),
                "start": (_INTEGER, 0)}, partial(SpatialProfile, "custom")),
})

_LAW = _kind({
    "constant": ({"value": (_REAL, 1.0)}, CosineLaw.constant),
    "periodic": ({"period": (_POSITIVE, _REQUIRED), "amplitude": (_REAL, 1.0),
                  "phase": (_REAL, 0.0)}, CosineLaw.periodic),
    "harmonic": ({"frequencies": (_REALS, _REQUIRED),
                  "amplitudes": (_REALS, _REQUIRED), "phases": (_REALS, ())},
                 CosineLaw.harmonic),
})

_FIELD = _block({"profile": (_PROFILE, _REQUIRED),
                 "law": (_LAW, CosineLaw.constant())}, DrivingField)


_CONFIG = {
    "version": (_one_of(SCHEMA_VERSION), _REQUIRED),
    "model": (_block({"kappa": (_REAL, _REQUIRED),
                      "gamma": (_POSITIVE, _REQUIRED),
                      "nonlinearity": (_optional(_block(
                          {"sigma": (_POSITIVE, _REQUIRED),
                           "sign": (_INTEGER, 1)}, NonlinearitySpec)), None)},
                     ModelParams), _REQUIRED),
    "lattice": (_block({"n_sites": (_SITES, _REQUIRED),
                        "bc": (_one_of(DIRICHLET, PERIODIC), DIRICHLET)}),
                _REQUIRED),
    "driving": (_block({"g1": (_FIELD, DrivingField.zero()),
                        "g2": (_FIELD, DrivingField.zero())}, DrivingSpec),
                _REQUIRED),
    "integrator": (_block({f.name: (_POSITIVE, f.default)
                           for f in fields(IntegratorConfig)},
                          IntegratorConfig), IntegratorConfig()),
    "scenario": (_object, {}),
}


def config_from_dict(d: dict) -> ScenarioConfig:
    try:
        c = _read(d, "", _CONFIG)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"malformed config: {exc}") from exc
    return ScenarioConfig(model=c["model"], n_sites=c["lattice"]["n_sites"],
                          bc=c["lattice"]["bc"], driving=c["driving"],
                          integrator=c["integrator"],
                          scenario=dict(c["scenario"]))


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DomainError(f"invalid JSON: {exc}") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# scenario blocks

_INITIAL = _kind({
    "zero": ({}, partial(SimpleNamespace, kind="zero")),
    "random": ({"seed": (SEED, 0), "norm": (_NONNEG, 1.0)},
               partial(SimpleNamespace, kind="random")),
    "values": ({"values": (_list_of(_complex), _REQUIRED)},
               partial(SimpleNamespace, kind="values")),
}, default="zero")

# Every scenario field each command reads: name -> (parser, default); none
# is derived when absent.  Runs start at t = 0, since a later start is a
# shift of the laws' phases (``CosineLaw.shifted``).
SCENARIO_FIELDS = {
    "simulate": {"t1": (_NONNEG, 10.0),
                 "tail_cutoff": (_optional(_COUNT), None),
                 "initial": (_INITIAL, SimpleNamespace(kind="zero"))},
    # a run to t1 = 0 has no interval to check
    "verify-bounds": {"t1": (_POSITIVE, 50.0),
                      "initial": (_INITIAL, SimpleNamespace(kind="zero"))},
    "absorbing": {"radius": (_NONNEG, 1.0), "seed": (SEED, 0)},
    "tail": {"xi": (_POSITIVE, 1e-4), "radius": (_NONNEG, 1.0),
             "seed": (SEED, 0)},
    "contraction": {"seeds": (_list_of(SEED, 2), (1, 2))},
    "continuity": {"seed": (SEED, 0), "driving_shift": (_REAL, 0.0)},
    "dimension": {"seed": (SEED, 0), "n_points": (_POSITIVE_COUNT, 2000),
                  "max_ci_width": (_POSITIVE, 0.5)},
    "breather": {"tol": (_POSITIVE, 1e-10),
                 "seeds": (_list_of(_optional(SEED)), (None,))},
}


def parse_scenario(command: str, scenario: dict) -> SimpleNamespace:
    """The fields ``command`` reads from a scenario block, defaults filled
    in; other commands' keys are ignored, since commands share configs.
    Raises DomainError on a key no command reads, or on a field of the
    wrong type or out of range."""
    return SimpleNamespace(**_read(
        scenario, "scenario", SCENARIO_FIELDS[command],
        known=set().union(*SCENARIO_FIELDS.values())))
