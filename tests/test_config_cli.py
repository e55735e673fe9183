"""JSON scenario configs and the command line interface."""

import copy
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dnls.breather
import dnls.diagnostics
from dnls import cli
from dnls.config import (SCENARIO_FIELDS, ScenarioConfig, config_from_dict,
                         load_config, parse_scenario)
from dnls.driving import (Certificate, CosineLaw, DrivingField,
                          DrivingSpec, SpatialProfile, certificate)
from dnls.errors import DomainError
from dnls.integrator import IntegratorConfig, integrate
from dnls.lattice import (LatticeState, ModelParams, NonlinearitySpec,
                          make_rhs, random_state)
from dnls.output import (write_breather_profile_csv, write_dimension_csv,
                         write_json, write_trajectory_csv)


CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

# every subcommand with the bundled config it runs on
BUNDLED = [("simulate", "simulate.json"), ("verify-bounds", "simulate.json"),
           ("absorbing", "absorbing.json"), ("tail", "absorbing.json"),
           ("contraction", "absorbing.json"), ("continuity", "absorbing.json"),
           ("dimension", "dimension.json"), ("breather", "breather.json")]
# the commands that read each flag besides --config and --json
READS = {"--out": ("simulate", "dimension", "breather"),
         "--seed": ("simulate", "verify-bounds", "absorbing", "tail",
                    "continuity", "dimension"),
         "--verbose": ("simulate",)}


def _bundled_scenario(name):
    return json.loads((CONFIGS / name).read_text())["scenario"]


def _edited_data(name, path, value) -> tuple:
    """(name, bundled config ``name`` with the value at key ``path``
    replaced)."""
    data = json.loads((CONFIGS / name).read_text())
    *parents, key = path
    parent = data
    for k in parents:
        parent = parent[k]
    parent[key] = value
    return name, data


def _edited(tmp_path, name, path, value) -> str:
    """``_edited_data`` written under ``tmp_path``."""
    out = tmp_path / name
    out.write_text(json.dumps(_edited_data(name, path, value)[1]))
    return str(out)


def _malformed_fields():
    cases = [("absorbing", "absorbing.json", "radius", "big"),
             ("continuity", "absorbing.json", "driving_shift", "x"),
             ("breather", "breather.json", "seeds", 3),
             ("verify-bounds", "simulate.json", "t1", "x"),
             ("dimension", "dimension.json", "n_points", -5)]
    for command, name in BUNDLED:
        keys = _bundled_scenario(name).keys() & SCENARIO_FIELDS[command].keys()
        cases += [(command, name, key, "x") for key in sorted(keys)]
    return [pytest.param(*c, id=f"{c[0]}-{c[2]}={c[3]!r}")
            for c in dict.fromkeys(cases)]


# replacements for one field: every JSON type, and numbers at the edges
# (1e-20 and 1e-200 reach the exponential sums' small-rate cases; the
# subnormal 1e-320 is a period whose frequency 2 pi/period overflows)
_ODD_VALUES = ["x", "", None, True, [], {}, [1, 2], {"kind": "x"},
               0, -1, 0.5]
_EDGE_VALUES = [1e308, -1e308, 10 ** 400, -10 ** 400, math.inf, -math.inf,
                math.nan, 1e-20, 1e-200, 1e-320]


def _key_paths(node, prefix=()):
    """Key path of every value below ``node`` in a parsed JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


@st.composite
def _mutated_bundled_config(draw):
    """A bundled config with one to three fields dropped, swapped for
    another type, sign-flipped or set to a number at the edges."""
    name = draw(st.sampled_from(sorted({name for _, name in BUNDLED})))
    data = json.loads((CONFIGS / name).read_text())
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(data))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = data
        for k in parents:
            parent = parent[k]
        value = parent[key]
        op = draw(st.sampled_from(["drop", "swap", "flip", "edge"]))
        if op == "drop":
            del parent[key]
        elif op == "flip" and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            parent[key] = -value
        elif op == "edge":
            parent[key] = draw(st.sampled_from(_EDGE_VALUES))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
    return name, data


def _sample_config() -> dict:
    return {
        "version": 1,
        "model": {"kappa": 1.0, "gamma": 2.0,
                  "nonlinearity": {"sigma": 1.0, "sign": -1}},
        "lattice": {"n_sites": 32, "bc": "dirichlet"},
        "driving": {
            "g1": {"profile": {"kind": "exponential", "amplitude": 0.5,
                               "rate": 1.0},
                   "law": {"kind": "periodic", "period": 2 * math.pi}},
            "g2": {"profile": {"kind": "single_site", "amplitude": 0.1},
                   "law": {"kind": "constant", "value": 1.0}}},
        "scenario": {"t1": 1.0, "initial": {"kind": "zero"}}}


class TestConfigParse:
    def test_sample_config_reads_to_its_fields(self, tmp_path):
        g1 = DrivingField(SpatialProfile("exponential", amplitude=0.5,
                                         rate=1.0),
                          CosineLaw.periodic(period=2 * math.pi))
        g2 = DrivingField(SpatialProfile.single_site(0.1),
                          CosineLaw.constant(1.0))
        expected = ScenarioConfig(
            model=ModelParams(
                kappa=1.0, gamma=2.0,
                nonlinearity=NonlinearitySpec(sigma=1.0, sign=-1)),
            n_sites=32, bc="dirichlet", driving=DrivingSpec(g1=g1, g2=g2),
            integrator=IntegratorConfig(),
            scenario={"t1": 1.0, "initial": {"kind": "zero"}})
        assert load_config(_write(tmp_path, _sample_config())) == expected

    def test_optional_fields_read_as_given(self):
        d = _sample_config()
        d["lattice"]["bc"] = "periodic"
        d["model"]["nonlinearity"] = None
        d["integrator"] = {"rtol": 1e-9, "sample_stride": 0.5}
        cfg = config_from_dict(d)
        assert cfg.bc == "periodic" and cfg.model.nonlinearity is None
        assert cfg.integrator == IntegratorConfig(rtol=1e-9, sample_stride=0.5)

    @pytest.mark.parametrize("phases", [None, [0.5, -1.0]])
    def test_harmonic_law_reads_to_its_fields(self, phases):
        d = _sample_config()
        block = {"kind": "harmonic", "frequencies": [1.0, math.sqrt(2.0)],
                 "amplitudes": [1.0, 0.5]}
        if phases is not None:
            block["phases"] = phases
        d["driving"]["g1"]["law"] = block
        law = config_from_dict(d).driving.g1.law
        assert law == CosineLaw.harmonic(frequencies=(1.0, math.sqrt(2.0)),
                                         amplitudes=(1.0, 0.5),
                                         phases=tuple(phases or ()))
        assert tuple(p for _, _, p in law.terms) == tuple(phases or (0.0, 0.0))

    def test_custom_profile_values_read_as_complex(self):
        d = _sample_config()
        d["driving"]["g1"]["profile"] = {"kind": "custom", "start": -1,
                                         "values": [[0.5, -0.25], 2]}
        assert config_from_dict(d).driving.g1.profile == SpatialProfile(
            "custom", values=(0.5 - 0.25j, 2.0), start=-1)


class TestConfigValidation:
    @pytest.mark.parametrize("command, name, key, value", _malformed_fields())
    def test_malformed_scenario_field_is_config_error(self, tmp_path, capsys,
                                                      command, name, key,
                                                      value):
        data = json.loads((CONFIGS / name).read_text())
        data["scenario"][key] = value
        path = tmp_path / name
        path.write_text(json.dumps(data))
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    # fields that loaded unchecked and then ended a command in a traceback,
    # or (JSON true, a Python int) loaded as 1: (command, config, key
    # path, value)
    @pytest.mark.parametrize("command, name, path, value", [
        ("absorbing", "absorbing.json",
         ("driving", "g1", "profile", "amplitude"), "x"),
        ("absorbing", "absorbing.json",
         ("driving", "g1", "law", "amplitude"), [1]),
        ("absorbing", "absorbing.json",
         ("driving", "g2", "law", "value"), "x"),
        ("absorbing", "absorbing.json",
         ("driving", "g1", "law", "phase"), "x"),
        ("absorbing", "absorbing.json",
         ("driving", "g2", "profile", "site"), 0.5),
        ("simulate", "simulate.json", ("lattice", "n_sites"), 1e308),
        ("simulate", "simulate.json", ("lattice", "n_sites"), 100.7),
        # 5 initial values on a 128-site lattice: verify-bounds ran (and
        # passed) a 5-site lattice
        *((command, "simulate.json", ("scenario", "initial"),
           {"kind": "values", "values": [[0.1, 0.0]] * 5})
          for command in ("simulate", "verify-bounds")),
        # runs start at t = 0, so a negative horizon is refused as t1's
        *((command, "simulate.json", ("scenario", "t1"), -1.0)
          for command in ("simulate", "verify-bounds")),
        # verify-bounds to t1 = 0 checked no interval and passed
        ("verify-bounds", "simulate.json", ("scenario", "t1"), 0.0),
        *(("absorbing", "absorbing.json", path, True) for path in [
            ("model", "gamma"), ("model", "kappa"),
            ("model", "nonlinearity", "sigma"),
            ("model", "nonlinearity", "sign"),
            ("integrator", "rtol"), ("integrator", "sample_stride")]),
    ])
    def test_malformed_config_field_is_config_error(
            self, tmp_path, capsys, command, name, path, value):
        cfg = _edited(tmp_path, name, path, value)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and ".".join(path) in err

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_growth_constant_key_is_config_error(self, tmp_path, capsys, key):
        # (a, b) are derived from sigma: a config that sets them is
        # refused as an unknown key, not silently overridden
        cfg = _edited(tmp_path, "absorbing.json",
                      ("model", "nonlinearity", key), 0.01)
        assert cli.main(["contraction", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: unknown config field(s): model.nonlinearity.{key}\n")

    @pytest.mark.parametrize("key", ["radious", "t_factor", "oracle_rtol",
                                     "phases", "t0", "section_period",
                                     "theiler_window", "horizon",
                                     "theta_norm", "delta"])
    def test_unknown_scenario_key_is_config_error(self, tmp_path, capsys, key):
        # a typo, or a field that is gone, must not run on the default: the
        # breather's phases, the Theiler window, the pair horizons and
        # continuity's state and bump norms are constants, a start time is
        # the laws' phase, and a section is sampled at the driving's own
        # period
        cfg = _edited(tmp_path, "absorbing.json", ("scenario", key), 3.0)
        assert cli.main(["absorbing", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: unknown config field(s): scenario.{key}\n")

    # a key the block's parser does not read, one per block: a typo, a key
    # no profile kind reads (width), a key of another kind (value is the
    # constant law's), of another block, or a key that is gone (the step-size limits, which are
    # the kernel's constants, and a field's offset, which its law's phase
    # expresses)
    @pytest.mark.parametrize("command, name, path", [
        ("absorbing", "absorbing.json", ("integratr",)),
        ("absorbing", "absorbing.json", ("model", "kapa")),
        ("absorbing", "absorbing.json", ("model", "nonlinearity", "sigm")),
        ("absorbing", "absorbing.json", ("lattice", "nsites")),
        ("absorbing", "absorbing.json", ("integrator", "rtoll")),
        ("absorbing", "absorbing.json", ("driving", "g3")),
        ("absorbing", "absorbing.json", ("driving", "g1", "ofset")),
        ("absorbing", "absorbing.json", ("driving", "g1", "profile", "width")),
        ("absorbing", "absorbing.json", ("driving", "g2", "law", "period")),
        ("absorbing", "absorbing.json", ("driving", "g1", "law", "value")),
        ("simulate", "simulate.json", ("scenario", "initial", "values")),
        *(("absorbing", "absorbing.json", ("integrator", key))
          for key in ("dt_init", "dt_min", "dt_max")),
        *(("absorbing", "absorbing.json", ("driving", g, "offset"))
          for g in ("g1", "g2")),
    ])
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys,
                                                command, name, path):
        cfg = _edited(tmp_path, name, path, 1e-3)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and ".".join(path) in err

    def test_other_commands_scenario_key_is_accepted(self, tmp_path):
        # commands share configs: absorbing passes over dimension's n_points
        cfg = _edited(tmp_path, "absorbing.json", ("scenario", "n_points"), 10)
        assert cli.main(["absorbing", "--config", cfg]) == cli.EXIT_PASS

    def test_every_bundled_scenario_key_is_read(self):
        for name in {name for _, name in BUNDLED}:
            read = set().union(*(SCENARIO_FIELDS[command]
                                 for command, config in BUNDLED
                                 if config == name))
            assert _bundled_scenario(name).keys() <= read, name

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_mutated_bundled_config())
    @example(case=_edited_data("absorbing.json",
                               ("driving", "g1", "profile", "rate"), 1e-20))
    @example(case=_edited_data("absorbing.json", ("driving", "g1", "profile"),
                               {"kind": "single_site", "amplitude": 1e-200}))
    @example(case=_edited_data("absorbing.json",
                               ("driving", "g1", "law", "period"), 1e-320))
    def test_mutated_bundled_config_raises_only_domain_error(
            self, tmp_path_factory, case):
        # loading, parsing, the certificate and one call of the RHS at a
        # time where every law is read: no command runs
        name, data = case
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(data))
        try:
            cfg = load_config(path)
        except DomainError:
            return
        certificate(cfg.model, cfg.driving)
        for g in (cfg.driving.g1, cfg.driving.g2):
            g.profile.tail_sq(0)
        try:
            f = make_rhs(cfg.model, cfg.driving.sampler(cfg.n_sites), cfg.bc)
            f(1.0, np.zeros(cfg.n_sites, dtype=complex))
        except DomainError:
            pass
        for command, config in BUNDLED:
            if config == name:
                try:
                    parse_scenario(command, cfg.scenario)
                except DomainError:
                    pass

    # a required field that is missing, named by its dotted path
    @pytest.mark.parametrize("path", [("model", "kappa"),
                                      ("driving", "g1", "profile", "rate")])
    def test_missing_required_field_is_config_error(self, tmp_path, capsys,
                                                    path):
        data = _sample_config()
        *parents, key = path
        parent = data
        for k in parents:
            parent = parent[k]
        del parent[key]
        assert cli.main(["absorbing", "--config",
                         _write(tmp_path, data)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and ".".join(path) in err

    @pytest.mark.parametrize("g", ["g1", "g2"])
    def test_null_driving_field_is_config_error(self, tmp_path, capsys, g):
        # an absent field is the zero field; an explicit null is no field
        cfg = _edited(tmp_path, "absorbing.json", ("driving", g), None)
        assert cli.main(["absorbing", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"driving.{g}" in err

    def test_rejects_bad_version(self):
        d = _sample_config()
        d["version"] = 99
        with pytest.raises(DomainError):
            config_from_dict(d)

    def test_rejects_missing_model(self):
        d = _sample_config()
        del d["model"]
        with pytest.raises(DomainError):
            config_from_dict(d)

    def test_rejects_unknown_profile_kind(self):
        # every profile is the exponential or a table: a gaussian is a table
        for kind in ("plateau", "gaussian"):
            d = _sample_config()
            d["driving"]["g1"]["profile"] = {"kind": kind, "width": 3}
            with pytest.raises(DomainError,
                               match=r"^driving\.g1\.profile\.kind must be"):
                config_from_dict(d)

    @pytest.mark.parametrize("text", [b"{not json", b"[1, 2, 3]",
                                      b'{"version": 1, "model": "\xff"}'])
    def test_rejects_invalid_json_or_non_object(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(DomainError):
            load_config(path)


def _write(tmp_path, data: dict, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _csv_reference(header: str, rows) -> str:
    """CSV text written value by value: each float on its own with 17
    significant digits, strings as they are."""
    return "".join(",".join(v if isinstance(v, str) else format(float(v), ".17g")
                            for v in row) + "\n" for row in [[header], *rows])


class TestCsvOutput:
    """The three CSV writers against a per-value reference."""

    # complex values over the whole exponent range, where numpy's array
    # abs and Python's abs(z) can differ in the last bit
    VALUES = (np.random.default_rng(3).standard_normal((2, 64))
              * 10.0 ** np.random.default_rng(4).integers(-300, 300, (2, 64)))

    def test_trajectory_csv(self, tmp_path):
        cfg = config_from_dict(_sample_config())
        traj = integrate(random_state(8, 0), 0.0, 0.25, cfg.model, cfg.driving)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        header = ",".join(["t"] + [f"{p}_{i}" for i in range(8)
                                   for p in ("re", "im")])
        assert path.read_text() == _csv_reference(header, [
            [t, *(x for c in z for x in (c.real, c.imag))]
            for t, z in zip(traj.times, traj.values)])

    def test_breather_profile_csv(self, tmp_path):
        v = self.VALUES[0] + 1j * self.VALUES[1]
        v[0] = complex(-0.0, 0.0)
        path = tmp_path / "profile.csv"
        write_breather_profile_csv(LatticeState(v), path)
        assert path.read_text() == _csv_reference("n,abs,re,im", [
            [str(i - 32), abs(z), z.real, z.imag] for i, z in enumerate(v)])

    def test_dimension_csv(self, tmp_path):
        path = tmp_path / "corr.csv"
        write_dimension_csv(np.column_stack(self.VALUES), path)
        assert path.read_text() == _csv_reference(
            "epsilon,correlation", zip(*self.VALUES))


class TestCli:
    def test_simulate_deterministic_csv(self, tmp_path):
        path = _write(tmp_path, _sample_config())
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = cli.main(["simulate", "--config", path, "--out", str(out)])
            assert code == cli.EXIT_PASS
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        header = outs[0].splitlines()[0]
        assert header.startswith("t,re_0,im_0")

    def test_simulate_json_summary(self, tmp_path):
        path = _write(tmp_path, _sample_config())
        report = tmp_path / "summary.json"
        assert cli.main(["simulate", "--config", path,
                         "--json", str(report)]) == cli.EXIT_PASS
        data = json.loads(report.read_text())
        assert data["t1"] == 1.0 and data["n_samples"] == len(data["norms"])

    def test_verify_bounds_passes(self, tmp_path):
        cfg = _sample_config()
        cfg["scenario"].update({"t1": 5.0,
                                "initial": {"kind": "random", "norm": 1.0}})
        path = _write(tmp_path, cfg)
        assert cli.main(["verify-bounds", "--config", path]) == cli.EXIT_PASS

    def test_absorbing_passes(self, tmp_path):
        cfg = _sample_config()
        cfg["scenario"] = {"radius": 2.0}
        path = _write(tmp_path, cfg)
        report = tmp_path / "abs.json"
        assert cli.main(["absorbing", "--config", path,
                         "--json", str(report)]) == cli.EXIT_PASS
        assert json.loads(report.read_text())["pass"] is True

    @pytest.mark.parametrize("site", [0, 3])
    def test_single_site_is_a_one_entry_table(self, tmp_path, site):
        # g2 written as a single site and as its custom twin: the same
        # reports, byte for byte
        reports = []
        for profile in ({"kind": "single_site", "amplitude": 0.25,
                         "site": site},
                        {"kind": "custom", "values": [0.25], "start": site}):
            cfg = _edited(tmp_path, "absorbing.json",
                          ("driving", "g2", "profile"), profile)
            for command in ("absorbing", "continuity"):
                report = tmp_path / f"{command}_report.json"
                assert cli.main([command, "--config", cfg, "--json",
                                 str(report)]) == cli.EXIT_PASS
                reports.append(report.read_bytes())
        assert reports[:2] == reports[2:]

    def test_missing_config_is_usage_error(self, tmp_path):
        assert cli.main(["simulate", "--config",
                         str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG

    def test_bad_json_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_unknown_subcommand_is_usage_error(self):
        assert cli.main(["frobnicate", "--config", "x"]) == cli.EXIT_CONFIG

    def test_weak_damping_is_usage_error(self, tmp_path):
        weak = _sample_config()
        weak["model"]["gamma"] = 0.1
        weak["scenario"] = {}
        path = _write(tmp_path, weak)
        assert cli.main(["absorbing", "--config", path]) == cli.EXIT_CONFIG

    def test_check_failure_exit_code(self, tmp_path, monkeypatch):
        # force the verifier to report a violation and check the mapping
        path = _write(tmp_path, _sample_config())
        from dnls import diagnostics as dg

        def always_fail(traj, pred):
            return {**pred, "first_entry_t": None,
                    "max_norm_after_entry": math.inf, "pass": False}

        monkeypatch.setattr(cli.dg, "verify_absorbing", always_fail)
        assert cli.main(["absorbing", "--config",
                         path]) == cli.EXIT_CHECK_FAILED

    def test_late_absorbing_entry_writes_its_report(self, tmp_path,
                                                    monkeypatch):
        # absorbing.json's run first enters the ball at t = 0.9; predicted
        # at t = 0, the entry is late, and the failing record is plain JSON
        real = cli.dg.predict_absorbing
        monkeypatch.setattr(cli.dg, "predict_absorbing",
                            lambda *a: {**real(*a), "entry_time": 0.0})
        report = tmp_path / "absorbing.json"
        assert cli.main(["absorbing", "--config",
                         str(CONFIGS / "absorbing.json"), "--json",
                         str(report)]) == cli.EXIT_CHECK_FAILED
        data = json.loads(report.read_text())
        assert data["pass"] is False
        assert data["entry_time"] == 0.0 and data["first_entry_t"] == 0.9

    def test_unencodable_record_leaves_no_report(self, tmp_path):
        report = tmp_path / "r.json"
        with pytest.raises(TypeError):
            write_json({"pass": np.False_}, report)
        assert not report.exists()

    def _contraction_fails(self, tmp_path) -> dict:
        report = tmp_path / "contraction.json"
        assert cli.main(["contraction", "--config",
                         str(CONFIGS / "absorbing.json"), "--json",
                         str(report)]) == cli.EXIT_CHECK_FAILED
        data = json.loads(report.read_text())
        assert data["pass"] is False
        return data

    def test_contraction_fails_at_thrice_its_gap_rate(self, tmp_path,
                                                      monkeypatch):
        # a bound that decays three times as fast as the certificate's
        # rate is outrun by the pair
        real = Certificate.gap_rate
        monkeypatch.setattr(Certificate, "gap_rate",
                            lambda self, r: 3.0 * real(self, r))
        data = self._contraction_fails(tmp_path)
        cfg = load_config(CONFIGS / "absorbing.json")
        cert = certificate(cfg.model, cfg.driving)
        assert data["predicted_rate"] == 3.0 * real(cert, data["ball_radius"])

    def test_contraction_fails_on_a_pair_damped_at_half_gamma(self, tmp_path,
                                                              monkeypatch):
        # the pair stepped at gamma = 1 under the certificate of gamma = 2
        # approaches more slowly than the recursion allows; a line fit of
        # its decay passes at 95% of the paper's rate for any gamma >= 0.4
        real = cli.dg.integrate
        monkeypatch.setattr(cli.dg, "integrate", lambda state, t0, t1, params,
                            *a, **k: real(state, t0, t1,
                                          replace(params, gamma=1.0), *a, **k))
        data = self._contraction_fails(tmp_path)
        assert max(g / b for g, b in zip(data["gap"], data["bound"])) > 1.5

    def test_dimension_fails_below_its_ci_width(self, tmp_path):
        # 150 points of dimension.json's section: its CI width passes the
        # bundled max_ci_width and fails a bound just below that width
        _, data = _edited_data("dimension.json", ("scenario", "n_points"), 150)
        report = tmp_path / "dimension_report.json"
        argv = ["dimension", "--config", _write(tmp_path, data),
                "--json", str(report)]
        assert cli.main(argv) == cli.EXIT_PASS
        width = json.loads(report.read_text())["ci_width"]
        data["scenario"]["max_ci_width"] = 0.99 * width
        _write(tmp_path, data)  # over the config that argv names
        assert cli.main(argv) == cli.EXIT_CHECK_FAILED
        assert json.loads(report.read_text())["ci_width"] == width

    @pytest.mark.xfail(strict=True, reason="M(xi) bounds the driving's own "
                       "tail, not the mass the coupling carries past it")
    def test_tail_cutoff_of_a_single_site_driving(self, tmp_path):
        # g1 on site 0 alone has no tail, so M(xi) = 0; the hopping spreads
        # the driven mass to the neighbours, and the tail beyond site 0
        # reaches 0.0228 after the entry time, against xi = 1e-4
        cfg = _edited(tmp_path, "absorbing.json", ("driving", "g1", "profile"),
                      {"kind": "single_site", "amplitude": 0.8727})
        assert cli.main(["tail", "--config", cfg]) == cli.EXIT_PASS

    @pytest.mark.xfail(strict=True, reason="the envelope's exponential fit "
                       "refuses a breather that decays faster than any "
                       "exponential")
    def test_breather_under_a_gaussian_shaped_driving(self, tmp_path):
        # g1 a table of 0.01*exp(-n^2/1800) on every site of N = 128: the
        # breather is periodic to round-off and its envelope falls
        # monotonically, but the fit from site 2 on reads R^2 = 0.944
        data = json.loads((CONFIGS / "breather.json").read_text())
        data["driving"]["g1"]["profile"] = {
            "kind": "custom", "start": -64,
            "values": [0.01 * math.exp(-n * n / 1800) for n in range(-64, 64)]}
        data["scenario"]["seeds"] = [None]
        report = tmp_path / "breather_report.json"
        assert cli.main(["breather", "--config", _write(tmp_path, data),
                         "--json", str(report)]) == cli.EXIT_PASS
        assert json.loads(report.read_text())["verified"] is True

    def test_numerical_failure_exit_code(self, tmp_path):
        # no step meets tolerances of 1e-100, so the controller shrinks the
        # step to its smallest size and gives up, without a warning
        stiff = _sample_config()
        stiff.update(
            model={"kappa": 50.0, "gamma": 2.0},
            lattice={"n_sites": 32, "bc": "periodic"},
            integrator={"rtol": 1e-100, "atol": 1e-100},
            scenario={"t1": 1.0,
                      "initial": {"kind": "random", "norm": 1.0}})
        path = _write(tmp_path, stiff)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--config", path])
        assert code == cli.EXIT_NUMERICAL

    def test_seed_flag_changes_random_initial(self, tmp_path):
        cfg = _sample_config()
        cfg["scenario"].update({"initial": {"kind": "random", "norm": 1.0},
                                "t1": 0.5})
        path = _write(tmp_path, cfg)
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            assert cli.main(["simulate", "--config", path, "--seed", seed,
                             "--out", str(out)]) == cli.EXIT_PASS
            texts.append(out.read_text())
        assert texts[0] != texts[1]

    @pytest.mark.parametrize("command", ["simulate", "verify-bounds"])
    @pytest.mark.parametrize("initial", [
        {"kind": "zero"}, {"kind": "values", "values": [0.1] * 32}])
    def test_seed_flag_needs_a_random_initial_state(self, tmp_path, capsys,
                                                    command, initial):
        cfg = _sample_config()
        cfg["scenario"]["initial"] = initial
        assert cli.main([command, "--config", _write(tmp_path, cfg),
                         "--seed", "1"]) == cli.EXIT_CONFIG
        assert "scenario.initial.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, scenario", [
        ("contraction", "absorbing.json", {}),
        ("dimension", "dimension.json", {"n_points": 150})])
    def test_boundary_condition_reaches_the_states(self, tmp_path, command,
                                                   name, scenario):
        # on a small lattice the ends of the states matter: the periodic
        # and Dirichlet reports differ
        reports = []
        for bc in ("dirichlet", "periodic"):
            data = json.loads((CONFIGS / name).read_text())
            data["lattice"] = {"n_sites": 16, "bc": bc}
            data["scenario"].update(scenario)
            report = tmp_path / f"{bc}.json"
            assert cli.main([command, "--config",
                             _write(tmp_path, data, f"cfg_{bc}.json"),
                             "--json", str(report)]) == cli.EXIT_PASS
            reports.append(report.read_bytes())
        assert reports[0] != reports[1]

    # values the schema takes that no run can use: a g1 amplitude whose
    # entry time overflows, one whose absorbing radius K = 1.08e-10 lies
    # below 4*atol*sqrt(N) (||psi|| stalls near atol*sqrt(N) = 1.6e-10),
    # a lattice beyond memory (72.8 TiB asked for at once, so nothing is
    # reserved), a sample grid beyond memory, and finite driving numbers
    # whose sup||g1|| overflows: harmonic amplitudes that sum past the
    # float range, a custom profile value whose square does
    @pytest.mark.parametrize("path, value", [
        (("driving", "g1", "profile", "amplitude"), 1e-320),
        (("driving", "g1", "profile", "amplitude"), 1e-10),
        (("lattice", "n_sites"), 1e13),
        (("integrator", "sample_stride"), 1e-300),
        (("driving", "g1", "law"),
         {"kind": "harmonic", "frequencies": [1.0, 1.4142135623730951],
          "amplitudes": [1e308, 1e308]}),
        (("driving", "g1", "profile"),
         {"kind": "custom", "values": [1e200, 1.0], "start": 0})])
    def test_unrunnable_config_is_config_error(self, tmp_path, capsys, path,
                                               value):
        cfg = _edited(tmp_path, "absorbing.json", path, value)
        assert cli.main(["absorbing", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    # absorbing.json has 256 sites, -128..127: both spellings of a profile
    # name the first entry that falls outside
    @pytest.mark.parametrize("profile, site", [
        ({"kind": "single_site", "amplitude": 0.25, "site": 128}, 128),
        ({"kind": "single_site", "amplitude": 0.25, "site": -129}, -129),
        ({"kind": "custom", "values": [0.25, 0.25], "start": 127}, 128)])
    def test_profile_outside_truncation_is_config_error(self, tmp_path,
                                                        capsys, profile,
                                                        site):
        cfg = _edited(tmp_path, "absorbing.json",
                      ("driving", "g2", "profile"), profile)
        assert cli.main(["absorbing", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: profile site {site} outside truncation\n")

    @pytest.mark.parametrize("flag, name", [("--json", "x.json"),
                                            ("--out", "x.csv")])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, flag,
                                               name):
        out = tmp_path / "no_such_dir" / name
        path = _write(tmp_path, _sample_config())
        assert cli.main(["simulate", "--config", path,
                         flag, str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("output error:") and str(out) in err
        assert err.count("\n") == 1

    def test_absorbing_radius_above_atol_floor_passes(self, tmp_path):
        # K = 1.08e-9 against atol*sqrt(N) = 1.6e-10: ||psi|| enters and
        # stays below K (an amplitude 10x smaller is refused above)
        cfg = _edited(tmp_path, "absorbing.json",
                      ("driving", "g1", "profile", "amplitude"), 1e-9)
        assert cli.main(["absorbing", "--config", cfg]) == cli.EXIT_PASS

    def test_huge_exponential_rate_runs_without_warnings(self, tmp_path):
        # -rate*|n| overflows to -inf off site 0 for rate 1e308, and exp of
        # it is the 0 the profile has there: nothing to warn about
        cfg = _edited(tmp_path, "absorbing.json",
                      ("driving", "g1", "profile", "rate"), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = load_config(cfg).driving.g1.profile
            expected = np.zeros(16, dtype=complex)
            expected[8] = profile.amplitude
            assert np.array_equal(profile.realize(16), expected)
            assert cli.main(["absorbing", "--config", cfg]) == cli.EXIT_PASS

    @pytest.mark.parametrize("path, value", [
        (("driving", "g1", "law", "period"), 300.0),  # rho*T about 885
        (("model", "gamma"), 150.0),                  # rho*T about 940
    ])
    def test_breather_certificate_below_float_range(self, tmp_path, capsys,
                                                    path, value):
        # e^{-rho*T} underflows to 0, and the map contracts below the
        # round-off floor at once, so no ratio is kept: a pass, with no
        # ratio or margin in the report, and the line says so
        cfg = _edited(tmp_path, "breather.json", path, value)
        report = tmp_path / "breather_report.json"
        assert cli.main(["breather", "--config", cfg,
                         "--json", str(report)]) == cli.EXIT_PASS
        data = json.loads(report.read_text())
        assert data["certified_ratio"] == 0.0
        assert data["contraction_ratio"] is None
        assert data["ratio_margin"] is None and data["verified"] is True
        assert ("\ncontraction ratio not measured, certified 0\n"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("law", [
        {"kind": "harmonic", "frequencies": [1e-12, 1.4142135623730951],
         "amplitudes": [1, 0.8]},
        {"kind": "periodic", "period": 1e12}], ids=["harmonic", "periodic"])
    def test_dimension_section_period_beyond_the_burn_in(
            self, tmp_path, capsys, monkeypatch, law):
        # a section period of 6.3e12 or 1e12 rounds the burn-in to 0
        # periods: refused before any integration, not a division by zero
        calls = []
        monkeypatch.setattr(dnls.diagnostics, "integrate",
                            lambda *a, **k: calls.append(a))
        cfg = _edited(tmp_path, "dimension.json", ("driving", "g1", "law"),
                      law)
        assert cli.main(["dimension", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: section period ")
        assert "burn-in" in err and "Traceback" not in err
        assert calls == []

    @pytest.mark.parametrize("command", ["simulate", "breather"])
    def test_period_whose_frequency_overflows(self, tmp_path, capsys,
                                              command):
        # 2 pi/1e-320 is inf: refused at load, not a math domain error in
        # the law's cosine nor a sample stride of 2 pi/inf = 0
        name = dict(BUNDLED)[command]
        cfg = _edited(tmp_path, name, ("driving", "g1", "law", "period"),
                      1e-320)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: period 1e-320 is too short: its frequency "
            "2 pi/period is not a finite float\n")

    @pytest.mark.parametrize("shift", [1e308, -1e308])
    def test_hull_shift_whose_phase_overflows(self, tmp_path, capsys,
                                              monkeypatch, shift):
        # 2 pi*1e308 is inf: refused before any integration, not a NaN
        # right-hand side that rejects every step, nor a math domain error
        # in the hull gap
        calls = []
        monkeypatch.setattr(dnls.diagnostics, "integrate",
                            lambda *a, **k: calls.append(a))
        _, data = _edited_data("absorbing.json",
                               ("driving", "g1", "law", "period"), 1.0)
        data["scenario"]["driving_shift"] = shift
        assert cli.main(["continuity", "--config",
                         _write(tmp_path, data)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: hull shift {shift!r} takes a phase p + w*h of "
            f"the driving law past the float range\n")
        assert calls == []

    def test_dimension_of_a_synchronized_section(self, tmp_path):
        # absorbing.json's strongly damped model synchronizes its section to
        # one point up to round-off: dimension 0, not a failed line fit
        report = tmp_path / "dimension_report.json"
        assert cli.main(["dimension", "--config",
                         str(CONFIGS / "absorbing.json"),
                         "--json", str(report)]) == cli.EXIT_PASS
        data = json.loads(report.read_text())
        assert data["degenerate"] is True and data["dimension"] == 0.0

    def test_dimension_section_period_of_a_negative_frequency(self, tmp_path):
        # a harmonic sum's section is sampled every 2*pi/|w_1|;
        # cos(-wt) = cos(wt), so w_1 = -1 and 1 give the same report
        reports = []
        for w in (1.0, -1.0):
            data = json.loads((CONFIGS / "dimension.json").read_text())
            data["lattice"]["n_sites"] = 16
            data["driving"]["g1"]["law"]["frequencies"][0] = w
            data["scenario"]["n_points"] = 150
            report = tmp_path / f"dimension{w:+g}.json"
            assert cli.main(["dimension", "--config",
                             _write(tmp_path, data, f"cfg{w:+g}.json"),
                             "--json", str(report)]) == cli.EXIT_PASS
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("g1_law, g2_law, period", [
        # a constant g1 and a periodic g2: g2's period
        ({"kind": "constant", "value": 1.0},
         {"kind": "periodic", "period": 3.0}, 3.0),
        # a harmonic sum, which has no period: its first harmonic's
        ({"kind": "harmonic", "frequencies": [1.3, math.sqrt(2.0)],
          "amplitudes": [1.0, 0.5]},
         {"kind": "constant", "value": 1.0}, 2 * math.pi / 1.3),
        # constant laws only: no period to sample at
        ({"kind": "constant", "value": 1.0},
         {"kind": "constant", "value": 1.0}, None),
        # a periodic law on a g1 of zero norm, which sets no period
        ({"kind": "periodic", "period": 3.0, "amplitude": 0.0},
         {"kind": "constant", "value": 1.0}, None)])
    def test_dimension_section_period_is_the_driving_period(
            self, tmp_path, monkeypatch, capsys, g1_law, g2_law, period):
        # the section is sampled at the period the driving has: the
        # sample stride of the integration the section steps with
        data = json.loads((CONFIGS / "absorbing.json").read_text())
        data["driving"]["g1"]["law"] = g1_law
        data["driving"]["g2"]["law"] = g2_law
        seen = []

        class Sampled(Exception):
            pass

        def integrate(state, t0, t1, params, driving, config, **kwargs):
            seen.append(config.sample_stride)
            raise Sampled
        monkeypatch.setattr(cli.dg, "integrate", integrate)
        argv = ["dimension", "--config", _write(tmp_path, data)]
        if period is None:
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: driving has no period: no field of nonzero "
                "norm has a periodic law (kind \"periodic\" in driving.g1.law "
                "or driving.g2.law)\n")
            assert seen == []
        else:
            with pytest.raises(Sampled):
                cli.main(argv)
            assert seen == [pytest.approx(period, rel=1e-15)]

    def test_closed_stdout_keeps_the_exit_code(self):
        # `dnls absorbing ... | true`: the reader is gone before the verdict
        # is printed, which is neither a failed check nor a traceback
        read, write = os.pipe()
        os.close(read)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dnls.cli", "absorbing", "--config",
                 str(CONFIGS / "absorbing.json")],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=300)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_PASS, b"")

    @pytest.mark.parametrize("command, name", [
        (c, n) for c, n in BUNDLED if c in READS["--seed"]])
    def test_negative_seed_flag_is_config_error(self, capsys, command, name):
        assert cli.main([command, "--config", str(CONFIGS / name),
                         "--seed", "-1"]) == cli.EXIT_CONFIG
        assert "config error: --seed" in capsys.readouterr().err

    # each place a seed enters, set one past the end of random_state's
    # stream, [0, 2**64): (command, config, key path, value, name reported)
    @pytest.mark.parametrize("command, name, path, value, field", [
        ("simulate", "simulate.json", ("scenario", "initial", "seed"),
         2 ** 64, "scenario.initial.seed"),
        ("verify-bounds", "simulate.json", ("scenario", "initial", "seed"),
         2 ** 64, "scenario.initial.seed"),
        ("absorbing", "absorbing.json", ("scenario", "seed"), 2 ** 64,
         "scenario.seed"),
        ("tail", "absorbing.json", ("scenario", "seed"), 2 ** 64,
         "scenario.seed"),
        ("continuity", "absorbing.json", ("scenario", "seed"), 2 ** 64,
         "scenario.seed"),
        ("dimension", "dimension.json", ("scenario", "seed"), 2 ** 64,
         "scenario.seed"),
        ("contraction", "absorbing.json", ("scenario", "seeds"),
         [1, 2 ** 64], "scenario.seeds[1]"),
        ("breather", "breather.json", ("scenario", "seeds"),
         [None, 1, 2 ** 64], "scenario.seeds[2]"),
    ])
    def test_scenario_seed_beyond_the_stream_is_config_error(
            self, tmp_path, capsys, command, name, path, value, field):
        assert cli.main([command, "--config",
                         _edited(tmp_path, name, path, value)
                         ]) == cli.EXIT_CONFIG
        assert f"config error: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        (c, n) for c, n in BUNDLED if c in READS["--seed"]])
    def test_seed_flag_beyond_the_stream_is_config_error(self, capsys,
                                                         command, name):
        # the flag is parsed as a config seed is, with its messages
        seeds = {2 ** 64: "<= 18446744073709551615, got 18446744073709551616",
                 -1: ">= 0, got -1"}
        for seed, message in seeds.items():
            assert cli.main([command, "--config", str(CONFIGS / name),
                             "--seed", str(seed)]) == cli.EXIT_CONFIG
            assert (f"config error: --seed must be {message}"
                    in capsys.readouterr().err)

    def test_continuity_takes_the_last_seed(self, monkeypatch):
        # the bump is drawn from seed ^ 1, which every seed has
        real, seeds = cli.random_state, []

        def drawn(n_sites, seed, **kwargs):
            seeds.append(seed)
            return real(n_sites, seed, **kwargs)
        monkeypatch.setattr(cli, "random_state", drawn)
        assert cli.main(["continuity", "--config",
                         str(CONFIGS / "absorbing.json"),
                         "--seed", str(2 ** 64 - 1)]) == cli.EXIT_PASS
        assert seeds == [2 ** 64 - 1, 2 ** 64 - 2]

    def test_verbose_prints_the_sample_count_of_simulate_only(self, capsys):
        path = str(CONFIGS / "simulate.json")
        assert cli.main(["simulate", "--config", path,
                         "--verbose"]) == cli.EXIT_PASS
        assert capsys.readouterr() == ("", "simulated 501 samples over "
                                           "[0, 50] on 128 of 128 sites\n")
        # no other command prints with it, so none takes it
        assert cli.main(["verify-bounds", "--config", path,
                         "--verbose"]) == cli.EXIT_CONFIG
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err

    def test_last_seed_of_the_stream_runs(self, capsys):
        assert cli.main(["absorbing", "--config",
                         str(CONFIGS / "absorbing.json"),
                         "--seed", str(2 ** 64 - 1)]) == cli.EXIT_PASS

    @pytest.mark.parametrize("command, name, flag", [
        (c, n, flag) for flag in READS for c, n in BUNDLED
        if c not in READS[flag]])
    def test_flag_the_command_ignores_is_usage_error(self, tmp_path, capsys,
                                                    command, name, flag):
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(CONFIGS / name),
                         flag, str(out)]) == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_breather_command(self, tmp_path):
        cfg = _sample_config()
        cfg["model"]["gamma"] = 3.0
        del cfg["driving"]["g2"]
        cfg["scenario"] = {"tol": 1e-8}
        path = _write(tmp_path, cfg)
        report = tmp_path / "breather.json"
        assert cli.main(["breather", "--config", path,
                         "--json", str(report)]) == cli.EXIT_PASS
        data = json.loads(report.read_text())
        assert data["verified"] is True
        assert data["periodicity_residual"] <= 1e-7
        assert 0 < data["ratio_margin"] <= 1
        assert data["ratio_margin"] == pytest.approx(
            data["contraction_ratio"] / data["certified_ratio"], rel=1e-12)

    def test_breather_fails_on_its_seed_spread(self, tmp_path, monkeypatch,
                                               capsys):
        # the second seed's solution moved by 100*tol: the first still
        # verifies, and the run fails on the spread of the seeds alone
        tol = _bundled_scenario("breather.json")["tol"]
        solve, solves = dnls.breather.find_breather, []

        def moved(*args, **kwargs):
            sol = solve(*args, **kwargs)
            solves.append(sol)
            if len(solves) == 2:
                values = sol.state0.values.copy()
                values[0] += 100 * tol
                sol = replace(sol, state0=LatticeState(values, sol.state0.bc))
            return sol

        monkeypatch.setattr(dnls.breather, "find_breather", moved)
        report = tmp_path / "breather_report.json"
        assert cli.main(["breather", "--config",
                         str(CONFIGS / "breather.json"), "--json",
                         str(report)]) == cli.EXIT_CHECK_FAILED
        data = json.loads(report.read_text())
        assert len(solves) == 3 and data["verified"] is True
        assert data["seed_spread"] == pytest.approx(100 * tol, rel=1e-3)
        assert "seed spread 1e-08: FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("seeds, shown", [([1, 1], "1"),
                                              ([None, None], "null")])
    def test_breather_refuses_a_repeated_seed(self, tmp_path, monkeypatch,
                                              capsys, seeds, shown):
        # equal starts give equal solves, whose spread of 0.0 witnesses
        # nothing: refused before any integration
        calls = []
        integrate = dnls.breather.integrate

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(dnls.breather, "integrate", counting)
        cfg = _edited(tmp_path, "breather.json", ("scenario", "seeds"), seeds)
        assert cli.main(["breather", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: scenario.seeds repeats {shown}: equal seeds "
            f"start equal solves, which witness nothing of uniqueness\n")
        assert calls == []

    def test_breather_runs_on_a_single_seed(self, tmp_path):
        # the default [null]: one solve, no spread to measure
        data = json.loads((CONFIGS / "breather.json").read_text())
        del data["scenario"]["seeds"]
        report = tmp_path / "breather_report.json"
        assert cli.main(["breather", "--config", _write(tmp_path, data),
                         "--json", str(report)]) == cli.EXIT_PASS
        assert json.loads(report.read_text())["seed_spread"] == 0.0

    def test_breather_fails_on_its_localization(self, tmp_path, capsys):
        # g1 of 0.01 on every site of N = 32: the breather is periodic and
        # within its certificate, but not localized, so the run fails on
        # the R^2 of its envelope's decay alone
        _, data = _edited_data("breather.json", ("lattice", "n_sites"), 32)
        data["driving"]["g1"]["profile"] = {"kind": "custom", "start": -16,
                                            "values": [0.01] * 32}
        report = tmp_path / "breather_report.json"
        assert cli.main(["breather", "--config", _write(tmp_path, data),
                         "--json", str(report)]) == cli.EXIT_CHECK_FAILED
        data = json.loads(report.read_text())
        tol = _bundled_scenario("breather.json")["tol"]
        assert data["verified"] is False and data["localization_r2"] < 0.99
        assert data["envelope_monotone"] is True
        assert data["max_phase_residual"] <= 10 * tol
        assert data["seed_spread"] <= 10 * tol
        assert data["ratio_margin"] <= 1
        assert "(R^2 = 0.44567)" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", [1e300, 0.0382])
    def test_breather_refuses_a_tol_no_gate_can_fail(self, tmp_path, capsys,
                                                     tol):
        # every state of the R_u-ball (R_u = 0.191) lies within 2*R_u of the
        # breather, so at 10*tol >= 2*R_u the zero state verified
        cfg = _edited(tmp_path, "breather.json", ("scenario", "tol"), tol)
        assert cli.main(["breather", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: scenario.tol must be below "
                              "R_u/5 = 0.0381")

    def test_simulate_to_the_start_time_runs(self, tmp_path):
        # simulate writes the initial state alone; verify-bounds refuses
        # t1 = 0, where it has no interval to check
        cfg = _edited(tmp_path, "simulate.json", ("scenario", "t1"), 0.0)
        out = tmp_path / "simulate.csv"
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(out)]) == cli.EXIT_PASS
        assert out.exists()

    @pytest.mark.parametrize("path, value", [
        (("driving", "g1", "law"), {"kind": "constant", "value": 1.0}),
        # a periodic law on a field of zero norm sets no period
        (("driving", "g1", "profile", "amplitude"), 0.0)],
        ids=["constant-law", "zero-field"])
    def test_breather_names_the_laws_when_none_is_periodic(self, tmp_path,
                                                          capsys, path,
                                                          value):
        # no field of nonzero norm carries a period, so the message points
        # at the laws that could
        cfg = _edited(tmp_path, "breather.json", path, value)
        assert cli.main(["breather", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: driving has no period: no field of nonzero norm "
            "has a periodic law (kind \"periodic\" in driving.g1.law or "
            "driving.g2.law)\n")

    @pytest.mark.parametrize("kappa", [0.0, 0.01])
    def test_breather_on_a_single_site_is_localized(self, tmp_path, capsys,
                                                    kappa):
        # fewer than 3 envelope sites from site 2 on lie above 1e-10 of its
        # peak: no decay rate is fitted, and the breather is localized
        _, data = _edited_data("breather.json", ("model", "kappa"), kappa)
        data["driving"]["g1"]["profile"] = {"kind": "single_site",
                                            "amplitude": 0.5}
        report = tmp_path / "breather_report.json"
        assert cli.main(["breather", "--config", _write(tmp_path, data),
                         "--json", str(report)]) == cli.EXIT_PASS
        data = json.loads(report.read_text())
        assert data["verified"] is True and data["localization_r2"] is None
        assert "localization rate" not in capsys.readouterr().out

    @pytest.mark.parametrize("n_sites", [3, 8, 9])
    def test_breather_refuses_a_lattice_too_short_to_check(
            self, tmp_path, monkeypatch, capsys, n_sites):
        # fewer than 3 envelope sites from site 2 on: refused before a solve
        monkeypatch.setattr(dnls.breather, "find_breather", None)
        cfg = _edited(tmp_path, "breather.json", ("lattice", "n_sites"),
                      n_sites)
        assert cli.main(["breather", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: lattice.n_sites must be >= 10 for breather, "
            f"which checks localization on the envelope from site 2 on, got "
            f"{n_sites}\n")

    @pytest.mark.parametrize("amplitude", [1e-13, 0.1])
    def test_breather_names_a_law_with_no_period(self, tmp_path, capsys,
                                                 amplitude):
        # g1 is periodic and g2 a harmonic sum, however weak: the driving
        # has no period to map over
        cfg = _edited(tmp_path, "breather.json", ("driving", "g2"), {
            "profile": {"kind": "single_site", "amplitude": amplitude},
            "law": {"kind": "harmonic", "frequencies": [1.0, math.sqrt(2.0)],
                    "amplitudes": [1.0, 1.0]}})
        assert cli.main(["breather", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: driving.g2.law is a harmonic sum")

    def test_breather_names_a_harmonic_g1(self, tmp_path, capsys):
        cfg = _edited(tmp_path, "breather.json", ("driving", "g1", "law"), {
            "kind": "harmonic", "frequencies": [1.0, math.sqrt(2.0)],
            "amplitudes": [1.0, 1.0]})
        assert cli.main(["breather", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: driving.g1.law is a harmonic sum, which has no "
            "period\n")

    @pytest.mark.parametrize("ratio, code", [(2, cli.EXIT_PASS),
                                             (1.5, cli.EXIT_CONFIG)])
    def test_breather_on_commensurate_periods(self, tmp_path, capsys, ratio,
                                              code):
        # g2 of period 2*pi/ratio: at an integer ratio the driving keeps
        # g1's period 2*pi, at 1.5 it has none that both laws share
        cfg = _edited(tmp_path, "breather.json", ("driving", "g2"), {
            "profile": {"kind": "single_site", "amplitude": 0.01},
            "law": {"kind": "periodic", "period": 2 * math.pi / ratio}})
        report = tmp_path / "breather_report.json"
        assert cli.main(["breather", "--config", cfg,
                         "--json", str(report)]) == code
        if code == cli.EXIT_PASS:
            assert json.loads(report.read_text())["period"] == 2 * math.pi
        else:
            assert "different periods" in capsys.readouterr().err

    def test_breather_ignores_the_law_of_a_switched_off_field(self,
                                                             tmp_path):
        # g1 of amplitude 0 sets no period, whatever its law: the driving
        # has g2's period 3, as with a constant law on g1
        reports = []
        for law in ({"kind": "constant", "value": 1.0},
                    {"kind": "periodic", "period": 2 * math.pi},
                    {"kind": "harmonic", "frequencies": [1.0, math.sqrt(2.0)],
                     "amplitudes": [1.0, 0.5]}):
            data = json.loads((CONFIGS / "breather.json").read_text())
            data["driving"] = {
                "g1": {"profile": {"kind": "exponential", "amplitude": 0.0,
                                   "rate": 1.0}, "law": law},
                "g2": {"profile": {"kind": "single_site", "amplitude": 0.25},
                       "law": {"kind": "periodic", "period": 3.0}}}
            report = tmp_path / f"breather_{law['kind']}.json"
            assert cli.main(["breather", "--config", _write(tmp_path, data),
                             "--json", str(report)]) == cli.EXIT_PASS
            reports.append(json.loads(report.read_text()))
        assert reports[0]["period"] == 3.0
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_breather_zero_seed_keeps_the_boundary_condition(self, tmp_path):
        # the null seed solves the periodic problem, as seeds 1 and 2 do
        cfg = _edited(tmp_path, "breather.json", ("lattice",),
                      {"n_sites": 16, "bc": "periodic"})
        report = tmp_path / "breather_report.json"
        assert cli.main(["breather", "--config", cfg,
                         "--json", str(report)]) == cli.EXIT_PASS
        assert json.loads(report.read_text())["seed_spread"] <= 1e-9

    # profile sums at scales whose floats underflow: 1 - exp(-2 rate) is 0
    # for this rate, and the square of 1e-200 is 0
    @pytest.mark.parametrize("command, profile", [
        ("tail", {"kind": "exponential", "amplitude": 0.8727, "rate": 1e-20}),
        ("absorbing",
         {"kind": "custom", "start": -1, "values": [1e-200, 0.8727, 1e-200]})])
    def test_tiny_profile_scale_runs_without_warnings(self, tmp_path, capsys,
                                                      command, profile):
        cfg = _edited(tmp_path, "absorbing.json", ("driving", "g1", "profile"),
                      profile)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", cfg])
        assert code in (cli.EXIT_PASS, cli.EXIT_CONFIG)
        assert "Traceback" not in capsys.readouterr().err
