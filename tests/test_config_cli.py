"""JSON scenario configs and the command line interface."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dnls import cli
from dnls.config import (SCENARIO_FIELDS, ScenarioConfig, config_from_dict,
                         config_to_dict, dumps_config, load_config,
                         loads_config, parse_scenario)
from dnls.driving import (ConstantLaw, DrivingField, DrivingSpec,
                          HarmonicSumLaw, PeriodicLaw, SpatialProfile,
                          certificate)
from dnls.errors import DomainError
from dnls.integrator import IntegratorConfig
from dnls.lattice import ModelParams, NonlinearitySpec, make_rhs


CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

# every subcommand with the bundled config it runs on
BUNDLED = [("simulate", "simulate.json"), ("verify-bounds", "simulate.json"),
           ("absorbing", "absorbing.json"), ("tail", "absorbing.json"),
           ("contraction", "absorbing.json"), ("continuity", "absorbing.json"),
           ("dimension", "dimension.json"), ("breather", "breather.json")]


def _bundled_scenario(name):
    return json.loads((CONFIGS / name).read_text())["scenario"]


def _edited(tmp_path, name, path, value) -> str:
    """Bundled config ``name`` with the value at key ``path`` replaced,
    written under ``tmp_path``."""
    data = json.loads((CONFIGS / name).read_text())
    *parents, key = path
    parent = data
    for k in parents:
        parent = parent[k]
    parent[key] = value
    out = tmp_path / name
    out.write_text(json.dumps(data))
    return str(out)


def _malformed_fields():
    cases = [("absorbing", "absorbing.json", "radius", "big"),
             ("continuity", "absorbing.json", "theta_norm", "x"),
             ("breather", "breather.json", "seeds", 3),
             ("verify-bounds", "simulate.json", "t1", "x"),
             ("dimension", "dimension.json", "n_points", -5)]
    for command, name in BUNDLED:
        keys = _bundled_scenario(name).keys() & SCENARIO_FIELDS[command].keys()
        cases += [(command, name, key, "x") for key in sorted(keys)]
    return [pytest.param(*c, id=f"{c[0]}-{c[2]}={c[3]!r}")
            for c in dict.fromkeys(cases)]


# replacements for one field: every JSON type, and numbers at the edges
_ODD_VALUES = ["x", "", None, True, [], {}, [1, 2], {"kind": "x"},
               0, -1, 0.5]
_HUGE_VALUES = [1e308, -1e308, 10 ** 400, -10 ** 400, math.inf, -math.inf,
                math.nan]


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
    another type, sign-flipped or set huge."""
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
        op = draw(st.sampled_from(["drop", "swap", "flip", "huge"]))
        if op == "drop":
            del parent[key]
        elif op == "flip" and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            parent[key] = -value
        elif op == "huge":
            parent[key] = draw(st.sampled_from(_HUGE_VALUES))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
    return name, data


def _sample_config():
    g1 = DrivingField(SpatialProfile("exponential", amplitude=0.5, rate=1.0),
                      PeriodicLaw(period=2 * math.pi))
    g2 = DrivingField(SpatialProfile("single_site", amplitude=0.1),
                      ConstantLaw(1.0))
    return ScenarioConfig(
        model=ModelParams(kappa=1.0, gamma=2.0,
                          nonlinearity=NonlinearitySpec.cubic(-1)),
        n_sites=32, bc="dirichlet",
        driving=DrivingSpec(g1=g1, g2=g2),
        integrator=IntegratorConfig(),
        scenario={"t1": 1.0, "initial": {"kind": "zero"}})


class TestConfigRoundTrip:
    def test_canonical_round_trip_is_byte_identical(self):
        text = dumps_config(_sample_config())
        again = dumps_config(loads_config(text))
        assert again == text

    def test_harmonic_law_round_trip(self):
        cfg = _sample_config()
        law = HarmonicSumLaw(frequencies=(1.0, math.sqrt(2.0)),
                             amplitudes=(1.0, 0.5))
        g1 = DrivingField(cfg.driving.g1.profile, law)
        cfg2 = ScenarioConfig(model=cfg.model, n_sites=cfg.n_sites, bc=cfg.bc,
                              driving=DrivingSpec(g1=g1),
                              integrator=cfg.integrator, scenario=cfg.scenario)
        text = dumps_config(cfg2)
        back = loads_config(text)
        assert back.driving.g1.law == law
        assert dumps_config(back) == text

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(dumps_config(_sample_config()))
        assert dumps_config(load_config(path)) == path.read_text()

    def test_semantic_round_trip(self):
        cfg = _sample_config()
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg


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
        ("absorbing", "absorbing.json", ("driving", "g1", "offset"), [1]),
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
        *(("absorbing", "absorbing.json", path, True) for path in [
            ("model", "gamma"), ("model", "kappa"),
            ("model", "nonlinearity", "sigma"),
            ("model", "nonlinearity", "sign"),
            ("integrator", "rtol"), ("integrator", "dt_init")]),
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
        # refused, not silently overridden
        cfg = _edited(tmp_path, "absorbing.json",
                      ("model", "nonlinearity", key), 0.01)
        assert cli.main(["contraction", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: model.nonlinearity.a and .b")
        assert "derived from sigma" in err

    @pytest.mark.parametrize("key", ["radious", "t_factor", "oracle_rtol"])
    def test_unknown_scenario_key_is_config_error(self, tmp_path, capsys, key):
        # a typo, or a field that is gone, must not run on the default
        cfg = _edited(tmp_path, "absorbing.json", ("scenario", key), 3.0)
        assert cli.main(["absorbing", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"scenario.{key}" in err

    # a key the block's parser does not read, one per block: a typo, a key
    # of another kind (width is gaussian's, value the constant law's), or
    # of another block
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
    def test_mutated_bundled_config_raises_only_domain_error(
            self, tmp_path_factory, case):
        # loading, parsing, the certificate and the RHS: no command runs
        name, data = case
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(data))
        try:
            cfg = load_config(path)
        except DomainError:
            return
        certificate(cfg.model, cfg.driving)
        try:
            make_rhs(cfg.model, cfg.driving.sampler(cfg.n_sites), cfg.n_sites,
                     cfg.bc)
        except DomainError:
            pass
        for command, config in BUNDLED:
            if config == name:
                try:
                    parse_scenario(command, cfg.scenario)
                except DomainError:
                    pass

    def test_rejects_bad_version(self):
        d = config_to_dict(_sample_config())
        d["version"] = 99
        with pytest.raises(DomainError):
            config_from_dict(d)

    def test_rejects_missing_model(self):
        d = config_to_dict(_sample_config())
        del d["model"]
        with pytest.raises(DomainError):
            config_from_dict(d)

    def test_rejects_unknown_profile_kind(self):
        d = config_to_dict(_sample_config())
        d["driving"]["g1"]["profile"]["kind"] = "plateau"
        with pytest.raises(DomainError):
            config_from_dict(d)

    def test_rejects_invalid_json(self):
        with pytest.raises(DomainError):
            loads_config("{not json")

    def test_rejects_non_object(self):
        with pytest.raises(DomainError):
            loads_config("[1, 2, 3]")


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(dumps_config(cfg))
    return str(path)


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
        cfg.scenario.update({"t1": 5.0,
                             "initial": {"kind": "random", "norm": 1.0}})
        path = _write(tmp_path, cfg)
        assert cli.main(["verify-bounds", "--config", path]) == cli.EXIT_PASS

    def test_absorbing_passes(self, tmp_path):
        cfg = _sample_config()
        cfg.scenario.clear()
        cfg.scenario.update({"radius": 2.0})
        path = _write(tmp_path, cfg)
        report = tmp_path / "abs.json"
        assert cli.main(["absorbing", "--config", path,
                         "--json", str(report)]) == cli.EXIT_PASS
        assert json.loads(report.read_text())["pass"] is True

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
        cfg = _sample_config()
        weak = ScenarioConfig(
            model=ModelParams(kappa=1.0, gamma=0.1,
                              nonlinearity=NonlinearitySpec.cubic(-1)),
            n_sites=32, bc="dirichlet", driving=cfg.driving,
            integrator=cfg.integrator, scenario={})
        path = _write(tmp_path, weak)
        assert cli.main(["absorbing", "--config", path]) == cli.EXIT_CONFIG

    def test_check_failure_exit_code(self, tmp_path, monkeypatch):
        # force the verifier to report a violation and check the mapping
        path = _write(tmp_path, _sample_config())
        from dnls import diagnostics as dg

        def always_fail(traj, pred):
            return dg.AbsorbingReport(ok=False, first_entry_t=None,
                                      max_norm_after_entry=math.inf,
                                      predicted_entry_t=pred.entry_time,
                                      radius=pred.radius)

        monkeypatch.setattr(cli.dg, "verify_absorbing", always_fail)
        assert cli.main(["absorbing", "--config",
                         path]) == cli.EXIT_CHECK_FAILED

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = _sample_config()
        stiff = ScenarioConfig(
            model=ModelParams(kappa=50.0, gamma=2.0),
            n_sites=32, bc="periodic", driving=cfg.driving,
            integrator=IntegratorConfig(rtol=1e-13, atol=1e-13, dt_init=0.5,
                                        dt_min=0.5, dt_max=0.5),
            scenario={"t1": 1.0,
                      "initial": {"kind": "random", "norm": 1.0}})
        path = _write(tmp_path, stiff)
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_NUMERICAL

    def test_seed_flag_changes_random_initial(self, tmp_path):
        cfg = _sample_config()
        cfg.scenario.update({"initial": {"kind": "random", "norm": 1.0},
                             "t1": 0.5})
        path = _write(tmp_path, cfg)
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            assert cli.main(["simulate", "--config", path, "--seed", seed,
                             "--out", str(out)]) == cli.EXIT_PASS
            texts.append(out.read_text())
        assert texts[0] != texts[1]

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

    @pytest.mark.parametrize("command, name", BUNDLED)
    def test_negative_seed_flag_is_config_error(self, capsys, command, name):
        assert cli.main([command, "--config", str(CONFIGS / name),
                         "--seed", "-1"]) == cli.EXIT_CONFIG
        assert "config error: --seed" in capsys.readouterr().err

    def test_breather_command(self, tmp_path):
        g1 = DrivingField(SpatialProfile("exponential", amplitude=0.5,
                                         rate=1.0),
                          PeriodicLaw(period=2 * math.pi))
        cfg = ScenarioConfig(
            model=ModelParams(kappa=1.0, gamma=3.0,
                              nonlinearity=NonlinearitySpec.cubic(-1)),
            n_sites=32, bc="dirichlet", driving=DrivingSpec(g1=g1),
            integrator=IntegratorConfig(),
            scenario={"tol": 1e-8})
        path = _write(tmp_path, cfg)
        report = tmp_path / "breather.json"
        assert cli.main(["breather", "--config", path,
                         "--json", str(report)]) == cli.EXIT_PASS
        data = json.loads(report.read_text())
        assert data["verified"] is True
        assert data["periodicity_residual"] <= 1e-7
