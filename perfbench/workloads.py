"""The three workloads: inputs generated from the workload seed, the ``dnls``
CLI invocations of one workload run, and the checks on their outputs.

Every input is derived from the bundled configs in ``scripts/configs`` and
from ``random.Random(f"{workload}:{seed}:{run_index}")``, so one seed always
gives the same sequence of inputs.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SIZE = {"section_sites": 64, "section_points": 150, "breather_sites": 128,
        "verify_sites": 4096, "accuracy_horizon": 20.0}
# Seeded inputs whose sample errors ``sample_err`` takes the median of.  The
# error moves with the input by 4-5% (interquartile) on section and verify
# and 1% on breather.
ACCURACY_INPUTS = 3


@dataclass
class Invocation:
    argv: list
    report: Path  # the --json file the check reads
    check: object  # dict -> list of problems


@dataclass
class Run:
    """One workload run: what a single fresh worker process executes."""

    setup_config: str
    invocations: list
    accuracy_input: dict
    # (per-layer metrics, raw counts) of a traced run -> list of problems
    expect: object


def _load(config_dir: Path, name: str) -> dict:
    with open(config_dir / name, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: Path, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    return str(path)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _flag(key):
    def check(report):
        return [] if report.get(key) is True else [f"{key} is {report.get(key)!r}"]
    return check


def _trajectories(n):
    def expect(metrics, counts):
        got = counts["integrate_calls"]
        return [] if got == n else [f"{got} integrate calls, workload makes {n}"]
    return expect


def section(config_dir: Path, out: Path, rng: random.Random) -> Run:
    """``dnls dimension``: one long stroboscopic orbit at N=64."""
    d = _load(config_dir, "dimension.json")
    d["lattice"]["n_sites"] = SIZE["section_sites"]
    d["scenario"]["n_points"] = SIZE["section_points"]
    cfg = _write(out / "dimension.json", d)
    seed = _seed(rng)
    max_width = d["scenario"]["max_ci_width"]

    def check(report):
        problems = []
        if report.get("degenerate") is not False:
            problems.append("degenerate section")
        if not math.isfinite(report.get("dimension", math.nan)):
            problems.append(f"dimension {report.get('dimension')!r}")
        if not report.get("ci_width", math.inf) < max_width:
            problems.append(f"CI width {report.get('ci_width')!r} >= {max_width}")
        return problems

    report = out / "dimension.out.json"
    argv = ["dimension", "--config", cfg, "--seed", str(seed),
            "--json", str(report)]
    return Run(cfg, [Invocation(argv, report, check)],
               {"config": cfg, "seed": seed}, _trajectories(1))


def breather(config_dir: Path, out: Path, rng: random.Random) -> Run:
    """``dnls breather``: period maps at oracle tolerance for three seeds."""
    d = _load(config_dir, "breather.json")
    d["lattice"]["n_sites"] = SIZE["breather_sites"]
    seeds = [_seed(rng) for _ in range(3)]
    d["scenario"]["seeds"] = seeds
    cfg = _write(out / "breather.json", d)
    tol = d["scenario"]["tol"]

    def check(report):
        problems = _flag("verified")(report)
        for key in ("periodicity_residual", "seed_spread"):
            if not report.get(key, math.inf) <= 10 * tol:
                problems.append(f"{key} {report.get(key)!r} > 10*tol")
        return problems

    def expect(metrics, counts):
        # every seed: iterations + 1 period maps; then one verification
        n = metrics["breather.iterations"] + counts["solves"] + 1
        problems = _trajectories(n)(metrics, counts)
        if counts["solves"] != len(seeds):
            problems.append(f"{counts['solves']} solves for {len(seeds)} seeds")
        return problems

    report = out / "breather.out.json"
    argv = ["breather", "--config", cfg, "--json", str(report)]
    return Run(cfg, [Invocation(argv, report, check)],
               {"config": cfg, "seed": seeds[0]}, expect)


def verify(config_dir: Path, out: Path, rng: random.Random) -> Run:
    """The five verifiers at N=4096 on the bundled simulate/absorbing
    scenarios."""
    n = SIZE["verify_sites"]
    sim = _load(config_dir, "simulate.json")
    sim["lattice"]["n_sites"] = n
    sim_seed = _seed(rng)
    sim["scenario"]["initial"]["seed"] = sim_seed
    sim_cfg = _write(out / "simulate.json", sim)
    ab = _load(config_dir, "absorbing.json")
    ab["lattice"]["n_sites"] = n
    ab_seed = _seed(rng)
    ab["scenario"]["seed"] = ab_seed
    first = _seed(rng)
    ab["scenario"]["seeds"] = [first, first + 1]
    ab_cfg = _write(out / "absorbing.json", ab)

    invocations = []
    for command, cfg, key in (("verify-bounds", sim_cfg, "pass"),
                              ("absorbing", ab_cfg, "pass"),
                              ("tail", ab_cfg, "pass"),
                              ("contraction", ab_cfg, "pass"),
                              ("continuity", ab_cfg, "ok")):
        report = out / f"{command}.out.json"
        argv = [command, "--config", cfg, "--json", str(report)]
        invocations.append(Invocation(argv, report, _flag(key)))
    # verify-bounds, absorbing, tail: one trajectory each; the other two: a pair
    return Run(sim_cfg, invocations, {"config": sim_cfg, "seed": sim_seed},
               _trajectories(7))


WORKLOADS = {"section": section, "breather": breather, "verify": verify}


def build(name: str, config_dir: Path, work: Path, seed: int, index: int) -> Run:
    """Inputs of run ``index`` of workload ``name`` under ``seed``."""
    out = work / f"run{index}"
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}:{index}")
    run = WORKLOADS[name](config_dir, out, rng)
    # every workload's accuracy input starts at simulate.json's initial norm
    initial = _load(config_dir, "simulate.json")["scenario"]["initial"]
    run.accuracy_input["norm"] = initial["norm"]
    return run


def check_outputs(run: Run, codes: list) -> list:
    """Problems per invocation (empty when it passed): exit code, then the
    checks on its JSON report."""
    result = []
    for inv, code in zip(run.invocations, codes):
        if code != 0:
            result.append([f"{inv.argv[0]} exited {code}"])
            continue
        try:
            with open(inv.report, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            result.append([f"{inv.argv[0]}: unreadable report ({exc})"])
            continue
        result.append([f"{inv.argv[0]}: {p}" for p in inv.check(report)])
    return result
