"""Command line entry point: one verification scenario per invocation.

Exit codes: 0 pass, 1 theorem-check failure, 2 usage/config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import breather as br
from . import diagnostics as dg
from .config import SEED, ScenarioConfig, load_config, parse_scenario
from .errors import DomainError, NonconvergenceError, StiffnessError
from .integrator import integrate
from .lattice import LatticeState, random_state
from .output import (write_breather_profile_csv, write_dimension_csv,
                     write_json, write_trajectory_csv)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# what a command returns: check passed, the --json report, the text to print
_Outcome = tuple[bool, dict, str | None]


def _initial_state(cfg: ScenarioConfig, init, seed_override=None) -> LatticeState:
    if seed_override is not None and init.kind != "random":
        raise DomainError(f"--seed needs a random initial state, but "
                          f"scenario.initial.kind is {init.kind!r}")
    if init.kind == "zero":
        return LatticeState.zeros(cfg.n_sites, cfg.bc)
    if init.kind == "random":
        seed = seed_override if seed_override is not None else init.seed
        return random_state(cfg.n_sites, seed, norm=init.norm, bc=cfg.bc)
    if len(init.values) != cfg.n_sites:
        raise DomainError(f"scenario.initial.values has {len(init.values)} "
                          f"entries, lattice.n_sites is {cfg.n_sites}")
    return LatticeState(np.array(init.values), cfg.bc)


def _seed(sc, args) -> int:
    return args.seed if args.seed is not None else sc.seed


def _verdict(ok, failed: str = "FAILED") -> str:
    return "ok" if ok else failed


def _cmd_simulate(cfg: ScenarioConfig, sc, args) -> _Outcome:
    state = _initial_state(cfg, sc.initial, args.seed)
    traj = integrate(state, 0.0, sc.t1, cfg.model, cfg.driving,
                     cfg.integrator, tail_cutoff=sc.tail_cutoff,
                     keep_states=bool(args.out))
    if args.out:
        write_trajectory_csv(traj, args.out)
    if args.verbose:
        print(f"simulated {traj.n_samples} samples over [0, {sc.t1:g}] on "
              f"{traj.stats.sites} of {cfg.n_sites} sites", file=sys.stderr)
    return True, traj.record(), None


def _cmd_verify_bounds(cfg: ScenarioConfig, sc, args) -> _Outcome:
    state = _initial_state(cfg, sc.initial, args.seed)
    traj = integrate(state, 0.0, sc.t1, cfg.model, cfg.driving,
                     cfg.integrator, keep_states=False)
    rec = dg.verify_bounds(traj, cfg.model, cfg.driving)
    diss = rec["dissipation"]
    return rec["pass"], rec, (
        f"dissipation: {_verdict(diss['ok'], 'VIOLATED')} "
        f"({diss['checked']} intervals); a-priori bound: "
        f"{_verdict(rec['apriori']['ok'], 'VIOLATED')}")


def _cmd_absorbing(cfg: ScenarioConfig, sc, args) -> _Outcome:
    r = sc.radius
    pred = dg.predict_absorbing(cfg.model, cfg.driving, r)
    # the error control lets ||psi|| settle near atol*sqrt(N), so a ball
    # within a few times that cannot be seen entered
    floor = 4 * cfg.integrator.atol * math.sqrt(cfg.n_sites)
    if pred["radius"] < floor:
        raise DomainError(f"absorbing radius K={pred['radius']:.3g} is below "
                          f"4*atol*sqrt(N) = {floor:.3g}, too small to resolve")
    state = random_state(cfg.n_sites, _seed(sc, args), norm=r, bc=cfg.bc)
    traj = integrate(state, 0.0, pred["entry_time"] * 6.0 + 1.0, cfg.model,
                     cfg.driving, cfg.integrator, keep_states=False)
    rec = dg.verify_absorbing(traj, pred)
    return rec["pass"], rec, (
        f"absorbing ball K={rec['radius']:.6g}, predicted entry "
        f"T={rec['entry_time']:.6g}, first entry at "
        f"{rec['first_entry_t']}: {_verdict(rec['pass'])}")


def _cmd_tail(cfg: ScenarioConfig, sc, args) -> _Outcome:
    r = sc.radius
    pred = dg.predict_tail(sc.xi, r, cfg.model, cfg.driving, cfg.n_sites)
    state = random_state(cfg.n_sites, _seed(sc, args), norm=r, bc=cfg.bc)
    traj = integrate(state, 0.0, pred["entry_time"] * 3.0 + 5.0, cfg.model,
                     cfg.driving, cfg.integrator, tail_cutoff=pred["cutoff"],
                     keep_states=False)
    rec = dg.verify_tail(traj, pred)
    return rec["pass"], rec, (
        f"tail beyond m={rec['cutoff']} after T={rec['entry_time']:.6g}: "
        f"max {rec['max_tail_after_entry']:.3g} vs xi={rec['xi']:.3g}: "
        f"{_verdict(rec['pass'])}")


def _cmd_contraction(cfg: ScenarioConfig, sc, args) -> _Outcome:
    rec = dg.contraction_rate(cfg.model, cfg.driving, sc.seeds,
                              n_sites=cfg.n_sites, config=cfg.integrator,
                              bc=cfg.bc)
    return rec["pass"], rec, (f"contraction: max gap {rec['max_gap']:.3g} "
                              f"within bound: {_verdict(rec['pass'])}")


def _cmd_continuity(cfg: ScenarioConfig, sc, args) -> _Outcome:
    seed = _seed(sc, args)
    theta = random_state(cfg.n_sites, seed, norm=0.5, bc=cfg.bc)
    # seed ^ 1 differs from seed and is in [0, 2**64) as seed is
    bump = random_state(cfg.n_sites, seed ^ 1, norm=1e-3, bc=cfg.bc)
    theta_n = LatticeState(theta.values + bump.values, cfg.bc)
    rec = dg.continuity_gap(cfg.model, cfg.driving, sc.driving_shift,
                            theta, theta_n, config=cfg.integrator)
    return rec["ok"], rec, (f"continuity: max gap {rec['max_gap']:.3g} "
                            f"within bound: {_verdict(rec['ok'])}")


def _cmd_dimension(cfg: ScenarioConfig, sc, args) -> _Outcome:
    _, points = dg.poincare_points(cfg.model, cfg.driving,
                                   n_points=sc.n_points, n_sites=cfg.n_sites,
                                   seed=_seed(sc, args),
                                   config=cfg.integrator, bc=cfg.bc)
    # the points carry the integrator's error, about rtol*||psi|| each
    resolution = 10 * cfg.integrator.rtol * float(
        np.max(np.linalg.norm(points, axis=1)))
    rec, table = dg.correlation_dimension(points, resolution=resolution)
    if args.out:
        write_dimension_csv(table, args.out)
    return rec["degenerate"] or rec["ci_width"] < sc.max_ci_width, rec, (
        f"correlation dimension {rec['dimension']:.3f} "
        f"(95% CI [{rec['ci_low']:.3f}, {rec['ci_high']:.3f}])"
        + (" [degenerate]" if rec["degenerate"] else ""))


def _cmd_breather(cfg: ScenarioConfig, sc, args) -> _Outcome:
    ok, rec, state = br.check_breather(cfg.model, cfg.driving, cfg.n_sites,
                                       cfg.bc, sc.seeds, tol=sc.tol)
    if args.out:
        write_breather_profile_csv(state, args.out)
    text = (f"breather: residual {rec['periodicity_residual']:.3g}, "
            f"{rec['iterations']} iterations, seed spread "
            f"{rec['seed_spread']:.3g}: {_verdict(ok)}")
    if rec["localization_rate"] is not None:
        text += (f"\nlocalization rate {rec['localization_rate']:.4f} "
                 f"(R^2 = {rec['localization_r2']:.5f})")
    certified = f"certified {rec['certified_ratio']:.3g}"
    if rec["contraction_ratio"] is None:
        text += f"\ncontraction ratio not measured, {certified}"
    else:
        text += (f"\ncontraction ratio {rec['contraction_ratio']:.3g}, "
                 f"{certified} (margin {rec['ratio_margin']:.3f})")
    return ok, rec, text


# each command, and the flags it reads besides --config and --json: a flag
# a command would ignore is a usage error
_COMMANDS = {
    "simulate": (_cmd_simulate, ("--out", "--seed", "--verbose")),
    "verify-bounds": (_cmd_verify_bounds, ("--seed",)),
    "absorbing": (_cmd_absorbing, ("--seed",)),
    "tail": (_cmd_tail, ("--seed",)),
    "contraction": (_cmd_contraction, ()),
    "continuity": (_cmd_continuity, ("--seed",)),
    "dimension": (_cmd_dimension, ("--out", "--seed")),
    "breather": (_cmd_breather, ("--out",)),
}
_FLAGS = {"--out": {"help": "CSV output path"},
          "--seed": {"type": int, "help": "seed of the initial state"},
          "--verbose": {"action": "store_true"}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnls",
        description="Damped driven lattice simulator and theorem checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(out=None, seed=None, verbose=False)
        p.add_argument("--config", required=True, help="scenario JSON")
        p.add_argument("--json", help="JSON report path")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
    except (OSError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.seed is not None:
            SEED("--seed", args.seed)
        sc = parse_scenario(args.command, cfg.scenario)
        ok, report, text = _COMMANDS[args.command][0](cfg, sc, args)
        if args.json:
            write_json(report, args.json)
    except (DomainError, MemoryError) as exc:  # MemoryError: lattice too large
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StiffnessError, NonconvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # an unwritable --out or --json path
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if text is not None:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader is gone, the verdict stands;
            # later flushes go nowhere (Python docs, "Note on SIGPIPE")
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
