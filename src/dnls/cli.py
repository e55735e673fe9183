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
from . import driving as drv
from .config import ScenarioConfig, load_config, parse_scenario
from .errors import DomainError, NonconvergenceError, StiffnessError
from .integrator import integrate, monitor_dissipation
from .lattice import SEED_LIMIT, LatticeState, random_state
from .output import (breather_to_dict, trajectory_summary,
                     write_breather_profile_csv, write_dimension_csv,
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


def _cmd_simulate(cfg: ScenarioConfig, sc, args) -> _Outcome:
    state = _initial_state(cfg, sc.initial, args.seed)
    traj = integrate(state, sc.t0, sc.t1, cfg.model, cfg.driving,
                     cfg.integrator, tail_cutoff=sc.tail_cutoff,
                     keep_states=bool(args.out))
    if args.out:
        write_trajectory_csv(traj, args.out)
    if args.verbose:
        print(f"simulated {traj.n_samples} samples over "
              f"[{sc.t0:g}, {sc.t1:g}]", file=sys.stderr)
    return True, trajectory_summary(traj), None


def _cmd_verify_bounds(cfg: ScenarioConfig, sc, args) -> _Outcome:
    state = _initial_state(cfg, sc.initial, args.seed)
    traj = integrate(state, sc.t0, sc.t1, cfg.model, cfg.driving,
                     cfg.integrator, keep_states=False)
    diss = monitor_dissipation(traj, cfg.model, cfg.driving)
    apriori = dg.check_apriori_bound(traj, cfg.model, cfg.driving)
    report = {
        "dissipation": {"ok": diss.ok, "checked": diss.checked,
                        "violations": len(diss.violations)},
        "apriori": {"ok": apriori.ok, "max_excess": apriori.max_excess},
        "pass": diss.ok and apriori.ok,
    }
    return report["pass"], report, (
        f"dissipation: {'ok' if diss.ok else 'VIOLATED'} "
        f"({diss.checked} intervals); a-priori bound: "
        f"{'ok' if apriori.ok else 'VIOLATED'}")


def _cmd_absorbing(cfg: ScenarioConfig, sc, args) -> _Outcome:
    r = sc.radius
    pred = dg.predict_absorbing(cfg.model, cfg.driving, r)
    # the error control lets ||psi|| settle near atol*sqrt(N), so a ball
    # within a few times that cannot be seen entered
    floor = 4 * cfg.integrator.atol * math.sqrt(cfg.n_sites)
    if pred.radius < floor:
        raise DomainError(f"absorbing radius K={pred.radius:.3g} is below "
                          f"4*atol*sqrt(N) = {floor:.3g}, too small to resolve")
    state = random_state(cfg.n_sites, _seed(sc, args), norm=r, bc=cfg.bc)
    traj = integrate(state, 0.0, pred.entry_time * 6.0 + 1.0, cfg.model,
                     cfg.driving, cfg.integrator, keep_states=False)
    report = dg.verify_absorbing(traj, pred)
    return report.ok, {
        "radius": pred.radius, "entry_time": pred.entry_time,
        "gamma_eff": pred.gamma_eff, "first_entry_t": report.first_entry_t,
        "max_norm_after_entry": report.max_norm_after_entry,
        "pass": report.ok,
    }, (f"absorbing ball K={pred.radius:.6g}, predicted entry "
        f"T={pred.entry_time:.6g}, first entry at "
        f"{report.first_entry_t}: {'ok' if report.ok else 'FAILED'}")


def _cmd_tail(cfg: ScenarioConfig, sc, args) -> _Outcome:
    xi, r = sc.xi, sc.radius
    pred = dg.predict_tail(xi, r, cfg.model, cfg.driving, cfg.n_sites)
    state = random_state(cfg.n_sites, _seed(sc, args), norm=r, bc=cfg.bc)
    traj = integrate(state, 0.0, pred.entry_time * 3.0 + 5.0, cfg.model,
                     cfg.driving, cfg.integrator, tail_cutoff=pred.cutoff,
                     keep_states=False)
    report = dg.verify_tail(traj, pred)
    return report.ok, {
        "xi": xi, "cutoff": pred.cutoff, "entry_time": pred.entry_time,
        "max_tail_after_entry": report.max_tail_after_entry,
        "pass": report.ok,
    }, (f"tail beyond m={pred.cutoff} after T={pred.entry_time:.6g}: "
        f"max {report.max_tail_after_entry:.3g} vs xi={xi:.3g}: "
        f"{'ok' if report.ok else 'FAILED'}")


def _cmd_contraction(cfg: ScenarioConfig, sc, args) -> _Outcome:
    report = dg.contraction_rate(cfg.model, cfg.driving, sc.seeds,
                                 horizon=sc.horizon,
                                 n_sites=cfg.n_sites, config=cfg.integrator,
                                 bc=cfg.bc)
    return report.pass_, {
        "fitted_rate": report.fitted_rate,
        "predicted_rate": report.predicted_rate,
        "ball_radius": report.ball_radius, "pass": report.pass_,
    }, (f"contraction: fitted {-report.fitted_rate:.6g} vs predicted "
        f">= {report.predicted_rate:.6g}: "
        f"{'ok' if report.pass_ else 'FAILED'}")


def _cmd_continuity(cfg: ScenarioConfig, sc, args) -> _Outcome:
    seed = _seed(sc, args)
    if seed + 1 == SEED_LIMIT:  # the bump is drawn from seed + 1
        name = "--seed" if args.seed is not None else "scenario.seed"
        raise DomainError(f"{name} must be < 2**64 - 1 for continuity, which "
                          f"draws its bump from seed + 1, got {seed}")
    theta = random_state(cfg.n_sites, seed, norm=sc.theta_norm, bc=cfg.bc)
    bump = random_state(cfg.n_sites, seed + 1, norm=sc.delta, bc=cfg.bc)
    theta_n = LatticeState(theta.values + bump.values, cfg.bc)
    report = dg.continuity_gap(cfg.model, cfg.driving, sc.driving_shift,
                               theta, theta_n, horizon=sc.horizon,
                               config=cfg.integrator)
    return report.ok, {
        "ok": report.ok, "growth_rate": report.growth_rate,
        "max_gap": float(np.max(report.gap)),
        "max_bound": float(np.max(report.bound)),
    }, (f"continuity: max gap {np.max(report.gap):.3g} within bound: "
        f"{'ok' if report.ok else 'FAILED'}")


def _cmd_dimension(cfg: ScenarioConfig, sc, args) -> _Outcome:
    period = sc.section_period or cfg.driving.period
    if period is None:  # a harmonic sum: the period of its first term
        if not cfg.driving.aperiodic:
            raise DomainError("scenario.section_period required for this driving")
        _, law = cfg.driving.aperiodic[0]
        _, w, _ = law.terms[0]
        period = 2 * math.pi / abs(w)  # cos is even
    _, points = dg.poincare_points(cfg.model, cfg.driving,
                                   n_points=sc.n_points,
                                   section_period=period, n_sites=cfg.n_sites,
                                   seed=_seed(sc, args), config=cfg.integrator,
                                   bc=cfg.bc)
    # the points carry the integrator's error, about rtol*||psi|| each
    resolution = 10 * cfg.integrator.rtol * float(
        np.max(np.linalg.norm(points, axis=1)))
    est = dg.correlation_dimension(points, theiler_window=sc.theiler_window,
                                   resolution=resolution)
    if args.out:
        write_dimension_csv(est, args.out)
    return est.degenerate or est.ci_width < sc.max_ci_width, {
        "dimension": est.slope, "ci_low": est.ci_low,
        "ci_high": est.ci_high, "ci_width": est.ci_width,
        "degenerate": est.degenerate,
    }, (f"correlation dimension {est.slope:.3f} "
        f"(95% CI [{est.ci_low:.3f}, {est.ci_high:.3f}])"
        + (" [degenerate]" if est.degenerate else ""))


def _cmd_breather(cfg: ScenarioConfig, sc, args) -> _Outcome:
    def solve(seed):  # at the reference tolerance, find_breather's default
        if seed is None:
            state = LatticeState.zeros(cfg.n_sites, cfg.bc)
        else:  # inside the R_u-ball, where find_breather's certificate holds
            cert = drv.certificate(cfg.model, cfg.driving).dissipative()
            state = random_state(cfg.n_sites, seed,
                                 norm=0.5 * cert.breather_radius, bc=cfg.bc)
        return br.find_breather(cfg.model, cfg.driving, state, tol=sc.tol)

    sols = [solve(s) for s in sc.seeds]
    sol = sols[0]
    spread = max((float(np.linalg.norm(other.state0.values - sol.state0.values))
                  for other in sols[1:]), default=0.0)
    report = br.verify_breather(sol, cfg.model, cfg.driving, tol=sc.tol)
    if args.out:
        write_breather_profile_csv(sol, args.out)
    ok = report.ok and spread <= 10 * sc.tol
    text = (f"breather: residual {sol.periodicity_residual:.3g}, "
            f"{sol.iterations} iterations, seed spread {spread:.3g}: "
            f"{'ok' if ok else 'FAILED'}")
    if sol.localization_rate is not None:
        text += (f"\nlocalization rate {sol.localization_rate:.4f} "
                 f"(R^2 = {sol.localization_r2:.5f})")
    text += (f"\ncontraction ratio {sol.contraction_ratio:.3g}, certified "
             f"{report.certified_ratio:.3g} (margin {report.ratio_margin:.3f})")
    return ok, {**breather_to_dict(sol), "seed_spread": spread,
                "certified_ratio": report.certified_ratio,
                "ratio_margin": report.ratio_margin,
                "verified": report.ok}, text


# each command, and the flags it reads besides --config, --json and
# --verbose: a flag a command would ignore is a usage error
_COMMANDS = {
    "simulate": (_cmd_simulate, ("--out", "--seed")),
    "verify-bounds": (_cmd_verify_bounds, ("--seed",)),
    "absorbing": (_cmd_absorbing, ("--seed",)),
    "tail": (_cmd_tail, ("--seed",)),
    "contraction": (_cmd_contraction, ()),
    "continuity": (_cmd_continuity, ("--seed",)),
    "dimension": (_cmd_dimension, ("--out", "--seed")),
    "breather": (_cmd_breather, ("--out",)),
}
_FLAGS = {"--out": {"help": "CSV output path"},
          "--seed": {"type": int, "help": "seed of the initial state"}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnls",
        description="Damped driven lattice simulator and theorem checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(out=None, seed=None)
        p.add_argument("--config", required=True, help="scenario JSON")
        p.add_argument("--json", help="JSON report path")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--verbose", action="store_true")
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
        if args.seed is not None and not 0 <= args.seed < SEED_LIMIT:
            raise DomainError(f"--seed must be in [0, 2**64), got {args.seed}")
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
