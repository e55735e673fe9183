"""Command line entry point: one verification scenario per invocation.

Exit codes: 0 pass, 1 theorem-check failure, 2 usage/config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import breather as br
from . import diagnostics as dg
from . import driving as drv
from .config import ScenarioConfig, load_config
from .errors import (DampingTooWeakError, DomainError, NonconvergenceError,
                     StiffnessError, StrongDampingError)
from .integrator import IntegratorConfig, integrate, monitor_dissipation
from .lattice import LatticeState, random_state
from .output import (breather_to_dict, trajectory_summary,
                     write_breather_profile_csv, write_dimension_csv,
                     write_json, write_trajectory_csv)

log = logging.getLogger("dnls")

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _initial_state(cfg: ScenarioConfig, seed_override=None) -> LatticeState:
    init = cfg.scenario.get("initial", {"kind": "zero"})
    kind = init.get("kind", "zero")
    if kind == "zero":
        return LatticeState.zeros(cfg.n_sites, cfg.bc)
    if kind == "random":
        seed = seed_override if seed_override is not None else init.get("seed", 0)
        return random_state(cfg.n_sites, int(seed), norm=init.get("norm", 1.0),
                            bc=cfg.bc)
    if kind == "values":
        vals = np.array([complex(v[0], v[1]) for v in init["values"]])
        return LatticeState(vals, cfg.bc)
    raise DomainError(f"unknown initial state kind {kind!r}")


def _cmd_simulate(cfg: ScenarioConfig, args) -> int:
    sc = cfg.scenario
    t0, t1 = sc.get("t0", 0.0), sc.get("t1", 10.0)
    state = _initial_state(cfg, args.seed)
    traj = integrate(state, t0, t1, cfg.model, cfg.driving, cfg.integrator,
                     tail_cutoff=sc.get("tail_cutoff"))
    if args.out:
        write_trajectory_csv(traj, args.out)
    if args.json:
        write_json(trajectory_summary(traj), args.json)
    log.info("simulated %d samples over [%g, %g]", traj.n_samples, t0, t1)
    return EXIT_PASS


def _cmd_verify_bounds(cfg: ScenarioConfig, args) -> int:
    sc = cfg.scenario
    state = _initial_state(cfg, args.seed)
    traj = integrate(state, sc.get("t0", 0.0), sc.get("t1", 50.0),
                     cfg.model, cfg.driving, cfg.integrator)
    diss = monitor_dissipation(traj, cfg.model, cfg.driving)
    apriori = dg.check_apriori_bound(traj, cfg.model, cfg.driving)
    report = {
        "dissipation": {"ok": diss.ok, "checked": diss.checked,
                        "violations": len(diss.violations)},
        "apriori": {"ok": apriori.ok, "max_excess": apriori.max_excess},
        "pass": diss.ok and apriori.ok,
    }
    if args.json:
        write_json(report, args.json)
    print(f"dissipation: {'ok' if diss.ok else 'VIOLATED'} "
          f"({diss.checked} intervals); a-priori bound: "
          f"{'ok' if apriori.ok else 'VIOLATED'}")
    return EXIT_PASS if report["pass"] else EXIT_CHECK_FAILED


def _cmd_absorbing(cfg: ScenarioConfig, args) -> int:
    sc = cfg.scenario
    r = sc.get("radius", 1.0)
    pred = dg.predict_absorbing(cfg.model, cfg.driving, r)
    seed = args.seed if args.seed is not None else sc.get("seed", 0)
    state = random_state(cfg.n_sites, int(seed), norm=r, bc=cfg.bc)
    t1 = sc.get("t1", pred.entry_time * max(sc.get("t_factor", 6.0), 1.0) + 1.0)
    traj = integrate(state, 0.0, t1, cfg.model, cfg.driving, cfg.integrator)
    report = dg.verify_absorbing(traj, pred)
    if args.json:
        write_json({
            "radius": pred.radius, "entry_time": pred.entry_time,
            "gamma_eff": pred.gamma_eff, "first_entry_t": report.first_entry_t,
            "max_norm_after_entry": report.max_norm_after_entry,
            "pass": report.ok,
        }, args.json)
    print(f"absorbing ball K={pred.radius:.6g}, predicted entry "
          f"T={pred.entry_time:.6g}, first entry at "
          f"{report.first_entry_t}: {'ok' if report.ok else 'FAILED'}")
    return EXIT_PASS if report.ok else EXIT_CHECK_FAILED


def _cmd_tail(cfg: ScenarioConfig, args) -> int:
    sc = cfg.scenario
    xi = sc.get("xi", 1e-4)
    r = sc.get("radius", 1.0)
    pred = dg.predict_tail(xi, r, cfg.model, cfg.driving, cfg.n_sites)
    seed = args.seed if args.seed is not None else sc.get("seed", 0)
    state = random_state(cfg.n_sites, int(seed), norm=r, bc=cfg.bc)
    t1 = sc.get("t1", pred.entry_time * 3.0 + 5.0)
    traj = integrate(state, 0.0, t1, cfg.model, cfg.driving, cfg.integrator,
                     tail_cutoff=pred.cutoff)
    report = dg.verify_tail(traj, pred)
    if args.json:
        write_json({
            "xi": xi, "cutoff": pred.cutoff, "entry_time": pred.entry_time,
            "max_tail_after_entry": report.max_tail_after_entry,
            "pass": report.ok,
        }, args.json)
    print(f"tail beyond m={pred.cutoff} after T={pred.entry_time:.6g}: "
          f"max {report.max_tail_after_entry:.3g} vs xi={xi:.3g}: "
          f"{'ok' if report.ok else 'FAILED'}")
    return EXIT_PASS if report.ok else EXIT_CHECK_FAILED


def _cmd_contraction(cfg: ScenarioConfig, args) -> int:
    sc = cfg.scenario
    seeds = sc.get("seeds", [1, 2])
    report = dg.contraction_rate(cfg.model, cfg.driving, seeds,
                                 horizon=sc.get("horizon", 3.0),
                                 n_sites=cfg.n_sites, config=cfg.integrator)
    if args.json:
        write_json({
            "fitted_rate": report.fitted_rate,
            "predicted_rate": report.predicted_rate,
            "ball_radius": report.ball_radius, "pass": report.pass_,
        }, args.json)
    print(f"contraction: fitted {-report.fitted_rate:.6g} vs predicted "
          f">= {report.predicted_rate:.6g}: "
          f"{'ok' if report.pass_ else 'FAILED'}")
    return EXIT_PASS if report.pass_ else EXIT_CHECK_FAILED


def _cmd_continuity(cfg: ScenarioConfig, args) -> int:
    sc = cfg.scenario
    seed = args.seed if args.seed is not None else sc.get("seed", 0)
    r0 = sc.get("radius", 0.5)
    theta = random_state(cfg.n_sites, int(seed), norm=r0, bc=cfg.bc)
    delta = sc.get("delta", 1e-3)
    bump = random_state(cfg.n_sites, int(seed) + 1, norm=delta, bc=cfg.bc)
    theta_n = LatticeState(theta.values + bump.values, cfg.bc)
    shift = sc.get("driving_shift", 0.0)
    perturbed = drv.translate(cfg.driving, shift)
    report = dg.continuity_gap(cfg.model, cfg.driving, perturbed, theta,
                               theta_n, horizon=sc.get("horizon", 5.0),
                               config=cfg.integrator)
    if args.json:
        write_json({
            "ok": report.ok, "growth_rate": report.growth_rate,
            "max_gap": float(np.max(report.gap)),
            "max_bound": float(np.max(report.bound)),
        }, args.json)
    print(f"continuity: max gap {np.max(report.gap):.3g} within bound: "
          f"{'ok' if report.ok else 'FAILED'}")
    return EXIT_PASS if report.ok else EXIT_CHECK_FAILED


def _cmd_dimension(cfg: ScenarioConfig, args) -> int:
    sc = cfg.scenario
    period = sc.get("section_period")
    if period is None:
        law = cfg.driving.g1.law
        if getattr(law, "period", None):
            period = law.period
        elif hasattr(law, "frequencies"):
            period = 2 * math.pi / law.frequencies[0]
        else:
            raise DomainError("scenario.section_period required for this driving")
    seed = args.seed if args.seed is not None else sc.get("seed", 0)
    points = dg.poincare_points(cfg.model, cfg.driving,
                                n_points=sc.get("n_points", 2000),
                                section_period=period, n_sites=cfg.n_sites,
                                seed=int(seed), config=cfg.integrator)
    est = dg.correlation_dimension(points,
                                   theiler_window=sc.get("theiler_window", 10))
    if args.out:
        write_dimension_csv(est, args.out)
    if args.json:
        write_json({
            "dimension": est.slope, "ci_low": est.ci_low,
            "ci_high": est.ci_high, "ci_width": est.ci_width,
            "degenerate": est.degenerate,
        }, args.json)
    ok = est.degenerate or est.ci_width < sc.get("max_ci_width", 0.5)
    print(f"correlation dimension {est.slope:.3f} "
          f"(95% CI [{est.ci_low:.3f}, {est.ci_high:.3f}])"
          + (" [degenerate]" if est.degenerate else ""))
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def _cmd_breather(cfg: ScenarioConfig, args) -> int:
    sc = cfg.scenario
    tol = sc.get("tol", 1e-10)
    seeds = sc.get("seeds", [None])
    oracle = IntegratorConfig(
        rtol=sc.get("oracle_rtol", 1e-11), atol=sc.get("oracle_atol", 1e-13),
        dt_init=1e-3)

    def solve(seed):
        if seed is None:
            seed_state = None
        else:
            check = br.check_strong_damping(cfg.model, cfg.driving)
            seed_state = random_state(cfg.n_sites, int(seed),
                                      norm=0.5 * check.ball_radius, bc=cfg.bc)
        return br.find_breather(cfg.model, cfg.driving, tol=tol,
                                seed=seed_state, n_sites=cfg.n_sites,
                                config=oracle)

    if len(seeds) > 1 and args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            sols = list(pool.map(solve, seeds))
    else:
        sols = [solve(s) for s in seeds]
    sol = sols[0]
    spread = 0.0
    for other in sols[1:]:
        spread = max(spread, float(np.linalg.norm(
            other.state0.values - sol.state0.values)))
    report = br.verify_breather(sol, cfg.model, cfg.driving,
                                phases=sc.get("phases", 8), tol=tol,
                                config=oracle)
    if args.json:
        data = breather_to_dict(sol)
        data["seed_spread"] = spread
        data["verified"] = report.ok
        write_json(data, args.json)
    if args.out:
        write_breather_profile_csv(sol, args.out)
    ok = report.ok and sol.periodicity_residual <= 10 * tol \
        and (len(sols) < 2 or spread <= 10 * tol)
    print(f"breather: residual {sol.periodicity_residual:.3g}, "
          f"{sol.iterations} iterations, seed spread {spread:.3g}: "
          f"{'ok' if ok else 'FAILED'}")
    if sol.localization_rate is not None:
        print(f"localization rate {sol.localization_rate:.4f} "
              f"(R^2 = {sol.localization_r2:.5f})")
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify-bounds": _cmd_verify_bounds,
    "absorbing": _cmd_absorbing,
    "tail": _cmd_tail,
    "contraction": _cmd_contraction,
    "continuity": _cmd_continuity,
    "dimension": _cmd_dimension,
    "breather": _cmd_breather,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnls",
        description="Damped driven lattice simulator and theorem checks")
    sub = parser.add_subparsers(dest="command", required=True)
    default_threads = int(os.environ.get("DNLS_THREADS", os.cpu_count() or 1))
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON")
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--json", help="JSON report path")
        p.add_argument("--threads", type=int, default=default_threads)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
    except (OSError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, args)
    except (DampingTooWeakError, StrongDampingError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StiffnessError, NonconvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
