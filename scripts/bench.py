#!/usr/bin/env python3
"""Per-layer timings of the stepping kernel: one right-hand-side (RHS)
evaluation, at a new time on each call, and one step attempt of the
Tsitouras 5(4) kernel (six RHS calls plus the stage and error
arithmetic) at N = 64, 256, 1024 and 4096 sites, on two models:
``simulate`` (scripts/configs/simulate.json: periodic g1, constant-law
single-site g2) and ``dimension`` (scripts/configs/dimension.json: a
two-harmonic g1 and no g2, the model ``dnls dimension`` steps);
integration per unit of simulated time, with the step attempts, RHS calls
and sites stepped, on one run of each model at its config's tolerances from
a random state of norm 2 (``dimension`` at N = 64 over [0, 100] sampled
every 2*pi, as ``dnls dimension`` samples; ``simulate`` at N = 4096 over
[0, 50] sampled every 0.1 without keeping states); one breather solve:
``find_breather`` on scripts/configs/breather.json's model at N = 128
from the zero seed at the oracle tolerance, with the number of period
maps it makes; one breather check: ``check_breather`` on the same model
at N = 128 with the config's seeds, as ``dnls breather`` runs it, with
the step attempts of its ``integrate`` calls; and the stroboscopic
section of ``dnls dimension``:
``poincare_points`` on dimension.json's model at N = 64 for 150 and
2,000 points, with the members B of the batch it steps, and one step
attempt of a batch of B members at N = 64 per member (a member-step),
for B = 1 and each B the section picks; and pair counting:
``correlation_dimension`` on each section's points at its default
Theiler window (the pair distances, their counts and the fit); and
start-up: a fresh interpreter that imports ``dnls`` and ``dnls.cli`` and
loads simulate.json, as every ``dnls`` command starts, in wall ms from
spawn to exit and peak resident memory in MiB, beside a fresh interpreter
that imports numpy alone, the floor of both.  The peak is the child's own
``VmHWM``: its ``ru_maxrss`` would also hold the pages of this process,
which a spawned child carries until it executes the interpreter.

Each figure is the median over ``REPEATS`` timed blocks (``SECTION_REPEATS``
for the sections) of the perf_counter time per call, and each start-up
figure the median over ``STARTUP_SPAWNS`` spawns of each kind, alternated.
The result is written as one named column of a BENCH JSON file, next to
the columns already there, so the same script run against two checkouts
gives a before/after table:

    PYTHONPATH=<parent>/src python scripts/bench.py --out BENCH_<n>.json --column parent
    PYTHONPATH=src python scripts/bench.py --out BENCH_<n>.json --column change

``dnls`` is imported from the path, so the column measures whichever
source tree PYTHONPATH names.  BLAS runs on one thread.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from dnls import breather as br  # noqa: E402
from dnls import diagnostics as dg  # noqa: E402
from dnls.config import load_config  # noqa: E402
from dnls.integrator import _Tsit5, integrate  # noqa: E402
from dnls.lattice import LatticeState, make_rhs, random_state  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = {model: ROOT / "scripts" / "configs" / f"{model}.json"
           for model in ("simulate", "dimension")}
BREATHER = ROOT / "scripts" / "configs" / "breather.json"
SIZES = (64, 256, 1024, 4096)
BREATHER_SITES = 128
# the integration run per model: N, t1, sample stride, keep_states
RUNS = {"dimension": (64, 100.0, 2 * math.pi, True),
        "simulate": (4096, 50.0, 0.1, False)}
REPEATS = 21
# the sections: points, on dimension.json's model at N = SECTION_SITES
SECTION_POINTS = (150, 2000)
SECTION_SITES = 64
SECTION_REPEATS = 3
STARTUP_SPAWNS = 15
# what each kind of start-up spawn runs (sys.argv[1] is a config path),
# before it prints its peak resident memory in KiB
STARTUP = {"dnls": "import sys, dnls, dnls.cli; dnls.load_config(sys.argv[1])",
           "numpy": "import numpy"}
PEAK = ("; print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')))")
UNITS = {"rhs_us": 1e6, "attempt_us": 1e6, "unit_time_us": 1e6,
         "solve_ms": 1e3, "check_ms": 1e3, "member_step_us": 1e6,
         "section_s": 1.0, "pair_count_ms": 1e3}


def _per_call_s(fn, number: int) -> float:
    start = perf_counter()
    for _ in range(number):
        fn()
    return (perf_counter() - start) / number


def _startup() -> dict:
    """Median wall ms and peak RSS MiB of each kind of start-up spawn."""
    wall_ms = {kind: [] for kind in STARTUP}
    peak_mib = {kind: [] for kind in STARTUP}
    for _ in range(STARTUP_SPAWNS):
        for kind, code in STARTUP.items():
            argv = [sys.executable, "-c", code + PEAK,
                    str(CONFIGS["simulate"])]
            start = perf_counter()
            out = subprocess.run(argv, stdout=subprocess.PIPE,
                                 check=True).stdout
            wall_ms[kind].append(1e3 * (perf_counter() - start))
            peak_mib[kind].append(int(out) / 1024)
    return {"spawns": STARTUP_SPAWNS,
            "wall_ms": {k: statistics.median(v) for k, v in wall_ms.items()},
            "peak_rss_mib": {k: statistics.median(v)
                             for k, v in peak_mib.items()}}


def _breather_solve():
    """One breather solve as a callable, and the period maps it makes:
    ``iterations + 1``, as ``find_breather`` documents."""
    cfg = load_config(BREATHER)
    seed = LatticeState.zeros(BREATHER_SITES, cfg.bc)

    def solve():
        return br.find_breather(cfg.model, cfg.driving, seed,
                                tol=cfg.scenario["tol"])

    return solve, solve().iterations + 1


def _breather_check():
    """One breather check as a callable, and the step attempts of its
    ``integrate`` calls."""
    cfg = load_config(BREATHER)
    attempts = []
    integrate_ = br.integrate

    def spy(*args, **kwargs):
        traj = integrate_(*args, **kwargs)
        attempts.append(traj.stats.accepted + traj.stats.rejected)
        return traj

    def check():
        return br.check_breather(cfg.model, cfg.driving, BREATHER_SITES,
                                 cfg.bc, cfg.scenario["seeds"],
                                 tol=cfg.scenario["tol"])

    br.integrate = spy
    try:
        check()
    finally:
        br.integrate = integrate_
    return check, sum(attempts)


def _sections(cfg):
    """Each section on ``cfg``'s model as a callable, with the members of
    the batch that its ``poincare_points`` call steps (1 for one orbit) and
    the points it returns."""
    members = []
    integrate_ = dg.integrate

    def spy(*args, **kwargs):
        members.append(len(kwargs["shifts"]))
        return integrate_(*args, **kwargs)

    sections = {}
    for points in SECTION_POINTS:
        run = functools.partial(dg.poincare_points, cfg.model, cfg.driving,
                                points, SECTION_SITES, config=cfg.integrator)
        dg.integrate = spy
        try:
            _, cloud = run()
        finally:
            dg.integrate = integrate_
        sections[points] = (run, members[-1], cloud)
    return sections


def _member_step(cfg, members: int):
    """One step attempt of a batch of ``members`` at N = SECTION_SITES, as
    a callable."""
    n = SECTION_SITES
    v = random_state(n, 0, norm=2.0, bc=cfg.bc).values
    shifts = [b * cfg.driving.section_period for b in range(members)]
    f = make_rhs(cfg.model, cfg.driving.sampler(n), cfg.bc, shifts=shifts)
    kernel = _Tsit5(f, np.repeat(v, members).reshape(n, members), 0.0)
    return lambda: kernel.attempt(0.0, 1e-3, cfg.integrator)


def measure() -> dict:
    cases = []  # (model, entry, N, callable, calls per timed block)
    runs = {}  # model -> the integration run's span and counts
    for model, path in CONFIGS.items():
        cfg = load_config(path)
        n, t1, stride, keep = RUNS[model]
        run = functools.partial(
            integrate, random_state(n, 0, norm=2.0, bc=cfg.bc), 0.0, t1,
            cfg.model, cfg.driving,
            dataclasses.replace(cfg.integrator, sample_stride=stride),
            keep_states=keep)
        stats = run().stats
        runs[model] = {"n_sites": n, "t1": t1,
                       "attempts": stats.accepted + stats.rejected,
                       "rhs_calls": stats.rhs_evals, "sites": stats.sites}
        cases.append((model, "unit_time_us", n, run, 1))
        for n in SIZES:
            f = make_rhs(cfg.model, cfg.driving.sampler(n), cfg.bc)
            v = random_state(n, 0, norm=2.0, bc=cfg.bc).values
            out = np.empty(n, dtype=np.complex128)
            kernel = _Tsit5(f, v, 0.0)
            # a new time on every call, as in a step's stages
            ts = itertools.cycle((0.3, 0.4))
            cases.append((model, "rhs_us", n,
                          lambda f=f, v=v, out=out, ts=ts: f(next(ts), v, out),
                          1000))
            cases.append((model, "attempt_us", n,
                          lambda k=kernel, c=cfg.integrator: k.attempt(0.0, 1e-3, c),
                          100))
    solve, maps = _breather_solve()
    cases.append(("breather", "solve_ms", BREATHER_SITES, solve, 1))
    check, check_attempts = _breather_check()
    cases.append(("breather", "check_ms", BREATHER_SITES, check, 1))
    cfg = load_config(CONFIGS["dimension"])
    sections = _sections(cfg)
    for members in sorted({1} | {b for _, b, _ in sections.values()}):
        # keyed by B; per member below
        cases.append(("dimension", "member_step_us", members,
                      _member_step(cfg, members), 100))
    for points, (*_, cloud) in sections.items():
        cases.append(("dimension", "pair_count_ms", points, functools.partial(
            dg.correlation_dimension, cloud), 1))
    for *_, fn, _ in cases:
        fn()
    # each repeat times every case once, so a drift in machine speed over
    # the run reaches all cases alike
    samples = {case[:3]: [] for case in cases}
    for _ in range(REPEATS):
        for model, entry, n, fn, number in cases:
            samples[model, entry, n].append(_per_call_s(fn, number))
    for points in SECTION_POINTS:
        samples["dimension", "section_s", points] = []
    for _ in range(SECTION_REPEATS):
        for points, (run, *_) in sections.items():
            samples["dimension", "section_s", points].append(
                _per_call_s(run, 1))
    result = {"breather": {"maps_per_solve": maps,
                           "check_attempts": check_attempts},
              "startup": _startup()}
    for model, run in runs.items():
        result[model] = {"integration_run": run}
    result["dimension"]["section_members"] = {
        str(points): members for points, (_, members, _) in sections.items()}
    for (model, entry, n), s in samples.items():
        value = UNITS[entry] * statistics.median(s)
        if entry == "unit_time_us":  # per unit of simulated time
            value /= runs[model]["t1"]
        elif entry == "member_step_us":
            value /= n
        result.setdefault(model, {}).setdefault(entry, {})[str(n)] = value
    return {
        **result,
        "repeats": REPEATS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="BENCH JSON file to add the column to")
    parser.add_argument("--column", default="change",
                        help="name of the column to write")
    args = parser.parse_args(argv)

    path = pathlib.Path(args.out)
    bench = json.loads(path.read_text()) if path.exists() else {
        "what": "median perf_counter time of one RHS call and one step "
                "attempt of the stepping kernel, per model and lattice size N; "
                "of integration per unit of simulated time, with the step "
                "attempts, RHS calls and sites of that run; of one breather "
                "solve with its period maps; of one breather check with the "
                "step attempts of its integrations; of a member-step (a "
                "batch's step attempt per member) at N = 64 by batch size B; "
                "of the poincare_points section by points, with its B; and of "
                "correlation_dimension on each section's points; and the "
                "median wall ms and peak RSS MiB of a fresh interpreter that "
                "imports dnls and loads a config, beside numpy's import",
        "configs": {m: str(p.relative_to(ROOT))
                    for m, p in {**CONFIGS, "breather": BREATHER}.items()},
        "columns": {},
    }
    column = measure()
    bench["columns"][args.column] = column
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    for part, entries in column.items():  # the column, one entry a line
        if isinstance(entries, dict):
            for entry, value in entries.items():
                print(f"{args.column:>8} {part:>9} {entry:>18}  {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
