#!/usr/bin/env python3
"""Per-layer timings of the stepping kernel: one right-hand-side (RHS)
evaluation and one step attempt of the Tsitouras 5(4) kernel (six RHS
calls plus the stage and error arithmetic) at N = 64, 256, 1024 and 4096
sites, on two models: ``simulate`` (scripts/configs/simulate.json:
periodic g1, constant-law single-site g2) and ``dimension``
(scripts/configs/dimension.json: a two-harmonic g1 and no g2, the model
``dnls dimension`` steps); integration per unit of simulated time, with
the step attempts and RHS calls it takes, on one run of each model at its
config's tolerances from a random state of norm 2 (``dimension`` at N = 64
over [0, 100] sampled every 2*pi, as ``dnls dimension`` samples;
``simulate`` at N = 4096 over [0, 50] sampled every 0.1 without keeping
states); and one breather solve: ``find_breather`` on
scripts/configs/breather.json's model at N = 128 from the zero seed at the
reference tolerance, with the number of period maps it makes.

Each figure is the median over ``REPEATS`` timed blocks of the
perf_counter time per call.  The result is written as one named column of
a BENCH JSON file, next to the columns already there, so the same script
run against two checkouts gives a before/after table:

    PYTHONPATH=<parent>/src python scripts/bench.py --out BENCH_<n>.json --column parent
    PYTHONPATH=src python scripts/bench.py --out BENCH_<n>.json --column change

``dnls`` is imported from the path, so the column measures whichever
source tree PYTHONPATH names.  BLAS runs on one thread.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import pathlib
import platform
import statistics
import sys
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from dnls import breather as br  # noqa: E402
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
UNITS = {"rhs_us": 1e6, "attempt_us": 1e6, "unit_time_us": 1e6,
         "solve_ms": 1e3}


def _per_call_s(fn, number: int) -> float:
    start = perf_counter()
    for _ in range(number):
        fn()
    return (perf_counter() - start) / number


def _breather_solve():
    """One breather solve as a callable, and the period maps it makes:
    ``iterations + 1``, as ``find_breather`` documents."""
    cfg = load_config(BREATHER)
    seed = LatticeState.zeros(BREATHER_SITES, cfg.bc)

    def solve():
        return br.find_breather(cfg.model, cfg.driving, seed,
                                tol=cfg.scenario["tol"])

    return solve, solve().iterations + 1


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
                       "rhs_calls": stats.rhs_evals}
        cases.append((model, "unit_time_us", n, run, 1))
        for n in SIZES:
            f = make_rhs(cfg.model, cfg.driving.sampler(n), n, cfg.bc)
            v = random_state(n, 0, norm=2.0, bc=cfg.bc).values
            out = np.empty(n, dtype=np.complex128)
            kernel = _Tsit5(f, v, 0.0)
            cases.append((model, "rhs_us", n,
                          lambda f=f, v=v, out=out: f(0.3, v, out), 1000))
            cases.append((model, "attempt_us", n,
                          lambda k=kernel, c=cfg.integrator: k.attempt(0.0, 1e-3, c),
                          100))
    solve, maps = _breather_solve()
    cases.append(("breather", "solve_ms", BREATHER_SITES, solve, 1))
    for *_, fn, _ in cases:
        fn()
    # each repeat times every case once, so a drift in machine speed over
    # the run reaches all cases alike
    samples = {case[:3]: [] for case in cases}
    for _ in range(REPEATS):
        for model, entry, n, fn, number in cases:
            samples[model, entry, n].append(_per_call_s(fn, number))
    result = {"breather": {"maps_per_solve": maps}}
    for model, run in runs.items():
        result[model] = {"integration_run": run}
    for (model, entry, n), s in samples.items():
        value = UNITS[entry] * statistics.median(s)
        if entry == "unit_time_us":  # per unit of simulated time
            value /= runs[model]["t1"]
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
                "attempts and RHS calls of that run; and of one breather "
                "solve with its period maps",
        "configs": {m: str(p.relative_to(ROOT))
                    for m, p in {**CONFIGS, "breather": BREATHER}.items()},
        "columns": {},
    }
    column = measure()
    bench["columns"][args.column] = column
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    for model in CONFIGS:
        for key in ("rhs_us", "attempt_us"):
            row = "  ".join(f"N={n}: {us:8.2f}"
                            for n, us in column[model][key].items())
            print(f"{args.column:>8} {model:>9} {key:>10}  {row}")
        run = column[model]["integration_run"]
        print(f"{args.column:>8} {model:>9} unit_time_us  N={run['n_sites']}: "
              f"{column[model]['unit_time_us'][str(run['n_sites'])]:8.1f}  "
              f"({run['attempts']} attempts, {run['rhs_calls']} RHS calls "
              f"over [0, {run['t1']:g}])")
    solve = column["breather"]
    print(f"{args.column:>8}  breather   solve_ms  N={BREATHER_SITES}: "
          f"{solve['solve_ms'][str(BREATHER_SITES)]:8.2f}  "
          f"({solve['maps_per_solve']} period maps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
