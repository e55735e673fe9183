#!/usr/bin/env python3
"""Per-layer timings of the stepping kernel: one right-hand-side (RHS)
evaluation and one DOPRI5 step attempt (six RHS calls plus the stage and
error arithmetic) at N = 64, 256, 1024 and 4096 sites, on two models:
``simulate`` (scripts/configs/simulate.json: periodic g1, constant-law
single-site g2) and ``dimension`` (scripts/configs/dimension.json: a
two-harmonic g1 and no g2, the model ``dnls dimension`` steps).

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
import json
import os
import pathlib
import platform
import statistics
import sys
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from dnls.config import load_config  # noqa: E402
from dnls.integrator import _Dopri5  # noqa: E402
from dnls.lattice import make_rhs, random_state  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = {model: ROOT / "scripts" / "configs" / f"{model}.json"
           for model in ("simulate", "dimension")}
SIZES = (64, 256, 1024, 4096)
REPEATS = 21


def _per_call_us(fn, number: int) -> float:
    start = perf_counter()
    for _ in range(number):
        fn()
    return 1e6 * (perf_counter() - start) / number


def measure() -> dict:
    cases = []  # (model, entry, N, callable, calls per timed block)
    for model, path in CONFIGS.items():
        cfg = load_config(path)
        for n in SIZES:
            f = make_rhs(cfg.model, cfg.driving.sampler(n), n, cfg.bc)
            v = random_state(n, 0, norm=2.0, bc=cfg.bc).values
            out = np.empty(n, dtype=np.complex128)
            kernel = _Dopri5(f, v, 0.0)
            cases.append((model, "rhs_us", n,
                          lambda f=f, v=v, out=out: f(0.3, v, out), 1000))
            cases.append((model, "attempt_us", n,
                          lambda k=kernel, c=cfg.integrator: k.attempt(0.0, 1e-3, c),
                          100))
    for *_, fn, _ in cases:
        fn()
    # each repeat times every case once, so a drift in machine speed over
    # the run reaches all cases alike
    samples = {case[:3]: [] for case in cases}
    for _ in range(REPEATS):
        for model, entry, n, fn, number in cases:
            samples[model, entry, n].append(_per_call_us(fn, number))
    result = {model: {"rhs_us": {}, "attempt_us": {}} for model in CONFIGS}
    for (model, entry, n), us in samples.items():
        result[model][entry][str(n)] = statistics.median(us)
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
        "what": "median perf_counter time of one RHS call and one DOPRI5 "
                "step attempt, per model and lattice size N",
        "configs": {m: str(p.relative_to(ROOT)) for m, p in CONFIGS.items()},
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
