"""Benchmark of the ``dnls`` package: one workload, timed from outside.

    python3 perfbench/run.py --workload {section,breather,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload run is one fresh worker process that imports
``dnls``, loads the config, then calls the CLI in process for every
subcommand of the workload.  Runs follow each other (closed loop, one
process at a time) until the next one would end after ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs of the same inputs and prints the per-layer
metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable record (environment, sample counts, spreads, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "sample_err": "l2"}
PER_LAYER = {
    "lattice.rhs_calls": "count", "lattice.rhs_s": "s", "lattice.rhs_us": "us",
    "integrator.calls": "count", "integrator.self_s": "s",
    "integrator.us_per_step": "us", "integrator.steps_accepted": "count",
    "integrator.steps_rejected": "count", "integrator.accept_ratio": "ratio",
    "lattice.norm_sq_calls": "count", "lattice.norm_sq_s": "s",
    "lattice.tail_mass_s": "s", "integrator.monitor_s": "s",
    "integrator.samples": "count", "integrator.sample_mb": "MB",
    "driving.sample_calls": "count", "driving.sample_s": "s",
    "diagnostics.continuity_self_s": "s", "diagnostics.contraction_self_s": "s",
    "diagnostics.predict_verify_s": "s", "diagnostics.poincare_self_s": "s",
    "diagnostics.corr_dim_s": "s", "diagnostics.pairs": "count",
    "breather.period_maps": "count", "breather.iterations": "count",
    "breather.seed_s": "s", "breather.fanout_s": "s", "breather.verify_s": "s",
    "config.load_s": "s", "output.write_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}
MIN_SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0  # a run must exit within 180 s


class Harness:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.started = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        # the CLI must run at the defaults a user gets
        self.env.pop("DNLS_THREADS", None)
        self.setup_s: list[float] = []
        self.log: list[str] = []
        self.versions: dict = {}
        self._specs = 0

    def spawn(self, mode: str, spec: dict, traced: bool = False):
        """Run one worker and return its parsed report, or None; the set-up
        time of a run or set-up worker goes to ``self.setup_s``."""
        self._specs += 1
        spec_path = self.work / f"spec{self._specs}.json"
        spec_path.write_text(json.dumps(dict(spec, src=str(self.root / "src"))))
        err_path = self.work / f"spec{self._specs}.err"
        argv = [sys.executable, str(HERE / "worker.py"), mode, str(spec_path)]
        if traced:
            argv.append("--trace")
        timeout = max(1.0, HARD_LIMIT_S - (perf_counter() - self.started))
        t0 = perf_counter()
        with open(err_path, "w") as err:
            # unbuffered, so reading READY cannot swallow the report after it
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root, bufsize=0)
            try:
                setup = None
                if (mode != "accuracy"
                        and select.select([proc.stdout], [], [], timeout)[0]
                        and proc.stdout.readline().strip() == b"READY"):
                    setup = perf_counter() - t0
                out, _ = proc.communicate(
                    timeout=max(0.1, timeout - (perf_counter() - t0)))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                self.log.append(f"worker {mode} killed after {timeout:.0f} s")
                return None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        report = None
        if proc.returncode == 0 and out.strip():
            report = json.loads(out.decode().strip().splitlines()[-1])
        elif mode != "setup" or setup is None:
            tail = err_path.read_text()[-2000:]
            self.log.append(f"worker {mode} exited {proc.returncode}: {tail}")
        if setup is not None:
            self.setup_s.append(setup)
        return report

    def setup_only(self, run: workloads.Run):
        return self.spawn("setup", {"setup_config": run.setup_config})

    def execute(self, run: workloads.Run, traced: bool):
        """One workload run; returns (report or None, failed invocations)."""
        report = self.spawn("run", {"setup_config": run.setup_config,
                                       "argvs": [i.argv for i in run.invocations]},
                               traced)
        n = len(run.invocations)
        if report is None:
            return None, n
        self.versions = report["env"]
        problems = workloads.check_outputs(run, report["codes"])
        failed = sum(1 for p in problems if p)
        for p in problems:
            self.log.extend(p)
        if traced:
            mismatch = report["trace_failures"] + run.expect(report["layers"],
                                                             report["counts"])
            if mismatch:
                self.log.extend(f"trace cross-check: {m}" for m in mismatch)
                failed = n
        if failed:
            self.log.append("cli output: " + report["cli_output"][-1000:])
        return report, failed


def _median(xs):
    # no samples only when every run failed, which makes the result incorrect
    return statistics.median(xs) if xs else 0.0


def _high_percentile(xs):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def _source_record(root: Path) -> dict:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "dnls").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def measure(args, root: Path, work: Path) -> tuple[list, dict]:
    config_dir = root / "scripts" / "configs"
    h = Harness(root, work)

    def build(i):
        return workloads.build(args.workload, config_dir, work, args.seed, i)

    runs = [build(0)]
    # untimed: fills the bytecode and file caches the way a user's second
    # invocation finds them
    h.setup_only(runs[0])
    h.setup_s.clear()

    attempted = failed = 0
    plain, traced = [], []
    t_end = perf_counter() + args.seconds
    setup_cost = 0.0
    while True:
        t0 = perf_counter()
        run = runs[-1]
        for is_traced in ((False, True) if args.trace else (False,)):
            report, bad = h.execute(run, is_traced)
            attempted += len(run.invocations)
            failed += bad
            if report is not None:
                (traced if is_traced else plain).append(report)
        run_cost = perf_counter() - t0
        if not args.trace:
            # a set-up sample after every run spreads them over the window
            t0 = perf_counter()
            h.setup_only(runs[0])
            setup_cost = perf_counter() - t0
        if perf_counter() + run_cost > t_end:
            break
        runs.append(build(len(runs)))
    while not args.trace and perf_counter() + setup_cost <= t_end:
        h.setup_only(runs[0])

    metrics = {}
    accuracy_ok = True
    if args.trace:
        for name in PER_LAYER:
            if name != "trace.overhead_s":
                metrics[name] = _median([r["layers"][name] for r in traced])
        metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                       - _median([r["wall_s"] for r in plain]))
    else:
        while len(h.setup_s) < MIN_SETUP_SAMPLES:
            n = len(h.setup_s)
            h.setup_only(runs[0])
            if len(h.setup_s) == n:  # set-up itself fails: the runs said so
                break
        while len(runs) < workloads.ACCURACY_INPUTS:
            runs.append(build(len(runs)))
        inputs = [r.accuracy_input for r in runs[:workloads.ACCURACY_INPUTS]]
        horizon = workloads.SIZE["accuracy_horizon"]
        acc = h.spawn("accuracy", {"inputs": inputs, "horizon": horizon})
        if acc is None:
            errors, accuracy_ok = [], False
        else:
            errors = acc["errors"]
            # gross-error gate; the metric's bound catches smaller drifts
            for e, rtol in zip(errors, acc["rtols"]):
                if not e <= 1e3 * rtol:
                    accuracy_ok = False
                    h.log.append(f"sample error {e:.3g} > 1000*rtol {rtol:g}")
        metrics = {
            "setup_s": _median(h.setup_s),
            "wall_s": _median([r["wall_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "sample_err": _median(errors),
        }
        h.log.append(f"sample_err inputs: {[f'{e:.4g}' for e in errors]}")

    walls = [r["wall_s"] for r in plain]
    record = dict(_source_record(root), **h.versions,
                  workload=args.workload, seed=args.seed, trace=args.trace)
    lines = [f"# env {json.dumps(record, sort_keys=True)}",
             f"# runs: {len(plain)} untraced, {len(traced)} traced; "
             f"setup samples: {len(h.setup_s)}",
             f"# wall_s samples: {[round(w, 4) for w in walls]}"]
    hp = _high_percentile(walls)
    lines.append(f"# wall_s p{hp[0]}: {hp[1]:.4f} s" if hp else
                 f"# wall_s: no percentile above the median has 10 samples "
                 f"beyond it (n={len(walls)})")
    lines.append(f"# fail_frac: {failed}/{attempted} = "
                 f"{failed / max(attempted, 1):.4g}")
    lines.extend(f"# {line}" for line in h.log)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        lines.append(f"{name:32s} {value:14.6g} {units[name]}")
    result = {
        "correct": (failed == 0 and accuracy_ok and bool(plain)
                    and (bool(traced) or not args.trace)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/dnls/__init__.py", "scripts/configs")
               if not (root / p).exists()]
    if missing:
        print(f"not a dnls source checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        lines, result = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
