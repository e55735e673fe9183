"""One fresh benchmark process.  Started by ``run.py``; not meant to be run
by hand.

    worker.py setup SPEC      import dnls, load the config, print READY
    worker.py run SPEC [--trace]
                              setup, READY, then run every CLI invocation of
                              SPEC in this process and print a JSON report
    worker.py accuracy SPEC   print the sample errors of SPEC's inputs

Protocol lines go to stdout; the CLI's own output is captured, so only
READY and the final JSON line reach the parent.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _import_dnls(src: str):
    import dnls
    import dnls.cli  # noqa: F401  (the CLI module is part of set-up)
    if Path(dnls.__file__).resolve().parent != Path(src).resolve() / "dnls":
        raise SystemExit(f"imported dnls from {dnls.__file__}, expected {src}")
    return dnls


def _env() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def run(spec: dict, trace: bool) -> dict:
    dnls = _import_dnls(spec["src"])
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    dnls.load_config(spec["setup_config"])
    _ready()

    codes = []
    sink = io.StringIO()
    t0 = perf_counter()
    for argv in spec["argvs"]:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(dnls.cli.main(argv))
        except Exception:  # one failed invocation must not hide the others
            traceback.print_exc()
            codes.append(None)
    wall = perf_counter() - t0
    report = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codes": codes,
        "cli_output": sink.getvalue()[-4000:],
        "env": _env(),
    }
    if tracer is not None:
        metrics, counts, failures = spans.layer_metrics(tracer.spans)
        report.update(layers=metrics, counts=counts, trace_failures=failures)
    return report


def accuracy(spec: dict) -> dict:
    """Largest l2 error over the samples in [T/2, T) of ``integrate`` at the
    config's integrator settings against ORACLE_CONFIG, per input."""
    import dataclasses

    import numpy as np

    dnls = _import_dnls(spec["src"])
    from dnls.integrator import ORACLE_CONFIG

    horizon = spec["horizon"]
    errors, rtols = [], []
    for item in spec["inputs"]:
        cfg = dnls.load_config(item["config"])
        psi = dnls.random_state(cfg.n_sites, item["seed"], norm=item["norm"],
                                bc=cfg.bc)
        oracle = dataclasses.replace(
            ORACLE_CONFIG, sample_stride=cfg.integrator.sample_stride)
        a = dnls.integrate(psi, 0.0, horizon, cfg.model, cfg.driving, cfg.integrator)
        b = dnls.integrate(psi, 0.0, horizon, cfg.model, cfg.driving, oracle)
        if not np.array_equal(a.times, b.times):
            raise SystemExit("sample times differ between the two runs")
        keep = slice(1, -1)
        settled = a.times[keep] >= horizon / 2
        diff = (a.values[keep] - b.values[keep])[settled]
        errors.append(float(np.max(np.linalg.norm(diff, axis=1))))
        rtols.append(cfg.integrator.rtol)
    return {"errors": errors, "rtols": rtols}


def main(argv) -> int:
    mode, spec_path = argv[0], argv[1]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "setup":
        dnls = _import_dnls(spec["src"])
        dnls.load_config(spec["setup_config"])
        _ready()
        return 0
    if mode == "run":
        report = run(spec, trace="--trace" in argv[2:])
    elif mode == "accuracy":
        report = accuracy(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
