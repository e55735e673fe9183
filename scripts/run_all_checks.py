#!/usr/bin/env python3
"""Run all eight `dnls` commands against the bundled example configs.

Each check is one `dnls` CLI invocation that writes its JSON report, and
its CSV if it has one, to `--out-dir`; the script prints a summary table
(exit code, wall time, and the process's peak resident memory after the
check) and exits nonzero if any check fails.  The checks run in order in
one process, so the peak memory column only grows: a check raised it when
it reads higher than the row above.

`tests/reports` holds the reports of the bundled configs, which
`tests/test_reports.py` compares with a fresh run; `--out-dir
tests/reports` refreshes them (all but the 3 MB `simulate.csv`, which
is not kept).
"""

import argparse
import pathlib
import resource
import sys
import time

from dnls import cli

CONFIG_DIR = pathlib.Path(__file__).resolve().parent / "configs"

CHECKS = [
    ("simulate", "simulate.json"),
    ("verify-bounds", "simulate.json"),
    ("absorbing", "absorbing.json"),
    ("tail", "absorbing.json"),
    ("contraction", "absorbing.json"),
    ("continuity", "absorbing.json"),
    ("breather", "breather.json"),
    ("dimension", "dimension.json"),
]
# the commands whose --out writes a CSV
WRITES_CSV = {"simulate", "breather", "dimension"}


def run_checks(out_dir) -> list:
    """Run every check into ``out_dir``: (command, exit code, wall s, peak
    RSS MiB after it) per check, in order."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for command, config in CHECKS:
        argv = [command, "--config", str(CONFIG_DIR / config),
                "--json", str(out_dir / f"{command}.json")]
        if command in WRITES_CSV:
            argv += ["--out", str(out_dir / f"{command}.csv")]
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results.append((command, code, wall, rss_mb))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports",
                        help="directory for per-check JSON reports and CSVs")
    args = parser.parse_args()

    results = run_checks(args.out_dir)
    print()
    print(f"{'check':<14} {'exit':>4} {'wall_s':>8} {'peak_rss_mb':>12}")
    for command, code, wall, rss_mb in results:
        print(f"{command:<14} {code:>4} {wall:>8.2f} {rss_mb:>12.1f}")
    return 1 if any(code for _, code, _, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
