"""The reports of the bundled checks, held in ``tests/reports``: the eight
commands of ``scripts/run_all_checks.py`` run in process, and every JSON
report and the CSVs of ``breather`` and ``dimension`` must match the held
files.  Exit codes, verdicts, integers, strings and keys match exactly;
floats to a relative ``REL``, or within ``ABS`` of each other near 0.
The held files were written by this code, and two runs give the same
bytes, with BLAS on one thread or on all, so ``REL`` only leaves room for
the last bits of a float: scaling the largest entry of a driving table
(``driving._field``) by 1 + 1e-12 moves simulate's norms by up to 1.4e-12
relative, and fails.  ``ABS`` is the round-off of a quantity of order 1,
the size of the breather's residual (1.0e-17, the certified bound q*d).
The breather's seed spread, 5.3e-13 since its later seeds take a loose
first period map, is compared by ``REL`` like any other float.

A change that moves a report on purpose refreshes the held files with

    PYTHONPATH=src python scripts/run_all_checks.py --out-dir tests/reports

and shows the move as their diff (``simulate.csv``, 3 MB, is not held).
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD = ROOT / "tests" / "reports"
REL, ABS = 1e-14, 1e-16


def _run_all_checks():
    spec = importlib.util.spec_from_file_location(
        "run_all_checks", ROOT / "scripts" / "run_all_checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= max(REL * max(abs(a), abs(b)), ABS)


def _mismatches(held, got, where: str) -> list:
    if isinstance(held, dict) and isinstance(got, dict):
        if sorted(held) != sorted(got):
            return [f"{where}: keys {sorted(got)} != {sorted(held)}"]
        return [m for key in held
                for m in _mismatches(held[key], got[key], f"{where}.{key}")]
    if isinstance(held, list) and isinstance(got, list):
        if len(held) != len(got):
            return [f"{where}: {len(got)} entries != {len(held)}"]
        return [m for i, (h, g) in enumerate(zip(held, got))
                for m in _mismatches(h, g, f"{where}[{i}]")]
    if type(held) is float and type(got) is float:
        ok = _close(held, got)
    else:  # verdicts, integers, None, strings
        ok = type(held) is type(got) and held == got
    return [] if ok else [f"{where}: {got!r} != {held!r}"]


def _csv(path: Path) -> list:
    """The header, then each row's cells as floats: an integer cell (the
    site index of breather.csv) compares exactly all the same, since two
    integers below 1e14 differ by more than ``REL``."""
    header, *rows = path.read_text().splitlines()
    return [header] + [[float(c) for c in row.split(",")] for row in rows]


def test_bundled_reports_match_the_held_files(tmp_path):
    checks = _run_all_checks()
    codes = {command: code
             for command, code, _, _ in checks.run_checks(tmp_path)}
    assert codes == {command: 0 for command, _ in checks.CHECKS}

    problems = []
    for command, _ in checks.CHECKS:
        name = f"{command}.json"
        problems += _mismatches(json.loads((HELD / name).read_text()),
                                json.loads((tmp_path / name).read_text()),
                                name)
    for name in ("breather.csv", "dimension.csv"):
        problems += _mismatches(_csv(HELD / name), _csv(tmp_path / name), name)
    assert not problems, "\n".join(problems[:20])
