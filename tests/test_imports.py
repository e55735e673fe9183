"""numpy is the only third-party package ``dnls`` loads, and all of it that
a command needs is loaded at import, so a command's own time holds no
import work.  Neither the import nor any command loads ``numpy.random``
(which brings in ``secrets``, ``hmac`` and ``hashlib``, so OpenSSL's
libcrypto), ``hashlib`` or ``logging``: seeded states come from the
package's own generator, and ``--verbose`` prints."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"

# modules no run may load, with their submodules
HEAVY = ("scipy", "numpy.random", "secrets", "hashlib", "logging")

# import dnls, then run each argv in sys.argv[1] (a JSON list) through the
# CLI; print the HEAVY modules present after the import, and the HEAVY or
# numpy modules the commands imported on top of it
PROBE = f"""
import json, sys
HEAVY = {HEAVY!r}
def heavy(m):
    return any(m == p or m.startswith(p + ".") for p in HEAVY)
import dnls, dnls.cli
loaded = set(sys.modules)
at_import = sorted(filter(heavy, loaded))
codes = [dnls.cli.main(argv) for argv in json.loads(sys.argv[1])]
later = sorted(m for m in set(sys.modules) - loaded
               if heavy(m) or m.startswith("numpy."))
print(json.dumps({{"at_import": at_import, "later": later, "codes": codes}}))
"""


def _probe(argvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, timeout=300,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert [m for m in _probe([])["at_import"] if m.startswith("scipy")] == []


def test_import_loads_no_generator_hash_or_logging():
    assert _probe([])["at_import"] == []


def test_commands_import_nothing_on_first_use(tmp_path):
    dim = json.loads((CONFIGS / "dimension.json").read_text())
    dim["scenario"]["n_points"] = 100
    dim_path = tmp_path / "dimension.json"
    dim_path.write_text(json.dumps(dim))
    runs = [("simulate", CONFIGS / "simulate.json"),
            ("verify-bounds", CONFIGS / "simulate.json"),
            ("absorbing", CONFIGS / "absorbing.json"),
            ("tail", CONFIGS / "absorbing.json"),
            ("contraction", CONFIGS / "absorbing.json"),
            ("continuity", CONFIGS / "absorbing.json"),
            ("breather", CONFIGS / "breather.json"),
            ("dimension", dim_path)]
    # --out where the command writes a CSV; the others refuse it
    argvs = [[cmd, "--config", str(cfg), "--json", str(tmp_path / f"{cmd}.json")]
             + (["--out", str(tmp_path / f"{cmd}.csv")]
                if cmd in ("simulate", "breather", "dimension") else [])
             for cmd, cfg in runs]
    result = _probe(argvs)
    assert result["codes"] == [0] * len(runs)
    assert result["at_import"] == [] and result["later"] == []
