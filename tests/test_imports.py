"""numpy is the only third-party package ``dnls`` loads, and all of it that
a command needs is loaded at import, so a command's own time holds no
import work."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"

# import dnls, then run each argv in sys.argv[1] (a JSON list) through the
# CLI; print the scipy modules present after the import and the scipy or
# numpy modules the commands imported on top of it
PROBE = """
import json, sys
import dnls, dnls.cli
loaded = set(sys.modules)
at_import = sorted(m for m in loaded if m.split(".")[0] == "scipy")
codes = [dnls.cli.main(argv) for argv in json.loads(sys.argv[1])]
later = sorted(m for m in set(sys.modules) - loaded
               if m.split(".")[0] == "scipy" or m.startswith("numpy."))
print(json.dumps({"at_import": at_import, "later": later, "codes": codes}))
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
    assert _probe([])["at_import"] == []


def test_commands_import_nothing_on_first_use(tmp_path):
    dim = json.loads((CONFIGS / "dimension.json").read_text())
    dim["scenario"].update(n_points=100, section_period=1.0)
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
