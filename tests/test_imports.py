"""numpy is the only third-party package ``dnls`` loads, and all of it that
a command needs is loaded at import, so a command's own time holds no
import work.  Neither the import nor any command loads ``numpy.random``
(which brings in ``secrets``, ``hmac`` and ``hashlib``, so OpenSSL's
libcrypto), ``hashlib`` or ``logging``: seeded states come from the
package's own generator, and ``--verbose`` prints.  And no module of the
package reads another's private name: each such fact has one home; nor
defines a public name that only tests reach."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"
PACKAGE = ROOT / "src" / "dnls"
# public names of the package that only tests reach: the hull oracle the
# tests check the batched hull shifts against
TEST_ONLY = {"driving.translate"}

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(package: Path) -> list:
    """(file, line, name) of each read in ``package``'s modules of a private
    name of a sibling module: ``from .m import _x``, or ``m._x`` with ``m``
    bound by ``from . import m``."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        siblings = set()  # local names of sibling modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:  # dnls.m is the sibling .m
                if module != "dnls" and not module.startswith("dnls."):
                    continue
                module = module[len("dnls."):]
            for alias in node.names:
                if not module:  # from . import m [as n]
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((path.name, node.lineno,
                                  f"{module}.{alias.name}"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in siblings):
                found.append((path.name, node.lineno,
                              f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reads_another_modules_private_name():
    # a fact a module keeps private has its one home there
    assert _private_reads(PACKAGE) == []


def _public_defs(package: Path) -> list:
    """``module.name`` of each public function and class of ``package``'s
    modules, and ``module.Class.name`` of each public method."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{m.name}"
                          for m in node.body if isinstance(m, ast.FunctionDef)
                          and not m.name.startswith("_")]
    return found


def _names(paths) -> set:
    """Every name the files at ``paths`` read, import or take as an
    attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_no_public_name_only_tests_reach():
    # the package, scripts and benchmark, not the re-exports of
    # __init__.py: a name none of them reaches has lost its last caller
    paths = ([p for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "__init__.py"]
             + sorted((ROOT / "scripts").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py")))
    names = _names(paths)
    unreached = [d for d in _public_defs(PACKAGE)
                 if d.rpartition(".")[2] not in names and d not in TEST_ONLY]
    assert unreached == []
