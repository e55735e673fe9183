"""``scripts/bench.py``, the per-layer timing script, at its smallest sizes:
it reaches into the package (the private kernel ``_Tsit5``, and spies in
place of ``breather.integrate`` and ``diagnostics.integrate``), so a rename
there must fail here, not on the next timing run."""

import importlib.util
from pathlib import Path

import dnls.breather
import dnls.diagnostics
import dnls.integrator

ROOT = Path(__file__).resolve().parent.parent
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bench():
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_gives_every_entry_and_restores_the_spies(monkeypatch):
    for var in BLAS:  # set here, so the script's defaults leak nowhere
        monkeypatch.setenv(var, "1")
    bench = _bench()
    for name, value in (("REPEATS", 1), ("SECTION_REPEATS", 1),
                        ("STARTUP_SPAWNS", 1), ("SIZES", (64,)),
                        ("SECTION_POINTS", (150,))):
        monkeypatch.setattr(bench, name, value)
    column = bench.measure()

    assert dnls.breather.integrate is dnls.integrator.integrate
    assert dnls.diagnostics.integrate is dnls.integrator.integrate
    for model in ("simulate", "dimension"):
        assert column[model]["integration_run"]["attempts"] > 0
        assert column[model]["unit_time_us"].keys() == {
            str(bench.RUNS[model][0])}
        for entry in ("rhs_us", "attempt_us"):
            assert column[model][entry].keys() == {"64"}
    # the energy check on simulate's run, at its N = 4096
    assert column["simulate"]["bounds_ms"].keys() == {"4096"}
    assert "bounds_ms" not in column["dimension"]
    members = column["dimension"]["section_members"]["150"]
    assert column["dimension"]["member_step_us"].keys() == {"1", str(members)}
    for entry in ("section_s", "pair_count_ms"):
        assert column["dimension"][entry].keys() == {"150"}
    assert column["breather"]["maps_per_solve"] > 0
    assert column["breather"]["check_attempts"] > 0
    for entry in ("solve_ms", "check_ms"):
        assert column["breather"][entry].keys() == {"128"}
    assert column["startup"]["spawns"] == 1
    for part in ("wall_ms", "peak_rss_mib"):
        assert column["startup"][part].keys() == {"dnls", "numpy"}
    values = [v for part in ("simulate", "dimension", "breather")
              for entry in column[part].values() if isinstance(entry, dict)
              for v in entry.values()]
    assert all(v > 0 for v in values if isinstance(v, float))
