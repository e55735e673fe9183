"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests

Runs every workload once untraced and once traced on a few-site lattice,
and checks the result line against BENCHMARK.json.  Not part of the tier-1
suite (``testpaths`` there is ``tests/``); takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"section_sites": 16, "section_points": 100, "breather_sites": 32,
        "verify_sites": 64, "accuracy_horizon": 2.0}


@pytest.fixture
def bench(monkeypatch, capsys):
    """Run the benchmark in this process at tiny sizes; the workers run the
    tiny configs it generates unchanged."""
    monkeypatch.setattr(workloads, "SIZE", TINY)
    monkeypatch.chdir(ROOT)

    def result(workload, seed, trace):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0, out
        return out, json.loads(out.strip().splitlines()[-1])
    return result


@pytest.mark.parametrize("workload,seed", [("section", 1), ("breather", 2),
                                           ("verify", 3)])
def test_end_to_end_metrics_emitted_with_units(bench, workload, seed):
    out, result = bench(workload, seed, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload,seed", [("section", 4), ("breather", 5),
                                           ("verify", 6)])
def test_per_layer_metrics_emitted_and_cross_checked(bench, workload, seed):
    out, result = bench(workload, seed, 1)
    # a failed counter cross-check makes the traced run incorrect
    assert result["correct"], out
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["lattice.rhs_calls"] > 0 and m["integrator.calls"] >= 1
    if workload == "breather":
        assert m["breather.period_maps"] == m["breather.iterations"] + 3


def test_seed_changes_inputs_but_not_metric_names(bench, tmp_path):
    config_dir = ROOT / "scripts" / "configs"
    for name in workloads.WORKLOADS:
        runs = [workloads.build(name, config_dir, tmp_path / f"{name}{seed}",
                                seed, 0) for seed in (1, 1, 2)]
        # configs carry the drawn seeds, except section's CLI --seed, which
        # is also its accuracy input's seed
        inputs = [(Path(r.setup_config).read_text(), r.accuracy_input["seed"])
                  for r in runs]
        assert inputs[0] == inputs[1], name
        assert inputs[0] != inputs[2], name
    # names come from fixed tables, never from the inputs
    _, first = bench("breather", 7, 0)
    _, second = bench("breather", 8, 0)
    assert list(first["metrics"]) == list(second["metrics"])


def test_pool_thread_spans_take_the_fanout_as_parent():
    tracer = spans.Tracer()
    pool_cls = tracer.pool_class(ThreadPoolExecutor)
    work = tracer.wrap(lambda: time.sleep(0.05), "breather.find_breather")
    outer = tracer.open("cli.main")
    with pool_cls(max_workers=2) as pool:
        list(pool.map(lambda _: work(), range(4)))
    tracer.close(outer)
    fanout, = [s for s in tracer.spans if s.name == "breather.fanout"]
    solves = [s for s in tracer.spans if s.name == "breather.find_breather"]
    assert fanout.parent is outer and len(solves) == 4
    assert all(s.parent is fanout for s in solves)
    # the overlapping pool-thread spans do not count against the waiting
    # fan-out, whose own thread did nothing else
    assert fanout.self_time == fanout.duration
    assert sum(s.duration for s in solves) > fanout.duration
    assert outer.self_time == pytest.approx(outer.duration - fanout.duration)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "section",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
