"""Smoke test of the benchmark: every workload at a tiny size in both modes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    info, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for key in ("python", "numpy", "git_commit", "nproc", "seed"):
        assert key in info
    assert info["seed"] == 7
    if trace:
        assert info["missing"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_layers_match_workloads():
    _, spread = bench("spread_vax", 1)
    _, pooled = bench("pooled_testing", 1)
    _, sweep = bench("sweep", 1)
    value = {name: {k: v["value"] for k, v in r["metrics"].items()}
             for name, r in (("spread", spread), ("pooled", pooled), ("sweep", sweep))}
    assert value["spread"]["testing.run_testing_day.calls"] == 0
    assert value["spread"]["testing.tests"] == 0
    assert value["spread"]["interventions.vaccinations"] > 0
    assert value["pooled"]["testing.tests"] > 0
    assert value["pooled"]["interventions.vaccinations"] == 0
    assert value["sweep"]["engine.run_replicates.calls"] == 8
    assert 0 < value["sweep"]["engine.worker_busy_frac"] < 1
    assert value["sweep"]["cli.files_written"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
