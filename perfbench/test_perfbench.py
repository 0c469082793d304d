"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest perfbench -q

Each test runs perfbench/run.py in a fresh process, as the benchmark is run.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CHECKS = {
    "desk": {
        "desk_cli_exit_0", "desk_sizes", "rand_eval_solves", "desk_z_cache",
        "exact_ref_vs_dense", "desk_beats_random", "eig_tail_bound",
    },
    "mesh-rand": {"rand_eval_solves"},
    "mesh-frozen": {"frozen_design_zero_solves"},
    "mesh-eig": {"eig_tail_bound"},
}


def bench(workload, trace, seed=3, cwd=ROOT, runner=HERE / "run.py"):
    cmd = [sys.executable, str(runner), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_and_record(workload, trace, seed=3):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}-smoke.json").read_text())
    return result, record


def assert_emitted(result, metrics):
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics_and_runs_every_check(workload):
    result, record = result_and_record(workload, 0)
    assert_emitted(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert set(record["checks"]) == CHECKS[workload] | {"session_solves_equal"}
    assert all(row["failed"] == 0 and row["passed"] > 0 for row in record["checks"].values())
    env = record["environment"]
    assert env["seed"] == 3 and env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["cache_bytes"] and env["working_set_mib"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_same_solves(workload):
    result, record = result_and_record(workload, 1)
    assert_emitted(result, SPEC["per_layer"])
    assert set(record["checks"]) == CHECKS[workload] | {"trace_pde_solves_match"}
    assert all(row["failed"] == 0 for row in record["checks"].values())
    sessions = record["sessions"]
    assert sessions["traced"]["pde_solves"] == sessions["untraced"]["pde_solves"] > 0
    spans = json.loads((ROOT / ".perfbench_out" / f"spans-{workload}-seed3-trace1-smoke.json").read_text())
    assert spans["spans"] and spans["fields"][:4] == ["name", "start_s", "end_s", "parent"]


def test_counts_and_errors_repeat_exactly_for_a_fixed_seed():
    first = result_and_record("mesh-rand", 0, seed=5)[1]["end_to_end"]
    second = result_and_record("mesh-rand", 0, seed=5)[1]["end_to_end"]
    for name in ("pde_solves", "J_rel_err", "grad_rel_err", "design_logdet"):
        assert first[name] == second[name], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("desk", 0, cwd=tmp_path, runner=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
