"""scripts/bench_pairs.py on stand-in checkouts whose benchmark prints a fixed result line or nothing."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_pairs  # noqa: E402  (scripts/ is not a package)

RUN_PY = """import json, shutil, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if {crash_seed} == seed:
    shutil.copy({out!r}, "snapshot.json")  # what the pairs before this one left
    sys.exit(3)
print("a report line")
print(json.dumps({{"correct": {correct}, "attempted": 1, "failed": 0,
                   "metrics": {{"w/session_s": {{"value": {value} + seed, "unit": "s"}}}}}}))
"""


def checkout(root: Path, value: float, crash_seed: int, out: Path, correct: bool = True) -> Path:
    (root / "perfbench").mkdir(parents=True)
    run_py = RUN_PY.format(crash_seed=crash_seed, out=str(out), value=value, correct=correct)
    (root / "perfbench" / "run.py").write_text(run_py)
    benchmark = {"end_to_end": [{"name": "session_s", "better": "lower", "bound": 0.25}]}
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return root


def test_a_run_without_result_line_is_recorded_and_earlier_pairs_are_kept(tmp_path):
    """The change's run on seed 2 exits 3 and prints nothing: the record keeps its exit
    code as a failed run, the metric counts the one complete pair, the file written
    after pair 1 was already on disk when pair 2 ran, and the script exits 1."""
    out = tmp_path / "pairs.json"
    parent = checkout(tmp_path / "parent", 2.0, -1, out)
    change = checkout(tmp_path / "change", 1.0, 2, out)
    argv = ["--parent", str(parent), "--change", str(change), "--seeds", "1-3", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    record = json.loads(out.read_text())
    assert record["seeds"] == [1, 2, 3]
    assert record["exit_codes"] == {"parent": [0, 0, 0], "change": [0, 3, 0]}
    assert record["failed"] == {"parent": [0, 0, 0], "change": [0, None, 0]}
    assert record["correct"] == {"parent": True, "change": False}
    metric = record["metrics"]["w/session_s"]
    assert (metric["pairs"], metric["change_wins"]) == (2, 2)
    assert metric["parent"]["runs"] == [3.0, 5.0] and metric["change"]["runs"] == [2.0, 4.0]
    # medians 4 and 3; the parent's IQR of 1.0 is exactly the bound's 0.25 x 4, so resolved
    assert (metric["bound"], metric["median_ratio"]) == (0.25, 0.75)
    assert (metric["within_bound"], metric["unresolved"]) == (True, False)
    snapshot = json.loads((change / "snapshot.json").read_text())
    assert snapshot["seeds"] == [1] and snapshot["metrics"]["w/session_s"]["pairs"] == 1


def test_one_seed_runs_one_pair(tmp_path):
    """--seeds 5 reads as 5-5: one pair, recorded."""
    out = tmp_path / "pairs.json"
    parent = checkout(tmp_path / "parent", 2.0, -1, out)
    change = checkout(tmp_path / "change", 1.0, -1, out)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seeds", "5", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["seeds"] == [5]
    metric = record["metrics"]["w/session_s"]
    assert metric["parent"]["runs"] == [7.0]
    assert (metric["median_ratio"], metric["within_bound"], metric["unresolved"]) == (6.0 / 7.0, True, False)


def test_a_change_worse_than_its_bound_is_flagged(tmp_path):
    """Parent runs 2-5 (median 3.5, IQR 1.5) against change runs 3-6 (median 4.5): the change is
    worse by 1.0 against a bound of 0.25 x 3.5 = 0.875, and the parent's IQR exceeds that too."""
    out = tmp_path / "pairs.json"
    parent = checkout(tmp_path / "parent", 1.0, -1, out)
    change = checkout(tmp_path / "change", 2.0, -1, out)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seeds", "1-4", "--out", str(out)]) == 0
    metric = json.loads(out.read_text())["metrics"]["w/session_s"]
    assert (metric["parent"]["median"], metric["parent"]["iqr"], metric["change"]["median"]) == (3.5, 1.5, 4.5)
    assert (metric["change_wins"], metric["median_ratio"]) == (0, 4.5 / 3.5)
    assert (metric["within_bound"], metric["unresolved"]) == (False, True)


def test_a_run_reporting_incorrect_results_exits_1(tmp_path):
    """Every run exits 0, but the parent's report correct: false: the record is written and
    the script exits 1."""
    out = tmp_path / "pairs.json"
    parent = checkout(tmp_path / "parent", 2.0, -1, out, correct=False)
    change = checkout(tmp_path / "change", 1.0, -1, out)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seeds", "1-2", "--out", str(out)]) == 1
    record = json.loads(out.read_text())
    assert record["exit_codes"] == {"parent": [0, 0], "change": [0, 0]}
    assert record["correct"] == {"parent": False, "change": True}


def fake_proc(root: Path) -> Path:
    """A /proc stand-in: a 1-minute load of 0.5, and a cpu line whose field i reads i."""
    root.mkdir()
    (root / "loadavg").write_text("0.50 0.40 0.30 1/100 4242\n")
    (root / "stat").write_text("cpu  1 2 3 4 5 6 7 8 9 10\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
    return root


def test_host_load_is_recorded_per_run_with_medians(tmp_path, monkeypatch):
    """Each run records the 1-minute load before it and the steal and iowait ticks over it
    (0 here, as the stand-in stat does not move), and each side holds its runs and medians."""
    monkeypatch.setattr(bench_pairs, "PROC", fake_proc(tmp_path / "proc"))
    assert bench_pairs.cpu_ticks() == {"steal_ticks": 8, "iowait_ticks": 5}
    out = tmp_path / "pairs.json"
    parent = checkout(tmp_path / "parent", 2.0, -1, out)
    change = checkout(tmp_path / "change", 1.0, -1, out)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seeds", "1-2", "--out", str(out)]) == 0
    host = json.loads(out.read_text())["host_load"]
    run = {"load_1min": 0.5, "steal_ticks": 0, "iowait_ticks": 0}
    for side in ("parent", "change"):
        assert host[side] == {"runs": [run, run], "median": {"load_1min": 0.5, "steal_ticks": 0.0, "iowait_ticks": 0.0}}


def test_host_load_is_null_without_proc(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "PROC", tmp_path / "absent")
    out = tmp_path / "pairs.json"
    parent = checkout(tmp_path / "parent", 2.0, -1, out)
    change = checkout(tmp_path / "change", 1.0, -1, out)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seeds", "1", "--out", str(out)]) == 0
    host = json.loads(out.read_text())["host_load"]
    null = dict.fromkeys(bench_pairs.HOST_FIELDS)
    assert host == {side: {"runs": [null], "median": null} for side in ("parent", "change")}


@pytest.mark.parametrize("seeds", ["40-31", "", "5-", "-5", "a-b", "1-2-3"])
def test_empty_or_malformed_seed_range_exits_2(tmp_path, seeds, capsys):
    """An empty or malformed range is an argparse error (exit 2) before any run, and no record is written."""
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--seeds", seeds, "--out", str(out)])
    assert exc.value.code == 2 and "first <= last" in capsys.readouterr().err
    assert not out.exists()
