"""scripts/same_outputs.py on stand-in checkouts whose pipeline scripts write fixed artifacts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import same_outputs  # noqa: E402  (scripts/ is not a package)

# Each stand-in script writes what its checkout's own src/stub.py holds, so a run
# that read the other checkout's src/ would show as a difference.
SCRIPT = """import argparse, os
from stub import WALL, WEIGHT
ap = argparse.ArgumentParser()
ap.add_argument("--out"); ap.add_argument("--seed"); ap.add_argument("--penalty", default="l1")
a = ap.parse_args()
os.makedirs(a.out, exist_ok=True)
with open(os.path.join(a.out, "weights.csv"), "w") as f:
    f.write(f"w\\n{WEIGHT}\\n")
with open(os.path.join(a.out, "iterations.csv"), "w") as f:
    f.write(f"iter,wall_time,J\\n0,{WALL},{a.seed}{a.penalty}\\n")
"""


def checkout(root: Path, weight: float, wall: float) -> Path:
    for d in ("scripts", "src"):
        (root / d).mkdir(parents=True)
    for name in ("desk_pipeline.py", "accuracy_bench.py"):
        (root / "scripts" / name).write_text(SCRIPT)
    (root / "src" / "stub.py").write_text(f"WEIGHT = {weight}\nWALL = {wall}\n")
    return root


def test_same_artifacts_exit_0_even_when_wall_time_differs(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", 0.5, 0.01)
    change = checkout(tmp_path / "change", 0.5, 0.02)
    argv = ["--parent", str(parent), "--change", str(change), "--work", str(tmp_path / "work")]
    assert same_outputs.main(argv) == 0
    assert "same outputs" in capsys.readouterr().out
    assert (tmp_path / "work" / "change" / "desk-seed2-cont" / "weights.csv").read_text() == "w\n0.5\n"


def test_a_differing_artifact_is_named_and_exits_1(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", 0.5, 0.01)
    change = checkout(tmp_path / "change", 0.25, 0.01)
    argv = ["--parent", str(parent), "--change", str(change), "--work", str(tmp_path / "work")]
    assert same_outputs.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"{name}: weights.csv differs" for name in same_outputs.RUNS]
    assert lines[3].startswith("different outputs")


def test_a_file_one_side_lacks_and_a_failed_run_exit_1(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", 0.5, 0.01)
    change = checkout(tmp_path / "change", 0.5, 0.01)
    (change / "scripts" / "desk_pipeline.py").write_text(SCRIPT + "open(os.path.join(a.out, 'extra.csv'), 'w').close()\n")
    (change / "scripts" / "accuracy_bench.py").write_text("raise SystemExit(3)\n")
    argv = ["--parent", str(parent), "--change", str(change), "--work", str(tmp_path / "work")]
    assert same_outputs.main(argv) == 1
    out = capsys.readouterr().out
    assert "desk-seed1: extra.csv differs" in out and "desk-seed2-cont: extra.csv differs" in out
    assert "accuracy-seed1: exit codes {'parent': 0, 'change': 3}" in out
