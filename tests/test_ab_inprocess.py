"""scripts/ab_inprocess.py on two copies of this tree, at the workload's smoke size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def copy_tree(dest: Path) -> Path:
    """The package, the benchmark workloads and the scripts they read, without caches."""
    for part in ("src", "perfbench", "scripts"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    return dest


def ab(tmp_path, parent: Path, change: Path):
    out = tmp_path / "ab.json"
    cmd = [sys.executable, str(ROOT / "scripts" / "ab_inprocess.py"), "--parent", str(parent), "--change",
           str(change), "--workload", "mesh-eig", "--smoke", "--rounds", "2", "--out", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, json.loads(out.read_text())


def test_two_copies_spend_equal_solves(tmp_path):
    """Two copies of the same tree: exit 0, equal sources, the same solves in every round
    of both trees, every check passed, and each round timed on both sides in wall and CPU
    seconds, with the median, the quartiles and the change/parent ratio of each."""
    rc, record = ab(tmp_path, copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b"))
    assert rc == 0
    assert record["src_sha256"]["parent"] == record["src_sha256"]["change"]
    assert record["rounds"] == 2
    solves = record["solves"]
    assert len(solves["parent"]) == 2 and solves["parent"] == solves["change"] and len(set(solves["parent"])) == 1
    assert record["failed"] == {"parent": 0, "change": 0}
    assert all(row["failed"] == 0 and row["passed"] > 0 for side in record["checks"].values() for row in side.values())
    for key in ("seconds", "cpu_seconds"):
        for side in ("parent", "change"):
            stats = record[key][side]
            assert len(stats["runs"]) == 2 and all(t > 0 for t in stats["runs"])
            assert stats["q1"] <= stats["median"] <= stats["q3"]
    assert 0 <= record["change_wins"] <= 2 and record["median_ratio"] > 0 and record["cpu_median_ratio"] > 0


def test_a_failed_check_in_one_tree_exits_1(tmp_path):
    """A change whose Eig-k J is off by one nat fails its own eig_tail_bound check in
    finish(): the record names it and the script exits 1."""
    change = copy_tree(tmp_path / "b")
    oed_py = change / "src" / "oed_dopt" / "oed.py"
    text = oed_py.read_text()
    assert text.count("return J, self._gradient_from_pairs(eig.lam, GU)") == 1
    oed_py.write_text(text.replace("return J, self._gradient_from_pairs(eig.lam, GU)",
                                   "return J + 1.0, self._gradient_from_pairs(eig.lam, GU)"))
    rc, record = ab(tmp_path, copy_tree(tmp_path / "a"), change)
    assert rc == 1
    assert record["failed"]["parent"] == 0 and record["checks"]["change"]["eig_tail_bound"]["failed"] > 0
