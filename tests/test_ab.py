"""tools/ab.py: the per-metric summary, and alternated runs of two trees
whose benchmark is a stub that prints a fixed result line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402


def result(**values):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summary_counts_wins_in_each_metrics_direction():
    parent = [result(solve_s=2.0, throughput=1.0), result(solve_s=4.0, throughput=3.0),
              result(solve_s=3.0, throughput=2.0)]
    change = [result(solve_s=1.0, throughput=0.5), result(solve_s=4.0, throughput=4.0),
              result(solve_s=3.5, throughput=5.0)]
    out = ab.summarize(parent, change, {"solve_s": "lower", "throughput": "higher"})
    solve = out["solve_s"]
    assert solve["parent"]["values"] == [2.0, 4.0, 3.0]
    assert (solve["parent"]["min"], solve["parent"]["median"]) == (2.0, 3.0)
    assert solve["parent"]["quartiles"] == [2.5, 3.5]
    assert solve["change"]["median"] == 3.5
    assert solve["median_change"] == pytest.approx(3.5 / 3.0 - 1.0)
    assert solve["wins"] == {"parent": 1, "change": 1, "tie": 1}
    assert out["throughput"]["wins"] == {"parent": 1, "change": 2, "tie": 0}


def test_missing_values_tie():
    out = ab.summarize([result(x=1.0)], [result(x=None)], {})
    assert out["x"]["wins"] == {"parent": 0, "change": 0, "tie": 1}
    assert out["x"]["change"]["min"] is None and out["x"]["median_change"] is None


def stub_tree(root: Path, value: float) -> Path:
    """A checkout whose benchmark logs its seed and prints `value`."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "solve_s", "unit": "s", "better": "lower"}]}))
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "seed = sys.argv[sys.argv.index('--seed') + 1]\n"
        "with open('order.log', 'a') as fh:\n"
        f"    fh.write(f'{root.name} {{seed}}\\n')\n"
        "print('details')\n"
        f"print(json.dumps({{'correct': True, 'attempted': 1, 'failed': 0, "
        f"'metrics': {{'solve_s': {{'value': {value}, 'unit': 's'}}}}}}))\n")
    return root


def test_pairs_alternate_and_change_wins(tmp_path):
    parent = stub_tree(tmp_path / "parent", 2.0)
    change = stub_tree(tmp_path / "change", 1.0)
    out = tmp_path / "ab.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--workload", "w",
                    "--pairs", "3", "--seconds", "1", "--seed", "7",
                    "--parent", str(parent), "--change", str(change),
                    "--out", str(out)], check=True, capture_output=True)
    report = json.loads(out.read_text())
    assert report["seeds"] == [7, 8, 9]
    assert report["metrics"]["solve_s"]["wins"] == {"parent": 0, "change": 3, "tie": 0}
    assert report["metrics"]["solve_s"]["median_change"] == -0.5
    # each tree logs its own runs: seeds in pair order
    for tree in (parent, change):
        assert (tree / "order.log").read_text().split() == [
            tree.name, "7", tree.name, "8", tree.name, "9"]


def test_failed_run_is_reported(tmp_path):
    parent = stub_tree(tmp_path / "parent", 2.0)
    broken = tmp_path / "broken"
    (broken / "perfbench").mkdir(parents=True)
    (broken / "perfbench" / "run.py").write_text("raise SystemExit('no library')\n")
    with pytest.raises(RuntimeError, match="no library"):
        ab.run_once(broken, "w", 1, 1)
    assert ab.run_once(parent, "w", 1, 1)["metrics"]["solve_s"]["value"] == 2.0
