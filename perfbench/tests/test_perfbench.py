"""Tests of the benchmark itself, on the seconds-long small size of each workload.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_passes_every_check(name):
    record = bench.run_benchmark(name, workloads.DEFAULT_SEED, 0, trace=False, small=True)
    result = record["result"]
    assert result["correct"], record["checks"]["failed"]
    assert result["failed"] == 0 and result["attempted"] >= 6
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    record = bench.run_benchmark("stumps-64e", 3, 0, trace=True, small=True)
    metrics = record["result"]["metrics"]
    assert record["result"]["correct"]
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    values = {k: v["value"] for k, v in metrics.items()}
    trees = workloads.WORKLOADS["stumps-64e"].small.n_trees
    assert values["trace.absent_layers"] == 0
    assert values["node_trainer.find_best_split_calls"] == trees
    assert values["node_trainer.build_histogram_calls"] == 64 * trees
    assert values["data_parallel.engine_histograms_per_node"] == 64
    assert values["cost_model.total_cycles"] == record["cycles"]["total_cycles"]
    assert values["boost_controller.self_s"] < values["boost_controller.train_s"]
    # tracing never changes the model bytes
    assert len({run["model_sha256"] for run in record["runs"]}) == 1


def test_flipped_leaf_weight_counts_as_check_failure():
    def loader():
        fp = bench.load_fpboost()
        train = fp.boost_controller.train

        def flipped(*args, **kwargs):
            model, log = train(*args, **kwargs)
            leaf = next(n for level in model.trees[0].levels for n in level.values() if n.is_leaf)
            leaf.leaf_weight_raw = -leaf.leaf_weight_raw - 1
            return model, log

        fp.boost_controller.train = flipped
        return fp

    record = bench.run_benchmark("stumps-64e", workloads.DEFAULT_SEED, 0, trace=False,
                                 small=True, loader=loader)
    assert not record["result"]["correct"]
    assert record["result"]["failed"] >= 1
    assert any("pinned" in name for name in record["checks"]["failed"])


def test_missing_wrapped_name_is_absent_not_a_failure():
    fp = bench.load_fpboost()
    modules = SimpleNamespace(**vars(fp))
    modules.data_parallel = SimpleNamespace(**{k: v for k, v in vars(fp.data_parallel).items()
                                               if k != "merge_histograms"})
    assert tracing.missing_names(modules) == ["data_parallel.merge_histograms"]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, modules)
    assert not hasattr(modules.data_parallel, "merge_histograms")
    tracing.uninstall(restore)
    report = SimpleNamespace(histogram_cycles=1, split_cycles=1, scan_cycles=1, update_cycles=1,
                             overhead_cycles=0, total_cycles=4)
    metrics = tracing.layer_metrics(tracer.spans, report, tracing.missing_names(modules))
    assert metrics["trace.absent_layers"] == 1
    assert metrics["data_parallel.merge_s"] == 0


def test_benchmark_json_names_the_workloads():
    assert [(w["name"], w["why"]) for w in _spec()["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_covered_merges_overlapping_intervals():
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracing.covered([]) == 0.0


def test_generator_writes_make_synthetic_bytes(tmp_path):
    script = ROOT / "scripts" / "make_synthetic.py"
    if not script.is_file():
        pytest.skip("scripts/make_synthetic.py not present")
    theirs, ours = tmp_path / "theirs.csv", tmp_path / "ours.csv"
    subprocess.run([sys.executable, str(script), str(theirs), "--rows", "300", "--missing", "0.05",
                    "--seed", "7", "--task-seed", str(workloads.TASK_SEED)],
                   check=True, capture_output=True)
    workloads.write_csv(ours, 300, 7, 0.05)
    assert ours.read_bytes() == theirs.read_bytes()


def test_command_prints_json_last():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep-1e", "--seed", "2",
                          "--seconds", "0", "--trace", "0", "--small"],
                         cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stumps-64e", "--seed", "0",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
