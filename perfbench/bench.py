"""fpboost pipeline benchmark: set-up, timed runs, output checks, traced runs, report.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the root of a checkout.  run.py pins the BLAS/OpenMP thread counts to 1
before numpy loads and then calls main() here.  See README.md beside this
file for the workloads and the metrics.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import pipeline
import probe
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
LAYERS = ("boost_controller", "cost_model", "data_parallel", "dataset", "metrics",
          "model_io", "node_trainer", "quantizer", "splitter")
SETUP_REPEATS = 3
# Called once per tree in train and in evaluate_per_tree, and once per line
# by the CSV reader: where an untraced run may end a probe segment inside a
# long stage.
PROBE_POINTS = (("boost_controller", "subsample_indices", None), ("metrics", "auc", None),
                ("dataset", "_parse_label", None))
# Extra untimed-by-the-pipeline predict_raw calls per untraced run: one call
# takes tens of milliseconds, too short for a steady median of a few runs.
PREDICT_REPEATS = 4

END_TO_END = {
    "pipeline_s": "s",
    "train_s": "s",
    "ingest_rows_per_s": "rows/s",
    "predict_rows_per_s": "rows/s",
    "valid_auc": "auc",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
CYCLE_PHASES = ("histogram", "split", "scan", "update")
CYCLE_MODEL_NOTE = ("cost_model cycles are unvalidated: the repository holds no hardware "
                    "reference, so no error figure is given")


class BenchError(Exception):
    """The checkout cannot be benchmarked (no fpboost sources, wrong import)."""


def layer_unit(name: str) -> str:
    if name.startswith("host_ns_per_cycle."):
        return "ns/cycle"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_cycles"):
        return "cycles"
    if name.startswith("share.") or name.endswith(("_share", "_per_node")):
        return "ratio"
    return "count"


def load_fpboost() -> SimpleNamespace:
    """Import fpboost afresh from the checkout's src/ and return its layer modules."""
    for name in [n for n in sys.modules if n == "fpboost" or n.startswith("fpboost.")]:
        del sys.modules[name]
    package = importlib.import_module("fpboost")
    where = Path(package.__file__).resolve().parent
    if where != SRC / "fpboost":
        raise BenchError(f"imported fpboost from {where}, expected {SRC / 'fpboost'}")
    return SimpleNamespace(**{m: importlib.import_module(f"fpboost.{m}") for m in LAYERS})


def write_inputs(workload, size, seed: int, directory: Path) -> pipeline.Inputs:
    inputs = pipeline.Inputs(directory / "train.csv", directory / "valid.csv")
    train_seed, valid_seed = workloads.row_seeds(seed)
    workloads.write_csv(inputs.train_csv, size.rows, train_seed, workload.missing)
    workloads.write_csv(inputs.valid_csv, size.rows, valid_seed, workload.missing)
    return inputs


def set_up(workload, size, seed: int, workdir: Path, loader, speed: probe.SpeedProbe) -> tuple:
    """Make the inputs and import fpboost, SETUP_REPEATS times.

    Returns (fpboost modules, inputs, wall seconds, seconds at reference speed).
    """
    wall, rescaled = [], []
    clock = probe.ProbedClock(speed)
    last = clock.mark()
    for _ in range(SETUP_REPEATS):
        inputs = write_inputs(workload, size, seed, workdir)
        fp = loader()
        now = clock.mark()
        wall.append(now[0] - last[0])
        rescaled.append(now[1] - last[1])
        last = now
    return fp, inputs, wall, rescaled


def measure(fp, workload, size, inputs, seconds: float, trace: bool,
            workdir: Path, checks: pipeline.Checks, speed: probe.SpeedProbe) -> tuple:
    """Run the pipeline until `seconds` have passed; with trace, every other run is traced.

    Untraced runs also end probe segments inside train and evaluate_per_tree;
    traced runs only between stages, so that no probe lands inside a span.

    Returns (first run, per-run summaries, tracers of the traced runs).
    """
    first = None
    summaries = []
    tracers = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(summaries) % 2 else None
        clock = probe.ProbedClock(speed)
        if tracer:
            restore = tracing.install(tracer, fp)
        else:
            restore = tracing.patch(fp, PROBE_POINTS, lambda fn, _: clock.hook(fn))
        try:
            run = pipeline.run_pipeline(fp, inputs, workload.config_kwargs(size), workdir,
                                        tracer or tracing.NullTracer(), clock)
        finally:
            tracing.uninstall(restore)
        pipeline.check_run(checks, fp, run, first)
        first = first or run
        summary = {"times": run.times, "rescaled": run.rescaled, "loads": run.loads,
                   "model_sha256": run.model_sha256, "traced": bool(tracer),
                   "n_train": run.n_train, "n_valid": run.n_valid}
        if not tracer:
            summary["predict_s"] = [run.rescaled["predict"]] + pipeline.time_predict(
                checks, fp, run, clock, PREDICT_REPEATS)
        else:
            tracers.append(tracer)
            summary["layers"] = tracing.layer_metrics(tracer.spans, run.report, tracing.missing_names(fp))
        summaries.append(summary)
        if time.perf_counter() - start >= seconds and (tracers or not trace):
            return first, summaries, tracers


def reference_checks(checks: pipeline.Checks, fp, workload, workdir: Path) -> None:
    """Small size at DEFAULT_SEED, on the workload's engine count and on another one."""
    size = workload.small
    directory = workdir / "reference"
    directory.mkdir()
    inputs = write_inputs(workload, size, workloads.DEFAULT_SEED, directory)
    run = pipeline.run_pipeline(fp, inputs, workload.config_kwargs(size), directory)
    pipeline.check_pinned(checks, run, size, f"small size, engines={workload.n_engines}")
    other = 1 if workload.n_engines > 1 else 64
    run = pipeline.run_pipeline(fp, inputs, workload.config_kwargs(size, other), directory)
    checks.expect(f"small size, engines={other}: model sha256 matches the pinned value",
                  run.model_sha256 == size.model_sha256)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_samples(summaries: list, clock: str) -> dict:
    """Per-run end-to-end timings of the untraced runs, from the "times" (wall)
    or the "rescaled" (reference host speed) stage seconds."""
    out = {"pipeline_s": [], "train_s": [], "ingest_rows_per_s": [], "predict_rows_per_s": []}
    for s in summaries:
        if s["traced"]:
            continue
        t = s[clock]
        out["pipeline_s"].append(sum(t.values()))
        out["train_s"].append(t["train"])
        if clock == "rescaled":
            out["ingest_rows_per_s"].extend(rows / seconds for rows, seconds in s["loads"])
            out["predict_rows_per_s"].extend(s["n_valid"] / seconds for seconds in s["predict_s"])
        else:
            out["ingest_rows_per_s"].append((s["n_train"] + s["n_valid"])
                                            / (t["load_train"] + t["load_valid"]))
            out["predict_rows_per_s"].append(s["n_valid"] / t["predict"])
    return out


def layer_values(summaries: list) -> dict:
    """Median of every per-layer metric over the traced runs, plus the tracing overhead
    (traced minus untraced train_s, both at the reference host speed)."""
    traced = [s["layers"] for s in summaries if s["traced"]]
    values = {name: _median([t[name] for t in traced]) for name in traced[0]}
    train = {flag: _median([s["rescaled"]["train"] for s in summaries if s["traced"] == flag])
             for flag in (True, False)}
    values["trace.overhead_s"] = train[True] - train[False]
    return values


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def os_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  small: bool = False, loader=load_fpboost) -> dict:
    """Set up, measure, check; return the run record (its "result" is the JSON line)."""
    workload = workloads.WORKLOADS[workload_name]
    size = workload.small if small else workload.full
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload_name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    checks = pipeline.Checks()
    speed = probe.SpeedProbe()
    try:
        fp, inputs, setup_wall, setup_rescaled = set_up(workload, size, seed, workdir, loader, speed)
        first, summaries, tracers = measure(fp, workload, size, inputs, seconds, trace, workdir,
                                            checks, speed)
        if seed == workloads.DEFAULT_SEED:
            pipeline.check_pinned(checks, first, size, f"{'small' if small else 'full'} size")
        if workload.n_engines > 1:
            pipeline.check_engine_invariance(checks, fp, first, 1)
        reference_checks(checks, fp, workload, workdir)
        absent = tracing.missing_names(fp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = end_to_end_samples(summaries, "rescaled")
    samples["setup_s"] = setup_rescaled
    wall = end_to_end_samples(summaries, "times")
    wall["setup_s"] = setup_wall
    e2e = {name: _median(v) for name, v in samples.items()}
    e2e["valid_auc"] = float(first.max_auc)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        values = layer_values(summaries)
        metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in values}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    stem = f"{workload_name}-seed{seed}-trace{int(trace)}{'-small' if small else ''}"
    record = {
        "workload": workload_name,
        "size": "small" if small else "full",
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(ROOT),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "thread_settings": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "os_threads": os_threads(),
        "rows": {"train": size.rows, "valid": size.rows},
        "config": workload.config_kwargs(size),
        "samples": samples,
        "wall_samples": wall,
        "reference_probe_s": probe.REFERENCE_S,
        "runs": summaries,
        "cycles": {f: getattr(first.report, f) for f in
                   [f"{p}_cycles" for p in CYCLE_PHASES] + ["overhead_cycles", "total_cycles"]},
        "absent": absent,
        "checks": {"attempted": checks.attempted, "failed": checks.failures},
        "result": {"correct": not checks.failures, "attempted": checks.attempted,
                   "failed": len(checks.failures), "metrics": metrics},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracers:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for k, tracer in enumerate(tracers):
                for s in tracer.spans:
                    fh.write(json.dumps({"run": k, "id": s[0], "parent": s[1], "name": s[2],
                                         "start": s[3], "end": s[4], "samples": s[5]}) + "\n")
    record["e2e"] = e2e
    record["record_path"] = str(OUT / f"{stem}.json")
    return record


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_lines(record: dict) -> list:
    """Human-readable report; the JSON result line follows it."""
    r = record
    lines = [
        f"perfbench workload={r['workload']} size={r['size']} seed={r['seed']} "
        f"trace={int(r['trace'])} seconds={r['seconds']}",
        f"record: git={r['git_sha']} nproc={r['nproc']} python={r['python']} numpy={r['numpy']} "
        f"os_threads={r['os_threads']} "
        + " ".join(f"{k}={v}" for k, v in r["thread_settings"].items()),
        f"end-to-end, tracing off; timings rescaled to the reference host speed "
        f"(probe {probe.REFERENCE_S} s), as median, slowest and sample count, then the wall-clock median:",
    ]
    for name, unit in END_TO_END.items():
        values = r["samples"].get(name)
        if values:
            slowest = max(values) if unit == "s" else min(values)
            lines.append(f"  {name:<20} {_fmt(r['e2e'][name]):>12} {unit:<7} "
                         f"slowest {_fmt(slowest)}  n={len(values)}  "
                         f"wall {_fmt(_median(r['wall_samples'][name]))}")
        else:
            lines.append(f"  {name:<20} {_fmt(r['e2e'][name]):>12} {unit}")
    failed = r["checks"]["failed"]
    lines.append(f"  {'check_failures':<20} {len(failed):>12} count   "
                 f"of {r['checks']['attempted']} checks attempted")
    lines.extend(f"    FAILED: {name}" for name in failed)
    shas = sorted({s["model_sha256"] for s in r["runs"]})
    lines.append(f"model sha256: {', '.join(shas)}")
    layers = r["result"]["metrics"] if r["trace"] else {}
    lines.append(f"modelled cycles next to traced host time ({CYCLE_MODEL_NOTE}):")
    lines.append(f"  {'phase':<10} {'cycles':>14} {'host_s':>10} {'host_ns/cycle':>14}")
    for phase in CYCLE_PHASES:
        cycles = r["cycles"][f"{phase}_cycles"]
        if layers:
            per_cycle = layers[f"host_ns_per_cycle.{phase}"]["value"]
            lines.append(f"  {phase:<10} {cycles:>14,} {_fmt(per_cycle * cycles / 1e9):>10} "
                         f"{_fmt(per_cycle):>14}")
        else:
            lines.append(f"  {phase:<10} {cycles:>14,} {'-':>10} {'-':>14}")
    lines.append(f"  {'overhead':<10} {r['cycles']['overhead_cycles']:>14,}")
    lines.append(f"  {'total':<10} {r['cycles']['total_cycles']:>14,}")
    if layers:
        lines.append("per-layer (traced runs, median):")
        lines.extend(f"  {name:<42} {_fmt(m['value']):>14} {m['unit']}" for name, m in layers.items())
        lines.append(f"  tracing overhead on train_s: {_fmt(layers['trace.overhead_s']['value'])} s")
    for name in r["absent"]:
        lines.append(f"  absent: {name} (no longer bound in fpboost; its metrics read 0)")
    lines.append(f"run record: {r['record_path']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fpboost pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="seconds-long size, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "fpboost" / "__init__.py").is_file():
        print(f"error: no fpboost sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("\n".join(report_lines(record)))
    print(json.dumps(record["result"], sort_keys=True))
    return 0
