"""One pass of the job that ``fpboost train --valid ... --log-out`` and
``fpboost cost`` run, through the library calls, plus the output checks.

load CSV -> fit_bin_map -> transform -> train -> evaluate_per_tree ->
predict_raw -> save_model / save_training_log -> cost_model.estimate
"""

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from probe import ProbedClock
from tracing import STAGES, NullTracer


@dataclass
class Inputs:
    train_csv: Path
    valid_csv: Path


@dataclass
class Run:
    times: dict             # stage -> wall seconds, in pipeline order
    rescaled: dict          # stage -> seconds at the reference host speed
    loads: list             # (rows, seconds at reference interpreter speed) per CSV file read
    model: object
    valid_matrix: object
    n_train: int
    n_valid: int
    model_path: Path
    log_path: Path
    model_bytes: bytes
    history: list           # validation AUC after each tree
    max_auc: float
    scores: object          # predict_raw margins over the validation rows
    valid_labels: object
    report: object          # cost_model.CostReport
    config: object
    bins: object            # what an engine-count retrain needs
    matrix: object
    train_labels: object

    @property
    def model_sha256(self) -> str:
        return hashlib.sha256(self.model_bytes).hexdigest()


def run_pipeline(fp, inputs: Inputs, config_kwargs: dict, workdir: Path,
                 tracer=NullTracer(), clock=None) -> Run:
    """Run the job once; every stage is timed, and spanned when tracer records.

    clock (a ProbedClock) is marked at the start and after every stage, so a
    stage's time is the difference of two marks; a mark inside a stage only
    splits it into segments.  Each CSV file is a stage of its own.
    """
    clock = clock or ProbedClock()
    times = {}
    rescaled = {}
    interpreter = {}
    model_path = workdir / "model.json"
    log_path = workdir / "log.json"
    last = [clock.mark()]

    @contextmanager
    def stage(key):
        with tracer.span(STAGES[key]):
            yield
        now = clock.mark()
        times[key], rescaled[key], interpreter[key] = (a - b for a, b in zip(now, last[0]))
        last[0] = now

    with stage("load_train"):
        raw = fp.dataset.load_dataset(str(inputs.train_csv), "csv")
    with stage("load_valid"):
        valid_raw = fp.dataset.load_dataset(str(inputs.valid_csv), "csv")
    loads = [(raw.n_samples, interpreter["load_train"]),
             (valid_raw.n_samples, interpreter["load_valid"])]
    with stage("fit_bin_map"):
        bins = fp.quantizer.fit_bin_map(raw)
    with stage("transform"):
        matrix = fp.quantizer.transform(raw, bins)
        valid_matrix = fp.quantizer.transform(valid_raw, bins)
    config = fp.node_trainer.TrainConfig(**config_kwargs)
    with stage("train"):
        model, log = fp.boost_controller.train(matrix, raw.labels, config)
    with stage("evaluate"):
        history, max_auc = fp.metrics.evaluate_per_tree(
            model, valid_matrix, valid_raw.labels, config.eta, config.frac_bits, bin_map=bins)
    with stage("predict"):
        scores = fp.boost_controller.predict_raw(model, valid_matrix, config.eta, config.frac_bits)
    with stage("save"):
        fp.model_io.save_model(model, bins, config, str(model_path))
        fp.model_io.save_training_log(log, str(log_path))
    with stage("estimate"):
        report = fp.cost_model.estimate(log, log.n_samples, log.config)

    return Run(times=times, rescaled=rescaled, loads=loads, model=model, valid_matrix=valid_matrix,
               n_train=raw.n_samples, n_valid=valid_raw.n_samples,
               model_path=model_path, log_path=log_path, model_bytes=model_path.read_bytes(),
               history=history, max_auc=max_auc, scores=scores, valid_labels=valid_raw.labels,
               report=report, config=config, bins=bins, matrix=matrix, train_labels=raw.labels)


class Checks:
    """Output checks, counted: each expect() is one check attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def check_run(checks: Checks, fp, run: Run, first: Run | None) -> None:
    """Checks on one pipeline run; none of them is timed."""
    bundle = fp.model_io.load_model(str(run.model_path))
    resaved = run.model_path.with_name("model.resaved.json")
    fp.model_io.save_model(bundle.model, bundle.bin_map, bundle.config, str(resaved))
    checks.expect("model save -> load -> save is byte-identical", resaved.read_bytes() == run.model_bytes)

    checks.expect("predict_raw scores give the last per-tree validation AUC",
                  fp.metrics.auc(run.scores, run.valid_labels) == run.history[-1])

    log = fp.model_io.load_training_log(str(run.log_path))
    checks.expect("the reloaded training log gives the same cycle estimate",
                  fp.cost_model.estimate(log, log.n_samples, log.config) == run.report)

    if first is not None:
        checks.expect("model bytes repeat run to run", run.model_bytes == first.model_bytes)
        checks.expect("cycle counts repeat run to run", run.report == first.report)


def check_pinned(checks: Checks, run: Run, size, label: str) -> None:
    """Model digest and cycle total against the values pinned for DEFAULT_SEED."""
    checks.expect(f"{label}: model sha256 matches the pinned value",
                  run.model_sha256 == size.model_sha256)
    checks.expect(f"{label}: total cycles match the pinned value",
                  run.report.total_cycles == size.total_cycles)


def check_engine_invariance(checks: Checks, fp, run: Run, n_engines: int) -> None:
    """Retrain on the same matrix with another engine count; the bytes must not change."""
    config = replace(run.config, n_engines=n_engines)
    model, _ = fp.boost_controller.train(run.matrix, run.train_labels, config)
    path = run.model_path.with_name(f"model.{n_engines}e.json")
    fp.model_io.save_model(model, run.bins, config, str(path))
    checks.expect(f"retrain with engines={n_engines} gives byte-equal model bytes",
                  path.read_bytes() == run.model_bytes)


def time_predict(checks: Checks, fp, run: Run, clock: ProbedClock, repeats: int) -> list:
    """Score the validation rows `repeats` more times; seconds at reference speed of each."""
    seconds = []
    last = clock.mark()
    for _ in range(repeats):
        scores = fp.boost_controller.predict_raw(run.model, run.valid_matrix,
                                                 run.config.eta, run.config.frac_bits)
        now = clock.mark()
        seconds.append(now[1] - last[1])
        last = now
        checks.expect("predict_raw repeats its scores", bool((scores == run.scores).all()))
    return seconds
