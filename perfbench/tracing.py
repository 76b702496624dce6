"""Spans around fpboost's layers, recorded from outside the program.

The tracer replaces the names that fpboost modules bind (for example the
``find_best_split`` that ``fpboost.boost_controller`` calls) with wrappers that
record a span per call: id, parent id, name, start, end, and for histogram
builds the node's sample count.  Spans stay in memory until the benchmark
writes them out.  A wrapped name that a later version of fpboost no longer
binds is reported as absent and its metrics read 0.
"""

import contextlib
import functools
import time

# (fpboost module, attribute it binds, span name).  One span name may cover
# the same function bound in several modules.
WRAPPED = (
    ("boost_controller", "subsample_indices", "boost_controller.subsample"),
    ("boost_controller", "_log_loss", "boost_controller.log_loss"),
    ("boost_controller", "init_index_table", "engine_memory.init_index_table"),
    ("boost_controller", "merged_node_histogram", "data_parallel.node_histogram"),
    ("boost_controller", "find_best_split", "node_trainer.find_best_split"),
    ("boost_controller", "partition", "splitter.partition"),
    ("boost_controller", "apply_tree_update", "splitter.apply_tree_update"),
    ("boost_controller", "tree_increment", "splitter.tree_increment"),
    ("data_parallel", "build_histogram", "node_trainer.build_histogram"),
    ("data_parallel", "merge_histograms", "data_parallel.merge"),
    ("splitter", "tree_increment", "splitter.tree_increment"),
    ("metrics", "tree_increment", "splitter.tree_increment"),
    ("metrics", "auc", "metrics.auc"),
)

# Spans the benchmark opens itself around each pipeline stage.
STAGES = {
    "load_train": "dataset.load",
    "load_valid": "dataset.load",
    "fit_bin_map": "quantizer.fit_bin_map",
    "transform": "quantizer.transform",
    "train": "boost_controller.train",
    "evaluate": "metrics.evaluate_per_tree",
    "predict": "boost_controller.predict_raw",
    "save": "model_io.save",
    "estimate": "cost_model.estimate",
}

# tree_increment time is split by the stage or layer that called it.
_INCREMENT_CALLERS = {
    "splitter.apply_tree_update": "update",
    "metrics.evaluate_per_tree": "eval",
    "boost_controller.predict_raw": "predict",
}
_HISTOGRAM_SPANS = ("data_parallel.node_histogram", "node_trainer.build_histogram", "data_parallel.merge")

START, END = 3, 4


def _node_samples(args) -> int | None:
    """Sample count of the half-open node range passed to build_histogram."""
    try:
        start, end = args[1]
        return int(end) - int(start)
    except (IndexError, TypeError, ValueError):
        return None


_COUNTERS = {"node_trainer.build_histogram": _node_samples}


class Tracer:
    """Spans of one pipeline run, as lists [id, parent id, name, start, end, samples]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name: str, samples=None) -> list:
        record = [len(self.spans), self._stack[-1] if self._stack else None, name,
                  time.perf_counter(), 0.0, samples]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record: list) -> None:
        self._stack.pop()
        record[END] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name, counter(args) if counter else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced


class NullTracer:
    """Stand-in with the Tracer's span() that records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


def missing_names(modules) -> list:
    """"module.attribute" of every wrapped name the loaded fpboost does not bind."""
    return [f"{mod}.{attr}" for mod, attr, _ in WRAPPED
            if not hasattr(getattr(modules, mod), attr)]


def patch(modules, names, wrap) -> list:
    """Rebind every (module, attribute, label) that exists to wrap(original, label).

    Returns what uninstall() needs to put the originals back.
    """
    restore = []
    for mod, attr, label in names:
        module = getattr(modules, mod)
        if hasattr(module, attr):
            original = getattr(module, attr)
            restore.append((module, attr, original))
            setattr(module, attr, wrap(original, label))
    return restore


def install(tracer: Tracer, modules) -> list:
    """Bind span wrappers in place of every wrapped name that exists."""
    return patch(modules, WRAPPED, tracer.wrap)


def uninstall(restore: list) -> None:
    for module, attr, original in reversed(restore):
        setattr(module, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list, report, absent: list) -> dict:
    """Per-layer metrics of one traced pipeline run.

    Times are inclusive span time summed over calls, except
    boost_controller.self_s: the train span minus the time its direct child
    spans cover.  report is the run's cost_model.estimate result.
    """
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
        children.setdefault(s[1], []).append(s)

    def total(name):
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def caller(s):
        parent = s[1]
        while parent is not None:
            p = spans[parent]
            if p[2] in _INCREMENT_CALLERS:
                return _INCREMENT_CALLERS[p[2]]
            parent = p[1]
        return None

    increment = {"update": 0.0, "eval": 0.0, "predict": 0.0}
    for s in by_name.get("splitter.tree_increment", ()):
        where = caller(s)
        if where is not None:
            increment[where] += s[END] - s[START]

    train_self = 0.0
    for s in by_name.get("boost_controller.train", ()):
        kids = children.get(s[0], ())
        train_self += (s[END] - s[START]) - covered((k[START], k[END]) for k in kids)

    hist_builds = by_name.get("node_trainer.build_histogram", ())
    samples = [s[5] for s in hist_builds if s[5] is not None]
    phase_s = {
        "histogram": covered((s[START], s[END]) for n in _HISTOGRAM_SPANS for s in by_name.get(n, ())),
        "split": total("splitter.partition"),
        "scan": total("node_trainer.find_best_split"),
        "update": total("splitter.apply_tree_update"),
    }
    train_s = total("boost_controller.train")
    pipeline_s = sum(total(n) for n in set(STAGES.values()))

    m = {
        "dataset.load_s": total("dataset.load"),
        "quantizer.fit_bin_map_s": total("quantizer.fit_bin_map"),
        "quantizer.transform_s": total("quantizer.transform"),
        "engine_memory.init_index_table_s": total("engine_memory.init_index_table"),
        "engine_memory.init_index_table_calls": calls("engine_memory.init_index_table"),
        "data_parallel.node_histogram_s": total("data_parallel.node_histogram"),
        "data_parallel.merge_s": total("data_parallel.merge"),
        "data_parallel.engine_histograms_per_node":
            _ratio(len(hist_builds), calls("node_trainer.find_best_split")),
        "data_parallel.empty_shard_share": _ratio(sum(1 for n in samples if n == 0), len(samples)),
        "node_trainer.build_histogram_s": total("node_trainer.build_histogram"),
        "node_trainer.build_histogram_calls": len(hist_builds),
        "node_trainer.hist_node_samples": sum(samples),
        "node_trainer.find_best_split_s": phase_s["scan"],
        "node_trainer.find_best_split_calls": calls("node_trainer.find_best_split"),
        "splitter.partition_s": phase_s["split"],
        "splitter.partition_calls": calls("splitter.partition"),
        "splitter.apply_tree_update_s": phase_s["update"],
        "splitter.tree_increment.update_s": increment["update"],
        "splitter.tree_increment.eval_s": increment["eval"],
        "splitter.tree_increment.predict_s": increment["predict"],
        "metrics.evaluate_per_tree_s": total("metrics.evaluate_per_tree"),
        "metrics.auc_s": total("metrics.auc"),
        "boost_controller.train_s": train_s,
        "boost_controller.self_s": train_self,
        "boost_controller.subsample_s": total("boost_controller.subsample"),
        "boost_controller.log_loss_s": total("boost_controller.log_loss"),
        "boost_controller.predict_raw_s": total("boost_controller.predict_raw"),
        "model_io.save_s": total("model_io.save"),
        "cost_model.estimate_s": total("cost_model.estimate"),
        "cost_model.histogram_cycles": report.histogram_cycles,
        "cost_model.split_cycles": report.split_cycles,
        "cost_model.scan_cycles": report.scan_cycles,
        "cost_model.update_cycles": report.update_cycles,
        "cost_model.overhead_cycles": report.overhead_cycles,
        "cost_model.total_cycles": report.total_cycles,
        "share.engine_sim_of_train": _ratio(
            total("data_parallel.node_histogram") + total("engine_memory.init_index_table"), train_s),
        "share.find_best_split_of_train": _ratio(phase_s["scan"], train_s),
        "share.load_of_pipeline": _ratio(total("dataset.load"), pipeline_s),
        "trace.absent_layers": len(absent),
        "trace.spans": len(spans),
    }
    for phase, seconds in phase_s.items():
        m[f"host_ns_per_cycle.{phase}"] = _ratio(seconds * 1e9, getattr(report, f"{phase}_cycles"))
    return m
