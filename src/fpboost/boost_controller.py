"""Boosting driver: subsampling, per-depth node training, tree bookkeeping.

One tree per round: initialize one index table over the subsampled rows,
train and split nodes depth-synchronously, then refresh every sample's
score and gradients from the finished tree.  Each node carries its own
half-open range of the table; a split rewrites that range in place, and
its children own the two halves.  Histograms are exact integer sums, so
the engine count cannot change a split; it reaches only the training log,
where the cost model reads it.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .engine_memory import EngineMemory, init_index_table, load
from .fixed_point import FRAC_BITS
from .node_trainer import (GradientHistogram, TrainConfig, build_histogram, find_best_split,
                           node_leaf, split_child_totals)
from .quantizer import QuantizedMatrix
from .splitter import TreeModel, TreeNode, apply_tree_update, partition, replay_scores

BASE_SCORE = 0.0

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass
class Model:
    trees: list = field(default_factory=list)
    base_score: float = BASE_SCORE

    @property
    def n_trees(self) -> int:
        return len(self.trees)


@dataclass
class DepthLog:
    trained_sizes: list        # sample count of every node that built a histogram
    split_sizes: list          # sample count of every node that was partitioned


@dataclass
class TreeLog:
    n_subsampled: int
    depths: list
    n_leaves: int
    train_loss: float


@dataclass
class TrainingLog:
    n_samples: int
    n_features: int
    config: TrainConfig
    trees: list = field(default_factory=list)


def _mix64(x):
    """splitmix64 finalizer; elementwise on uint64 arrays."""
    z = (x + np.uint64(_GOLDEN)) & np.uint64(_MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix64_int(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def subsample_indices(seed: int, tree_index: int, n: int, rate: float) -> np.ndarray:
    """Bernoulli row sample from a stateless counter-based generator.

    Membership of sample i depends only on (seed, tree_index, i), so the
    draw is identical under any sharding or engine count.  Output ascending.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    if rate == 1.0:
        return np.arange(n, dtype=np.int64)
    stream = _mix64_int(_mix64_int(seed & _MASK64) ^ (tree_index & _MASK64))
    u = _mix64(np.uint64(stream) ^ np.arange(n, dtype=np.uint64))
    threshold = int(rate * 2.0 ** 64)
    return np.nonzero(u < np.uint64(threshold))[0].astype(np.int64)


def _log_loss(p, labels) -> float:
    """Mean cross-entropy of probabilities p, clipped away from 0 and 1."""
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def _children(memory: EngineMemory, parent_id: int, parent_hist: GradientHistogram,
              child_totals: tuple, child_ranges: tuple) -> list:
    """(node id, range, histogram, totals) of both children of one split node.

    Only the child with fewer samples is built from the index table; the
    other is the parent's histogram minus it, exact because bins hold
    integer sums.
    """
    ids = (2 * parent_id, 2 * parent_id + 1)
    small = 0 if child_totals[0][2] <= child_totals[1][2] else 1
    built = build_histogram(memory, child_ranges[small])
    sibling = parent_hist.minus(built)
    hists = (built, sibling) if small == 0 else (sibling, built)
    return list(zip(ids, child_ranges, hists, child_totals))


def _level(memory: EngineMemory, parents: deque):
    """Nodes to train at one depth, children of the split nodes one level up.

    Each parent histogram is released as soon as both its children exist.
    """
    while parents:
        yield from _children(memory, *parents.popleft())


def _grow_tree(memory: EngineMemory, config: TrainConfig, tree_log_depths: list) -> TreeModel:
    """Train one tree depth-synchronously over the memory's index table."""
    tree = TreeModel()
    root_range = (0, memory.table.size)
    root = build_histogram(memory, root_range)
    nodes = [(0, root_range, root, root.totals())]
    for d in range(config.max_depth):
        trained_sizes = []
        split_sizes = []
        # (node id, histogram, child totals, child ranges) of nodes whose children train
        parents = deque()
        for node_id, (start, end), hist, totals in nodes:
            decision = find_best_split(hist, totals, d, config)
            trained_sizes.append(totals[2])
            if decision.is_leaf:
                tree.put(d, node_id, TreeNode(is_leaf=True, leaf_weight_raw=decision.leaf_weight_raw))
                continue
            tree.put(d, node_id, TreeNode(
                is_leaf=False,
                feature=decision.feature,
                threshold_bin=decision.threshold_bin,
                missing_left=decision.missing_left,
            ))
            mid = partition(memory, (start, end), decision)
            split_sizes.append(totals[2])
            child_totals = split_child_totals(hist, decision, totals)
            if d + 1 == config.max_depth:
                for child, child_total in zip((2 * node_id, 2 * node_id + 1), child_totals):
                    w = node_leaf(child_total, config.lam, config.frac_bits).leaf_weight_raw
                    tree.put(d + 1, child, TreeNode(is_leaf=True, leaf_weight_raw=w))
            else:
                parents.append((node_id, hist, child_totals, ((start, mid), (mid, end))))
        tree_log_depths.append(DepthLog(trained_sizes, split_sizes))
        if not parents:
            break
        nodes = _level(memory, parents)
    return tree


def train(matrix: QuantizedMatrix, labels, config: TrainConfig) -> tuple:
    """Train a boosted model; returns (Model, TrainingLog)."""
    if matrix.n_samples == 0:
        raise ValueError("empty training set")
    # a raw gradient reaches 2**frac_bits in magnitude; node totals are int64
    if matrix.n_samples << config.frac_bits >= 1 << 63:
        raise ValueError(
            f"n_samples={matrix.n_samples} with frac_bits={config.frac_bits} can overflow "
            "int64 node totals: need n_samples * 2**frac_bits < 2**63"
        )
    memory = load(matrix, labels, BASE_SCORE, config.frac_bits)
    model = Model(base_score=BASE_SCORE)
    log = TrainingLog(n_samples=matrix.n_samples, n_features=matrix.n_features, config=config)

    for t in range(config.n_trees):
        active = subsample_indices(config.seed, t, matrix.n_samples, config.subsample)
        memory.table = init_index_table(active, matrix.n_samples)
        depths = []
        try:
            tree = _grow_tree(memory, config, depths)
            p = apply_tree_update(memory, tree, config.eta)
        except ValueError as err:
            raise ValueError(f"tree {t}: {err}") from None
        model.trees.append(tree)
        log.trees.append(TreeLog(
            n_subsampled=int(active.size),
            depths=depths,
            n_leaves=tree.n_leaves(),
            train_loss=_log_loss(p, memory.state.labels),
        ))
    return model, log


def predict_raw(model: Model, matrix: QuantizedMatrix, eta: float = 1.0,
                frac_bits: int = FRAC_BITS) -> np.ndarray:
    """Replay the model over a quantized matrix; raw fixed-point margins."""
    return replay_scores(model.trees, model.base_score, matrix.columns, eta, frac_bits)
