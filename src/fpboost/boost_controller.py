"""Boosting driver: subsampling, per-depth node training, tree bookkeeping.

One tree per round: initialize one index table over the subsampled rows,
train and split nodes depth-synchronously, then refresh every sample's
score and gradients from the finished tree.  Each node carries its own
half-open range of the table; a split above the last depth rewrites that
range in place, and its children own the two halves.  Histograms are exact
integer sums, so the engine count cannot change a split; it reaches only the
training log, where the cost model reads it.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .engine_memory import EngineMemory, SampleScratch, StateMemory, init_index_table, load
from .fixed_point import FRAC_BITS
from .node_trainer import TrainConfig, build_histogram, find_best_split, node_leaf
from .quantizer import QuantizedMatrix
from .splitter import TreeModel, apply_tree_update, partition, replay_scores

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
    split_sizes: list          # sample count of every split node, each charged a partition pass


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


def _mix64(z: np.ndarray, shifted: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array, which it returns;
    shifted, when given, is a uint64 array of z's shape that it writes over.

    Array arithmetic on uint64 wraps mod 2**64 without a mask.
    """
    shifted = np.empty_like(z) if shifted is None else shifted
    z += np.uint64(_GOLDEN)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def subsample_indices(seed: int, tree_index: int, n: int, rate: float,
                      scratch: SampleScratch | None = None) -> np.ndarray:
    """Bernoulli row sample from a stateless counter-based generator.

    Membership of sample i depends only on (seed, tree_index, i), so the
    draw is identical under any sharding or engine count.  Output ascending.
    scratch, when given, is a state memory's: the hash writes over its x and
    ex, viewed as uint64, and its mask.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    if rate == 1.0:
        return np.arange(n, dtype=np.int64)
    if scratch is None:
        scratch = SampleScratch.empty(n)
    # one-element arrays: numpy warns when a uint64 scalar op wraps, not an array op
    words = np.array([seed & _MASK64, tree_index & _MASK64], dtype=np.uint64)
    stream = _mix64(_mix64(words[:1]) ^ words[1:])
    u = scratch.x.view(np.uint64)
    np.bitwise_xor(np.arange(n, dtype=np.uint64), stream, out=u)
    _mix64(u, scratch.ex.view(np.uint64))
    np.less(u, np.uint64(int(rate * 2.0 ** 64)), out=scratch.mask)
    return np.flatnonzero(scratch.mask)


def _log_loss(p, state: StateMemory) -> float:
    """Mean cross-entropy of probabilities p, clipped away from 0 and 1, in
    the state memory's scratch: -mean(y * log(p) + (1 - y) * log1p(-p)),
    each product and the sum over the same values in the same order as
    with fresh arrays.  It writes over the scratch's x and ex, so p must be
    neither: the p that refresh() returns is the scratch's p."""
    clipped, logs = state.scratch.x, state.scratch.ex
    y, not_y = state.targets
    np.clip(p, 1e-15, 1.0 - 1e-15, out=clipped)
    np.log(clipped, out=logs)
    np.multiply(y, logs, out=logs)
    np.negative(clipped, out=clipped)
    np.log1p(clipped, out=clipped)
    np.multiply(not_y, clipped, out=clipped)
    np.add(logs, clipped, out=logs)
    return float(-np.mean(logs))


def _children(memory: EngineMemory, parent_id: int, parent_hist: np.ndarray,
              child_ranges: tuple) -> list:
    """(node id, range, histogram) of both children of one split node.

    Only the child with fewer samples, the shorter range, is built from the
    index table; the other is the parent's histogram minus it, exact because
    bins hold integer sums.  Nothing reads the parent's histogram once its
    children exist, so the subtraction overwrites it with the sibling's.
    """
    ids = TreeModel.children(parent_id)
    (s0, e0), (s1, e1) = child_ranges
    small = 0 if e0 - s0 <= e1 - s1 else 1
    built = build_histogram(memory, child_ranges[small])
    sibling = np.subtract(parent_hist, built, out=parent_hist)
    hists = (built, sibling) if small == 0 else (sibling, built)
    return list(zip(ids, child_ranges, hists))


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
    nodes = [(0, root_range, build_histogram(memory, root_range))]
    for d in range(config.max_depth):
        trained_sizes = []
        split_sizes = []
        # (node id, histogram, child ranges) of nodes whose children train
        parents = deque()
        for node_id, (start, end), hist in nodes:
            node = find_best_split(hist, end - start, config, memory.scan_buffers)
            tree.put(d, node_id, node)
            trained_sizes.append(end - start)
            if node.is_leaf:
                continue
            split_sizes.append(end - start)
            if d + 1 < config.max_depth:
                mid = partition(memory, (start, end), node)
                parents.append((node_id, hist, ((start, mid), (mid, end))))
                continue
            # children at the depth limit are leaves weighed from the left sums
            # the scan already holds (never empty: see node_trainer); nothing
            # reads their ranges, so this node's range is not partitioned
            for child, totals in zip(tree.children(node_id), node.child_totals):
                tree.put(d + 1, child, node_leaf(totals, config.lam, config.frac_bits))
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
        active = subsample_indices(config.seed, t, matrix.n_samples, config.subsample,
                                   memory.state.scratch)
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
            train_loss=_log_loss(p, memory.state),
        ))
    return model, log


def predict_raw(model: Model, matrix: QuantizedMatrix, eta: float = 1.0,
                frac_bits: int = FRAC_BITS) -> np.ndarray:
    """Replay the model over a quantized matrix; raw fixed-point margins."""
    return replay_scores(model.trees, model.base_score, matrix.columns, eta, frac_bits)
