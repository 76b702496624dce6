"""Sample routing: index-table partitioning and per-sample score updates.

Partitioning is stable: both sides keep the relative order they had in the
parent range, so the banks stay bit-reproducible run to run.
"""

from dataclasses import dataclass, field

import numpy as np

from .engine_memory import EngineMemory
from .fixed_point import FRAC_BITS, logistic_grad_hess, quantize, scale
from .node_trainer import MISSING_BIN, SplitDecision


@dataclass
class TreeNode:
    is_leaf: bool
    feature: int | None = None
    threshold_bin: int | None = None
    missing_left: bool | None = None
    leaf_weight_raw: int | None = None


@dataclass
class TreeModel:
    """One decision tree as per-depth node tables keyed by heap-style ids.

    The root is node 0 at depth 0; the children of node k sit at ids 2k and
    2k+1 one level down.
    """

    levels: list = field(default_factory=lambda: [{}])

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def node(self, depth: int, node_id: int) -> TreeNode:
        if depth >= len(self.levels) or node_id not in self.levels[depth]:
            raise ValueError(f"malformed tree: missing node {node_id} at depth {depth}")
        return self.levels[depth][node_id]

    def put(self, depth: int, node_id: int, node: TreeNode) -> None:
        while len(self.levels) <= depth:
            self.levels.append({})
        self.levels[depth][node_id] = node

    def n_leaves(self) -> int:
        return sum(1 for level in self.levels for n in level.values() if n.is_leaf)


def partition(memory: EngineMemory, node_range: tuple, decision: SplitDecision,
              depth: int | None = None, node_id: int | None = None) -> int:
    """Stably split one node's index range into the inactive bank.

    Left-branch indices land at start..mid, right-branch at mid..end, both in
    parent order.  When (depth, node_id) are given the child ranges are
    recorded in the table; the caller toggles the bank once the whole depth
    level is done.
    """
    if decision.is_leaf:
        raise ValueError("cannot partition on a leaf decision")
    start, end = node_range
    src = memory.table.active()[start:end]
    bins = memory.matrix.columns[decision.feature][src]
    go_left = bins <= decision.threshold_bin
    if decision.missing_left:
        go_left |= bins == MISSING_BIN
    left = src[go_left]
    mid = start + left.size
    dst = memory.table.inactive()
    dst[start:mid] = left
    dst[mid:end] = src[~go_left]
    if depth is not None and node_id is not None:
        memory.table.record_range(depth + 1, 2 * node_id, start, mid)
        memory.table.record_range(depth + 1, 2 * node_id + 1, mid, end)
    return mid


def route_weights(tree: TreeModel, columns: np.ndarray) -> np.ndarray:
    """Leaf weight (raw) reached by every sample of a column-major bin matrix."""
    n = columns.shape[1]
    out = np.zeros(n, dtype=np.int64)
    stack = [(0, 0, np.arange(n, dtype=np.int64))]
    while stack:
        depth, node_id, idx = stack.pop()
        node = tree.node(depth, node_id)
        if node.is_leaf:
            out[idx] = node.leaf_weight_raw
            continue
        bins = columns[node.feature][idx]
        go_left = bins <= node.threshold_bin
        if node.missing_left:
            go_left |= bins == MISSING_BIN
        stack.append((depth + 1, 2 * node_id, idx[go_left]))
        stack.append((depth + 1, 2 * node_id + 1, idx[~go_left]))
    return out


def tree_increment(tree: TreeModel, columns: np.ndarray, eta: float,
                   frac_bits: int = FRAC_BITS) -> np.ndarray:
    """Raw score increment per sample: quantize(eta * leaf weight)."""
    w = route_weights(tree, columns)
    return quantize(eta * (w.astype(np.float64) / scale(frac_bits)), frac_bits)


def replay_scores(trees, base_score: float, columns: np.ndarray, eta: float,
                  frac_bits: int = FRAC_BITS, after_tree=None) -> np.ndarray:
    """Raw margins of a tree sequence, accumulated in fixed point as in training.

    One score array is updated in place; after_tree, when given, sees it
    after every tree.
    """
    scores = np.full(columns.shape[1], quantize(base_score, frac_bits), dtype=np.int64)
    for tree in trees:
        scores += tree_increment(tree, columns, eta, frac_bits)
        if after_tree is not None:
            after_tree(scores)
    return scores


def apply_tree_update(memory: EngineMemory, tree: TreeModel, eta: float = 1.0) -> None:
    """Add the finished tree's (shrunken) leaf weights to every sample's score
    and refresh gradients and hessians from the new margins."""
    state = memory.state
    state.scores_raw += tree_increment(tree, memory.matrix.columns, eta, state.frac_bits)
    grads, hess = logistic_grad_hess(state.scores_raw, state.labels, state.frac_bits)
    state.grads_raw[:] = grads
    state.hess_raw[:] = hess
