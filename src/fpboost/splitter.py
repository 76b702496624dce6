"""Sample routing: index-table partitioning and per-sample score updates.

Partitioning rewrites a node's own range of the index table in place and is
stable: both sides keep the relative order they had in the parent range, so
the table stays bit-reproducible run to run.
"""

from dataclasses import dataclass, field

import numpy as np

from .engine_memory import EngineMemory
from .fixed_point import FRAC_BITS, grad_hess, margin_probability, quantize, scale
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


def partition(memory: EngineMemory, node_range: tuple, decision: SplitDecision) -> int:
    """Stably split one node's range of the index table in place; returns mid.

    Left-branch indices land at start..mid, right-branch at mid..end, both in
    parent order, so the children's ranges are (start, mid) and (mid, end).
    """
    if decision.is_leaf:
        raise ValueError("cannot partition on a leaf decision")
    start, end = node_range
    ids = memory.table[start:end]
    bins = memory.matrix.columns[decision.feature][ids]
    go_left = bins <= decision.threshold_bin
    if decision.missing_left:
        go_left |= bins == MISSING_BIN
    left, right = ids[go_left], ids[~go_left]
    ids[:left.size] = left
    ids[left.size:] = right
    return start + left.size


def route_weights(tree: TreeModel, columns: np.ndarray,
                  leaf_values: dict | None = None) -> np.ndarray:
    """Raw leaf value reached by every sample of a column-major bin matrix:
    the leaf weight, or leaf_values[depth, node_id] when given."""
    n = columns.shape[1]
    out = np.zeros(n, dtype=np.int64)
    stack = [(0, 0, np.arange(n, dtype=np.int64))]
    while stack:
        depth, node_id, idx = stack.pop()
        node = tree.node(depth, node_id)
        if node.is_leaf:
            out[idx] = node.leaf_weight_raw if leaf_values is None else leaf_values[depth, node_id]
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
    """Raw score increment per sample: quantize(eta * leaf weight).

    quantize is elementwise, so it runs once per leaf, not once per sample.
    """
    leaves = {(d, k): node.leaf_weight_raw for d, level in enumerate(tree.levels)
              for k, node in level.items() if node.is_leaf}
    w = np.fromiter(leaves.values(), dtype=np.int64, count=len(leaves))
    increments = quantize(eta * (w.astype(np.float64) / scale(frac_bits)), frac_bits)
    return route_weights(tree, columns, dict(zip(leaves, increments.tolist())))


def add_increment(scores: np.ndarray, increment: np.ndarray, hint: str = "") -> None:
    """scores += increment in place, refused with ValueError if a sum could
    leave int64, where it would wrap silently.  hint follows the message."""
    if scores.size and _max_abs(scores) + _max_abs(increment) >= 1 << 63:
        raise ValueError("raw margin scores overflow int64" + hint)
    scores += increment


def _max_abs(raw: np.ndarray) -> int:
    return max(-int(raw.min()), int(raw.max()))


def replay_scores(trees, base_score: float, columns: np.ndarray, eta: float,
                  frac_bits: int = FRAC_BITS, after_tree=None) -> np.ndarray:
    """Raw margins of a tree sequence, accumulated in fixed point as in training.

    One score array is updated in place; after_tree, when given, sees it
    after every tree.  An error in a tree's increment names the tree.
    """
    scores = np.full(columns.shape[1], quantize(base_score, frac_bits), dtype=np.int64)
    for i, tree in enumerate(trees):
        try:
            add_increment(scores, tree_increment(tree, columns, eta, frac_bits))
        except ValueError as err:
            raise ValueError(f"tree {i}: {err}") from None
        if after_tree is not None:
            after_tree(scores)
    return scores


def apply_tree_update(memory: EngineMemory, tree: TreeModel, eta: float = 1.0) -> np.ndarray:
    """Add the finished tree's (shrunken) leaf weights to every sample's score
    and refresh gradients and hessians from the new margins.

    Returns the probabilities of the new margins, which the training loss
    reads too, so they are computed once per tree.
    """
    state = memory.state
    increment = tree_increment(tree, memory.matrix.columns, eta, state.frac_bits)
    add_increment(state.scores_raw, increment,
                  ": lower frac_bits, or raise lambda to bound the leaf weights")
    p = margin_probability(state.scores_raw, state.frac_bits)
    state.grads_raw[:], state.hess_raw[:] = grad_hess(p, state.labels, state.frac_bits)
    return p
