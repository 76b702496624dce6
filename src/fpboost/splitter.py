"""Sample routing: index-table partitioning and per-sample score updates.

Partitioning rewrites a node's own range of the index table in place and is
stable: both sides keep the relative order they had in the parent range, so
the table stays bit-reproducible run to run.

Routing (route_weights) sends every sample of a bin matrix down a finished
tree with the same goes_left rule.  The root compares its whole column and
holds no id array; a split whose children are both leaves picks each of its
samples' values from its leaf pair; any other split compresses its samples'
ids into one array per child.
"""

from dataclasses import dataclass, field

import numpy as np

from .engine_memory import EngineMemory
from .fixed_point import FRAC_BITS, grad_hess, margin_probability, quantize, scale
from .node_trainer import TreeNode, goes_left


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


def partition(memory: EngineMemory, node_range: tuple, node: TreeNode) -> int:
    """Stably split one node's range of the index table in place; returns mid.

    Left-branch indices land at start..mid, right-branch at mid..end, both in
    parent order, so the children's ranges are (start, mid) and (mid, end).
    """
    if node.is_leaf:
        raise ValueError("cannot partition on a leaf node")
    start, end = node_range
    ids = memory.table[start:end]
    go_left = goes_left(node, memory.matrix.columns[node.feature][ids])
    left, right = ids[go_left], ids[~go_left]
    ids[:left.size] = left
    ids[left.size:] = right
    return start + left.size


def route_weights(tree: TreeModel, columns: np.ndarray, leaf_values: dict) -> np.ndarray:
    """The value leaf_values[depth, node_id] of the leaf that every sample of
    a column-major bin matrix reaches.

    The tree is walked depth first, each node with the ids of its samples.
    The root holds every sample and carries no id array: it compares its
    whole column and takes its children's ids with flatnonzero.  A split
    whose children are both leaves picks its samples' values from the pair
    (right value, left value) by go_left: at the root with one np.take
    straight into the result, below it with np.where, which is the faster of
    the two on the tens to hundreds of samples a deep node holds.  Any other
    split compresses its ids into one array per child.  Every sample
    reaches exactly one leaf, so each entry of the result is written once.
    """
    out = np.empty(columns.shape[1], dtype=np.int64)
    stack = [(0, 0, None)]                  # ids None: every sample, the root
    while stack:
        depth, node_id, ids = stack.pop()
        node = tree.node(depth, node_id)
        at = slice(None) if ids is None else ids
        if node.is_leaf:
            out[at] = leaf_values[depth, node_id]
            continue
        kids = (depth + 1, 2 * node_id), (depth + 1, 2 * node_id + 1)
        left, right = (tree.node(*kid) for kid in kids)
        go_left = goes_left(node, columns[node.feature][at])
        if left.is_leaf and right.is_leaf:
            if ids is None:
                pair = np.array([leaf_values[kids[1]], leaf_values[kids[0]]], dtype=np.int64)
                # mode="clip" lets take write into out unbuffered
                np.take(pair, go_left.view(np.uint8), out=out, mode="clip")
            else:
                out[ids] = np.where(go_left, leaf_values[kids[0]], leaf_values[kids[1]])
            continue
        if ids is None:
            sides = np.flatnonzero(go_left), np.flatnonzero(~go_left)
        else:
            sides = ids[go_left], ids[~go_left]
        stack.extend(kid + (side,) for kid, side in zip(kids, sides))
    return out


def leaf_increments(tree: TreeModel, eta: float, frac_bits: int = FRAC_BITS) -> dict:
    """quantize(eta * leaf weight) of every leaf, keyed by (depth, node_id)."""
    leaves = {(d, k): node.leaf_weight_raw for d, level in enumerate(tree.levels)
              for k, node in level.items() if node.is_leaf}
    w = np.fromiter(leaves.values(), dtype=np.int64, count=len(leaves))
    increments = quantize(eta * (w.astype(np.float64) / scale(frac_bits)), frac_bits)
    return dict(zip(leaves, increments.tolist()))


def tree_increment(tree: TreeModel, columns: np.ndarray, eta: float,
                   frac_bits: int = FRAC_BITS) -> np.ndarray:
    """Raw score increment per sample: quantize(eta * leaf weight).

    quantize is elementwise, so it runs once per leaf, not once per sample.
    """
    return route_weights(tree, columns, leaf_increments(tree, eta, frac_bits))


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

    One score array is updated in place; after_tree, when given, sees a
    read-only view of it after every tree.  No margin can exceed |base| plus
    the sum of each tree's largest |leaf increment|, a bound read from the
    trees' leaf tables alone.  While it stays below 2**63 no sum can wrap,
    and the trees are added unchecked; from the tree where it does not,
    add_increment checks the margins themselves.  An error in a tree's
    increment names the tree.
    """
    base = quantize(base_score, frac_bits)
    scores = np.full(columns.shape[1], base, dtype=np.int64)
    view = scores.view()
    view.flags.writeable = False
    bound = abs(int(base))
    for i, tree in enumerate(trees):
        try:
            leaves = leaf_increments(tree, eta, frac_bits)
            bound += max(map(abs, leaves.values()))
            increment = route_weights(tree, columns, leaves)
            if bound < 1 << 63:
                scores += increment
            else:
                add_increment(scores, increment)
        except ValueError as err:
            raise ValueError(f"tree {i}: {err}") from None
        if after_tree is not None:
            after_tree(view)
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
