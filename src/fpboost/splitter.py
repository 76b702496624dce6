"""Sample routing: index-table partitioning and per-sample score updates.

Partitioning rewrites a node's own range of the index table in place and is
stable: both sides keep the relative order they had in the parent range, so
the table stays bit-reproducible run to run.

Routing (route_weights) sends every sample of a bin matrix down a finished
tree with the same goes_left rule, one level at a time, and each sample
carries only a small code of the node it has reached, one byte while a
level has at most 256 nodes.  A narrow level compares each split's whole
column and masks it to the split's code; a wide one, of one-byte codes and
more than n / ROWS_PER_SPLIT splits, gathers each sample's bin of its
node's feature and reads its go-left bit from one table of the level's
splits.  Below a level of splits only, the next code is 2 * code + go_left,
computed in place; a level that holds a leaf looks its next codes up in a
table.

Training (apply_tree_update) and replay (replay_scores, behind predict and
eval) add each tree to the scores with one step, add_tree: unchecked while a
bound on the margins is below 2**63, refused, never wrapped, where a sum
could leave int64.
"""

from dataclasses import dataclass, field

import numpy as np

from .engine_memory import N_BINS, EngineMemory
from .fixed_point import FRAC_BITS, INT64_LIMIT, quantize, scale
from .node_trainer import TreeNode, goes_left
from .quantizer import MISSING_BIN

# The masks cost 4-6 ufunc calls over n per split, the gather the same
# eight over n however many splits.  scripts/route_costs.py, two runs at
# 10,048 rows on a 2-core AVX-512 host: masks 19-21 / 29-33 / 48-53 /
# 60-70 us for 4 / 8 / 12 / 16 splits, gather 38-49 us from 4 to 32, so
# the gather wins from 12-16 splits, at 628-837 rows a split.  At 100,000
# rows it wins only from 16-24 splits (4,166-6,250 rows a split), so 700
# keeps large inputs on the masks up to 142 splits.
ROWS_PER_SPLIT = 700

_BINS_UP_TO = np.arange(N_BINS) < np.arange(N_BINS + 1)[:, None]   # row k: bin < k
_BINS_UP_TO.flags.writeable = False


@dataclass
class TreeModel:
    """One decision tree as per-depth node tables keyed by heap-style ids.

    The root is node 0 at depth 0; the children of node k sit at ids 2k and
    2k+1 one level down.  This class holds that rule: the trainer, the router
    and the model loader get child ids from children(), and leaves() walks
    every leaf.
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

    @staticmethod
    def children(node_id: int) -> tuple:
        """The ids of node node_id's left and right child, one level down."""
        return 2 * node_id, 2 * node_id + 1

    def leaves(self):
        """((depth, node_id), node) of every leaf, level by level."""
        return (((depth, node_id), node) for depth, level in enumerate(self.levels)
                for node_id, node in level.items() if node.is_leaf)

    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())


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

    The tree is walked one level at a time over whole columns.  Each sample
    carries a code: the index of its node among the level's reachable nodes,
    a leaf reached higher up counting as a node that holds its samples.  The
    code is the narrowest unsigned type that numbers the level's nodes, one
    byte while there are at most 256.  Each sample's go-left bit comes from
    goes_left's rule in one of two ways (_next_codes): every split of a
    narrow level compares its whole column, masked below the root to the
    samples of its code, and the masks are OR'd; a wide level gathers each
    sample's bin and looks its bit up in one go-left table.  The next codes are
    first[code] + go_left: a split's children, from TreeModel.children, get
    two codes, right then left, and a leaf keeps one, where go_left is 0.
    On a level of splits only first[code] is 2 * code, so the codes are
    doubled in place and no table is read.
    At the first level without a split, one take from the leaf values in
    code order gives the result.  Each reachable split's children are looked
    up, so a missing one raises ValueError even when there are no samples;
    unreachable nodes are ignored.
    """
    reached = [((0, 0), tree.node(0, 0))]   # (key, node) of the level's codes
    code = None                             # at the root every sample has code 0
    while not all(node.is_leaf for _, node in reached):
        below, first, splits = [], [], []
        for c, (key, node) in enumerate(reached):
            first.append(len(below))
            if node.is_leaf:
                below.append((key, node))
                continue
            splits.append((c, node))
            depth, node_id = key
            for kid in reversed(tree.children(node_id)):
                below.append(((depth + 1, kid), tree.node(depth + 1, kid)))
        code = _next_codes(code, first, len(below), splits, columns)
        reached = below
    values = np.array([leaf_values[key] for key, _ in reached], dtype=np.int64)
    return np.full(columns.shape[1], values[0]) if code is None else values.take(code)


def _next_codes(code, first: list, n_codes: int, splits: list,
                columns: np.ndarray) -> np.ndarray:
    """The next level's codes, first[code] + go_left, in the narrowest
    unsigned type that holds n_codes codes.

    At the root (code None) go_left is its one goes_left and is the codes.
    Below it go_left comes one of two ways that give the same bits, picked
    by the level's width.  A wide level, with codes that fit one byte and
    more than n / ROWS_PER_SPLIT splits, gathers it in a fixed number of
    passes (_gathered_go_left); every other level ORs one mask per split
    (_masked_go_left).
    When every code's node is a split, first[c] is 2c, and the codes become
    2 * code + go_left in place, first widened by astype only when n_codes
    outgrows their type; otherwise first[code] is one take from the table.
    The masks, indices and tables die on return, so none outlives its level.
    """
    if code is None:                            # the root: one split, every sample
        (_, root), = splits
        return goes_left(root, columns[root.feature]).view(np.uint8)
    if code.dtype == np.uint8 and len(splits) * ROWS_PER_SPLIT > code.size:
        go_left = _gathered_go_left(code, len(first), splits, columns)
    else:
        go_left = _masked_go_left(code, splits, columns)
    go_left = go_left.view(np.uint8)
    dtype = np.min_scalar_type(n_codes - 1)
    if len(splits) < len(first):                # a leaf holds a code: look it up
        code = np.array(first, dtype=dtype).take(code)
    else:                                       # all splits: first[c] == 2c
        code = code.astype(dtype, copy=False)
        code *= 2
    code += go_left
    return code


def _masked_go_left(code: np.ndarray, splits: list, columns: np.ndarray) -> np.ndarray:
    """The OR of each (c, node) in splits' goes_left over its whole column,
    masked to the samples of code c: 4-6 ufunc passes over n per split."""
    go_left = None
    for c, node in splits:
        hit = goes_left(node, columns[node.feature])
        hit &= code == c
        if go_left is None:
            go_left = hit
        else:
            go_left |= hit
    return go_left


def _gathered_go_left(code: np.ndarray, n_level: int, splits: list,
                      columns: np.ndarray) -> np.ndarray:
    """Every sample's go-left bit on a level of n_level one-byte codes, in
    the same eight numpy calls over n whatever the number of splits.

    Sample i reads its bin at feature[code[i]]·n + i of columns.ravel(), a
    view of a QuantizedMatrix's C-contiguous columns, and then its bit at
    row code[i], column bin of _go_left_table, code·N_BINS + bin of its
    ravel; a leaf's code reads feature 0 and an all-False row.  The peak is
    the intp index plus take's intp copy of the codes, 16 bytes a sample,
    as in route_weights' final take: the two-byte keys and the table are
    made only once the index is freed.
    """
    n = code.size
    offset = [0] * n_level
    for c, node in splits:
        offset[c] = node.feature * n
    index = np.array(offset, dtype=np.intp).take(code)
    index += np.arange(n)
    bins = columns.ravel().take(index)
    del index
    key = code.astype(np.uint16)                # code·N_BINS + bin <= 65,535
    key *= N_BINS
    key += bins
    return _go_left_table(n_level, splits).ravel().take(key)


def _go_left_table(n_level: int, splits: list) -> np.ndarray:
    """A (n_level, N_BINS) bool table whose row c is goes_left(node, every bin)
    for each (c, node) in splits, and all False for the other codes.

    Row t + 1 of _BINS_UP_TO holds bin <= t, and a take clipped to its rows
    gives that for every int t: row 0 (no bin) for leaves and t < 0, the
    last row (every bin) for t >= MISSING_BIN.  The missing bin then goes
    left too where missing_left.  A broadcast comparison would take the
    same bits through ufunc buffers of over 100 KB.
    """
    row = [0] * n_level
    missing_left = [False] * n_level
    for c, node in splits:
        row[c] = node.threshold_bin + 1
        missing_left[c] = node.missing_left
    table = _BINS_UP_TO.take(row, axis=0, mode="clip")
    table[:, MISSING_BIN] |= missing_left
    return table


def leaf_increments(tree: TreeModel, eta: float, frac_bits: int = FRAC_BITS) -> dict:
    """quantize(eta * leaf weight) of every leaf, keyed by (depth, node_id).

    Python floats all the way, as in leaf_weight: the weight is scaled by
    the same float operations quantize makes, and round() rounds half to
    even as its rint does.  If any increment is NaN or out of range, all of
    them go to quantize for its ValueError.
    """
    s = scale(frac_bits)
    leaves = {key: eta * (float(node.leaf_weight_raw) / s) for key, node in tree.leaves()}
    raws = [value * s for value in leaves.values()]
    if not all(-INT64_LIMIT <= raw < INT64_LIMIT for raw in raws):   # False for NaN
        quantize(list(leaves.values()), frac_bits)                  # raises its ValueError
    return dict(zip(leaves, map(round, raws)))


def add_tree(scores: np.ndarray, bound: int, tree: TreeModel, columns: np.ndarray,
             eta: float, frac_bits: int = FRAC_BITS, hint: str = "") -> int:
    """scores += the tree's raw increment, quantize(eta * leaf weight), in
    place; returns bound, at least max|scores|, plus the largest |leaf
    increment|, which bounds every sample's increment.  While that is below
    2**63 no sum can wrap and the add is unchecked; past it the add is
    refused with ValueError, hint after the message, whenever max|score|
    plus max|increment| reaches 2**63, where a sum could leave int64.
    """
    leaves = leaf_increments(tree, eta, frac_bits)
    bound += max(map(abs, leaves.values()))
    increment = route_weights(tree, columns, leaves)
    if bound >= 1 << 63 and _max_abs(scores) + _max_abs(increment) >= 1 << 63:
        raise ValueError("raw margin scores overflow int64" + hint)
    scores += increment
    return bound


def _max_abs(raw: np.ndarray) -> int:
    return max(-int(raw.min()), int(raw.max())) if raw.size else 0


def replay_scores(trees, base_score: float, columns: np.ndarray, eta: float,
                  frac_bits: int = FRAC_BITS, after_tree=None) -> np.ndarray:
    """Raw margins of a tree sequence, accumulated in fixed point as in training.

    One score array is updated in place; after_tree, when given, sees a
    read-only view of it after every tree.  add_tree's bound starts at
    |base| and is read from the trees' leaf tables alone, so the margins are
    checked only from the tree where it reaches 2**63.  An error in a tree's
    increment names the tree.
    """
    base = quantize(base_score, frac_bits)
    scores = np.full(columns.shape[1], base, dtype=np.int64)
    view = scores.view()
    view.flags.writeable = False
    bound = abs(int(base))
    for i, tree in enumerate(trees):
        try:
            bound = add_tree(scores, bound, tree, columns, eta, frac_bits)
        except ValueError as err:
            raise ValueError(f"tree {i}: {err}") from None
        if after_tree is not None:
            after_tree(view)
    return scores


def apply_tree_update(memory: EngineMemory, tree: TreeModel, eta: float = 1.0) -> np.ndarray:
    """Add the finished tree's (shrunken) leaf weights to every sample's score
    and refresh gradients and hessians from the new margins.

    Returns the probabilities of the new margins, which the training loss
    reads too, so they are computed once per tree; they live in the state
    memory's scratch (see StateMemory.refresh).
    """
    state = memory.state
    add_tree(state.scores_raw, _max_abs(state.scores_raw), tree, memory.matrix.columns, eta,
             state.frac_bits, ": lower frac_bits, or raise lambda to bound the leaf weights")
    return state.refresh()
