import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpboost.engine_memory import EngineMemory, StateMemory, init_index_table, load
from fpboost.fixed_point import FRAC_BITS, grad_hess, margin_probability, quantize, sigmoid
from fpboost.node_trainer import TreeNode, goes_left
from fpboost import splitter
from fpboost.quantizer import BinMap, QuantizedMatrix
from fpboost.splitter import (
    TreeModel,
    apply_tree_update,
    leaf_increments,
    partition,
    replay_scores,
    route_weights,
)
from conftest import random_quantized
from reference import mp_grad_hess, nested_tree, ref_increment, ref_route

SCALE = 1 << FRAC_BITS


def _engine_from_bins(bins_by_sample):
    """One-feature engine whose column is given per sample id."""
    columns = np.asarray(bins_by_sample, dtype=np.uint8).reshape(1, -1)
    n = columns.shape[1]
    matrix = QuantizedMatrix(columns=columns, bin_map=BinMap([np.arange(1, dtype=np.float64)]))
    state = StateMemory(
        scores_raw=np.zeros(n, dtype=np.int64),
        grads_raw=np.zeros(n, dtype=np.int64),
        hess_raw=np.ones(n, dtype=np.int64),
        labels=np.zeros(n, dtype=np.int8),
    )
    return EngineMemory(matrix, state)


class TestPartition:
    def test_example_with_missing_left(self):
        # indices [5,2,7,9]; bins 5->1, 2->3, 7->1, 9->0; threshold 1
        bins = np.zeros(10, dtype=np.uint8)
        bins[5], bins[2], bins[7], bins[9] = 1, 3, 1, 0
        mem = _engine_from_bins(bins)
        mem.table = init_index_table([5, 2, 7, 9])
        decision = TreeNode(is_leaf=False, feature=0, threshold_bin=1,
                            missing_left=True, gain=1.0)
        mid = partition(mem, (0, 4), decision)
        assert mid == 3
        assert list(mem.table) == [5, 7, 9, 2]

    def test_threshold_254_sends_all_non_missing_left(self):
        mem = _engine_from_bins([10, 200, 254, 0])
        mem.table = init_index_table([0, 1, 2, 3])
        decision = TreeNode(is_leaf=False, feature=0, threshold_bin=254,
                            missing_left=False, gain=1.0)
        assert partition(mem, (0, 4), decision) == 4

    def test_all_missing_right(self):
        mem = _engine_from_bins([255, 255, 255])
        mem.table = init_index_table([0, 1, 2])
        decision = TreeNode(is_leaf=False, feature=0, threshold_bin=4,
                            missing_left=False, gain=1.0)
        assert partition(mem, (0, 3), decision) == 0

    def test_leaf_decision_rejected(self):
        mem = _engine_from_bins([0, 1])
        mem.table = init_index_table([0, 1])
        with pytest.raises(ValueError):
            partition(mem, (0, 2), TreeNode(is_leaf=True, leaf_weight_raw=0))

    def test_exactness_stability_predicate(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 200))
            matrix, labels = random_quantized(rng, n, 3, missing_frac=0.2)
            mem = load(matrix, labels, 0.0)
            order = rng.permutation(n)
            mem.table = init_index_table(order, n)
            f = int(rng.integers(0, 3))
            t = int(rng.integers(0, 255))
            ml = bool(rng.integers(0, 2))
            decision = TreeNode(is_leaf=False, feature=f, threshold_bin=t,
                                missing_left=ml, gain=1.0)
            mid = partition(mem, (0, n), decision)
            out = mem.table
            bins = matrix.columns[f]
            pred = lambda i: (ml if bins[i] == 255 else bins[i] <= t)
            expected_left = [i for i in order if pred(i)]
            expected_right = [i for i in order if not pred(i)]
            assert list(out[:mid]) == expected_left
            assert list(out[mid:n]) == expected_right
            assert sorted(out[:n]) == sorted(order)


def _leaf(weight):
    """A single-leaf tree."""
    tree = TreeModel()
    tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=weight))
    return tree


def _stump(feature=0, threshold=5, missing_left=False, wl=100, wr=-200):
    tree = TreeModel()
    tree.put(0, 0, TreeNode(is_leaf=False, feature=feature, threshold_bin=threshold,
                            missing_left=missing_left))
    tree.put(1, 0, TreeNode(is_leaf=True, leaf_weight_raw=wl))
    tree.put(1, 1, TreeNode(is_leaf=True, leaf_weight_raw=wr))
    return tree


def _leaf_weights(tree):
    """route_weights' leaf values that route each sample to its leaf weight."""
    return {(d, k): node.leaf_weight_raw for d, level in enumerate(tree.levels)
            for k, node in level.items() if node.is_leaf}


def _route_one(tree, sample_bins):
    """route_weights on a one-sample column matrix."""
    columns = np.asarray(sample_bins, dtype=np.uint8).reshape(-1, 1)
    return int(route_weights(tree, columns, _leaf_weights(tree))[0])


def _complete_tree(rng, depth, n_features, full_depth=None, edges=False):
    """A tree whose every level above full_depth (default depth) is all
    splits; from full_depth down to depth each node is a split or a leaf at
    random, and level depth is all leaves.  Level d splits feature
    d % n_features at random thresholds (with edges, 0, 254 or random, one
    time in three each) and either missing side; the leaf weights are
    distinct."""
    full_depth = depth if full_depth is None else full_depth
    edge_thresholds = (0, 254) if edges else ()
    weights = ((i << 50) - (1 << 58) for i in itertools.count())
    tree = TreeModel()
    ids = [0]
    for d in range(depth):
        below = []
        for k in ids:
            if d >= full_depth and rng.integers(0, 2):
                tree.put(d, k, TreeNode(is_leaf=True, leaf_weight_raw=next(weights)))
                continue
            threshold = int(rng.integers(64, 192))
            if edge_thresholds:
                threshold = int(rng.choice([threshold, *edge_thresholds]))
            tree.put(d, k, TreeNode(is_leaf=False, feature=d % n_features,
                                    threshold_bin=threshold,
                                    missing_left=bool(rng.integers(0, 2))))
            below += tree.children(k)
        ids = below
    for k in ids:
        tree.put(depth, k, TreeNode(is_leaf=True, leaf_weight_raw=next(weights)))
    return tree


def _edge_columns(rng, n_features, n):
    """Random bins, a quarter of them 0, 1, 253, 254 or missing (255): the
    bins on both sides of thresholds 0 and 254 and the missing bin."""
    columns = rng.integers(0, 256, size=(n_features, n), dtype=np.uint8)
    edge = rng.random(columns.shape) < 0.25
    edge_bins = np.array([0, 1, 253, 254, 255], dtype=np.uint8)
    columns[edge] = rng.choice(edge_bins, np.count_nonzero(edge))
    return columns


@pytest.fixture
def route_log(monkeypatch):
    """(way, code width in bytes, splits) of every level that route_weights
    routes below the root, way "masks" or "gather"."""
    log = []
    masked, gathered = splitter._masked_go_left, splitter._gathered_go_left

    def masks(code, splits, columns):
        log.append(("masks", code.itemsize, len(splits)))
        return masked(code, splits, columns)

    def gather(code, n_level, splits, columns):
        log.append(("gather", code.itemsize, len(splits)))
        return gathered(code, n_level, splits, columns)

    monkeypatch.setattr(splitter, "_masked_go_left", masks)
    monkeypatch.setattr(splitter, "_gathered_go_left", gather)
    return log


_BINS = st.sampled_from([0, 254, 255]) | st.integers(0, 255)
_WEIGHTS = st.integers(-(1 << 63), (1 << 63) - 1)


@st.composite
def _routing_case(draw):
    """A random tree of depth 0-7 over 1-4 features, and 0-200 samples of bins.

    Every node above a drawn full depth, 0-2, is a split, so those levels
    are all splits; from it down each node is a leaf one time in four, so
    leaves appear at every depth and splits have two, one or no leaf
    children.  A split's feature is any of them, its threshold 0 or 254
    half of the time and else any bin, and its missing side either.  Those
    choices come a level at a time from a generator seeded by one draw, and
    each level's leaf weights from one list draw: a tree costs a few draws,
    not one per node field."""
    n_features, n = draw(st.integers(1, 4)), draw(st.integers(0, 200))
    max_depth = draw(st.integers(1, 7))
    full_depth = draw(st.integers(0, min(max_depth, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    tree, ids = TreeModel(), [0]
    for depth in range(max_depth + 1):
        size = len(ids)
        leaf = (depth == max_depth) | (depth >= full_depth) & (rng.integers(0, 4, size) == 0)
        features = rng.integers(0, n_features, size).tolist()
        thresholds = np.where(rng.integers(0, 2, size) == 1, rng.choice([0, 254], size),
                              rng.integers(0, 255, size)).tolist()
        missing_left = (rng.integers(0, 2, size) == 1).tolist()
        n_leaves = int(np.count_nonzero(leaf))
        weights = iter(draw(st.lists(_WEIGHTS, min_size=n_leaves, max_size=n_leaves)))
        below = []
        for k, node_id in enumerate(ids):
            if leaf[k]:
                tree.put(depth, node_id, TreeNode(is_leaf=True, leaf_weight_raw=next(weights)))
                continue
            tree.put(depth, node_id, TreeNode(is_leaf=False, feature=features[k],
                                              threshold_bin=thresholds[k],
                                              missing_left=missing_left[k]))
            below += tree.children(node_id)
        ids = below
        if not ids:
            break
    return tree, draw(arrays(np.uint8, (n_features, n), elements=_BINS))


class TestRouting:
    def test_single_leaf(self):
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=42))
        assert _route_one(tree, [7, 9]) == ref_route(nested_tree(tree), [7, 9]) == 42

    def test_stump_boundary(self):
        tree = _stump(feature=1, threshold=5)
        for bins, weight in (([0, 5], 100), ([0, 6], -200)):
            assert _route_one(tree, bins) == ref_route(nested_tree(tree), bins) == weight

    def test_missing_direction(self):
        for missing_left, weight in ((False, -200), (True, 100)):
            tree = _stump(missing_left=missing_left)
            assert _route_one(tree, [255]) == ref_route(nested_tree(tree), [255]) == weight

    def test_malformed_tree(self):
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=False, feature=0, threshold_bin=1, missing_left=True))
        with pytest.raises(ValueError, match="malformed"):
            _route_one(tree, [0])

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("kids", [
        {(1, 0): TreeNode(is_leaf=True, leaf_weight_raw=1)},     # no right child
        {(1, 1): TreeNode(is_leaf=True, leaf_weight_raw=1)},     # no left child
        {(1, 0): TreeNode(is_leaf=True, leaf_weight_raw=1),      # no depth 2
         (1, 1): TreeNode(is_leaf=False, feature=0, threshold_bin=0)},
    ])
    def test_malformed_tree_below_the_root(self, kids, n):
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=False, feature=0, threshold_bin=1, missing_left=True))
        for (depth, node_id), node in kids.items():
            tree.put(depth, node_id, node)
        columns = np.zeros((1, n), dtype=np.uint8)
        with pytest.raises(ValueError, match="malformed"):
            route_weights(tree, columns, _leaf_weights(tree))

    @settings(max_examples=300, deadline=None)
    @given(case=_routing_case())
    def test_route_weights_matches_reference_on_random_trees(self, case):
        tree, columns = case
        got = route_weights(tree, columns, _leaf_weights(tree))
        nested = nested_tree(tree)
        assert got.dtype == np.int64
        assert got.tolist() == [ref_route(nested, columns[:, i]) for i in range(columns.shape[1])]

    def test_complete_depth_9_tree_routes_past_one_byte_codes(self, rng, route_log):
        # level 9 holds 512 leaves, so the last codes need two bytes: the
        # full levels' 2 * code + go_left widens them.  10,048 rows are more
        # than numpy's 8,192-element ufunc buffer.  Level 8's 256 one-byte
        # codes take the gather
        depth, n_features = 9, 9
        tree = _complete_tree(rng, depth, n_features)
        nested = nested_tree(tree)
        for n in (0, 4096, 10_048):
            columns = rng.integers(0, 256, size=(n_features, n), dtype=np.uint8)
            route_log.clear()
            got = route_weights(tree, columns, _leaf_weights(tree))
            assert got.dtype == np.int64
            assert got.tolist() == [ref_route(nested, columns[:, i]) for i in range(n)]
            assert route_log[-1] == ("gather", 1, 256)
        assert np.unique(got).size > 256

    @pytest.mark.parametrize("full_depth, depth", [(2, 5), (8, 11)])
    def test_full_levels_above_leafy_ones_match_reference(self, rng, route_log,
                                                          full_depth, depth):
        # levels above full_depth route by arithmetic, the ones below carry
        # leaves and look their codes up; (8, 11) reaches 256 one-byte codes
        # on the last full level and two-byte ones below it, whose splits,
        # however many, keep the masks
        n_features = 5
        tree = _complete_tree(rng, depth, n_features, full_depth)
        assert any(node.is_leaf for node in tree.levels[full_depth].values())
        nested = nested_tree(tree)
        for n in (0, 10_048):
            columns = rng.integers(0, 256, size=(n_features, n), dtype=np.uint8)
            got = route_weights(tree, columns, _leaf_weights(tree))
            assert got.dtype == np.int64
            assert got.tolist() == [ref_route(nested, columns[:, i]) for i in range(n)]
        assert {way for way, width, _ in route_log if width > 1} <= {"masks"}
        if depth == 11:
            assert ("masks", 2) in {(way, width) for way, width, _ in route_log}

    @pytest.mark.parametrize("depth, full_depth", [(5, 5), (6, 6), (7, 7), (8, 8), (8, 5)])
    def test_wide_levels_match_reference(self, rng, route_log, depth, full_depth):
        # every level below the root is wide at 0 and 1 rows, and at 10,048
        # the widest are.  (8, 5) puts leaves on wide levels
        n_features = 5
        tree = _complete_tree(rng, depth, n_features, full_depth, edges=True)
        nested = nested_tree(tree)
        for n in (0, 1, 10_048):
            columns = _edge_columns(rng, n_features, n)
            route_log.clear()
            got = route_weights(tree, columns, _leaf_weights(tree))
            assert got.tolist() == [ref_route(nested, columns[:, i]) for i in range(n)]
            wide = [way == "gather" for way, _, splits in route_log]
            assert wide == [splits * splitter.ROWS_PER_SPLIT > n for _, _, splits in route_log]
        assert any(wide)            # at 10,048 rows
        if full_depth < depth:      # route_log[d - 1] is level d, which holds the leaves above it
            leafy = [any(node.is_leaf for level in tree.levels[:d + 1] for node in level.values())
                     for d in range(1, len(route_log) + 1)]
            assert any(w and leaf for w, leaf in zip(wide, leafy))

    @pytest.mark.parametrize("n, way", [(10_048, "gather"), (100_000, "masks")])
    def test_32_splits_take_the_gather_at_10048_rows_only(self, rng, route_log, n, way):
        # the rule: splits * ROWS_PER_SPLIT > n; 32 * 700 lies between
        tree = _complete_tree(rng, 6, 3)
        columns = rng.integers(0, 256, size=(3, n), dtype=np.uint8)
        route_weights(tree, columns, _leaf_weights(tree))
        assert route_log[-1] == (way, 1, 32)

    def test_go_left_table_rows_are_goes_left_of_every_bin(self):
        nodes = [TreeNode(is_leaf=False, feature=0, threshold_bin=t, missing_left=m)
                 for t in (-5, -1, 0, 1, 100, 253, 254, 255, 300) for m in (False, True)]
        splits = [(2 * k + 1, node) for k, node in enumerate(nodes)]   # leaves between
        table = splitter._go_left_table(2 * len(nodes) + 1, splits)
        assert table.shape == (2 * len(nodes) + 1, 256) and table.dtype == bool
        for c, node in splits:
            assert np.array_equal(table[c], goes_left(node, np.arange(256)))
        assert not table[::2].any()

    def test_70_level_chain_matches_reference(self, rng):
        # every split keeps about 95% of its samples on the split side, a
        # random one, so leaves are reached at every depth and the last
        # split still holds samples
        depth = 70
        tree = TreeModel()
        node_id = 0
        for d in range(depth):
            leaf_left = bool(rng.integers(0, 2))
            tree.put(d, node_id, TreeNode(is_leaf=False, feature=d,
                                          threshold_bin=12 if leaf_left else 242,
                                          missing_left=not leaf_left))
            left, right = 2 * node_id, 2 * node_id + 1
            leaf_id, node_id = (left, right) if leaf_left else (right, left)
            tree.put(d + 1, leaf_id, TreeNode(is_leaf=True, leaf_weight_raw=d))
        tree.put(depth, node_id, TreeNode(is_leaf=True, leaf_weight_raw=depth))
        nested = nested_tree(tree)
        for n in (0, 2000):
            columns = rng.integers(0, 256, size=(depth, n), dtype=np.uint8)
            got = route_weights(tree, columns, _leaf_weights(tree))
            assert got.dtype == np.int64
            assert got.tolist() == [ref_route(nested, columns[:, i]) for i in range(n)]
        assert depth in got

    def test_complete_depth_6_tree_allocates_under_18_bytes_per_sample(self, rng):
        # measured 17.2 bytes: the result (8), take's intp copy of the codes
        # (8) and one-byte codes.  A walk holding int64 id arrays per node
        # takes 20.1 here and fails
        n = 10_048
        tree = _complete_tree(rng, 6, 3)
        columns = rng.integers(0, 256, size=(3, n), dtype=np.uint8)
        values = _leaf_weights(tree)
        route_weights(tree, columns, values)                # warm-up
        tracemalloc.start()
        try:
            route_weights(tree, columns, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * n

    def test_stump_allocates_under_20_bytes_per_sample(self, rng):
        # the result (8 bytes), take's intp copy of the codes (8) and the
        # go-left mask (1)
        n = 10_048
        tree = _stump(feature=1, threshold=100, missing_left=True)
        columns = rng.integers(0, 256, size=(3, n), dtype=np.uint8)
        values = _leaf_weights(tree)
        route_weights(tree, columns, values)                # warm-up
        tracemalloc.start()
        try:
            route_weights(tree, columns, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * n

    def test_route_weights_matches_scalar(self, rng):
        matrix, labels = random_quantized(rng, 150, 4, missing_frac=0.15)
        from fpboost.node_trainer import TrainConfig
        from fpboost.boost_controller import train
        model, _ = train(matrix, labels, TrainConfig(n_trees=3, max_depth=3,
                                                     subsample=1.0, n_engines=1))
        for tree in model.trees:
            vec = route_weights(tree, matrix.columns, _leaf_weights(tree))
            scalar = [ref_route(nested_tree(tree), matrix.columns[:, i]) for i in range(150)]
            assert list(vec) == scalar


    @pytest.mark.parametrize("eta, frac_bits", [(1.0, 24), (0.3, 24), (0.7, 48), (1 / 3, 1)])
    def test_increment_per_leaf_equals_quantizing_every_sample(self, rng, eta, frac_bits):
        matrix, labels = random_quantized(rng, 200, 4, missing_frac=0.15)
        from fpboost.node_trainer import TrainConfig
        from fpboost.boost_controller import train
        model, _ = train(matrix, labels, TrainConfig(n_trees=2, max_depth=3, subsample=1.0))
        big = rng.integers(-(1 << 60), 1 << 60, size=64)     # past 2**53 too
        for tree, scale_up in ((model.trees[0], False), (model.trees[1], True)):
            if scale_up:
                for level in tree.levels:
                    for k, node in level.items():
                        if node.is_leaf:
                            level[k] = TreeNode(is_leaf=True, leaf_weight_raw=int(big[k % 64]))
            w = route_weights(tree, matrix.columns, _leaf_weights(tree))
            per_sample = quantize(eta * (w.astype(np.float64) / float(1 << frac_bits)), frac_bits)
            got = route_weights(tree, matrix.columns, leaf_increments(tree, eta, frac_bits))
            assert np.array_equal(got, per_sample)

    @pytest.mark.parametrize("wl, wr, eta", [
        (1, (1 << 63) - 1, 1.0),            # the float of 2**63 - 1 is 2**63
        (-(1 << 62), 1 << 62, 2.5),         # both out of range: quantize names the low one
        (1, -1, float("nan")),
    ])
    def test_out_of_range_increment_raises_quantizes_error(self, wl, wr, eta):
        with pytest.raises(ValueError, match="does not fit int64") as want:
            quantize(eta * (np.array([wl, wr], dtype=np.float64) / SCALE))
        with pytest.raises(ValueError) as got:
            splitter.leaf_increments(_stump(wl=wl, wr=wr), eta)
        assert str(got.value) == str(want.value)


class TestApplyTreeUpdate:
    def test_returns_the_probabilities_of_the_new_margins(self, rng):
        matrix, labels = random_quantized(rng, 30, 2)
        mem = load(matrix, labels, 0.0)
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=quantize(0.75)))
        p = apply_tree_update(mem, tree, 1.0)
        assert np.array_equal(p, sigmoid(mem.state.scores_raw / float(SCALE)))
        grads, hess = grad_hess(margin_probability(mem.state.scores_raw), labels)
        assert np.array_equal(mem.state.grads_raw, grads)
        assert np.array_equal(mem.state.hess_raw, hess)

    @pytest.mark.parametrize("start, leaf", [((1 << 62), (1 << 62)), (-(1 << 62), -(1 << 62)),
                                             ((1 << 63) - 1, 1)])
    def test_score_overflow_is_refused_before_the_add(self, rng, start, leaf):
        matrix, labels = random_quantized(rng, 8, 2)
        mem = load(matrix, labels, 0.0)
        mem.state.scores_raw[:] = start
        before = mem.state.scores_raw.copy()
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=leaf))
        with pytest.raises(ValueError, match="overflow int64: lower frac_bits, or raise lambda"):
            apply_tree_update(mem, tree, 1.0)
        assert np.array_equal(mem.state.scores_raw, before)

    def test_replay_refuses_score_overflow(self, rng):
        matrix, _ = random_quantized(rng, 8, 2)
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=1 << 62))
        assert np.all(replay_scores([tree], 0.0, matrix.columns, 1.0) == 1 << 62)
        # scoring names the tree and gives no training advice
        with pytest.raises(ValueError, match="^tree 1: raw margin scores overflow int64$"):
            replay_scores([tree, tree], 0.0, matrix.columns, 1.0)

    def test_replay_bound_past_2_63_with_margins_in_range_is_scored(self, rng, monkeypatch):
        # margins 3 * 2**60 -> 0 -> 3 * 2**60: the running bound reaches
        # 9 * 2**60 > 2**63 at the third tree, whose exact check then passes;
        # that check takes max|.| of the scores and of the increment
        matrix, _ = random_quantized(rng, 8, 2)
        big = 3 << 60
        checked, seen = [], []
        max_abs = splitter._max_abs
        monkeypatch.setattr(splitter, "_max_abs",
                            lambda raw: checked.append(raw) or max_abs(raw))
        scores = replay_scores([_leaf(big), _leaf(-big), _leaf(big)], 0.0, matrix.columns, 1.0,
                               after_tree=lambda s: seen.append(int(s[0])))
        assert seen == [big, 0, big] and np.all(scores == big)
        assert len(checked) == 2

    def test_after_tree_cannot_write_the_scores(self, rng):
        matrix, _ = random_quantized(rng, 8, 2)

        def overwrite(scores):
            scores[:] = (1 << 63) - 1

        with pytest.raises(ValueError, match="read-only"):
            replay_scores([_leaf(1), _leaf(1)], 0.0, matrix.columns, 1.0, after_tree=overwrite)

    def test_largest_in_range_sum_is_added(self, rng):
        matrix, labels = random_quantized(rng, 8, 2)
        mem = load(matrix, labels, 0.0)
        mem.state.scores_raw[:] = (1 << 62) - 1
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=1 << 62))
        apply_tree_update(mem, tree, 1.0)
        assert np.all(mem.state.scores_raw == (1 << 63) - 1)

    def test_zero_weight_tree_is_identity(self, rng):
        matrix, labels = random_quantized(rng, 30, 2)
        mem = load(matrix, labels, 0.0)
        before = (mem.state.scores_raw.copy(), mem.state.grads_raw.copy(),
                  mem.state.hess_raw.copy())
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=0))
        apply_tree_update(mem, tree, 1.0)
        assert np.array_equal(mem.state.scores_raw, before[0])
        assert np.array_equal(mem.state.grads_raw, before[1])
        assert np.array_equal(mem.state.hess_raw, before[2])

    def test_fresh_positive_sample(self, rng):
        matrix, _ = random_quantized(rng, 1, 1, missing_frac=0.0)
        mem = load(matrix, [1], 0.0)
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=0))
        apply_tree_update(mem, tree, 1.0)
        assert mem.state.grads_raw[0] == -(SCALE // 2)
        assert mem.state.hess_raw[0] == SCALE // 4

    def test_margin_two_against_oracle(self, rng):
        matrix, _ = random_quantized(rng, 1, 1, missing_frac=0.0)
        mem = load(matrix, [0], 0.0)
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=2 * SCALE))
        apply_tree_update(mem, tree, 1.0)
        assert mem.state.scores_raw[0] == 2 * SCALE
        eg, eh = mp_grad_hess(2 * SCALE, 0, FRAC_BITS)
        assert mem.state.grads_raw[0] == eg
        assert mem.state.hess_raw[0] == eh

    def test_eta_scaling(self, rng):
        matrix, labels = random_quantized(rng, 20, 2)
        mem = load(matrix, labels, 0.0)
        w = quantize(0.6)
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=int(w)))
        apply_tree_update(mem, tree, 0.5)
        assert np.all(mem.state.scores_raw == quantize(0.5 * (int(w) / SCALE)))

    def test_score_additivity_replay(self, rng):
        matrix, labels = random_quantized(rng, 200, 4)
        from fpboost.node_trainer import TrainConfig
        from fpboost.boost_controller import train
        cfg = TrainConfig(n_trees=5, max_depth=2, subsample=0.7, n_engines=2,
                          eta=1.0, seed=11)
        model, _ = train(matrix, labels, cfg)
        scores = np.zeros(200, dtype=np.int64)
        for tree in model.trees:
            scores += ref_increment(nested_tree(tree), matrix.columns, cfg.eta, cfg.frac_bits)
        mem = load(matrix, labels, 0.0)
        for tree in model.trees:
            apply_tree_update(mem, tree, cfg.eta)
        assert np.array_equal(scores, mem.state.scores_raw)

    def test_gradient_bounds_hold_throughout(self, rng):
        matrix, labels = random_quantized(rng, 120, 3)
        from fpboost.node_trainer import TrainConfig
        from fpboost.boost_controller import train
        mem = load(matrix, labels, 0.0)
        model, _ = train(matrix, labels, TrainConfig(n_trees=20, max_depth=3,
                                                     subsample=1.0, n_engines=1, eta=1.0))
        for tree in model.trees:
            apply_tree_update(mem, tree, 1.0)
            assert np.all(np.abs(mem.state.grads_raw) <= SCALE)
            assert np.all(mem.state.hess_raw >= 1)
            assert np.all(mem.state.hess_raw <= SCALE // 4)


_RAW = st.integers(-(1 << 62), 1 << 62) | st.sampled_from([0, 1, -1, 3 << 60, -(3 << 60)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 254), _RAW, _RAW), min_size=1, max_size=6),
       st.sampled_from([0.0, 2.0 ** 37, -(2.0 ** 37)]),
       arrays(np.uint8, st.integers(1, 12)))
def test_replay_matches_checking_every_tree(stumps, base_score, bins):
    """replay_scores accepts, refuses and scores exactly as an exact check of
    every tree's sums would."""
    columns = bins.reshape(1, -1)
    trees = [_stump(threshold=t, wl=wl, wr=wr) for t, wl, wr in stumps]
    margins = [int(quantize(base_score))] * bins.size
    want = None
    for i, tree in enumerate(trees):
        increment = ref_increment(nested_tree(tree), columns, 1.0, FRAC_BITS).tolist()
        if max(map(abs, margins)) + max(map(abs, increment)) >= 1 << 63:
            want = f"tree {i}: raw margin scores overflow int64"
            break
        margins = [m + d for m, d in zip(margins, increment)]
    if want is None:
        assert replay_scores(trees, base_score, columns, 1.0).tolist() == margins
    else:
        with pytest.raises(ValueError, match=f"^{want}$"):
            replay_scores(trees, base_score, columns, 1.0)


_START = (st.integers(-(1 << 63), (1 << 63) - 1)
          | st.sampled_from([0, (1 << 62) - 1, 1 << 62, -(1 << 62), (1 << 63) - 1, -(1 << 63)]))


@st.composite
def _update_case(draw):
    """A stump, the start score of each sample and the bins it is routed by."""
    stump = draw(st.tuples(st.integers(0, 254), st.booleans(), _RAW, _RAW))
    n = draw(st.integers(0, 12))
    starts = draw(st.lists(_START, min_size=n, max_size=n))
    bins = draw(arrays(np.uint8, n))
    return stump, starts, bins


@settings(max_examples=200, deadline=None)
@given(_update_case(), st.sampled_from([1.0, 0.3]), st.sampled_from([1, 24, 48]))
def test_training_update_matches_checking_every_sum(case, eta, frac_bits):
    """apply_tree_update accepts, refuses and scores exactly as an exact check
    of the tree's sums would; a refusal gives the training hint and leaves
    the scores as they were."""
    (threshold, missing_left, wl, wr), starts, bins = case
    matrix = QuantizedMatrix(columns=bins.reshape(1, -1), bin_map=BinMap([np.arange(255.0)]))
    mem = load(matrix, np.zeros(bins.size, dtype=np.int8), 0.0, frac_bits)
    mem.state.scores_raw[:] = starts
    tree = _stump(threshold=threshold, missing_left=missing_left, wl=wl, wr=wr)
    increment = ref_increment(nested_tree(tree), matrix.columns, eta, frac_bits).tolist()
    if starts and max(map(abs, starts)) + max(map(abs, increment)) >= 1 << 63:
        with pytest.raises(ValueError, match="^raw margin scores overflow int64: lower frac_bits, "
                                             "or raise lambda to bound the leaf weights$"):
            apply_tree_update(mem, tree, eta)
        assert mem.state.scores_raw.tolist() == starts
    else:
        apply_tree_update(mem, tree, eta)
        assert mem.state.scores_raw.tolist() == [s + d for s, d in zip(starts, increment)]
