import numpy as np
import pytest

from fpboost.engine_memory import EngineMemory, StateMemory, init_index_table, load
from fpboost.fixed_point import FRAC_BITS, logistic_grad_hess, quantize, sigmoid
from fpboost.node_trainer import SplitDecision
from fpboost.quantizer import BinMap, QuantizedMatrix
from fpboost.splitter import (
    TreeModel,
    TreeNode,
    apply_tree_update,
    partition,
    replay_scores,
    route_weights,
    tree_increment,
)
from conftest import random_quantized
from reference import mp_grad_hess, ref_route

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
        decision = SplitDecision(is_leaf=False, feature=0, threshold_bin=1,
                                 missing_left=True, gain=1.0)
        mid = partition(mem, (0, 4), decision)
        assert mid == 3
        assert list(mem.table) == [5, 7, 9, 2]

    def test_threshold_254_sends_all_non_missing_left(self):
        mem = _engine_from_bins([10, 200, 254, 0])
        mem.table = init_index_table([0, 1, 2, 3])
        decision = SplitDecision(is_leaf=False, feature=0, threshold_bin=254,
                                 missing_left=False, gain=1.0)
        assert partition(mem, (0, 4), decision) == 4

    def test_all_missing_right(self):
        mem = _engine_from_bins([255, 255, 255])
        mem.table = init_index_table([0, 1, 2])
        decision = SplitDecision(is_leaf=False, feature=0, threshold_bin=4,
                                 missing_left=False, gain=1.0)
        assert partition(mem, (0, 3), decision) == 0

    def test_leaf_decision_rejected(self):
        mem = _engine_from_bins([0, 1])
        mem.table = init_index_table([0, 1])
        with pytest.raises(ValueError):
            partition(mem, (0, 2), SplitDecision(is_leaf=True, leaf_weight_raw=0))

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
            decision = SplitDecision(is_leaf=False, feature=f, threshold_bin=t,
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


def _stump(feature=0, threshold=5, missing_left=False, wl=100, wr=-200):
    tree = TreeModel()
    tree.put(0, 0, TreeNode(is_leaf=False, feature=feature, threshold_bin=threshold,
                            missing_left=missing_left))
    tree.put(1, 0, TreeNode(is_leaf=True, leaf_weight_raw=wl))
    tree.put(1, 1, TreeNode(is_leaf=True, leaf_weight_raw=wr))
    return tree


def _nested(tree, depth=0, node_id=0):
    """The reference's nested-dict form of a TreeModel."""
    node = tree.node(depth, node_id)
    if node.is_leaf:
        return {"weight": node.leaf_weight_raw}
    return {"feature": node.feature, "threshold": node.threshold_bin,
            "missing_left": node.missing_left,
            "left": _nested(tree, depth + 1, 2 * node_id),
            "right": _nested(tree, depth + 1, 2 * node_id + 1)}


def _route_one(tree, sample_bins):
    """route_weights on a one-sample column matrix."""
    columns = np.asarray(sample_bins, dtype=np.uint8).reshape(-1, 1)
    return int(route_weights(tree, columns)[0])


class TestRouting:
    def test_single_leaf(self):
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=42))
        assert _route_one(tree, [7, 9]) == ref_route(_nested(tree), [7, 9]) == 42

    def test_stump_boundary(self):
        tree = _stump(feature=1, threshold=5)
        for bins, weight in (([0, 5], 100), ([0, 6], -200)):
            assert _route_one(tree, bins) == ref_route(_nested(tree), bins) == weight

    def test_missing_direction(self):
        for missing_left, weight in ((False, -200), (True, 100)):
            tree = _stump(missing_left=missing_left)
            assert _route_one(tree, [255]) == ref_route(_nested(tree), [255]) == weight

    def test_malformed_tree(self):
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=False, feature=0, threshold_bin=1, missing_left=True))
        with pytest.raises(ValueError, match="malformed"):
            _route_one(tree, [0])

    def test_route_weights_matches_scalar(self, rng):
        matrix, labels = random_quantized(rng, 150, 4, missing_frac=0.15)
        from fpboost.node_trainer import TrainConfig
        from fpboost.boost_controller import train
        model, _ = train(matrix, labels, TrainConfig(n_trees=3, max_depth=3,
                                                     subsample=1.0, n_engines=1))
        for tree in model.trees:
            vec = route_weights(tree, matrix.columns)
            scalar = [ref_route(_nested(tree), matrix.columns[:, i]) for i in range(150)]
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
            w = route_weights(tree, matrix.columns)
            per_sample = quantize(eta * (w.astype(np.float64) / float(1 << frac_bits)), frac_bits)
            got = tree_increment(tree, matrix.columns, eta, frac_bits)
            assert np.array_equal(got, per_sample)


class TestApplyTreeUpdate:
    def test_returns_the_probabilities_of_the_new_margins(self, rng):
        matrix, labels = random_quantized(rng, 30, 2)
        mem = load(matrix, labels, 0.0)
        tree = TreeModel()
        tree.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=quantize(0.75)))
        p = apply_tree_update(mem, tree, 1.0)
        assert np.array_equal(p, sigmoid(mem.state.scores_raw / float(SCALE)))
        grads, hess = logistic_grad_hess(mem.state.scores_raw, labels)
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
            scores += tree_increment(tree, matrix.columns, cfg.eta, cfg.frac_bits)
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
