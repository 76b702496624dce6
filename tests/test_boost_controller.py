import numpy as np
import pytest

from fpboost import boost_controller
from fpboost.boost_controller import Model, predict_raw, subsample_indices, train
from fpboost.engine_memory import EngineMemory, init_index_table, load
from fpboost.fixed_point import FRAC_BITS, dequantize, logistic_grad_hess, quantize
from fpboost.node_trainer import TrainConfig, build_histogram, leaf_weight
from fpboost.quantizer import MISSING_BIN, BinMap, QuantizedMatrix, RawDataset, fit_bin_map, transform
from conftest import random_quantized
from reference import py_subsample, ref_train, assert_trees_match

SCALE = 1 << FRAC_BITS


class TestSubsample:
    def test_rate_one_returns_everything(self):
        assert list(subsample_indices(123, 0, 5, 1.0)) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        a = subsample_indices(99, 7, 1000, 0.5)
        b = subsample_indices(99, 7, 1000, 0.5)
        assert np.array_equal(a, b)

    def test_streams_differ_by_tree(self):
        a = subsample_indices(99, 0, 1000, 0.5)
        b = subsample_indices(99, 1, 1000, 0.5)
        assert not np.array_equal(a, b)

    def test_binomial_band(self):
        count = subsample_indices(0, 0, 10_000, 0.5).size
        assert 4700 <= count <= 5300

    def test_matches_pure_python_generator(self):
        for seed, tree, n, rate in [(0, 0, 500, 0.5), (77, 3, 257, 0.25),
                                    (2**63, 12, 100, 0.9), (5, 0, 64, 0.01)]:
            got = list(subsample_indices(seed, tree, n, rate))
            assert got == py_subsample(seed, tree, n, rate)

    def test_output_ascending(self):
        out = subsample_indices(4, 2, 2000, 0.3)
        assert np.all(np.diff(out) > 0)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            subsample_indices(0, 0, 10, 0.0)
        with pytest.raises(ValueError):
            subsample_indices(0, 0, 10, 1.2)


class TestTrain:
    def test_zero_trees(self, rng):
        matrix, labels = random_quantized(rng, 50, 3)
        config = TrainConfig(n_trees=0, n_engines=2)
        model, log = train(matrix, labels, config)
        assert model.n_trees == 0 and log.trees == []
        assert np.all(predict_raw(model, matrix) == quantize(model.base_score))

    def test_tree_count_matches_config(self, rng):
        matrix, labels = random_quantized(rng, 60, 2)
        model, log = train(matrix, labels, TrainConfig(n_trees=7, n_engines=3))
        assert model.n_trees == 7 and len(log.trees) == 7

    def test_four_sample_stump(self):
        # bins [0,0,1,1], labels [0,0,1,1]: split at 0 with weights -/+ 2/3
        matrix = QuantizedMatrix(
            columns=np.array([[0, 0, 1, 1]], dtype=np.uint8),
            bin_map=BinMap([np.array([0.0, 1.0])]),
        )
        labels = np.array([0, 0, 1, 1], dtype=np.int8)
        cfg = TrainConfig(n_trees=1, max_depth=1, subsample=1.0, lam=1.0,
                          gamma=0.0, eta=1.0, n_engines=1)
        model, _ = train(matrix, labels, cfg)
        root = model.trees[0].node(0, 0)
        assert not root.is_leaf and root.feature == 0 and root.threshold_bin == 0
        left = model.trees[0].node(1, 0)
        right = model.trees[0].node(1, 1)
        assert left.leaf_weight_raw == leaf_weight(1.0, 0.5, 1.0)      # grads +0.5+0.5
        assert right.leaf_weight_raw == leaf_weight(-1.0, 0.5, 1.0)
        assert left.leaf_weight_raw == -11184811 and right.leaf_weight_raw == 11184811
        ref_trees, ref_scores = ref_train(matrix.columns, labels, cfg)
        assert_trees_match(model.trees[0], ref_trees[0], cfg.frac_bits)
        assert np.array_equal(predict_raw(model, matrix), ref_scores)

    def test_pure_label_scores_increase_until_gradients_vanish(self):
        matrix = QuantizedMatrix(
            columns=np.tile(np.arange(8, dtype=np.uint8), (1, 1)),
            bin_map=BinMap([np.arange(8, dtype=np.float64)]),
        )
        labels = np.ones(8, dtype=np.int8)
        cfg = TrainConfig(n_trees=60, max_depth=1, subsample=1.0, lam=1.0,
                          gamma=0.0, n_engines=1)
        model, _ = train(matrix, labels, cfg)
        scores = np.zeros(8, dtype=np.int64)
        from fpboost.splitter import tree_increment
        for tree in model.trees:
            grads, _ = logistic_grad_hess(scores, labels)
            inc = tree_increment(tree, matrix.columns, 1.0, cfg.frac_bits)
            if np.any(np.abs(grads) >= 1):
                assert np.all(inc > 0), "scores must strictly increase while gradients remain"
            else:
                assert np.all(inc == 0)
            scores += inc

    def test_model_replay_equals_training_scores(self, rng):
        matrix, labels = random_quantized(rng, 150, 4)
        cfg = TrainConfig(n_trees=8, max_depth=2, subsample=0.6, n_engines=4, seed=9)
        base = load(matrix, labels, 0.0)
        model, _ = train(matrix, labels, cfg)
        from fpboost.splitter import apply_tree_update
        for tree in model.trees:
            apply_tree_update(base, tree, cfg.eta)
        assert np.array_equal(base.state.scores_raw, predict_raw(model, matrix, cfg.eta, cfg.frac_bits))

    def test_matches_reference_trainer_end_to_end(self, rng):
        for trial in range(10):
            matrix, labels = random_quantized(rng, int(rng.integers(10, 200)), 3)
            cfg = TrainConfig(n_trees=3, max_depth=int(rng.integers(1, 4)),
                              subsample=1.0, n_engines=1, lam=1.0, gamma=0.0)
            model, _ = train(matrix, labels, cfg)
            ref_trees, ref_scores = ref_train(matrix.columns, labels, cfg)
            for tree, ref in zip(model.trees, ref_trees):
                assert_trees_match(tree, ref, cfg.frac_bits)
            assert np.array_equal(predict_raw(model, matrix), ref_scores)

    def test_large_gamma_gives_single_leaf_trees(self, rng):
        matrix, labels = random_quantized(rng, 100, 3)
        cfg = TrainConfig(n_trees=6, max_depth=3, subsample=0.8, gamma=1e9,
                          n_engines=2, seed=13)
        model, log = train(matrix, labels, cfg)
        # every tree is a single leaf; scores follow the boosted-bias recursion
        scores = np.zeros(100, dtype=np.int64)
        for t, tree in enumerate(model.trees):
            assert len(tree.levels) == 1 and tree.n_leaves() == 1
            active = subsample_indices(cfg.seed, t, 100, cfg.subsample)
            grads, hess = logistic_grad_hess(scores, labels)
            g = int(grads[active].sum())
            h = int(hess[active].sum())
            expected = leaf_weight(dequantize(g), dequantize(h), cfg.lam)
            assert tree.node(0, 0).leaf_weight_raw == expected
            scores += quantize(cfg.eta * dequantize(expected)) * np.ones(100, dtype=np.int64)

    def test_empty_subsample_gives_zero_leaf(self, rng):
        matrix, labels = random_quantized(rng, 5, 2)
        cfg = TrainConfig(n_trees=1, subsample=1e-9, n_engines=2, seed=0)
        model, log = train(matrix, labels, cfg)
        assert log.trees[0].n_subsampled == 0
        tree = model.trees[0]
        assert tree.n_leaves() == 1 and tree.node(0, 0).leaf_weight_raw == 0

    def test_empty_dataset_rejected(self):
        matrix = QuantizedMatrix(
            columns=np.zeros((1, 0), dtype=np.uint8),
            bin_map=BinMap([np.array([0.0])]),
        )
        with pytest.raises(ValueError, match="empty"):
            train(matrix, np.zeros(0, dtype=np.int8), TrainConfig())

    def test_log_records_node_counts(self, rng):
        matrix, labels = random_quantized(rng, 128, 3)
        cfg = TrainConfig(n_trees=2, max_depth=2, subsample=1.0, n_engines=1)
        _, log = train(matrix, labels, cfg)
        for tree_log in log.trees:
            assert tree_log.n_subsampled == 128
            assert tree_log.depths[0].trained_sizes == [128]
            for d in tree_log.depths:
                assert sum(d.split_sizes) <= sum(d.trained_sizes)
            assert tree_log.train_loss > 0

    def test_rejects_sizes_that_overflow_node_totals(self):
        def matrix_of(n):
            return QuantizedMatrix(columns=np.zeros((1, n), dtype=np.uint8),
                                   bin_map=BinMap([np.array([0.0])]))

        cfg = TrainConfig(n_trees=1, frac_bits=48, n_engines=1)
        with pytest.raises(ValueError, match=r"n_samples=32768 with frac_bits=48"):
            train(matrix_of(1 << 15), np.zeros(1 << 15, dtype=np.int8), cfg)
        model, _ = train(matrix_of((1 << 15) - 1), np.zeros((1 << 15) - 1, dtype=np.int8), cfg)
        assert model.n_trees == 1

    def test_engine_count_invariance_at_high_frac_bits(self, rng):
        # at 46 fractional bits nodes of 128 or more samples, the root among
        # them, are built by 24-bit limbs and smaller ones by a single float64
        # pass; the engine count must change no split
        matrix, labels = random_quantized(rng, 400, 3, missing_frac=0.05)
        models = [
            train(matrix, labels, TrainConfig(n_trees=4, max_depth=3, subsample=0.8,
                                              n_engines=e, frac_bits=46, seed=2))[0]
            for e in (1, 3, 64)
        ]
        assert models[0].trees == models[1].trees == models[2].trees
        assert any(len(tree.levels) > 1 for tree in models[0].trees)


def _with_all_missing_feature(matrix):
    n = matrix.n_samples
    return QuantizedMatrix(
        columns=np.vstack([matrix.columns, np.full((1, n), MISSING_BIN, dtype=np.uint8)]),
        bin_map=BinMap(list(matrix.bin_map.centroids) + [np.array([0.0])]),
    )


def _assert_features_agree(hist, totals):
    """Every feature's bins sum to the node totals, not only feature 0's."""
    for f in range(hist.n_features):
        assert (int(hist.sum_g[f].sum()), int(hist.sum_h[f].sum()), int(hist.count[f].sum())) == totals


class TestSiblingSubtraction:
    @pytest.mark.parametrize("n_engines", [1, 3, 64])
    def test_every_child_histogram_equals_direct_build(self, rng, monkeypatch, n_engines):
        raw_matrix, labels = random_quantized(rng, 300, 4, missing_frac=0.05)
        matrix = _with_all_missing_feature(raw_matrix)
        seen = {"children": 0, "built": 0}
        children = boost_controller._children
        build = boost_controller.build_histogram

        def checked_build(memory, node_range):
            hist = build(memory, node_range)
            idx = memory.table[slice(*node_range)]
            state = memory.state
            _assert_features_agree(hist, (int(state.grads_raw[idx].sum()),
                                          int(state.hess_raw[idx].sum()), idx.size))
            seen["built"] += 1
            return hist

        def checked(memory, parent_id, parent_hist, child_totals, child_ranges):
            out = children(memory, parent_id, parent_hist, child_totals, child_ranges)
            for node_id, node_range, hist, totals in out:
                idx = memory.table[slice(*node_range)]
                direct = build(EngineMemory(matrix, memory.state, init_index_table(idx)),
                               (0, idx.size))
                assert np.array_equal(hist.sum_g, direct.sum_g)
                assert np.array_equal(hist.sum_h, direct.sum_h)
                assert np.array_equal(hist.count, direct.count)
                assert totals == direct.totals()
                _assert_features_agree(hist, totals)
                seen["children"] += 1
            return out

        monkeypatch.setattr(boost_controller, "build_histogram", checked_build)
        monkeypatch.setattr(boost_controller, "_children", checked)
        cfg = TrainConfig(n_trees=4, max_depth=4, subsample=0.7, n_engines=n_engines, seed=5)
        model, log = train(matrix, labels, cfg)
        assert seen["children"] == sum(len(d.trained_sizes) for t in log.trees for d in t.depths[1:])
        assert seen["children"] > 0
        # one root per tree and one smaller child per split parent
        assert seen["built"] == cfg.n_trees + seen["children"] // 2
        all_missing = matrix.n_features - 1
        for tree in model.trees:
            assert all(node.feature != all_missing for level in tree.levels for node in level.values())
        monkeypatch.undo()
        assert train(matrix, labels, cfg)[0].trees == model.trees
