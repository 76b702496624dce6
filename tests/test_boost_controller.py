import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpboost import boost_controller
from fpboost.boost_controller import BASE_SCORE, predict_raw, subsample_indices, train
from fpboost.engine_memory import EngineMemory, init_index_table, load
from fpboost.fixed_point import FRAC_BITS, dequantize, grad_hess, margin_probability, quantize
from fpboost.model_io import load_training_log, save_training_log
from fpboost.node_trainer import TrainConfig, leaf_weight, node_totals
from fpboost.quantizer import MISSING_BIN, BinMap, QuantizedMatrix
from fpboost.splitter import apply_tree_update, partition
from conftest import random_quantized
from reference import (py_subsample, ref_grow, ref_increment, ref_train, assert_trees_match,
                       nested_tree)

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
                                    (2**63, 12, 100, 0.9), (5, 0, 64, 0.01),
                                    (-7, 4, 300, 0.5), (3, 2**63 + 5, 300, 0.5)]:
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

    @pytest.mark.parametrize("label", [2, -3, 257])
    def test_labels_outside_0_1_rejected(self, rng, label):
        matrix, labels = random_quantized(rng, 30, 2)
        labels = labels.astype(np.int64)
        labels[11] = label
        with pytest.raises(ValueError, match="^labels must be 0 or 1; offending row 11$"):
            train(matrix, labels, TrainConfig(n_trees=2, n_engines=1))

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
        mem = load(matrix, labels, 0.0, cfg.frac_bits)
        for tree in model.trees:
            scores = mem.state.scores_raw.copy()
            grads, _ = grad_hess(margin_probability(scores), labels)
            apply_tree_update(mem, tree, 1.0)
            inc = mem.state.scores_raw - scores
            if np.any(np.abs(grads) >= 1):
                assert np.all(inc > 0), "scores must strictly increase while gradients remain"
            else:
                assert np.all(inc == 0)

    def test_model_replay_equals_training_scores(self, rng):
        matrix, labels = random_quantized(rng, 150, 4)
        cfg = TrainConfig(n_trees=8, max_depth=2, subsample=0.6, n_engines=4, seed=9)
        base = load(matrix, labels, 0.0)
        model, _ = train(matrix, labels, cfg)
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
            grads, hess = grad_hess(margin_probability(scores), labels)
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

    @pytest.mark.parametrize("max_depth", [1, 3])
    def test_only_splits_above_the_last_depth_are_partitioned(self, rng, monkeypatch, max_depth):
        """A split at the last depth has leaf children weighed from its
        histogram, so its range is not partitioned; the log still lists it."""
        partitioned = []

        def counting_partition(memory, node_range, node):
            partitioned.append(node_range[1] - node_range[0])
            return partition(memory, node_range, node)

        monkeypatch.setattr(boost_controller, "partition", counting_partition)
        matrix, labels = random_quantized(rng, 256, 3)
        _, log = train(matrix, labels, TrainConfig(n_trees=3, max_depth=max_depth, n_engines=1))
        above_last = [s for t in log.trees for d in t.depths[:max_depth - 1] for s in d.split_sizes]
        assert partitioned == above_last
        assert any(len(t.depths) == max_depth and t.depths[-1].split_sizes for t in log.trees)

    @pytest.mark.parametrize("n, subsample", [(300, 0.7), (5, 1e-9)])
    def test_every_scan_gets_its_node_sample_count(self, rng, monkeypatch, n, subsample):
        """find_best_split is passed, node by node, the number of the tree's
        active rows that reach the node, which the log lists too."""
        counts = []
        scan = boost_controller.find_best_split

        def recording_scan(hist, count, config, buffers=None):
            counts.append(count)
            return scan(hist, count, config, buffers)

        monkeypatch.setattr(boost_controller, "find_best_split", recording_scan)
        matrix, labels = random_quantized(rng, n, 3, missing_frac=0.1)
        cfg = TrainConfig(n_trees=4, max_depth=3, subsample=subsample, n_engines=1, seed=3)
        model, log = train(matrix, labels, cfg)
        assert counts == [s for t in log.trees for d in t.depths for s in d.trained_sizes]
        reached = []
        for t, tree in enumerate(model.trees):
            active = subsample_indices(cfg.seed, t, n, cfg.subsample)
            reached += _rows_reaching_scanned_nodes(tree, matrix.columns, active, cfg.max_depth)
        assert counts == reached
        if subsample < 1e-6:
            assert counts == [0] * cfg.n_trees          # every root is empty
        else:
            assert len(set(counts)) > 2

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
        # at 46 fractional bits a histogram block holds exact_count(46) = 127
        # samples, so nodes of 128 or more, the root among them, are built in
        # several blocks and smaller ones in one; the engine count must change
        # no split
        matrix, labels = random_quantized(rng, 400, 3, missing_frac=0.05)
        models = [
            train(matrix, labels, TrainConfig(n_trees=4, max_depth=3, subsample=0.8,
                                              n_engines=e, frac_bits=46, seed=2))[0]
            for e in (1, 3, 64)
        ]
        assert models[0].trees == models[1].trees == models[2].trees
        assert any(len(tree.levels) > 1 for tree in models[0].trees)


@st.composite
def _config_space_case(draw):
    """A TrainConfig from the corners of the accepted space and a small
    bin matrix with its labels, degenerate in any of five ways."""
    cfg = TrainConfig(
        lam=draw(st.sampled_from([0.0, 2.0**-20, 1.0, 1e6])),
        gamma=draw(st.sampled_from([0.0, 0.5])),
        eta=draw(st.sampled_from([1.0, 0.3])),
        frac_bits=draw(st.integers(1, 48)),
        max_depth=draw(st.integers(1, 3)),
        n_trees=draw(st.integers(1, 3)),
        subsample=1.0,
        n_engines=1,
    )
    sometimes = st.integers(0, 3).map(lambda k: k == 0)
    n = 1 if draw(sometimes) else draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 3))
    bin_values = st.sampled_from([0, 1, 2, 3, 7, 254, MISSING_BIN])
    columns = np.array(draw(st.lists(st.lists(bin_values, min_size=n, max_size=n),
                                     min_size=n_features, max_size=n_features)), dtype=np.uint8)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    if draw(sometimes):                             # one class
        labels[:] = labels[0]
    if draw(sometimes):                             # a constant feature
        columns[draw(st.integers(0, n_features - 1))] = draw(bin_values)
    if draw(sometimes):                             # an all-missing feature
        columns[draw(st.integers(0, n_features - 1))] = MISSING_BIN
    if draw(sometimes):                             # duplicated rows: the first half twice
        half = -(-n // 2)
        columns = np.resize(columns[:, :half], (n_features, n))
        labels = np.resize(labels[:half], n)
    matrix = QuantizedMatrix(columns=columns, bin_map=BinMap([np.arange(255.0)] * n_features))
    return cfg, matrix, labels


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    """One file for a test's examples to save a training log to and load it back from."""
    return tmp_path_factory.mktemp("log") / "log.json"


@settings(max_examples=400, deadline=None)
@given(case=_config_space_case())
def test_matches_reference_trainer_across_config_space(log_path, case):
    """At every corner of the accepted config space, train either grows the
    oracle's trees, and writes a log that loads back, or refuses the input
    with ValueError as the oracle does.

    Each oracle tree grows from the scores the library's earlier trees
    reached.  Splits must match exactly.  A leaf may sit one raw unit off
    the exact rational -G / (H + lam): the library divides in float64 and
    then rounds, and at high frac_bits (seen at 42, 47 and 48) that double
    rounding now and then lands on the other neighbour.  One such leaf moves the scores,
    so the two would drift apart if the oracle trained on its own scores.
    """
    cfg, matrix, labels = case
    try:
        model, log = train(matrix, labels, cfg)
    except ValueError:
        with pytest.raises(ValueError):
            ref_train(matrix.columns, labels, cfg)
        return
    assert model.n_trees == cfg.n_trees
    save_training_log(log, str(log_path))
    assert load_training_log(str(log_path)) == log
    rows = np.arange(matrix.n_samples)
    scores = np.full(matrix.n_samples, quantize(BASE_SCORE, cfg.frac_bits), dtype=np.int64)
    for tree in model.trees:
        grads, hess = grad_hess(margin_probability(scores, cfg.frac_bits), labels, cfg.frac_bits)
        ref = ref_grow(matrix.columns, rows, grads, hess, 0, cfg)
        assert_trees_match(tree, ref, cfg.frac_bits, ulp_tol=1)
        scores = scores + ref_increment(nested_tree(tree), matrix.columns, cfg.eta, cfg.frac_bits)


def _rows_reaching_scanned_nodes(tree, columns, rows, max_depth):
    """How many of rows reach each node above max_depth, the nodes training
    scans, in (depth, node id) order; routed here, not by the library."""
    reach = {0: rows}
    counts = []
    for level in tree.levels[:max_depth]:
        below = {}
        for node_id in sorted(level):
            idx = reach[node_id]
            counts.append(idx.size)
            node = level[node_id]
            if not node.is_leaf:
                b = columns[node.feature][idx]
                left = (b <= node.threshold_bin) | ((b == MISSING_BIN) & node.missing_left)
                below[2 * node_id], below[2 * node_id + 1] = idx[left], idx[~left]
        reach = below
    return counts


def _with_all_missing_feature(matrix):
    n = matrix.n_samples
    return QuantizedMatrix(
        columns=np.vstack([matrix.columns, np.full((1, n), MISSING_BIN, dtype=np.uint8)]),
        bin_map=BinMap(list(matrix.bin_map.centroids) + [np.array([0.0])]),
    )


def _assert_features_agree(hist, totals):
    """Every feature's bins sum to the node totals, not only feature 0's."""
    assert (hist.sum(axis=2) == np.array(totals)[:, None]).all()


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
                                          int(state.hess_raw[idx].sum())))
            seen["built"] += 1
            return hist

        def checked(memory, parent_id, parent_hist, child_ranges):
            out = children(memory, parent_id, parent_hist, child_ranges)
            for node_id, node_range, hist in out:
                idx = memory.table[slice(*node_range)]
                direct = build(EngineMemory(matrix, memory.state, init_index_table(idx)),
                               (0, idx.size))
                assert np.array_equal(hist, direct)
                _assert_features_agree(hist, node_totals(direct))
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
            # the depth limit: nothing below max_depth, and only leaves at it
            assert len(tree.levels) <= cfg.max_depth + 1
            assert all(node.is_leaf for level in tree.levels[cfg.max_depth:] for node in level.values())
        assert any(len(tree.levels) == cfg.max_depth + 1 for tree in model.trees)
        monkeypatch.undo()
        assert train(matrix, labels, cfg)[0].trees == model.trees
