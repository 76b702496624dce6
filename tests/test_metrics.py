import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpboost.boost_controller import Model, train
from fpboost.fixed_point import sigmoid
from fpboost import metrics
from fpboost.metrics import auc, evaluate_per_tree, train_and_evaluate
from fpboost.node_trainer import TrainConfig
from fpboost.quantizer import BinMap, fit_bin_map, transform
from fpboost.splitter import TreeModel, TreeNode
from conftest import random_quantized, random_raw
from reference import pair_count_auc


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_equal_scores(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_known_example(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert auc(scores, labels) == 0.75
        assert pair_count_auc(scores, labels) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="AUC undefined"):
            auc([0.1, 0.2], [1, 1])

    def test_matches_pair_counting_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 120))
            scores = rng.choice(rng.normal(size=max(2, n // 3)), size=n)  # ties likely
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(
                pair_count_auc(list(scores), list(labels)), abs=1e-12)


# scores on a 1e-3 grid within [-15, 15]: distinct margins stay distinct
# through the float sigmoid, so the transform is strictly increasing
@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(-15_000, 15_000), st.integers(0, 1)),
                min_size=2, max_size=60))
def test_auc_invariant_under_monotone_transform(pairs):
    scores = np.array([s for s, _ in pairs], dtype=np.float64) / 1000.0
    labels = np.array([y for _, y in pairs])
    if labels.min() == labels.max():
        return
    assert auc(scores, labels) == pytest.approx(auc(sigmoid(scores), labels), abs=1e-12)


class TestEvaluatePerTree:
    def _setup(self, rng, n_trees=5):
        raw = random_raw(rng, 300, 3)
        bins = fit_bin_map(raw)
        matrix = transform(raw, bins)
        cfg = TrainConfig(n_trees=n_trees, max_depth=2, subsample=1.0, n_engines=1)
        model, _ = train(matrix, raw.labels, cfg)
        valid_raw = random_raw(rng, 150, 3)
        valid = transform(valid_raw, bins)
        return model, valid, valid_raw.labels, cfg, bins

    def test_single_tree_model(self, rng):
        model, valid, labels, cfg, bins = self._setup(rng, n_trees=1)
        history, best = evaluate_per_tree(model, valid, labels, cfg.eta, cfg.frac_bits)
        assert len(history) == 1 and best == history[0]

    def test_zero_weight_tree_leaves_auc_unchanged(self, rng):
        model, valid, labels, cfg, bins = self._setup(rng)
        zero = TreeModel()
        zero.put(0, 0, TreeNode(is_leaf=True, leaf_weight_raw=0))
        padded = Model(trees=model.trees + [zero], base_score=model.base_score)
        history, _ = evaluate_per_tree(padded, valid, labels, cfg.eta, cfg.frac_bits)
        assert history[-1] == history[-2]

    def test_max_bounds_history(self, rng):
        model, valid, labels, cfg, bins = self._setup(rng)
        history, best = evaluate_per_tree(model, valid, labels, cfg.eta, cfg.frac_bits)
        assert best == max(history)
        assert all(0.0 <= a <= 1.0 for a in history)

    def test_empty_model_rejected(self, rng):
        model, valid, labels, cfg, bins = self._setup(rng)
        with pytest.raises(ValueError, match="empty model"):
            evaluate_per_tree(Model(), valid, labels, cfg.eta, cfg.frac_bits)

    def test_bin_map_mismatch_rejected(self, rng):
        model, valid, labels, cfg, bins = self._setup(rng)
        other = BinMap([np.array([0.0, 1.0])] * 3)
        with pytest.raises(ValueError, match="different bin map"):
            evaluate_per_tree(model, valid, labels, cfg.eta, cfg.frac_bits, bin_map=other)

    def test_matching_bin_map_accepted(self, rng):
        model, valid, labels, cfg, bins = self._setup(rng)
        history, _ = evaluate_per_tree(model, valid, labels, cfg.eta, cfg.frac_bits,
                                       bin_map=bins)
        assert len(history) == 5


class TestTrainAndEvaluate:
    CFG = TrainConfig(n_trees=4, max_depth=2, subsample=0.8, n_engines=1, seed=5)

    def test_bins_come_from_the_training_rows_and_score_every_tree(self, rng):
        train_raw = random_raw(rng, 300, 3)
        valid_raw = random_raw(rng, 150, 3)
        model, log, bins, history = train_and_evaluate(train_raw, self.CFG, valid_raw)
        assert bins == fit_bin_map(train_raw)
        assert model.n_trees == len(log.trees) == 4
        assert history == evaluate_per_tree(model, transform(valid_raw, bins),
                                            valid_raw.labels, self.CFG.eta,
                                            self.CFG.frac_bits)[0]
        assert train_and_evaluate(train_raw, self.CFG)[3] is None

    def test_max_bins_reaches_the_bin_fit(self, rng):
        raw = random_raw(rng, 300, 2, distinct=40, missing_frac=0.0)
        _, _, bins, _ = train_and_evaluate(raw, self.CFG, max_bins=4)
        assert bins == fit_bin_map(raw, 4) != fit_bin_map(raw)

    def test_validation_set_that_does_not_fit_fails_before_training(self, rng, monkeypatch):
        def no_training(*args):
            raise AssertionError("trained before the validation set was quantized")

        monkeypatch.setattr(metrics, "train", no_training)
        with pytest.raises(ValueError, match="feature count mismatch"):
            train_and_evaluate(random_raw(rng, 50, 3), self.CFG, random_raw(rng, 50, 2))
