import numpy as np
import pytest

from fpboost.engine_memory import EngineMemory, init_index_table, load
from fpboost.node_trainer import N_BINS, TrainConfig, build_histogram, find_best_split
from conftest import random_quantized
from reference import merge_histograms, merged_node_histogram, shard


class TestShard:
    def test_even_blocks(self):
        parts = shard([10, 11, 12, 13], 2)
        assert [list(p) for p in parts] == [[10, 11], [12, 13]]

    def test_ceiling_blocks(self):
        assert [len(p) for p in shard(np.arange(5), 2)] == [3, 2]

    def test_more_engines_than_samples(self):
        assert [len(p) for p in shard(np.arange(3), 8)] == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_order_preserved_and_complete(self, rng):
        idx = rng.permutation(97)
        parts = shard(idx, 5)
        assert list(np.concatenate(parts)) == list(idx)

    def test_load_balance(self, rng):
        # ceil-sized blocks: full blocks first, at most one partial, then empties
        for n in (1, 7, 64, 100, 1000):
            for e in (1, 2, 3, 64):
                sizes = [len(p) for p in shard(np.arange(n), e)]
                block = -(-n // e)
                assert sum(sizes) == n
                assert max(sizes) == block
                assert sorted(sizes, reverse=True) == sizes
                assert sum(1 for s in sizes if 0 < s < block) <= 1

    def test_bad_engine_count(self):
        with pytest.raises(ValueError):
            shard([0], 0)


def _engines_over(matrix, labels, active, n_engines):
    base = load(matrix, labels, 0.0)
    return [
        EngineMemory(matrix, base.state, init_index_table(s, matrix.n_samples))
        for s in shard(active, n_engines)
    ]


class TestMerge:
    def test_merge_with_zero_is_identity(self, rng):
        matrix, labels = random_quantized(rng, 64, 3)
        (engine,) = _engines_over(matrix, labels, np.arange(64), 1)
        hist = build_histogram(engine, (0, 64))
        merged = merge_histograms([hist, np.zeros((2, 3, N_BINS), dtype=np.int64)])
        assert np.array_equal(merged, hist)

    def test_merge_order_irrelevant(self, rng):
        matrix, labels = random_quantized(rng, 80, 2)
        engines = _engines_over(matrix, labels, np.arange(80), 2)
        hists = [build_histogram(e, (0, e.table.size)) for e in engines]
        ab = merge_histograms(hists)
        ba = merge_histograms(hists[::-1])
        assert np.array_equal(ab, ba)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            merge_histograms([np.zeros((2, n, N_BINS), dtype=np.int64) for n in (2, 3)])

    def test_empty_list(self):
        with pytest.raises(ValueError):
            merge_histograms([])

    @pytest.mark.parametrize("n_engines", [1, 2, 3, 64])
    def test_sharded_merge_equals_unsharded(self, rng, n_engines):
        matrix, labels = random_quantized(rng, 150, 4, missing_frac=0.2)
        active = np.sort(rng.choice(150, size=110, replace=False))
        (whole,) = _engines_over(matrix, labels, active, 1)
        reference = build_histogram(whole, (0, 110))
        engines = _engines_over(matrix, labels, active, n_engines)
        merged = merged_node_histogram(engines, [(0, e.table.size) for e in engines])
        assert np.array_equal(merged, reference)


def _node_decision(engines, ranges, config):
    """One split scan over a node's merged per-engine histograms."""
    count = sum(end - start for start, end in ranges)
    return find_best_split(merged_node_histogram(engines, ranges), count, config)


class TestTrainNodeParallel:
    """One split decision from the merged per-engine histograms of a node."""

    def test_single_engine_equals_node_trainer(self, rng):
        matrix, labels = random_quantized(rng, 90, 3)
        config = TrainConfig(max_depth=2, n_engines=1)
        (engine,) = _engines_over(matrix, labels, np.arange(90), 1)
        hist = build_histogram(engine, (0, 90))
        direct = find_best_split(hist, 90, config)
        parallel = _node_decision([engine], [(0, 90)], config)
        assert direct == parallel and direct.gain == parallel.gain

    @pytest.mark.parametrize("n_engines", [2, 4, 64])
    def test_any_engine_count_matches_single(self, rng, n_engines):
        matrix, labels = random_quantized(rng, 130, 4, missing_frac=0.1)
        config = TrainConfig(max_depth=2, n_engines=n_engines)
        single = _node_decision(
            _engines_over(matrix, labels, np.arange(130), 1), [(0, 130)],
            config,
        )
        engines = _engines_over(matrix, labels, np.arange(130), n_engines)
        many = _node_decision(
            engines, [(0, e.table.size) for e in engines], config,
        )
        assert single == many and single.gain == many.gain

    def test_all_empty_shards_give_zero_leaf(self, rng):
        matrix, labels = random_quantized(rng, 10, 2)
        config = TrainConfig(n_engines=3, lam=1.0)
        engines = _engines_over(matrix, labels, np.array([], dtype=np.int64), 3)
        decision = _node_decision(engines, [(0, 0)] * 3, config)
        assert decision.is_leaf and decision.leaf_weight_raw == 0

    def test_range_count_must_match(self, rng):
        matrix, labels = random_quantized(rng, 10, 2)
        engines = _engines_over(matrix, labels, np.arange(10), 2)
        with pytest.raises(ValueError):
            merged_node_histogram(engines, [(0, 5)])
