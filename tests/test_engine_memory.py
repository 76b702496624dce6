import numpy as np
import pytest

from fpboost.engine_memory import init_index_table, load, node_slice
from fpboost.fixed_point import FRAC_BITS
from fpboost.node_trainer import SplitDecision, TrainConfig
from fpboost.splitter import partition
from fpboost.boost_controller import train
from conftest import random_quantized

SCALE = 1 << FRAC_BITS


class TestLoad:
    def test_zero_base_score(self, rng):
        matrix, labels = random_quantized(rng, 20, 3)
        mem = load(matrix, labels, 0.0)
        assert np.all(mem.state.scores_raw == 0)
        expected_grads = np.where(labels == 1, -(SCALE // 2), SCALE // 2)
        assert np.array_equal(mem.state.grads_raw, expected_grads)
        assert np.all(mem.state.hess_raw == SCALE // 4)

    def test_single_positive_sample_gradient(self, rng):
        matrix, _ = random_quantized(rng, 1, 1, missing_frac=0.0)
        mem = load(matrix, [1], 0.0)
        assert mem.state.grads_raw[0] == -8388608

    def test_length_mismatch(self, rng):
        matrix, _ = random_quantized(rng, 12, 2)
        with pytest.raises(ValueError):
            load(matrix, np.zeros(10, dtype=np.int8), 0.0)

    def test_record_accessor(self, rng):
        matrix, labels = random_quantized(rng, 5, 2)
        mem = load(matrix, labels, 0.0)
        assert mem.state.scores_raw[3] == 0
        assert mem.state.labels[3] == labels[3]
        assert mem.state.hess_raw[3] > 0


class TestIndexTable:
    def test_init_identity(self):
        table = init_index_table([0, 1, 2, 3])
        assert list(table.active()) == [0, 1, 2, 3]
        assert node_slice(table, 0, 0) == (0, 4)
        assert table.active_bank == 0

    def test_init_preserves_order(self):
        table = init_index_table([7, 3, 5])
        assert list(table.active()) == [7, 3, 5]
        assert node_slice(table, 0, 0) == (0, 3)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            init_index_table([1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            init_index_table([0, 9], n_samples=5)
        with pytest.raises(ValueError):
            init_index_table([-1])

    def test_unknown_range_is_lookup_error(self):
        table = init_index_table([0, 1, 2])
        with pytest.raises(KeyError):
            node_slice(table, 5, 0)

    def test_child_ranges_after_partition(self, rng):
        matrix, labels = random_quantized(rng, 30, 2, missing_frac=0.0)
        mem = load(matrix, labels, 0.0)
        mem.table = init_index_table(np.arange(30), n_samples=30)
        column = matrix.columns[0]
        t = int(np.median(column))
        decision = SplitDecision(is_leaf=False, feature=0, threshold_bin=t,
                                 missing_left=True, gain=1.0)
        mid = partition(mem, node_slice(mem.table, 0, 0), decision, depth=0, node_id=0)
        assert node_slice(mem.table, 1, 0) == (0, mid)
        assert node_slice(mem.table, 1, 1) == (mid, 30)
        expected_left = int(np.count_nonzero(column <= t))
        assert mid == expected_left


def _collect_depth_ranges(table):
    by_depth = {}
    for (d, node), rng_ in table.node_ranges.items():
        by_depth.setdefault(d, {})[node] = rng_
    return by_depth


def test_permutation_preservation_and_address_accounting(rng):
    # train for real, then audit the final tree's table directly
    matrix, labels = random_quantized(rng, 300, 4)
    config = TrainConfig(n_trees=1, max_depth=4, subsample=1.0, n_engines=1,
                         gamma=0.0, seed=5)
    from fpboost.boost_controller import _grow_tree, subsample_indices

    memory = load(matrix, labels, 0.0)
    memory.table = init_index_table(subsample_indices(0, 0, 300, 1.0), 300)
    _grow_tree(memory, config, [])

    by_depth = _collect_depth_ranges(memory.table)
    assert by_depth[0] == {0: (0, 300)}
    for d, nodes in by_depth.items():
        spans = sorted(nodes.values())
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2, "ranges overlap"
        if d == 0:
            continue
        for node, (start, end) in nodes.items():
            parent = node // 2
            ps, pe = by_depth[d - 1][parent]
            assert ps <= start <= end <= pe
            sibling = nodes[node ^ 1]
            assert (end - start) + (sibling[1] - sibling[0]) == pe - ps


def test_feature_memory_is_read_only(rng):
    matrix, labels = random_quantized(rng, 10, 2)
    mem = load(matrix, labels, 0.0)
    with pytest.raises(ValueError):
        mem.matrix.columns[0, 0] = 3
