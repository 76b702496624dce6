import numpy as np
import pytest

from fpboost import boost_controller
from fpboost.engine_memory import HISTOGRAM_BLOCK, N_BINS, init_index_table, load
from fpboost.fixed_point import FRAC_BITS, exact_count
from fpboost.node_trainer import TreeNode, TrainConfig
from fpboost.quantizer import MISSING_BIN, BinMap, QuantizedMatrix
from fpboost.splitter import partition
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
        assert list(table) == [0, 1, 2, 3]
        assert table.size == 4          # the root's range is (0, 4)
        assert table.dtype == np.int64 and table.ndim == 1

    def test_init_preserves_order(self):
        table = init_index_table([7, 3, 5])
        assert list(table) == [7, 3, 5]
        assert table.size == 3

    def test_init_copies_its_input(self):
        active = np.array([2, 0, 1])
        table = init_index_table(active)
        table[:] = [0, 1, 2]
        assert list(active) == [2, 0, 1]

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            init_index_table([1, 1])

    @pytest.mark.parametrize("ids", [[0, 2, 2, 5], [5, 3, 3], [4, 1, 4], [0, 1, 2, 3, 0]])
    def test_repeated_index_rejected_sorted_or_not(self, ids):
        with pytest.raises(ValueError, match="duplicate"):
            init_index_table(ids)

    @pytest.mark.parametrize("ids", [[], [7], [9, 4, 2, 0], [0, 3, 8], [3, 0, 8]])
    def test_distinct_ids_accepted_in_any_order(self, ids):
        table = init_index_table(ids, n_samples=10)
        assert table.tolist() == ids
        assert table.dtype == np.int64

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            init_index_table([0, 9], n_samples=5)
        with pytest.raises(ValueError):
            init_index_table([-1])

    def test_child_ranges_after_partition(self, rng):
        matrix, labels = random_quantized(rng, 30, 2, missing_frac=0.0)
        mem = load(matrix, labels, 0.0)
        mem.table = init_index_table(np.arange(30), n_samples=30)
        column = matrix.columns[0]
        t = int(np.median(column))
        decision = TreeNode(is_leaf=False, feature=0, threshold_bin=t,
                            missing_left=True, gain=1.0)
        mid = partition(mem, (0, 30), decision)
        # the children own (0, mid) and (mid, 30)
        assert list(mem.table[:mid]) == list(np.flatnonzero(column <= t))
        assert list(mem.table[mid:30]) == list(np.flatnonzero(column > t))
        expected_left = int(np.count_nonzero(column <= t))
        assert mid == expected_left


def _recording_partition(monkeypatch):
    """Wrap the partition the tree loop calls; returns the list of
    (node range, mid, node slice before, node slice after) it fills."""
    calls = []

    def recorded(memory, node_range, decision):
        before = memory.table[slice(*node_range)].copy()
        mid = partition(memory, node_range, decision)
        calls.append((node_range, mid, before, memory.table[slice(*node_range)].copy()))
        return mid

    monkeypatch.setattr(boost_controller, "partition", recorded)
    return calls


def _is_subsequence(part, whole):
    position = {int(i): k for k, i in enumerate(whole)}
    places = [position[int(i)] for i in part]
    return places == sorted(places)


def _check_split_ranges(calls, root_range, root_ids):
    """Ranges at each depth tile their parent's range, each child's slice is
    a stable sub-sequence of its parent's and still holds it when the child
    is split; returns {depth: [ranges]}."""
    depth_of = {root_range: 0}
    ids_of = {root_range: root_ids}
    by_depth = {0: [root_range]}
    for (start, end), mid, before, after in calls:
        d = depth_of[(start, end)]      # a split node is the root or a recorded child
        assert np.array_equal(before, ids_of[(start, end)])
        assert start < mid < end, "a split leaves both children non-empty"
        assert sorted(after) == sorted(before)
        for child in ((start, mid), (mid, end)):
            child_ids = after[child[0] - start:child[1] - start]
            assert _is_subsequence(child_ids, before)
            depth_of[child] = d + 1
            ids_of[child] = child_ids
            by_depth.setdefault(d + 1, []).append(child)
    for ranges in by_depth.values():
        spans = sorted(ranges)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2, "ranges overlap"
    return by_depth


def test_permutation_preservation_and_address_accounting(rng, monkeypatch):
    # train for real, recording every split's range through the tree loop
    matrix, labels = random_quantized(rng, 300, 4)
    config = TrainConfig(n_trees=1, max_depth=4, subsample=1.0, n_engines=1,
                         gamma=0.0, seed=5)
    calls = _recording_partition(monkeypatch)

    memory = load(matrix, labels, 0.0)
    memory.table = init_index_table(boost_controller.subsample_indices(0, 0, 300, 1.0), 300)
    root_ids = memory.table.copy()
    boost_controller._grow_tree(memory, config, [])

    assert calls and calls[0][0] == (0, 300)
    by_depth = _check_split_ranges(calls, (0, 300), root_ids)
    assert by_depth[0] == [(0, 300)]
    assert len(by_depth) > 2
    assert sorted(memory.table) == list(range(300))


def test_feature_memory_is_read_only(rng):
    matrix, labels = random_quantized(rng, 10, 2)
    mem = load(matrix, labels, 0.0)
    with pytest.raises(ValueError):
        mem.matrix.columns[0, 0] = 3


@pytest.mark.parametrize("n_features, dtype", [(256, np.uint16), (257, np.uint32)])
def test_rows_are_the_key_matrix(rng, n_features, dtype):
    """rows holds bin + 256 * feature, one sample per row, in the narrowest
    unsigned type that holds 256 * n_features - 1."""
    n = 30
    columns = rng.integers(0, N_BINS, size=(n_features, n)).astype(np.uint8)
    columns[-1, :2] = 0, MISSING_BIN        # the last feature's smallest and largest keys
    matrix = QuantizedMatrix(columns=columns, bin_map=BinMap([np.arange(255.0)] * n_features))
    keys = load(matrix, np.zeros(n)).rows
    assert keys.dtype == dtype and keys.flags.c_contiguous
    assert keys.nbytes == n * n_features * np.dtype(dtype).itemsize
    assert keys.tolist() == [[b + N_BINS * f for f, b in enumerate(row)]
                             for row in columns.T.tolist()]


@pytest.mark.parametrize("frac_bits, rows", [(24, 8192), (40, 8191), (41, 4095), (48, 31)])
@pytest.mark.parametrize("n", [20000, 100])
def test_block_rows_keep_one_float64_pass_exact(rng, frac_bits, rows, n):
    """A histogram block holds min(HISTOGRAM_BLOCK, n_samples,
    exact_count(frac_bits)) samples, so one float64 bincount of its raw
    values, each at most 2**frac_bits in magnitude, sums exactly."""
    assert min(HISTOGRAM_BLOCK, exact_count(frac_bits)) == rows
    matrix, labels = random_quantized(rng, n, 2)
    buffers = load(matrix, labels, 0.0, frac_bits).block_buffers
    assert [b.shape for b in buffers] == [(min(rows, n), 2)] * 3
