import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpboost import boost_controller
from fpboost.engine_memory import HISTOGRAM_BLOCK, N_BINS, StateMemory, init_index_table, load
from fpboost.fixed_point import FRAC_BITS, exact_count
from fpboost.node_trainer import TreeNode, TrainConfig
from fpboost.quantizer import MISSING_BIN, BinMap, QuantizedMatrix
from fpboost.splitter import partition
from conftest import random_quantized
from reference import ref_log_loss, ref_refresh

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


@pytest.mark.parametrize("frac_bits, exact",
                         [(24, 536870911), (40, 8191), (41, 4095), (42, 2047), (48, 31)])
@pytest.mark.parametrize("n", [20000, 100])
def test_block_rows_keep_one_float64_pass_exact(rng, frac_bits, exact, n):
    """A histogram block holds min(HISTOGRAM_BLOCK, n_samples,
    exact_count(frac_bits)) samples, so the float64 real and imaginary bin
    sums of its raw values, each at most 2**frac_bits in magnitude, are
    exact; keys and weights hold one row a sample of the block."""
    assert exact_count(frac_bits) == exact
    matrix, labels = random_quantized(rng, n, 2)
    buffers = load(matrix, labels, 0.0, frac_bits).block_buffers
    block = min(HISTOGRAM_BLOCK, exact, n)
    assert [b.shape for b in buffers] == [(block, 2), (block, 2), (block,), (2, N_BINS)]


_INT64 = (-(1 << 63), (1 << 63) - 1)
_SCORE_POINTS = [0, 1, -1, 1 << 62, -(1 << 62), *_INT64]


@st.composite
def _pass_inputs(draw):
    """(frac_bits, scores, labels): n is 1 or 2-70, mostly not a multiple
    of a SIMD width; scores at 0, +-1, +-2**62 and the int64 ends among
    others; labels all 0, all 1 or mixed."""
    frac_bits = draw(st.integers(1, 48))
    n = draw(st.one_of(st.just(1), st.integers(2, 70)))
    score = st.one_of(st.sampled_from(_SCORE_POINTS), st.integers(*_INT64),
                      st.integers(-(40 << frac_bits), 40 << frac_bits))
    scores = draw(st.lists(score, min_size=n, max_size=n))
    labels = draw(st.one_of(st.just([0] * n), st.just([1] * n),
                            st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return frac_bits, scores, labels


@settings(max_examples=150, deadline=None)
@given(_pass_inputs())
@example((48, _SCORE_POINTS, [1] * len(_SCORE_POINTS)))
@example((1, _SCORE_POINTS, [0] * len(_SCORE_POINTS)))
def test_refresh_and_loss_equal_the_fresh_array_oracle(inputs):
    """The per-sample pass in the reused scratch gives p, grads, hess and the
    training loss bit for bit as the fresh-array spelling, and the loss and
    a subsample in the same scratch leave p as it was."""
    frac_bits, scores, labels = inputs
    scores = np.array(scores, dtype=np.int64)
    labels = np.array(labels, dtype=np.int8)
    state = StateMemory(*(np.empty(labels.size, dtype=np.int64) for _ in range(3)), labels,
                        frac_bits)
    for raw in (scores, scores[::-1]):     # the second pass runs over used scratch
        state.scores_raw[:] = raw
        p = state.refresh()
        want_p, want_g, want_h = ref_refresh(raw, labels, frac_bits)
        assert np.array_equal(p.view(np.int64), want_p.view(np.int64))
        assert np.array_equal(state.grads_raw, want_g)
        assert np.array_equal(state.hess_raw, want_h)
        loss = boost_controller._log_loss(p, state)
        assert np.float64(loss).view(np.int64) == np.float64(ref_log_loss(want_p, labels)).view(np.int64)
        drawn = boost_controller.subsample_indices(frac_bits, 1, labels.size, 0.5, state.scratch)
        assert np.array_equal(drawn, boost_controller.subsample_indices(frac_bits, 1, labels.size, 0.5))
        assert np.array_equal(p.view(np.int64), want_p.view(np.int64))   # neither writes p


def test_warm_sample_pass_allocates_nothing_of_its_size(rng):
    """One warm refresh plus the training loss on a 100k-sample memory
    allocate less than 4 KiB: both run in the state memory's scratch."""
    n = 100_000
    state = StateMemory(rng.integers(-(3 << 24), 3 << 24, size=n), np.empty(n, dtype=np.int64),
                        np.empty(n, dtype=np.int64), rng.integers(0, 2, size=n).astype(np.int8))
    boost_controller._log_loss(state.refresh(), state)     # makes the scratch and targets
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        boost_controller._log_loss(state.refresh(), state)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4096
