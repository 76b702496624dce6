import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpboost import engine_memory
from fpboost.engine_memory import (EngineMemory, StateMemory, init_index_table, load,
                                   make_scan_buffers)
from fpboost.fixed_point import FRAC_BITS, quantize
from fpboost.node_trainer import (
    MISSING_BIN,
    N_BINS,
    G,
    H,
    TrainConfig,
    build_histogram,
    find_best_split,
    goes_left,
    leaf_weight,
    node_totals,
    split_gain,
)
from fpboost.quantizer import BinMap, QuantizedMatrix
from conftest import random_quantized
from reference import (exact_gain_fraction, ref_best_split, ref_gain, ref_leaf_weight,
                       ref_scan_split)

SCALE = 1 << FRAC_BITS


def _memory(rng, n, n_features, missing_frac=0.1, labels=None, scores=None):
    matrix, lab = random_quantized(rng, n, n_features, missing_frac=missing_frac)
    if labels is not None:
        lab = np.asarray(labels, dtype=np.int8)
    mem = load(matrix, lab, 0.0)
    if scores is not None:
        mem.state.scores_raw[:] = scores
        from fpboost.fixed_point import grad_hess, margin_probability
        g, h = grad_hess(margin_probability(mem.state.scores_raw), lab)
        mem.state.grads_raw[:] = g
        mem.state.hess_raw[:] = h
    mem.table = init_index_table(np.arange(n), n)
    return mem


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lam": -0.1}, {"gamma": -1.0}, {"max_depth": 0}, {"n_trees": -1},
        {"subsample": 0.0}, {"subsample": 1.5}, {"eta": 0.0}, {"n_engines": 0},
        {"frac_bits": 0}, {"frac_bits": 60},
        {"lam": math.nan}, {"lam": math.inf}, {"gamma": math.nan}, {"gamma": math.inf},
        {"gamma": -math.inf},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("max_depth", 2.5), ("max_depth", 2.0), ("max_depth", True), ("n_trees", 2.0),
        ("n_engines", 2.5), ("seed", 1.0), ("seed", False), ("frac_bits", 24.0),
        ("frac_bits", np.int64(24)), ("lam", True), ("gamma", False), ("subsample", True),
        ("eta", True), ("lam", "1.0"), pytest.param("lam", 10**400, id="lam-10**400"),
        ("lam", 2**53 + 1),
    ])
    def test_wrong_type_is_refused_by_name(self, name, value):
        """The integer fields take ints and the real ones floats or ints a
        float holds exactly, never bools: the types the model and log
        loaders accept."""
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64)])
    def test_seed_outside_64_bits_is_refused(self, seed):
        """subsample_indices hashes the seed as one 64-bit word, so a seed
        outside [0, 2**64) would train the trees of another seed."""
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            TrainConfig(seed=seed)
        assert TrainConfig(seed=(1 << 64) - 1).seed == (1 << 64) - 1

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lam, cfg.gamma, cfg.max_depth, cfg.n_trees) == (1.0, 0.0, 1, 100)
        assert (cfg.subsample, cfg.n_engines, cfg.frac_bits) == (0.5, 64, 24)


class TestBuildHistogram:
    def test_empty_range_is_all_zero(self, rng):
        mem = _memory(rng, 10, 3)
        hist = build_histogram(mem, (4, 4))
        assert hist.shape == (2, 3, N_BINS) and hist.dtype == np.int64 and not hist.any()

    def test_empty_range_after_builds_is_all_zero(self, rng):
        """A histogram is made without a zero fill, so an empty range of a
        memory that has built histograms before, whose freed memory a new
        array may reuse, must still come back zero."""
        mem = _memory(rng, 60, 28)
        for _ in range(3):
            assert build_histogram(mem, (0, 60)).any()
        for node_range in ((4, 4), (60, 60), (9, 2)):
            assert not build_histogram(mem, node_range).any()

    def test_hand_accumulation(self):
        # one feature, bins [0, 0, 2]; grads .5, -.25, .25; hessians all .25
        from fpboost.engine_memory import EngineMemory, StateMemory
        from fpboost.quantizer import BinMap, QuantizedMatrix

        matrix = QuantizedMatrix(
            columns=np.array([[0, 0, 2]], dtype=np.uint8),
            bin_map=BinMap([np.array([0.0, 1.0, 2.0])]),
        )
        state = StateMemory(
            scores_raw=np.zeros(3, dtype=np.int64),
            grads_raw=np.array([quantize(0.5), quantize(-0.25), quantize(0.25)], dtype=np.int64),
            hess_raw=np.full(3, quantize(0.25), dtype=np.int64),
            labels=np.zeros(3, dtype=np.int8),
        )
        mem = EngineMemory(matrix, state, init_index_table([0, 1, 2]))
        hist = build_histogram(mem, (0, 3))
        assert hist[G, 0, 0] == quantize(0.25)
        assert hist[H, 0, 0] == quantize(0.5)
        assert hist[G, 0, 2] == quantize(0.25)
        assert hist[H, 0, 2] == quantize(0.25)

    def test_duplicating_samples_doubles_everything(self, rng):
        matrix, labels = random_quantized(rng, 40, 3)
        mem = load(matrix, labels, 0.0)
        mem.table = init_index_table(np.arange(40), 40)
        single = build_histogram(mem, (0, 40))
        mem.table = np.concatenate([np.arange(40), np.arange(40)])
        double = build_histogram(mem, (0, 80))
        assert np.array_equal(double, 2 * single)

    def test_block_buffers_are_made_once(self, rng):
        """The memory sizes its block buffers at first use, to
        min(HISTOGRAM_BLOCK, n_samples) rows, and every later build streams
        through the same ones: a short range, the whole table, and a table
        longer than n_samples."""
        for n, block in ((50, 16), (50, 64), (10, 10)):
            mem = _memory(rng, n, 4, missing_frac=0.05)
            mem.table = init_index_table(rng.permutation(n))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine_memory, "HISTOGRAM_BLOCK", block)
                build_histogram(mem, (3, 7))
            buffers = mem.block_buffers
            assert [b.size for b in buffers] == [min(block, n) * 4] * 3
            whole = build_histogram(mem, (0, n))
            mem.table = np.concatenate([mem.table, mem.table, mem.table[:5]])
            assert np.array_equal(build_histogram(mem, (0, n)), whole)
            tripled = build_histogram(mem, (0, 2 * n))
            assert np.array_equal(tripled, 2 * whole)
            assert all(a is b for a, b in zip(mem.block_buffers, buffers))

    def test_zero_sample_memory_builds_the_zero_histogram(self):
        matrix = QuantizedMatrix(columns=np.empty((3, 0), dtype=np.uint8),
                                 bin_map=BinMap([np.arange(3.0)] * 3))
        mem = EngineMemory(matrix, StateMemory(*(np.empty(0, dtype=np.int64),) * 3,
                                               np.empty(0, dtype=np.int8)),
                           init_index_table([]))
        assert mem.block_buffers[0].shape == (0, 3)
        hist = build_histogram(mem, (0, 0))
        assert hist.shape == (2, 3, N_BINS) and not hist.any()

    @pytest.mark.parametrize("n_features", [256, 257])
    def test_key_width_boundary_matches_int_sums(self, rng, n_features):
        """Histogram keys bin + 256 * feature reach 65,535 at 256 features,
        the most a 16-bit key holds, and pass it at 257."""
        n, start = 40, 3
        columns = rng.integers(0, N_BINS, size=(n_features, n)).astype(np.uint8)
        columns[-1, :] = MISSING_BIN        # the largest key of the last feature
        columns[-1, ::3] = 0                # and its smallest
        one = 1 << 30
        grads = rng.integers(-one, one + 1, size=n, dtype=np.int64)
        hess = rng.integers(1, one + 1, size=n, dtype=np.int64)
        matrix = QuantizedMatrix(columns=columns, bin_map=BinMap([np.arange(255.0)] * n_features))
        state = StateMemory(np.zeros(n, dtype=np.int64), grads, hess,
                            np.zeros(n, dtype=np.int8), 30)
        mem = EngineMemory(matrix, state, init_index_table(rng.permutation(n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_memory, "HISTOGRAM_BLOCK", 16)
            hist = build_histogram(mem, (start, n))
        want = np.zeros((2, n_features, N_BINS), dtype=object)     # Python ints
        for i in mem.table[start:].tolist():
            for f, b in enumerate(columns[:, i].tolist()):
                want[G, f, b] += int(grads[i])
                want[H, f, b] += int(hess[i])
        assert hist.tolist() == want.tolist()

    def test_warm_build_allocates_no_block_keys(self, rng):
        """A root of several blocks gathers its keys into the memory's block
        buffers: a warm build allocates less than one uint16 copy of a
        block's keys, a quarter of an intp one."""
        n, n_features = 2 * engine_memory.HISTOGRAM_BLOCK + 100, 28
        mem = _memory(rng, n, n_features)
        build_histogram(mem, (0, n))        # builds rows and the block buffers
        tracemalloc.start()
        try:
            build_histogram(mem, (0, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < engine_memory.HISTOGRAM_BLOCK * n_features * 2

    def test_warm_small_build_allocates_one_histogram_and_one_bincount(self, rng):
        """A build writes its first block's sums into the node histogram
        (4,096 bytes a feature), with no zero fill and no int64 copies of the
        float64 bincount output (2,048 bytes a feature): a warm 40-sample
        build peaks under both plus 1,024 bytes a feature."""
        n_features = 28
        mem = _memory(rng, 40, n_features)
        build_histogram(mem, (0, 40))       # builds rows and the block buffers
        tracemalloc.start()
        try:
            build_histogram(mem, (0, 40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7168 * n_features

    def test_bitwise_conservation(self, rng):
        mem = _memory(rng, 257, 5)
        hist = build_histogram(mem, (0, 257))
        g, h = node_totals(hist)
        assert g == int(mem.state.grads_raw.sum())
        assert h == int(mem.state.hess_raw.sum())
        assert (hist.sum(axis=2) == np.array([[g], [h]])).all()


@settings(max_examples=80, deadline=None)
@given(frac_bits=st.integers(1, 48), n=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1), extreme=st.booleans(),
       block=st.sampled_from([None, 1, 3, 7]), start=st.integers(0, 9), one_bin=st.booleans())
@example(frac_bits=48, n=3000, seed=0, extreme=True, block=None, start=0, one_bin=False)   # 96 blocks of 31 and a tail of 24
@example(frac_bits=42, n=2047, seed=1, extreme=True, block=None, start=0, one_bin=False)   # one full block of 2047
@example(frac_bits=42, n=2048, seed=1, extreme=True, block=None, start=0, one_bin=False)   # one full block and a tail of one
@example(frac_bits=48, n=3000, seed=2, extreme=True, block=7, start=5, one_bin=False)     # 428 full blocks and a tail of 4
@example(frac_bits=30, n=10, seed=3, extreme=False, block=3, start=9, one_bin=False)      # tail of one sample
@example(frac_bits=24, n=1, seed=4, extreme=False, block=1, start=1, one_bin=False)
def test_histogram_exact_at_every_frac_bits(frac_bits, n, seed, extreme, block, start, one_bin):
    """Bin sums equal Python-int sums for any accepted frac_bits, block size
    and node range; the node's samples sit between `start` others and three more.
    Hessians span [1, 2**frac_bits]."""
    rng = np.random.default_rng(seed)
    total = start + n + 3
    one = 1 << frac_bits
    if extreme:
        # at the largest magnitudes the build accepts (|grad| and hess up to 1),
        # one sign, low bits set: partial sums grow past 2**53 fastest
        grads = (one - rng.integers(0, 1024, size=total, dtype=np.int64)) * int(rng.choice([-1, 1]))
        hess = one - rng.integers(0, min(one, 1024), size=total, dtype=np.int64)
    else:
        grads = rng.integers(-one, one + 1, size=total, dtype=np.int64)
        hess = rng.integers(1, one + 1, size=total, dtype=np.int64)
    columns = rng.choice(np.array([0, 1, 2, MISSING_BIN], dtype=np.uint8), size=(2, total))
    if one_bin:
        columns[0] = 0
    matrix = QuantizedMatrix(columns=columns, bin_map=BinMap([np.arange(3.0)] * 2))
    state = StateMemory(np.zeros(total, dtype=np.int64), grads, hess,
                        np.zeros(total, dtype=np.int8), frac_bits)
    table = init_index_table(rng.permutation(total))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(engine_memory, "HISTOGRAM_BLOCK", block)
        hist = build_histogram(EngineMemory(matrix, state, table), (start, start + n))
    node = table[start:start + n]
    g_list, h_list = grads.tolist(), hess.tolist()
    for f in range(2):
        for b in (0, 1, 2, MISSING_BIN):
            rows = node[columns[f, node] == b].tolist()
            assert int(hist[G, f, b]) == sum(g_list[i] for i in rows)
            assert int(hist[H, f, b]) == sum(h_list[i] for i in rows)
    assert hist.shape == (2, 2, N_BINS) and hist.dtype == np.int64


class TestHistogramSubtraction:
    def test_parent_minus_child_is_sibling(self, rng):
        mem = _memory(rng, 300, 4, missing_frac=0.05)
        parent = build_histogram(mem, (0, 300))
        decision = find_best_split(parent, 300, TrainConfig(max_depth=2))
        assert not decision.is_leaf
        b = mem.matrix.columns[decision.feature]
        left = (b <= decision.threshold_bin) | ((b == MISSING_BIN) & decision.missing_left)
        children = []
        for side in (left, ~left):
            mem.table = init_index_table(np.flatnonzero(side), 300)
            children.append(build_histogram(mem, (0, int(side.sum()))))
        for built, other in ((children[0], children[1]), (children[1], children[0])):
            sibling = parent - built
            assert np.array_equal(sibling, other)
            assert sibling.dtype == np.int64

    def test_minus_empty_child_is_parent(self, rng):
        mem = _memory(rng, 50, 3)
        parent = build_histogram(mem, (0, 50))
        same = parent - build_histogram(mem, (7, 7))
        assert np.array_equal(same, parent)


def _gain(gl, hl, gr, hr, lam, gamma):
    """split_gain over fresh float64 planes of these values, which it writes
    over, with fresh node-term planes."""
    sums = np.array([gl, hl, gr, hr], dtype=np.float64).reshape(4, -1)
    return split_gain(*sums, lam, gamma, None, np.empty_like(sums[:2]))


class TestSplitGain:
    def test_antisymmetric_gradients(self):
        assert _gain(-2.0, 1.0, 2.0, 1.0, 1.0, 0.0).tolist() == [2.0]

    def test_zero_gradients_give_minus_gamma(self):
        assert _gain(0.0, 1.0, 0.0, 2.0, 1.0, 0.7).tolist() == [-0.7]

    def test_matches_exact_rational_oracle(self):
        got = _gain(1.0, 2.0, 3.0, 4.0, 1.0, 0.0)
        exact = exact_gain_fraction(1, 2, 3, 4, 1, 0)
        assert exact == Fraction(-8, 105)
        assert got.tolist() == pytest.approx([float(exact)], rel=1e-12)

    def test_random_values_against_rational_oracle(self, rng):
        for lam in (0.0, 0.5, 1.0, 3.0):
            gl, gr = rng.normal(scale=5, size=(2, 75))
            hl, hr = rng.random((2, 75)) * 10 + 1e-3
            gamma = float(rng.random())
            got = _gain(gl, hl, gr, hr, lam, gamma)
            for i in range(75):
                exact = exact_gain_fraction(gl[i], hl[i], gr[i], hr[i], lam, gamma)
                assert got[i] == pytest.approx(float(exact), rel=1e-9, abs=1e-12)

    def test_oracle_gain_matches_bitwise(self, rng):
        """ref_gain is split_gain bit for bit, NaN and inf included: the exact
        split match of the config-space test against ref_train rests on it.
        Among the candidates are zero sums (0/0 and x/0 at lam = 0) and
        squares that overflow to inf, with a finite node term (an inf gain)
        or an infinite one (inf - inf)."""
        n = 300
        gl, gr = rng.normal(size=(2, n))
        hl, hr = rng.random((2, n))
        gl[:20] = gr[10:30] = 0.0
        hl[:10] = hr[5:15] = 0.0
        gl[30:40], gr[30:35] = 1e200, -1e200
        for lam, gamma in itertools.product((0.0, 1.0), (0.0, 0.25)):
            planes = np.array([gl, hl, gr, hr])     # fresh: split_gain writes over them
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                got = split_gain(*planes, lam, gamma, None, np.empty((2, n)))
                want = ref_gain(gl, hl, gr, hr, lam, gamma)
            assert np.shares_memory(got, planes[0]) and got.shape == (n,)
            assert got.tobytes() == want.tobytes(), (lam, gamma)
            assert np.isnan(got).any() and np.isinf(got).any()


class TestLeafWeight:
    def test_closed_form(self):
        assert leaf_weight(2.0, 4.0, 1.0) == quantize(-0.4)

    def test_zero_gradient(self):
        assert leaf_weight(0.0, 3.0, 1.0) == 0

    def test_empty_hessian(self):
        assert leaf_weight(-1.0, 0.0, 1.0) == SCALE

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            leaf_weight(1.0, 0.0, 0.0)


_LIMIT = 2.0**63


def _raw_weights():
    """Raw (scaled) leaf weights where rounding is delicate: exact half-unit
    ties of both signs, values within a few float spacings of +-2**63, any
    float, and NaN."""
    ties = st.integers(-2**52, 2**52 - 1).map(lambda k: k + 0.5)
    edge = st.builds(lambda end, steps: _nudge(end, steps),
                     st.sampled_from([-_LIMIT, _LIMIT]), st.integers(-3, 3))
    return st.one_of(ties, edge, st.floats(allow_nan=False), st.just(math.nan))


def _nudge(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


@settings(max_examples=400, deadline=None)
@given(raw=_raw_weights(), frac_bits=st.integers(1, 48),
       g=st.floats(-1e6, 1e6), h=st.floats(0.0, 1e6), lam=st.sampled_from([0.0, 2.0**-20, 1.0]),
       direct=st.booleans())
@example(raw=2.5, frac_bits=1, g=0.0, h=0.0, lam=0.0, direct=True)
@example(raw=-2.5, frac_bits=48, g=0.0, h=0.0, lam=0.0, direct=True)
@example(raw=-_LIMIT, frac_bits=24, g=0.0, h=0.0, lam=0.0, direct=True)
@example(raw=math.nextafter(_LIMIT, 0.0), frac_bits=24, g=0.0, h=0.0, lam=0.0, direct=True)
@example(raw=_LIMIT, frac_bits=24, g=0.0, h=0.0, lam=0.0, direct=True)
@example(raw=math.nextafter(-_LIMIT, -math.inf), frac_bits=24, g=0.0, h=0.0, lam=0.0, direct=True)
@example(raw=0.0, frac_bits=31, g=3.0, h=2.8589510969994853e-299, lam=0.0, direct=False)  # w * 2**31 is inf
def test_leaf_rounding_matches_quantize(raw, frac_bits, g, h, lam, direct):
    """leaf_weight rounds as int(quantize(w, frac_bits)) does, and refuses
    what quantize refuses with quantize's message and warnings.  direct
    cases hit a raw weight exactly (w = -(g / 1.0) for g = -w); the others
    divide random real totals."""
    if direct:
        w = raw / 2.0**frac_bits
        g, h, lam = -w, 0.0, 1.0
    if h + lam <= 0.0:
        return
    w = -(g / (h + lam))
    want, want_warnings = _outcome(lambda: int(quantize(w, frac_bits)))
    got, got_warnings = _outcome(lambda: leaf_weight(g, h, lam, frac_bits))
    assert got_warnings == want_warnings
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
    else:
        assert type(got) is int and got == want


def _outcome(call):
    """call's value or ValueError, and the (category, message) of each warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except ValueError as err:
            value = err
    return value, [(w.category, str(w.message)) for w in caught]


def _hist_from_bins(bins, grads, hess, n_features=1):
    """Build a 1-feature histogram directly from (bin, grad_raw, hess_raw) triples."""
    hist = np.zeros((2, n_features, N_BINS), dtype=np.int64)
    for b, g, h in zip(bins, grads, hess):
        hist[G, 0, b] += g
        hist[H, 0, b] += h
    return hist


class TestFindBestSplit:
    def test_single_bin_node_is_leaf(self):
        hist = _hist_from_bins([3, 3, 3], [SCALE, -SCALE // 2, SCALE // 4],
                               [SCALE // 4] * 3)
        cfg = TrainConfig(max_depth=3, lam=1.0, gamma=0.0)
        decision = find_best_split(hist, 3, cfg)
        assert decision.is_leaf
        g, h = node_totals(hist)
        assert decision.leaf_weight_raw == leaf_weight(g / SCALE, h / SCALE, 1.0)

    def test_two_bin_example(self):
        hist = _hist_from_bins([0, 1], [-SCALE, SCALE], [SCALE, SCALE])
        cfg = TrainConfig(max_depth=1, lam=1.0, gamma=0.0)
        decision = find_best_split(hist, 2, cfg)
        assert not decision.is_leaf
        assert decision.feature == 0
        assert decision.threshold_bin == 0
        assert decision.missing_left is True
        assert decision.gain == 0.5

    def test_equal_features_tie_to_lowest(self):
        hist = np.zeros((2, 2, N_BINS), dtype=np.int64)
        for f in range(2):
            hist[G, f, 0], hist[G, f, 1] = -SCALE, SCALE
            hist[H, f, 0] = hist[H, f, 1] = SCALE
        cfg = TrainConfig(max_depth=1, lam=1.0, gamma=0.0)
        decision = find_best_split(hist, 2, cfg)
        assert decision.feature == 0


    def test_mirrored_thresholds_tie_to_lowest(self):
        # bins 0 and 2 carry equal stats, so t=0 and t=1 mirror each other
        hist = _hist_from_bins([0, 1, 2], [-SCALE, SCALE // 2, -SCALE], [SCALE] * 3)
        cfg = TrainConfig(max_depth=1, lam=1.0, gamma=0.0)
        g_tot, h_tot = node_totals(hist)
        gains = [ref_gain(gl / SCALE, hl / SCALE, (g_tot - gl) / SCALE,
                          (h_tot - hl) / SCALE, 1.0, 0.0)
                 for gl, hl in ((-SCALE, SCALE), (-SCALE // 2, 2 * SCALE))]
        assert gains[0] == gains[1] > 0
        decision = find_best_split(hist, 3, cfg)
        assert (decision.threshold_bin, decision.missing_left) == (0, True)
        assert decision.gain == gains[0]

    def test_missing_directions_tie_to_left(self):
        # a missing sample with zero grad and hess leaves both directions equal
        hist = _hist_from_bins([0, 1, MISSING_BIN], [-SCALE, SCALE, 0], [SCALE, SCALE, 0])
        decision = find_best_split(hist, 3, TrainConfig(max_depth=1))
        assert (decision.threshold_bin, decision.missing_left) == (0, True)

    def test_missing_right_wins_when_strictly_better(self):
        hist = _hist_from_bins([0, 1, MISSING_BIN], [-SCALE, SCALE, SCALE], [SCALE] * 3)
        decision = find_best_split(hist, 3, TrainConfig(max_depth=1))
        assert (decision.threshold_bin, decision.missing_left) == (0, False)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_single_bin_and_all_missing_features_never_win(self, lam):
        hist = np.zeros((2, 3, N_BINS), dtype=np.int64)
        grads = [-SCALE, SCALE, -SCALE, SCALE]
        for f, bins in enumerate(([3] * 4, [MISSING_BIN] * 4, [0, 1, 0, 1])):
            for b, g in zip(bins, grads):
                hist[G, f, b] += g
                hist[H, f, b] += SCALE // 4
        cfg = TrainConfig(max_depth=1, lam=lam, gamma=0.0)
        decision = find_best_split(hist, 4, cfg)
        assert decision.feature == 2
        for f in range(2):
            only = hist[:, f:f + 1]
            assert find_best_split(only, 4, cfg).is_leaf

    def test_lam_zero_empty_side_no_nan_no_split(self):
        cfg = TrainConfig(max_depth=1, lam=0.0, gamma=0.0)
        cases = [
            (_hist_from_bins([5, 5, 5], [SCALE, -SCALE, SCALE], [SCALE] * 3), 3),    # one bin
            (_hist_from_bins([0, 1, 2], [0, 0, 0], [SCALE] * 3), 3),                 # zero gain
            (_hist_from_bins([0, 1], [0, SCALE], [0, SCALE]), 2),                    # 0/0 on a side
        ]
        for hist, count in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                decision = find_best_split(hist, count, cfg)
            assert decision.is_leaf
            assert not math.isnan(decision.gain)
        # a real split at lam=0 still has its finite scalar gain
        hist = _hist_from_bins([0, 1], [-SCALE, SCALE], [SCALE, SCALE])
        decision = find_best_split(hist, 2, cfg)
        assert not decision.is_leaf and decision.gain == ref_gain(-1.0, 1.0, 1.0, 1.0, 0.0, 0.0)

    def test_empty_node_is_zero_leaf(self):
        hist = np.zeros((2, 2, N_BINS), dtype=np.int64)
        cfg = TrainConfig(lam=0.0, gamma=0.0)
        decision = find_best_split(hist, 0, cfg)
        assert decision.is_leaf and decision.leaf_weight_raw == 0

    def test_gamma_monotonicity(self, rng):
        mem = _memory(rng, 120, 4)
        hist = build_histogram(mem, (0, 120))
        prev_gain = math.inf
        was_leaf = False
        for gamma in (0.0, 0.05, 0.2, 1.0, 5.0, 100.0):
            cfg = TrainConfig(max_depth=3, lam=1.0, gamma=gamma)
            d = find_best_split(hist, 120, cfg)
            if was_leaf:
                assert d.is_leaf, "leaf at smaller gamma must stay leaf"
            if not d.is_leaf:
                assert d.gain <= prev_gain
                prev_gain = d.gain
            else:
                was_leaf = True

    def test_determinism(self, rng):
        mem = _memory(rng, 90, 3)
        hist = build_histogram(mem, (0, 90))
        cfg = TrainConfig(max_depth=2, lam=0.5, gamma=0.01)
        a = find_best_split(hist, 90, cfg)
        b = find_best_split(hist, 90, cfg)
        assert a == b and a.gain == b.gain

    def test_gain_scan_reconstructs_totals_at_every_threshold(self, rng):
        mem = _memory(rng, 150, 3)
        hist = build_histogram(mem, (0, 150))
        g_tot, h_tot = node_totals(hist)
        for f in range(3):
            cg = np.cumsum(hist[G, f, :255])
            ch = np.cumsum(hist[H, f, :255])
            gm, hm = int(hist[G, f, 255]), int(hist[H, f, 255])
            for t in range(255):
                for left_extra in ((gm, hm), (0, 0)):
                    gl = int(cg[t]) + left_extra[0]
                    hl = int(ch[t]) + left_extra[1]
                    assert (gl + (g_tot - gl), hl + (h_tot - hl)) == (g_tot, h_tot)

    def test_matches_brute_force_on_random_nodes(self, rng):
        for trial in range(200):
            n = int(rng.integers(2, 257))
            n_features = int(rng.integers(1, 9))
            lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            gamma = float(rng.choice([0.0, 0.1]))
            mem = _memory(rng, n, n_features,
                          missing_frac=float(rng.choice([0.0, 0.1, 0.4])),
                          scores=rng.integers(-2 * SCALE, 2 * SCALE, size=n))
            hist = build_histogram(mem, (0, n))
            cfg = TrainConfig(max_depth=4, lam=lam, gamma=gamma)
            got = find_best_split(hist, n, cfg)
            best, gain = ref_best_split(mem.matrix.columns, np.arange(n),
                                        mem.state.grads_raw, mem.state.hess_raw,
                                        lam, gamma, FRAC_BITS)
            if best is None or gain <= 0.0:
                assert got.is_leaf, f"trial {trial}: expected leaf"
                g, h = node_totals(hist)
                assert abs(got.leaf_weight_raw - ref_leaf_weight(g, h, lam, FRAC_BITS)) <= 1
            else:
                assert not got.is_leaf, f"trial {trial}: expected split {best}"
                assert (got.feature, got.threshold_bin, got.missing_left) == best, f"trial {trial}"
                assert got.gain == gain, f"trial {trial}"


@pytest.mark.parametrize("frac_bits", [8, 24, 40, 48])
@pytest.mark.parametrize("lam", [0.0, 5e-324, 2.0**-20, 1.0, 1e300])
@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("missing", [0.0, 0.3])
def test_scan_matches_per_candidate_node_term(frac_bits, lam, gamma, missing):
    """find_best_split evaluates the node term once per node where
    n * 2**frac_bits < 2**53, and per candidate elsewhere; either way it
    picks the oracle's split with a bit-equal gain.  At 48 bits the
    boundary lies between 31 and 32 samples.  The oracle also masks the
    candidates that leave a side empty, which the scan does not: among the
    nodes are single samples, nodes with every sample in one bin of every
    feature, and all-missing features."""
    rng = np.random.default_rng([frac_bits, int(lam), int(gamma * 10), int(missing * 10)])
    one = 1 << frac_bits
    h_max = max(one // 4, 1)
    for n, extreme, rep in itertools.product((1, 2, 3, 7, 31, 32, 33, 64, 150, 300),
                                             (False, True), range(10)):
        if extreme:
            # near the largest magnitudes the state holds, one sign, low bits
            # set: the partial sums of a large node leave the float64 integers
            grads = (one - rng.integers(0, 1024, size=n)) * int(rng.choice([-1, 1]))
            hess = h_max - rng.integers(0, min(h_max, 1024), size=n)
        else:
            grads = rng.integers(-one, one + 1, size=n)
            hess = rng.integers(1, h_max + 1, size=n)
        columns = rng.integers(0, int(rng.choice([4, 40, 255])), size=(3, n)).astype(np.uint8)
        columns[rng.random(size=columns.shape) < missing] = MISSING_BIN
        if rep == 0:
            columns[:] = columns[:, :1]     # every sample in one bin of every feature
        elif rep == 1:
            columns[1] = MISSING_BIN
        matrix = QuantizedMatrix(columns=columns, bin_map=BinMap([np.arange(3.0)] * 3))
        state = StateMemory(np.zeros(n, dtype=np.int64), grads.astype(np.int64),
                            hess.astype(np.int64), np.zeros(n, dtype=np.int8), frac_bits)
        hist = build_histogram(EngineMemory(matrix, state, init_index_table(np.arange(n))), (0, n))
        cfg = TrainConfig(lam=lam, gamma=gamma, frac_bits=frac_bits)
        got = find_best_split(hist, n, cfg)
        counts = np.stack([np.bincount(column, minlength=N_BINS) for column in columns])
        best, gain = ref_scan_split(hist, counts, lam, gamma, frac_bits)
        case = (n, extreme, best, gain)
        if gain <= 0.0:
            assert got.is_leaf, case
        else:
            assert (got.feature, got.threshold_bin, got.missing_left) == best, case
            assert got.gain.hex() == gain.hex(), case


class TestScanBuffers:
    def test_reused_buffers_match_fresh_scans(self, rng):
        mem = _memory(rng, 400, 6, missing_frac=0.1)
        mem.table = init_index_table(rng.permutation(400))
        a, b = build_histogram(mem, (0, 400)), build_histogram(mem, (0, 90))
        cfg = TrainConfig(max_depth=3, lam=0.5)
        fresh = [find_best_split(h, n, cfg) for h, n in ((a, 400), (b, 90))]
        assert fresh[0].gain != fresh[1].gain
        for hist, n, want in ((a, 400, fresh[0]), (b, 90, fresh[1]), (a, 400, fresh[0])):
            before = hist.copy()
            got = find_best_split(hist, n, cfg, mem.scan_buffers)
            assert got == want and got.gain.hex() == want.gain.hex()
            assert np.array_equal(hist, before)
        assert mem.scan_buffers is mem.scan_buffers
        assert EngineMemory(mem.matrix, mem.state).scan_buffers[0] is not mem.scan_buffers[0]

    def test_one_set_serves_dense_and_sparse_nodes_in_turn(self, rng):
        """A node without missing values scans the one-sided layout, one with
        them the two-sided layout, and both are views of the same memory."""
        buffers = make_scan_buffers(6)
        nodes = []
        for missing_frac in (0.1, 0.0):
            mem = _memory(rng, 400, 6, missing_frac=missing_frac)
            mem.table = init_index_table(rng.permutation(400))
            hists = [build_histogram(mem, (0, n)) for n in (400, 90)]
            assert all(hist[:, :, MISSING_BIN].any() == (missing_frac > 0) for hist in hists)
            nodes += zip(hists, (400, 90))
        for lam in (0.0, 0.5):
            cfg = TrainConfig(max_depth=3, lam=lam)
            fresh = [find_best_split(hist, n, cfg) for hist, n in nodes]
            assert not any(node.is_leaf for node in fresh)
            assert all(node.missing_left for node in fresh[2:])
            for i in (0, 2, 1, 3, 3, 0, 2):
                got = find_best_split(*nodes[i], cfg, buffers)
                assert got == fresh[i] and got.gain.hex() == fresh[i].gain.hex()
                assert got.child_totals == fresh[i].child_totals
        assert np.shares_memory(buffers[0][0], buffers[1][0])
        assert np.shares_memory(buffers[0][1], buffers[1][1])

    def test_buffers_hold_six_planes(self):
        """A prefix block and six float64 planes of F * 255 * 2 candidates:
        the four sums the gain is computed over in place, and two for a
        per-candidate node term; 913,920 bytes at 28 features."""
        size = 28 * MISSING_BIN * 2
        (_, planes1), (prefix, planes) = make_scan_buffers(28)
        assert planes.shape == (6, 28, MISSING_BIN, 2) and planes.dtype == np.float64
        assert prefix.shape == (2, 28, MISSING_BIN, 2) and prefix.dtype == np.int64
        assert planes.nbytes == 6 * size * 8 and prefix.nbytes + planes.nbytes == 913_920
        assert planes.base.nbytes == planes.nbytes and prefix.base.nbytes == prefix.nbytes
        assert planes1.shape == (6, 28, MISSING_BIN, 1) and np.shares_memory(planes1, planes)

    def test_scan_with_memory_buffers_allocates_little(self, rng):
        assert self._scan_peak(rng, missing_frac=0.1) < 256 * 1024

    def test_dense_scan_allocates_little(self, rng):
        assert self._scan_peak(rng, missing_frac=0.0) < 256 * 1024

    def test_lam_zero_scan_allocates_no_mask(self, rng):
        """At lam = 0 the scan turns NaN gains into -inf in place: it stays
        under the gate above, and at 256 features it allocates less than a
        bool mask of its 130,560 candidates would take."""
        assert self._scan_peak(rng, missing_frac=0.1, lam=0.0) < 256 * 1024
        assert self._scan_peak(rng, missing_frac=0.1, lam=0.0, n_features=256) < 256 * 255 * 2

    @staticmethod
    def _scan_peak(rng, missing_frac, lam=1.0, n_features=28):
        # without reused buffers one scan at 28 features peaks at about 1.1 MB;
        # what is left is numpy's casting buffers and a few Python objects
        mem = _memory(rng, 2000, n_features, missing_frac=missing_frac)
        hist = build_histogram(mem, (0, 2000))
        assert hist[:, :, MISSING_BIN].any() == (missing_frac > 0)
        cfg = TrainConfig(lam=lam)
        assert not find_best_split(hist, 2000, cfg, mem.scan_buffers).is_leaf    # warm-up
        tracemalloc.start()
        try:
            find_best_split(hist, 2000, cfg, mem.scan_buffers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestChildTotals:
    def test_split_holds_a_direct_partitions_sums(self, rng):
        """A split's child_totals are the raw sums of its samples on each side
        of a direct partition, for winners that send the missing bin either
        way, at 24 and 48 fractional bits.  Every scan shares one set of
        buffers, so each split's totals must outlive the scans after it."""
        buffers, found = make_scan_buffers(3), []
        for frac_bits, _ in itertools.product((24, 48), range(40)):
            one = 1 << frac_bits
            n = int(rng.integers(2, 200))
            matrix, _ = random_quantized(rng, n, 3, missing_frac=0.3)
            grads = rng.integers(-one, one + 1, size=n)
            hess = rng.integers(1, one + 1, size=n)
            state = StateMemory(np.zeros(n, dtype=np.int64), grads, hess,
                                np.zeros(n, dtype=np.int8), frac_bits)
            mem = EngineMemory(matrix, state, init_index_table(np.arange(n)))
            node = find_best_split(build_histogram(mem, (0, n)), n,
                                   TrainConfig(frac_bits=frac_bits), buffers)
            if node.is_leaf:
                assert node.child_totals is None
                continue
            left = goes_left(node, matrix.columns[node.feature])
            want = tuple((sum(grads[side].tolist()), sum(hess[side].tolist()))
                         for side in (left, ~left))
            found.append((frac_bits, node.missing_left, node, want))
        assert {(fb, missing_left) for fb, missing_left, _, _ in found} == {
            (24, True), (24, False), (48, True), (48, False)}
        for _, _, node, want in found:
            assert node.child_totals == want

    def test_leaf_has_none(self):
        cfg = TrainConfig()
        one_bin = _hist_from_bins([3, 3], [SCALE, -SCALE // 2], [SCALE] * 2)
        assert find_best_split(one_bin, 2, cfg).child_totals is None
        empty = np.zeros((2, 1, N_BINS), dtype=np.int64)
        assert find_best_split(empty, 0, cfg).child_totals is None
