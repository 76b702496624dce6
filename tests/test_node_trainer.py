import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpboost import node_trainer
from fpboost.engine_memory import EngineMemory, StateMemory, init_index_table, load
from fpboost.fixed_point import FRAC_BITS, quantize
from fpboost.node_trainer import (
    MISSING_BIN,
    GradientHistogram,
    TrainConfig,
    build_histogram,
    find_best_split,
    leaf_weight,
    split_child_totals,
    split_gain,
)
from fpboost.quantizer import BinMap, QuantizedMatrix
from conftest import random_quantized
from reference import exact_gain_fraction, ref_best_split, ref_leaf_weight

SCALE = 1 << FRAC_BITS


def _memory(rng, n, n_features, missing_frac=0.1, labels=None, scores=None):
    matrix, lab = random_quantized(rng, n, n_features, missing_frac=missing_frac)
    if labels is not None:
        lab = np.asarray(labels, dtype=np.int8)
    mem = load(matrix, lab, 0.0)
    if scores is not None:
        mem.state.scores_raw[:] = scores
        from fpboost.fixed_point import logistic_grad_hess
        g, h = logistic_grad_hess(mem.state.scores_raw, lab)
        mem.state.grads_raw[:] = g
        mem.state.hess_raw[:] = h
    mem.table = init_index_table(np.arange(n), n)
    return mem


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lam": -0.1}, {"gamma": -1.0}, {"max_depth": 0}, {"n_trees": -1},
        {"subsample": 0.0}, {"subsample": 1.5}, {"eta": 0.0}, {"n_engines": 0},
        {"frac_bits": 0}, {"frac_bits": 60},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lam, cfg.gamma, cfg.max_depth, cfg.n_trees) == (1.0, 0.0, 1, 100)
        assert (cfg.subsample, cfg.n_engines, cfg.frac_bits) == (0.5, 64, 24)


class TestBuildHistogram:
    def test_empty_range_is_all_zero(self, rng):
        mem = _memory(rng, 10, 3)
        hist = build_histogram(mem, (4, 4))
        assert not hist.sum_g.any() and not hist.sum_h.any() and not hist.count.any()

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
        assert hist.sum_g[0, 0] == quantize(0.25) and hist.count[0, 0] == 2
        assert hist.sum_h[0, 0] == quantize(0.5)
        assert hist.sum_g[0, 2] == quantize(0.25) and hist.count[0, 2] == 1
        assert hist.sum_h[0, 2] == quantize(0.25)
        assert hist.count[0].sum() == 3

    def test_duplicating_samples_doubles_everything(self, rng):
        matrix, labels = random_quantized(rng, 40, 3)
        mem = load(matrix, labels, 0.0)
        mem.table = init_index_table(np.arange(40), 40)
        single = build_histogram(mem, (0, 40))
        mem.table = np.concatenate([np.arange(40), np.arange(40)])
        double = build_histogram(mem, (0, 80))
        assert np.array_equal(double.sum_g, 2 * single.sum_g)
        assert np.array_equal(double.sum_h, 2 * single.sum_h)
        assert np.array_equal(double.count, 2 * single.count)

    def test_one_memory_serves_any_block_size_in_turn(self, rng):
        # the block buffers kept by the memory must fit each build's block size,
        # however earlier builds sized them
        mem = _memory(rng, 50, 4, missing_frac=0.05)
        mem.table = init_index_table(rng.permutation(50))
        want = {r: build_histogram(EngineMemory(mem.matrix, mem.state, mem.table), r)
                for r in [(0, 50), (7, 40)]}
        for block in (3, 64, 1, 7, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(node_trainer, "HISTOGRAM_BLOCK", block)
                for r, expected in want.items():
                    got = build_histogram(mem, r)
                    assert np.array_equal(got.sum_g, expected.sum_g)
                    assert np.array_equal(got.sum_h, expected.sum_h)
                    assert np.array_equal(got.count, expected.count)

    def test_bitwise_conservation(self, rng):
        mem = _memory(rng, 257, 5)
        hist = build_histogram(mem, (0, 257))
        g, h, c = hist.totals()
        assert g == int(mem.state.grads_raw.sum())
        assert h == int(mem.state.hess_raw.sum())
        assert c == 257
        for f in range(5):
            assert int(hist.sum_g[f].sum()) == g
            assert int(hist.sum_h[f].sum()) == h
            assert int(hist.count[f].sum()) == c


@settings(max_examples=80, deadline=None)
@given(frac_bits=st.integers(1, 48), n=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1), extreme=st.booleans(),
       block=st.sampled_from([None, 1, 3, 7]), start=st.integers(0, 9))
@example(frac_bits=48, n=3000, seed=0, extreme=True, block=None, start=0)
@example(frac_bits=42, n=2047, seed=1, extreme=True, block=None, start=0)   # largest single float64 pass
@example(frac_bits=42, n=2048, seed=1, extreme=True, block=None, start=0)   # smallest 24-bit limb pass
@example(frac_bits=48, n=3000, seed=2, extreme=True, block=7, start=5)     # 428 full blocks and a tail of 4
@example(frac_bits=30, n=10, seed=3, extreme=False, block=3, start=9)      # tail of one sample
@example(frac_bits=24, n=1, seed=4, extreme=False, block=1, start=1)
def test_histogram_exact_at_every_frac_bits(frac_bits, n, seed, extreme, block, start):
    """Bin sums equal Python-int sums for any accepted frac_bits, block size
    and node range; the node's samples sit between `start` others and three more."""
    rng = np.random.default_rng(seed)
    total = start + n + 3
    one = 1 << frac_bits
    h_max = max(one // 4, 1)
    if extreme:
        # near the largest magnitudes the state holds (|grad| = 1, hess = 1/4),
        # one sign, low bits set: partial sums grow past 2**53 fastest
        grads = (one - rng.integers(0, 1024, size=total, dtype=np.int64)) * int(rng.choice([-1, 1]))
        hess = h_max - rng.integers(0, min(h_max, 1024), size=total, dtype=np.int64)
    else:
        grads = rng.integers(-one, one + 1, size=total, dtype=np.int64)
        hess = rng.integers(1, h_max + 1, size=total, dtype=np.int64)
    columns = rng.choice(np.array([0, 1, 2, MISSING_BIN], dtype=np.uint8), size=(2, total))
    matrix = QuantizedMatrix(columns=columns, bin_map=BinMap([np.arange(3.0)] * 2))
    state = StateMemory(np.zeros(total, dtype=np.int64), grads, hess,
                        np.zeros(total, dtype=np.int8), frac_bits)
    table = init_index_table(rng.permutation(total))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(node_trainer, "HISTOGRAM_BLOCK", block)
        hist = build_histogram(EngineMemory(matrix, state, table), (start, start + n))
    node = table[start:start + n]
    g_list, h_list = grads.tolist(), hess.tolist()
    for f in range(2):
        for b in (0, 1, 2, MISSING_BIN):
            rows = node[columns[f, node] == b].tolist()
            assert int(hist.sum_g[f, b]) == sum(g_list[i] for i in rows)
            assert int(hist.sum_h[f, b]) == sum(h_list[i] for i in rows)
            assert int(hist.count[f, b]) == len(rows)
    assert hist.frac_bits == frac_bits


class TestHistogramSubtraction:
    def test_parent_minus_child_is_sibling(self, rng):
        mem = _memory(rng, 300, 4, missing_frac=0.05)
        parent = build_histogram(mem, (0, 300))
        decision = find_best_split(parent, parent.totals(), 0, TrainConfig(max_depth=2))
        assert not decision.is_leaf
        b = mem.matrix.columns[decision.feature]
        left = (b <= decision.threshold_bin) | ((b == MISSING_BIN) & decision.missing_left)
        children = []
        for side in (left, ~left):
            mem.table = init_index_table(np.flatnonzero(side), 300)
            children.append(build_histogram(mem, (0, int(side.sum()))))
        for built, other in ((children[0], children[1]), (children[1], children[0])):
            sibling = parent.minus(built)
            assert np.array_equal(sibling.sum_g, other.sum_g)
            assert np.array_equal(sibling.sum_h, other.sum_h)
            assert np.array_equal(sibling.count, other.count)
            assert sibling.frac_bits == parent.frac_bits

    def test_minus_empty_child_is_parent(self, rng):
        mem = _memory(rng, 50, 3)
        parent = build_histogram(mem, (0, 50))
        same = parent.minus(build_histogram(mem, (7, 7)))
        assert np.array_equal(same.sum_g, parent.sum_g)
        assert np.array_equal(same.sum_h, parent.sum_h)
        assert np.array_equal(same.count, parent.count)


class TestSplitGain:
    def test_antisymmetric_gradients(self):
        assert split_gain(-2.0, 1.0, 2.0, 1.0, 1.0, 0.0) == 2.0

    def test_zero_gradients_give_minus_gamma(self):
        assert split_gain(0.0, 1.0, 0.0, 2.0, 1.0, 0.7) == -0.7

    def test_matches_exact_rational_oracle(self):
        got = split_gain(1.0, 2.0, 3.0, 4.0, 1.0, 0.0)
        exact = exact_gain_fraction(1, 2, 3, 4, 1, 0)
        assert exact == Fraction(-8, 105)
        assert got == pytest.approx(float(exact), rel=1e-12)

    def test_random_values_against_rational_oracle(self, rng):
        for _ in range(300):
            gl, gr = rng.normal(scale=5, size=2)
            hl, hr = rng.random(2) * 10 + 1e-3
            lam = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
            gamma = float(rng.random())
            got = split_gain(gl, hl, gr, hr, lam, gamma)
            exact = exact_gain_fraction(gl, hl, gr, hr, lam, gamma)
            assert got == pytest.approx(float(exact), rel=1e-9, abs=1e-12)

    def test_vectorized_matches_scalar_bitwise(self, rng):
        gl = rng.normal(size=200)
        gr = rng.normal(size=200)
        hl = rng.random(200) + 0.01
        hr = rng.random(200) + 0.01
        vec = split_gain(gl, hl, gr, hr, 1.0, 0.25)
        for i in range(200):
            scalar = split_gain(float(gl[i]), float(hl[i]), float(gr[i]), float(hr[i]), 1.0, 0.25)
            assert vec[i] == scalar


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


def _hist_from_bins(bins, grads, hess, n_features=1):
    """Build a 1-feature histogram directly from (bin, grad_raw, hess_raw) triples."""
    hist = GradientHistogram.zeros(n_features)
    for b, g, h in zip(bins, grads, hess):
        hist.sum_g[0, b] += g
        hist.sum_h[0, b] += h
        hist.count[0, b] += 1
    return hist


class TestFindBestSplit:
    def test_single_bin_node_is_leaf(self):
        hist = _hist_from_bins([3, 3, 3], [SCALE, -SCALE // 2, SCALE // 4],
                               [SCALE // 4] * 3)
        cfg = TrainConfig(max_depth=3, lam=1.0, gamma=0.0)
        decision = find_best_split(hist, hist.totals(), 0, cfg)
        assert decision.is_leaf
        g, h, _ = hist.totals()
        assert decision.leaf_weight_raw == leaf_weight(g / SCALE, h / SCALE, 1.0)

    def test_two_bin_example(self):
        hist = _hist_from_bins([0, 1], [-SCALE, SCALE], [SCALE, SCALE])
        cfg = TrainConfig(max_depth=1, lam=1.0, gamma=0.0)
        decision = find_best_split(hist, hist.totals(), 0, cfg)
        assert not decision.is_leaf
        assert decision.feature == 0
        assert decision.threshold_bin == 0
        assert decision.missing_left is True
        assert decision.gain == 0.5

    def test_equal_features_tie_to_lowest(self):
        hist = GradientHistogram.zeros(2)
        for f in range(2):
            hist.sum_g[f, 0], hist.sum_g[f, 1] = -SCALE, SCALE
            hist.sum_h[f, 0] = hist.sum_h[f, 1] = SCALE
            hist.count[f, 0] = hist.count[f, 1] = 1
        cfg = TrainConfig(max_depth=1, lam=1.0, gamma=0.0)
        decision = find_best_split(hist, hist.totals(), 0, cfg)
        assert decision.feature == 0


    def test_mirrored_thresholds_tie_to_lowest(self):
        # bins 0 and 2 carry equal stats, so t=0 and t=1 mirror each other
        hist = _hist_from_bins([0, 1, 2], [-SCALE, SCALE // 2, -SCALE], [SCALE] * 3)
        cfg = TrainConfig(max_depth=1, lam=1.0, gamma=0.0)
        g_tot, h_tot, _ = hist.totals()
        gains = [split_gain(gl / SCALE, hl / SCALE, (g_tot - gl) / SCALE,
                            (h_tot - hl) / SCALE, 1.0, 0.0)
                 for gl, hl in ((-SCALE, SCALE), (-SCALE // 2, 2 * SCALE))]
        assert gains[0] == gains[1] > 0
        decision = find_best_split(hist, hist.totals(), 0, cfg)
        assert (decision.threshold_bin, decision.missing_left) == (0, True)
        assert decision.gain == gains[0]

    def test_missing_directions_tie_to_left(self):
        # a missing sample with zero grad and hess leaves both directions equal
        hist = _hist_from_bins([0, 1, MISSING_BIN], [-SCALE, SCALE, 0], [SCALE, SCALE, 0])
        decision = find_best_split(hist, hist.totals(), 0, TrainConfig(max_depth=1))
        assert (decision.threshold_bin, decision.missing_left) == (0, True)

    def test_missing_right_wins_when_strictly_better(self):
        hist = _hist_from_bins([0, 1, MISSING_BIN], [-SCALE, SCALE, SCALE], [SCALE] * 3)
        decision = find_best_split(hist, hist.totals(), 0, TrainConfig(max_depth=1))
        assert (decision.threshold_bin, decision.missing_left) == (0, False)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_single_bin_and_all_missing_features_never_win(self, lam):
        hist = GradientHistogram.zeros(3)
        grads = [-SCALE, SCALE, -SCALE, SCALE]
        for f, bins in enumerate(([3] * 4, [MISSING_BIN] * 4, [0, 1, 0, 1])):
            for b, g in zip(bins, grads):
                hist.sum_g[f, b] += g
                hist.sum_h[f, b] += SCALE // 4
                hist.count[f, b] += 1
        cfg = TrainConfig(max_depth=1, lam=lam, gamma=0.0)
        decision = find_best_split(hist, hist.totals(), 0, cfg)
        assert decision.feature == 2
        for f in range(2):
            only = GradientHistogram(hist.sum_g[f:f + 1], hist.sum_h[f:f + 1], hist.count[f:f + 1])
            assert find_best_split(only, only.totals(), 0, cfg).is_leaf

    def test_lam_zero_empty_side_no_nan_no_split(self):
        cfg = TrainConfig(max_depth=1, lam=0.0, gamma=0.0)
        cases = [
            _hist_from_bins([5, 5, 5], [SCALE, -SCALE, SCALE], [SCALE] * 3),    # one bin
            _hist_from_bins([0, 1, 2], [0, 0, 0], [SCALE] * 3),                 # zero gain
            _hist_from_bins([0, 1], [0, SCALE], [0, SCALE]),                    # 0/0 on a side
        ]
        for hist in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                decision = find_best_split(hist, hist.totals(), 0, cfg)
            assert decision.is_leaf
            assert not math.isnan(decision.gain)
        # a real split at lam=0 still has its finite scalar gain
        hist = _hist_from_bins([0, 1], [-SCALE, SCALE], [SCALE, SCALE])
        decision = find_best_split(hist, hist.totals(), 0, cfg)
        assert not decision.is_leaf and decision.gain == split_gain(-1.0, 1.0, 1.0, 1.0, 0.0, 0.0)

    def test_depth_limit_forces_leaf(self):
        hist = _hist_from_bins([0, 1], [-SCALE, SCALE], [SCALE, SCALE])
        cfg = TrainConfig(max_depth=1, lam=1.0, gamma=0.0)
        decision = find_best_split(hist, hist.totals(), 1, cfg)
        assert decision.is_leaf

    def test_empty_node_is_zero_leaf(self):
        hist = GradientHistogram.zeros(2)
        cfg = TrainConfig(lam=0.0, gamma=0.0)
        decision = find_best_split(hist, (0, 0, 0), 0, cfg)
        assert decision.is_leaf and decision.leaf_weight_raw == 0

    def test_gamma_monotonicity(self, rng):
        mem = _memory(rng, 120, 4)
        hist = build_histogram(mem, (0, 120))
        totals = hist.totals()
        prev_gain = math.inf
        was_leaf = False
        for gamma in (0.0, 0.05, 0.2, 1.0, 5.0, 100.0):
            cfg = TrainConfig(max_depth=3, lam=1.0, gamma=gamma)
            d = find_best_split(hist, totals, 0, cfg)
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
        a = find_best_split(hist, hist.totals(), 0, cfg)
        b = find_best_split(hist, hist.totals(), 0, cfg)
        assert a == b

    def test_gain_scan_reconstructs_totals_at_every_threshold(self, rng):
        mem = _memory(rng, 150, 3)
        hist = build_histogram(mem, (0, 150))
        g_tot, h_tot, c_tot = hist.totals()
        for f in range(3):
            cg = np.cumsum(hist.sum_g[f, :255])
            ch = np.cumsum(hist.sum_h[f, :255])
            cc = np.cumsum(hist.count[f, :255])
            gm, hm, cm = (int(hist.sum_g[f, 255]), int(hist.sum_h[f, 255]),
                          int(hist.count[f, 255]))
            for t in range(255):
                for left_extra in ((gm, hm, cm), (0, 0, 0)):
                    gl = int(cg[t]) + left_extra[0]
                    hl = int(ch[t]) + left_extra[1]
                    cl = int(cc[t]) + left_extra[2]
                    assert (gl + (g_tot - gl), hl + (h_tot - hl), cl + (c_tot - cl)) \
                        == (g_tot, h_tot, c_tot)

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
            got = find_best_split(hist, hist.totals(), 0, cfg)
            best, gain = ref_best_split(mem.matrix.columns, np.arange(n),
                                        mem.state.grads_raw, mem.state.hess_raw,
                                        lam, gamma, FRAC_BITS)
            if best is None or gain <= 0.0:
                assert got.is_leaf, f"trial {trial}: expected leaf"
                g, h, _ = hist.totals()
                assert abs(got.leaf_weight_raw - ref_leaf_weight(g, h, lam, FRAC_BITS)) <= 1
            else:
                assert not got.is_leaf, f"trial {trial}: expected split {best}"
                assert (got.feature, got.threshold_bin, got.missing_left) == best, f"trial {trial}"
                assert got.gain == gain, f"trial {trial}"


class TestSplitChildTotals:
    def test_children_tile_parent(self, rng):
        mem = _memory(rng, 140, 4)
        hist = build_histogram(mem, (0, 140))
        totals = hist.totals()
        cfg = TrainConfig(max_depth=2, lam=1.0, gamma=0.0)
        decision = find_best_split(hist, totals, 0, cfg)
        assert not decision.is_leaf
        (gl, hl, cl), (gr, hr, cr) = split_child_totals(hist, decision, totals)
        assert (gl + gr, hl + hr, cl + cr) == totals
        # against a direct partition of the samples
        b = mem.matrix.columns[decision.feature]
        left = b <= decision.threshold_bin
        if decision.missing_left:
            left |= b == 255
        assert cl == int(np.count_nonzero(left))
        assert gl == int(mem.state.grads_raw[left].sum())
        assert hl == int(mem.state.hess_raw[left].sum())

    def test_leaf_rejected(self, rng):
        from fpboost.node_trainer import SplitDecision
        hist = GradientHistogram.zeros(1)
        with pytest.raises(ValueError):
            split_child_totals(hist, SplitDecision(is_leaf=True, leaf_weight_raw=0), (0, 0, 0))
