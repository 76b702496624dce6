"""Per-node training: gradient histograms and exact-greedy split selection.

Histogram accumulation is exact integer addition of raw fixed-point values,
so bin totals reconstruct node totals bitwise no matter how the samples are
ordered or sharded.  Only the final gain ratios run in double precision.
"""

from dataclasses import dataclass

import numpy as np

from .engine_memory import EngineMemory
from .fixed_point import FRAC_BITS, dequantize, quantize, scale
from .quantizer import MISSING_BIN

N_BINS = MISSING_BIN + 1      # bins 0..254 are value bins, 255 is the missing bin
_LIMB_BITS = 24               # limb width of the exact high-frac_bits histogram path
# Samples per histogram accumulation block; it sizes the block buffers.  Do
# not shrink it: at 2048, deep-1e training took 2.5-3.0 s instead of about
# 1.8 s, and the split scan's own time rose from 0.46 to 0.84 s with its code
# unchanged.  The cause is glibc trimming and regrowing the heap between the
# smaller allocations; with glibc's trim and mmap thresholds pinned, the same
# run took 1.7-1.9 s.
HISTOGRAM_BLOCK = 8192


@dataclass(frozen=True)
class TrainConfig:
    """Training parameters; the defaults match the reference configuration."""

    lam: float = 1.0            # L2 regularizer on leaf weights
    gamma: float = 0.0          # minimum gain to accept a split
    max_depth: int = 1          # number of split levels (1 = stump)
    n_trees: int = 100
    subsample: float = 0.5      # per-tree Bernoulli sample rate
    eta: float = 1.0            # shrinkage on leaf weights
    n_engines: int = 64         # modelled engines; read by the cost model only
    seed: int = 0
    frac_bits: int = FRAC_BITS

    def __post_init__(self):
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("lam and gamma must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.n_trees < 0:
            raise ValueError("n_trees must be >= 0")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.n_engines < 1:
            raise ValueError("n_engines must be >= 1")
        if not 1 <= self.frac_bits <= 48:
            raise ValueError("frac_bits must be in [1, 48]")


@dataclass
class GradientHistogram:
    """Per feature, 256 bins of exact (sum_g, sum_h, count) in raw fixed point."""

    sum_g: np.ndarray           # (n_features, 256) int64
    sum_h: np.ndarray           # (n_features, 256) int64
    count: np.ndarray           # (n_features, 256) int64
    frac_bits: int = FRAC_BITS

    @classmethod
    def zeros(cls, n_features: int, frac_bits: int = FRAC_BITS) -> "GradientHistogram":
        shape = (n_features, N_BINS)
        return cls(
            sum_g=np.zeros(shape, dtype=np.int64),
            sum_h=np.zeros(shape, dtype=np.int64),
            count=np.zeros(shape, dtype=np.int64),
            frac_bits=frac_bits,
        )

    @property
    def n_features(self) -> int:
        return self.sum_g.shape[0]

    def minus(self, other: "GradientHistogram") -> "GradientHistogram":
        """Bin-wise integer difference; a parent minus one child is exactly the other child."""
        return GradientHistogram(
            sum_g=self.sum_g - other.sum_g,
            sum_h=self.sum_h - other.sum_h,
            count=self.count - other.count,
            frac_bits=self.frac_bits,
        )

    def totals(self) -> tuple:
        """Node totals (g_raw, h_raw, count) read off feature 0 (all agree)."""
        return (
            int(self.sum_g[0].sum()),
            int(self.sum_h[0].sum()),
            int(self.count[0].sum()),
        )


@dataclass(frozen=True)
class SplitDecision:
    is_leaf: bool
    feature: int | None = None
    threshold_bin: int | None = None
    missing_left: bool | None = None
    gain: float = 0.0
    leaf_weight_raw: int | None = None


def build_histogram(memory: EngineMemory, node_range: tuple) -> GradientHistogram:
    """Accumulate (grad, hess, count) of one node's samples into feature bins.

    The range is streamed in blocks of HISTOGRAM_BLOCK samples.  Each block
    gathers its samples' rows of the row-major bins, one sample's features
    per row, and writes their flat bin keys and repeated weights into the
    memory's reused block buffers.  Block sums are exact and add up in
    int64, exactly too while n * 2**frac_bits < 2**63, which train()
    checks; so the order the samples are gathered in cannot change a bin.
    The block stays at 8192 samples: smaller blocks slow training through
    glibc heap trimming (see HISTOGRAM_BLOCK).
    """
    start, end = node_range
    n_features = memory.matrix.n_features
    frac_bits = memory.state.frac_bits
    hist = GradientHistogram.zeros(n_features, frac_bits)
    block = HISTOGRAM_BLOCK
    # sized for the largest block any node of this memory streams
    keys, weights = memory.block_buffers(min(block, max(end - start, memory.matrix.n_samples)))
    offsets = np.arange(n_features, dtype=np.intp) * N_BINS
    shape = (n_features, N_BINS)
    for lo in range(start, end, block):
        idx = memory.table[lo:min(lo + block, end)]
        m = idx.size
        flat = keys[:m * n_features]
        np.add(np.take(memory.rows, idx, axis=0), offsets, out=flat.reshape(m, n_features))
        block_weights = weights[:m * n_features].reshape(m, n_features)
        # every raw grad/hess is at most 2**frac_bits in magnitude, so partial sums
        # of one float64 pass stay exact integers while m * 2**frac_bits < 2**53
        single_pass = (m << frac_bits) < (1 << 53)
        hist.sum_g += _bin_sums(flat, memory.state.grads_raw[idx], block_weights, single_pass)
        hist.sum_h += _bin_sums(flat, memory.state.hess_raw[idx], block_weights, single_pass)
        hist.count += np.bincount(flat, minlength=n_features * N_BINS).reshape(shape)
    return hist


def _bin_sums(flat, raw, weights, single_pass: bool) -> np.ndarray:
    """Exact int64 (n_features, 256) bin sums of a block's raw values.

    weights is the (m, n_features) buffer that repeats each sample's value
    once per feature, in the order of the flat keys.
    """
    n_features = weights.shape[1]

    def float_pass(values):
        np.copyto(weights, values.astype(np.float64)[:, None])
        sums = np.bincount(flat, weights=weights.ravel(), minlength=n_features * N_BINS)
        return sums.astype(np.int64).reshape(n_features, N_BINS)

    if single_pass:
        return float_pass(raw)
    # value = high * 2**24 + low with 0 <= low < 2**24 and |high| <= 2**24;
    # float64 adds either limb exactly for fewer than 2**29 samples
    low = float_pass(raw & ((1 << _LIMB_BITS) - 1))
    return float_pass(raw >> _LIMB_BITS) * (1 << _LIMB_BITS) + low


def split_gain(gl, hl, gr, hr, lam: float, gamma: float):
    """Second-order gain of a candidate split, on dequantized (real) sums.

    Elementwise over arrays or plain scalars; both run the identical IEEE
    operation sequence, so vectorized scans match scalar re-evaluation bitwise.
    """
    g = gl + gr
    h = hl + hr
    return 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - g * g / (h + lam)) - gamma


def leaf_weight(g: float, h: float, lam: float, frac_bits: int = FRAC_BITS) -> int:
    """Quantized -g / (h + lam) over real-valued node totals."""
    if h + lam <= 0.0:
        raise ValueError("degenerate node: h + lam must be positive")
    return int(quantize(-(g / (h + lam)), frac_bits))


def node_leaf(node_totals, lam: float, frac_bits: int) -> SplitDecision:
    """Leaf decision for node totals (g_raw, h_raw, count); an empty node weighs 0."""
    g_raw, h_raw, count = node_totals
    if count == 0:
        w = 0
    else:
        w = leaf_weight(dequantize(g_raw, frac_bits), dequantize(h_raw, frac_bits), lam, frac_bits)
    return SplitDecision(is_leaf=True, leaf_weight_raw=w)


def find_best_split(hist: GradientHistogram, node_totals: tuple, depth: int,
                    config: TrainConfig) -> SplitDecision:
    """Scan all (feature, threshold, missing-direction) candidates for max gain.

    Sweeps ordered bins 0..254 as thresholds with the predicate "go left iff
    bin <= threshold"; the missing bin joins either side.  Candidates leaving
    a side empty, or with a NaN gain, are not eligible.  Ties resolve to the lowest feature, then
    the lowest threshold, then missing-left.  Declares a leaf when no eligible
    candidate has gain > 0 or the depth limit is reached.
    """
    g_tot, h_tot, c_tot = node_totals
    fb = hist.frac_bits
    if depth >= config.max_depth or c_tot == 0:
        return node_leaf(node_totals, config.lam, fb)

    # one (feature, threshold, side) block: side 0 groups the missing bin
    # left, side 1 right; row-major order is the tie order
    sc = scale(fb)
    cg = np.cumsum(hist.sum_g[:, :MISSING_BIN], axis=1)
    ch = np.cumsum(hist.sum_h[:, :MISSING_BIN], axis=1)
    cc = np.cumsum(hist.count[:, :MISSING_BIN], axis=1)
    gl = np.stack([cg + hist.sum_g[:, MISSING_BIN:], cg], axis=2) / sc
    hl = np.stack([ch + hist.sum_h[:, MISSING_BIN:], ch], axis=2) / sc
    cl = np.stack([cc + hist.count[:, MISSING_BIN:], cc], axis=2)
    gr = g_tot / sc - gl
    hr = h_tot / sc - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = split_gain(gl, hl, gr, hr, config.lam, config.gamma)
    # an empty side (0/0 when lam = 0) or any NaN gain is not eligible
    gains[(cl == 0) | (cl == c_tot) | np.isnan(gains)] = -np.inf

    k = int(np.argmax(gains))
    best_gain = float(gains.flat[k])
    if best_gain <= 0.0:
        return node_leaf(node_totals, config.lam, fb)
    feature, rest = divmod(k, 2 * MISSING_BIN)
    threshold, side = divmod(rest, 2)
    return SplitDecision(
        is_leaf=False,
        feature=feature,
        threshold_bin=threshold,
        missing_left=side == 0,
        gain=best_gain,
    )


def split_child_totals(hist: GradientHistogram, decision: SplitDecision,
                       node_totals: tuple) -> tuple:
    """Exact (g, h, count) raw totals of both children implied by a split."""
    if decision.is_leaf:
        raise ValueError("leaf decision has no children")
    f, t = decision.feature, decision.threshold_bin
    gl = int(hist.sum_g[f, : t + 1].sum())
    hl = int(hist.sum_h[f, : t + 1].sum())
    cl = int(hist.count[f, : t + 1].sum())
    if decision.missing_left:
        gl += int(hist.sum_g[f, MISSING_BIN])
        hl += int(hist.sum_h[f, MISSING_BIN])
        cl += int(hist.count[f, MISSING_BIN])
    g_tot, h_tot, c_tot = node_totals
    return (gl, hl, cl), (g_tot - gl, h_tot - hl, c_tot - cl)
