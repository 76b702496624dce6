"""Per-node training: gradient histograms and exact-greedy split selection.

A node's histogram is one int64 array of shape (2, n_features, 256): the
channels G, H hold each bin's raw fixed-point gradient and hessian sums,
and bin 255 is the missing bin.  Accumulation is exact integer addition,
so bin totals reconstruct node totals bitwise no matter how the samples
are ordered or sharded, and a parent minus one child is exactly the other
child.  Only the final gain ratios run in double precision.

The split scan reads the histogram, the config and the node's sample
count, which the caller knows as the length of the node's range, and
returns the TreeNode the tree stores.  An empty node is the zero leaf.  The
scan evaluates the node term g*g / (h + lam) of the gain once per node when
count <= exact_count(frac_bits): every raw grad and hess is at most
2**frac_bits in magnitude, so each candidate's left sum and its complement
are exact float64 integers that add back to the node totals bit for bit.
Larger nodes evaluate the term per candidate; the gains are the same bits
either way.

No candidate mask needs per-bin counts: a side without samples has
G = H = 0, and the side with all of them has the node's own sums, so its
complement is 0.0 exactly.  Such a candidate's gain is then
0.5 * (term - term) - gamma = -gamma <= 0 for lam > 0, in the node-term and
the per-candidate form alike, and 0/0 = NaN for lam = 0, which the scan
turns into -inf.  It can never be a positive split, and a node whose best
gain is not positive is a leaf.  So both children of a split node hold
samples.

At lam = 0 the scan overwrites the gains with np.fmax(gains, -inf), with no
mask buffer: fmax returns the other operand where one is NaN, so a NaN gain
becomes -inf and every other gain keeps its bits, -0.0 and +-inf included.
It runs only at lam = 0, since no other lam can give a NaN gain.
For lam > 0 every denominator h + lam is positive, so no term is 0/0, and
a side term g*g / (h + lam) is >= 0, finite or +inf.  Every raw hessian is
at least 1 unit, so the node's h, and each candidate's hl + hr, is at
least 2**-frac_bits, and the node term is finite.  The side terms' sum
less the node term is then never NaN.  So the scan silences numpy's divide
and invalid warnings at lam = 0 only: at lam > 0 neither can occur.
gamma = 0 skips the subtraction of gamma, as x - 0.0 is x bit for bit.

The gains are computed in place over the scan's four planes of
dequantized sums gl, hl, gr, hr (split_gain).  Each element sees the
operations of the formula in their written order, so every gain has the
bits that a computation into fresh temporaries would give.

A node without missing values (its missing bin empty in every feature)
scans one side only.  Its two sides' prefix sums are then the same int64
sums, so both sides' gains are the same bits, and the tie order picks the
missing-left side first.  Scanning the missing-left side alone therefore
returns the same winner, gain and children's totals, with half the
candidates.

goes_left is the one go-left rule that the partition and every replay apply
to the stored node.  A split node's gain and children's totals are by-products
of the scan: they are never saved and take no part in ==.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .engine_memory import N_BINS, EngineMemory, make_scan_buffers
from .fixed_point import FRAC_BITS, INT64_LIMIT, exact_count, is_int, is_real, quantize, scale
from .quantizer import MISSING_BIN

G, H = 0, 1                   # channels of a (2, n_features, N_BINS) histogram


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
        # the types load_model and load_training_log accept, so that every
        # config made here saves and loads back
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and not is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type is float and not is_real(value):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        # NaN passes the sign check below
        if not (math.isfinite(self.lam) and math.isfinite(self.gamma)):
            raise ValueError(f"lam and gamma must be finite numbers, got lam={self.lam!r}, "
                             f"gamma={self.gamma!r}")
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
        # subsample_indices hashes the seed as one 64-bit word
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 1 <= self.frac_bits <= 48:
            raise ValueError("frac_bits must be in [1, 48]")


def node_totals(hist: np.ndarray) -> tuple:
    """Node totals (g_raw, h_raw) as Python ints, read off feature 0 (all agree)."""
    return tuple(hist[:, 0].sum(axis=1).tolist())


@dataclass
class TreeNode:
    """A split (feature, threshold_bin, missing_left) or a leaf (leaf_weight_raw).

    A scanned split also keeps its gain and its children's raw totals
    ((g_left, h_left), (g_right, h_right)); a leaf or a loaded split has
    gain 0.0 and child_totals None.
    """

    is_leaf: bool
    feature: int | None = None
    threshold_bin: int | None = None
    missing_left: bool | None = None
    leaf_weight_raw: int | None = None
    gain: float = field(default=0.0, compare=False)
    child_totals: tuple | None = field(default=None, compare=False, repr=False)


def goes_left(node: TreeNode, bins: np.ndarray) -> np.ndarray:
    """Which of these bins of the split feature go left: bin <= threshold,
    and the missing bin too when missing_left."""
    go_left = bins <= node.threshold_bin
    if node.missing_left:
        go_left |= bins == MISSING_BIN
    return go_left


def build_histogram(memory: EngineMemory, node_range: tuple) -> np.ndarray:
    """Accumulate (grad, hess) of one node's samples into feature bins.

    The range is streamed in blocks of the memory's block buffers' rows,
    min(HISTOGRAM_BLOCK, n_samples, exact_count(frac_bits)) samples (see
    engine_memory).  Each block gathers its samples' rows of the memory's
    key matrix, whose cells hold the flat keys bin + 256 * feature already,
    and repeats their grad + 1j * hess once per feature; one np.add.at call
    then sums both channels into the complex (n_features, 256) accumulator.
    A complex addition is two separate float64 additions, so the real parts
    sum G and the imaginary parts H, each exact while the accumulator holds
    at most exact_count(frac_bits) samples.  So it is zeroed, and its sums
    go into the histogram, once every exact_count(frac_bits) // block * block
    samples.  Those sums add up in int64, exactly too while
    n * 2**frac_bits < 2**63, which train() checks; so the order the samples
    are gathered in cannot change a bin.  The histogram gets no zero fill:
    the first sums are cast into it, and later ones add to them.  An empty
    range gives the zero histogram.
    """
    start, end = node_range
    n_features = memory.matrix.n_features
    if end <= start:
        return np.zeros((2, n_features, N_BINS), dtype=np.int64)
    hist = np.empty((2, n_features, N_BINS), dtype=np.int64)
    gathered, weights, values, sums = memory.block_buffers
    flat_sums = sums.ravel()            # a view: the buffers are C-contiguous
    # sums' real (G) and imaginary (H) parts as a (2, n_features, 256) float64 view
    channels = sums.view(np.float64).reshape(n_features, N_BINS, 2).transpose(2, 0, 1)
    block = len(gathered)           # >= 1: a non-empty range holds a sample id
    flush = exact_count(memory.state.frac_bits) // block * block
    for lo in range(start, end, block):
        idx = memory.table[lo:min(lo + block, end)]
        m = idx.size
        if (lo - start) % flush == 0:
            sums.fill(0)
        # mode="clip" lets take write into out unbuffered; init_index_table keeps
        # every id in range, and grads_raw[idx] below raises on one past the end
        np.take(memory.rows, idx, axis=0, out=gathered[:m], mode="clip")
        values.real[:m] = memory.state.grads_raw[idx]
        values.imag[:m] = memory.state.hess_raw[idx]
        np.copyto(weights[:m], values[:m, None])
        # 1-d keys and weights: numpy's fast ufunc.at path takes no 2-d index
        np.add.at(flat_sums, gathered[:m].ravel(), weights[:m].ravel())
        if lo + m == end or (lo + m - start) % flush == 0:
            if lo - start < flush:
                np.copyto(hist, channels, casting="unsafe")
            else:
                np.add(hist, channels, out=hist, dtype=np.int64, casting="unsafe")
    return hist


def split_gain(gl, hl, gr, hr, lam: float, gamma: float, parent, out):
    """Second-order gain of candidate splits, elementwise over float64 arrays
    of dequantized (real) sums, in the operation order
    0.5 * (gl*gl / (hl + lam) + gr*gr / (hr + lam) - g*g / (h + lam)) - gamma.

    The four sum planes are written over in place, one operation at a time
    over one contiguous plane, and the gain comes back in gl's memory.
    parent is the node term g*g / (h + lam) over the node totals g = gl + gr
    and h = hl + hr, or None to compute it per element into out, two float64
    arrays of the sums' shape, before the sums are written over.  A caller
    may pass it once per node only where gl + gr == g and hl + hr == h hold
    exactly.
    """
    if parent is None:
        parent, den = out
        np.add(gl, gr, out=parent)
        parent *= parent
        np.add(hl, hr, out=den)
        den += lam
        parent /= den
    gl *= gl
    hl += lam
    gl /= hl
    gr *= gr
    hr += lam
    gr /= hr
    gl += gr
    gl -= parent
    gl *= 0.5
    if gamma:               # x - 0.0 is x bit for bit, -0.0 and NaN included
        gl -= gamma
    return gl


def leaf_weight(g: float, h: float, lam: float, frac_bits: int = FRAC_BITS) -> int:
    """Quantized -g / (h + lam) over real-valued node totals.

    Python floats all the way: round() rounds half to even as quantize's
    rint does, and the power-of-two scaling is exact, so the weight is
    quantize's.  A float of magnitude 2**52 or more is an integer already,
    so the range test before rounding is quantize's test after it.  NaN and
    out-of-range weights go to quantize for its ValueError.
    """
    if h + lam <= 0.0:
        raise ValueError("degenerate node: h + lam must be positive")
    w = -(g / (h + lam))
    raw = w * scale(frac_bits)
    if not -INT64_LIMIT <= raw < INT64_LIMIT:   # True for NaN
        quantize(w, frac_bits)                  # raises its ValueError
    return round(raw)


def node_leaf(totals, lam: float, frac_bits: int) -> TreeNode:
    """Leaf for node totals (g_raw, h_raw)."""
    g_raw, h_raw = totals
    s = scale(frac_bits)
    w = leaf_weight(float(g_raw) / s, float(h_raw) / s, lam, frac_bits)
    return TreeNode(is_leaf=True, leaf_weight_raw=w)


def find_best_split(hist: np.ndarray, count: int, config: TrainConfig,
                    buffers: tuple | None = None) -> TreeNode:
    """Scan all (feature, threshold, missing-direction) candidates for max gain.

    count is the node's sample count; an empty node is the zero leaf.
    Sweeps ordered bins 0..254 as thresholds with the predicate "go left iff
    bin <= threshold"; the missing bin joins either side.  A candidate with a
    NaN gain is not eligible, and one that leaves a side empty never wins
    (see the module docstring); gains are NaN only at lam = 0, so only
    lam = 0 turns them into -inf.  Ties resolve to the lowest feature, then
    the lowest threshold, then missing-left.  A node with an empty missing bin
    in every feature scans the missing-left side only, which gives the same
    result (see the module docstring).  Declares a leaf when no eligible
    candidate has gain > 0.  A split carries its gain and its children's
    exact raw totals: the winner's left sums come out of the int64 prefix
    block, and the right ones are the node totals less them.  buffers are
    the two layouts of make_scan_buffers, fresh when None: the gains are
    computed in place over the four planes of dequantized sums, and the
    other two take a per-candidate node term.  hist is never written.
    """
    if count == 0:
        return TreeNode(is_leaf=True, leaf_weight_raw=0)
    totals = node_totals(hist)
    g_tot, h_tot = totals
    fb = config.frac_bits

    # one (channel, feature, threshold, side) block of G and H: side 0 groups
    # the missing bin left, side 1 right; per channel, row-major order is the
    # tie order.  With no missing value side 1 would repeat side 0
    sides = 2 if np.count_nonzero(hist[:, :, MISSING_BIN]) else 1     # cheaper than .any()
    layouts = make_scan_buffers(hist.shape[1]) if buffers is None else buffers
    left, planes = layouts[sides - 1]
    gl, hl, gr, hr = planes[:4]
    np.cumsum(hist[:, :, :MISSING_BIN], axis=2, out=left[..., -1])
    if sides == 2:
        np.add(left[..., 1], hist[:, :, MISSING_BIN:], out=left[..., 0])
    inv = 2.0 ** -fb                # exact: x * inv == x / 2**fb for every sum here
    g_node, h_node = g_tot * inv, h_tot * inv
    # gl, hl, then their complements gr, hr, each pair in one call
    np.multiply(left, inv, out=planes[:2])
    np.subtract(np.array([g_node, h_node]).reshape(2, 1, 1, 1), planes[:2], out=planes[2:4])
    # one node term while gl + gr == g_node and hl + hr == h_node exactly
    # (the count bound in the module docstring), else one per candidate
    parent = g_node * g_node / (h_node + config.lam) if count <= exact_count(fb) else None
    if config.lam == 0.0:           # only lam = 0 gives x/0 and NaN gains (module docstring)
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = split_gain(gl, hl, gr, hr, config.lam, config.gamma, parent, planes[4:])
        np.fmax(gains, -np.inf, out=gains)      # NaN to -inf, every other value kept
    else:
        gains = split_gain(gl, hl, gr, hr, config.lam, config.gamma, parent, planes[4:])

    k = int(np.argmax(gains))
    best_gain = float(gains.flat[k])
    if best_gain <= 0.0:
        return node_leaf(totals, config.lam, fb)
    feature, rest = divmod(k, sides * MISSING_BIN)
    threshold, side = divmod(rest, sides)
    # read out now: the next scan writes over the prefix block
    g_left, h_left = left[:, feature, threshold, side].tolist()
    return TreeNode(
        is_leaf=False,
        feature=feature,
        threshold_bin=threshold,
        missing_left=side == 0,
        gain=best_gain,
        child_totals=((g_left, h_left), (g_tot - g_left, h_tot - h_left)),
    )
