"""Independent reference implementations used as oracles.

Everything here recomputes results along a different path than the library:
bins by one binary search per value (no guess table), splits by direct
sample partitioning (no histograms, no prefix sums, no index tables),
sigmoid in arbitrary precision and as two masked passes, the per-sample
pass and the training loss with a fresh array per operation,
gain in exact rationals, AUC by pair counting and by midrank sums, the subsample generator in
pure-Python integers, engine shards by an exact rational ceiling, node
histograms built engine by engine and merged, and CSV parsing one cell at
a time through Python's float(), and model and training-log files as the
dicts that json.dump(doc, sort_keys=True, indent=1) spells.
Leaf weights are rounded from exact rationals, with their own int64 range
check.  ref_scan_split is the histogram split scan with the node term
evaluated per candidate, the form the library skips where it is exact.
ref_gain spells the gain formula out in the library's IEEE operation order,
so that oracle and library can agree on every split bit for bit.
ref_train shares the fixed-point state update with the library on purpose:
it exercises the accumulation and search machinery around it, and
ref_refresh checks that update on its own.
"""

import gzip
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
from mpmath import mp

from fpboost.fixed_point import grad_hess, margin_probability, quantize
from fpboost.node_trainer import build_histogram
from fpboost.quantizer import QuantizedMatrix

MISSING = 255


# ---------------------------------------------------------------- quantizer

def nearest_centroid_scan(value: float, centroids) -> int:
    """Linear argmin of |value - c|, strict < keeps the lowest index on ties."""
    best, best_d = 0, abs(value - centroids[0])
    for j in range(1, len(centroids)):
        d = abs(value - centroids[j])
        if d < best_d:
            best, best_d = j, d
    return best


def nearest_centroid_scan_all(values, centroids) -> np.ndarray:
    """nearest_centroid_scan of every value at once: the first index of the least |value - c|.

    A distance that overflows is inf, as in the scalar scan.  A NaN value
    gives index 0; callers skip it.
    """
    v = np.asarray(values, dtype=np.float64)[:, None]
    c = np.asarray(centroids, dtype=np.float64)[None, :]
    with np.errstate(over="ignore"):
        return np.argmin(np.abs(v - c), axis=1)


def ref_transform(raw, bins):
    """Nearest-centroid bins by one searchsorted of the centroids per value, with no table.

    Across centroids that span more than the float range a distance may
    overflow to inf; the comparison still picks the nearer side, so callers
    may silence that warning.
    """
    columns = np.full((raw.n_features, raw.n_samples), MISSING, dtype=np.uint8)
    for f in range(raw.n_features):
        col = raw.values[:, f]
        present = ~np.isnan(col)
        v = col[present]
        c = bins.centroids[f]
        if c.size == 1:
            idx = np.zeros(v.size, dtype=np.int64)
        else:
            # clipping makes the two end cells absorb everything outside the range
            right = np.clip(np.searchsorted(c, v), 1, c.size - 1)
            idx = np.where((v - c[right - 1]) <= (c[right] - v), right - 1, right)
        columns[f, present] = idx.astype(np.uint8)
    return QuantizedMatrix(columns=columns, bin_map=bins)


def sort_rank_quantiles(values, max_bins: int):
    """Nearest-rank quantiles at k/(max_bins+1) via exact rational positions."""
    s = sorted(v for v in values if not math.isnan(v))
    n = len(s)
    out = []
    for k in range(1, max_bins + 1):
        pos = math.ceil(Fraction(k * n, max_bins + 1)) - 1
        out.append(s[pos])
    dedup = []
    for v in out:
        if not dedup or v != dedup[-1]:
            dedup.append(v)
    return dedup


# ------------------------------------------------------------- fixed point

def mp_round_half_even(x) -> int:
    lo = int(mp.floor(x))
    frac = x - lo
    if frac > mp.mpf("0.5"):
        return lo + 1
    if frac < mp.mpf("0.5"):
        return lo
    return lo if lo % 2 == 0 else lo + 1


def mp_grad_hess(score_raw: int, label: int, frac_bits: int) -> tuple:
    """Arbitrary-precision logistic gradient/hessian, quantized half-even."""
    with mp.workprec(200):
        x = mp.mpf(int(score_raw)) / (1 << frac_bits)
        p = 1 / (1 + mp.e ** (-x))
        ulp = mp.mpf(1) / (1 << frac_bits)
        g = (p - label) * (1 << frac_bits)
        h = max(p * (1 - p), ulp) * (1 << frac_bits)
        return mp_round_half_even(g), mp_round_half_even(h)


def masked_sigmoid(x):
    """The logistic function as two masked passes, 1 / (1 + exp(-x)) where
    x >= 0 and exp(x) / (1 + exp(x)) elsewhere (NaN too); the library's
    branch-free sigmoid must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    # like sigmoid, ignore the invalid flag some exp kernels raise on a signalling NaN
    with np.errstate(invalid="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_refresh(scores_raw, labels, frac_bits: int) -> tuple:
    """(p, grads, hess) of raw margins, as the library spelled its per-sample
    pass with a fresh array per operation: the division by 2**frac_bits,
    where() for the sigmoid's numerator, and quantize for both rounds."""
    x = np.asarray(scores_raw, dtype=np.float64) / float(1 << frac_bits)
    ex = np.exp(np.minimum(x, -x))
    p = np.where(x >= 0, 1.0, ex) / (1.0 + ex)
    y = np.asarray(labels, dtype=np.float64)
    ulp = 1.0 / float(1 << frac_bits)
    return p, quantize(p - y, frac_bits), quantize(np.maximum(p * (1.0 - p), ulp), frac_bits)


def ref_log_loss(p, labels) -> float:
    """Mean cross-entropy of p clipped away from 0 and 1, with fresh arrays."""
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def ref_gain(gl, hl, gr, hr, lam, gamma):
    """Second-order split gain on real sums, elementwise over floats or arrays,
    with the node term per candidate and split_gain's operation order."""
    g = gl + gr
    h = hl + hr
    return 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - g * g / (h + lam)) - gamma


def exact_gain_fraction(gl, hl, gr, hr, lam, gamma) -> Fraction:
    GL, HL = Fraction(gl), Fraction(hl)
    GR, HR = Fraction(gr), Fraction(hr)
    L, G = Fraction(lam), Fraction(gamma)
    return (
        Fraction(1, 2)
        * (GL * GL / (HL + L) + GR * GR / (HR + L) - (GL + GR) ** 2 / (HL + HR + L))
        - G
    )


# -------------------------------------------------------------- subsampling

_M64 = (1 << 64) - 1


def py_mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def py_subsample(seed: int, tree_index: int, n: int, rate: float) -> list:
    if rate == 1.0:
        return list(range(n))
    stream = py_mix64(py_mix64(seed & _M64) ^ (tree_index & _M64))
    threshold = int(rate * 2.0 ** 64)
    return [i for i in range(n) if py_mix64(stream ^ i) < threshold]


# -------------------------------------------------------------------- AUC

def pair_count_auc(scores, labels) -> float:
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def midrank_auc(scores, labels) -> float:
    """The library's AUC as a float64 argsort and a midrank sum, which its
    integer tie-group count replaced; kept as it was, as an oracle."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos, n_neg = int(np.count_nonzero(y == 1)), int(np.count_nonzero(y == 0))
    if 0 in (n_pos, n_neg):
        raise ValueError("AUC undefined: need at least one positive and one negative label")
    order = np.argsort(s)
    sorted_scores = s[order]
    if np.isnan(sorted_scores[-1]):       # NaN sorts last
        raise ValueError("AUC undefined: NaN score")
    # runs of equal scores [start, end) share the 1-based midrank
    # (start + end + 1) / 2, so the order within a tie cannot matter
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ------------------------------------------- exact-greedy reference trainer

def _sums(grads, hess, idx):
    return int(grads[idx].sum()), int(hess[idx].sum())


def ref_best_split(columns, idx, grads, hess, lam, gamma, frac_bits):
    """Enumerate (feature, threshold, missing-direction) by direct partition.

    Thresholds are swept in ascending order and only strictly better gains
    are kept, so ties resolve to the lowest feature, lowest threshold, and
    missing-left first; a threshold below the smallest present bin stands in
    for every equivalent threshold down to 0.
    """
    sc = float(1 << frac_bits)
    g_tot, h_tot = _sums(grads, hess, idx)
    n = idx.size
    best_gain = -math.inf
    best = None
    for f in range(columns.shape[0]):
        b = columns[f][idx]
        present = np.unique(b[b != MISSING])
        if present.size == 0:
            continue
        thresholds = ([0] if present[0] > 0 else []) + [int(t) for t in present]
        for t in thresholds:
            base_left = (b <= t) & (b != MISSING)
            for missing_left in (True, False):
                left = base_left | (b == MISSING) if missing_left else base_left
                nl = int(np.count_nonzero(left))
                if nl == 0 or nl == n:
                    continue
                gl, hl = _sums(grads, hess, idx[left])
                gain = ref_gain(gl / sc, hl / sc, (g_tot - gl) / sc,
                                (h_tot - hl) / sc, lam, gamma)
                if gain > best_gain:
                    best_gain = gain
                    best = (f, t, missing_left)
    return best, best_gain


def ref_scan_split(hist, counts, lam, gamma, frac_bits):
    """The split scan over one (2, F, 256) histogram as one stacked
    (2, F, 255, 2) block, every candidate with its own node term
    (gl + gr)**2 / (hl + hr + lam) and every sum divided by 2**frac_bits.
    counts is the node's (F, 256) per-bin sample counts, which mask the
    candidates that leave a side empty.

    Returns ((feature, threshold, missing_left), gain) of the first maximum
    in (feature, threshold, side) order, or (None, -inf) for an empty node.
    """
    g_tot, h_tot = hist[:, 0].sum(axis=1).tolist()
    c_tot = int(counts[0].sum())
    if c_tot == 0:
        return None, -math.inf
    sc = float(1 << frac_bits)

    def prefix(a):
        cum = np.cumsum(a[..., :MISSING], axis=-1)
        return np.stack([cum + a[..., MISSING:], cum], axis=-1)

    left = prefix(hist)
    gl, hl = left[0] / sc, left[1] / sc
    cl = prefix(counts)
    gr = g_tot / sc - gl
    hr = h_tot / sc - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = ref_gain(gl, hl, gr, hr, lam, gamma)
    gains[(cl == 0) | (cl == c_tot) | np.isnan(gains)] = -np.inf
    k = int(np.argmax(gains))
    feature, rest = divmod(k, 2 * MISSING)
    threshold, side = divmod(rest, 2)
    return (feature, threshold, side == 0), float(gains.flat[k])


def ref_leaf_weight(g_raw: int, h_raw: int, lam: float, frac_bits: int) -> int:
    """Raw leaf weight -G / (H + lam) in exact rationals, rounded half to even,
    refused with ValueError outside int64."""
    scale = 1 << frac_bits
    w = round(Fraction(-g_raw * scale) / (h_raw + Fraction(lam) * scale))
    if not -(1 << 63) <= w < 1 << 63:
        raise ValueError(f"leaf weight {w} does not fit int64")
    return w


def ref_grow(columns, idx, grads, hess, depth, cfg):
    g_raw, h_raw = _sums(grads, hess, idx)
    if depth < cfg.max_depth:
        best, gain = ref_best_split(columns, idx, grads, hess,
                                    cfg.lam, cfg.gamma, cfg.frac_bits)
        if best is not None and gain > 0.0:
            f, t, missing_left = best
            b = columns[f][idx]
            left = (b <= t) & (b != MISSING)
            if missing_left:
                left |= b == MISSING
            return {
                "feature": f,
                "threshold": t,
                "missing_left": missing_left,
                "left": ref_grow(columns, idx[left], grads, hess, depth + 1, cfg),
                "right": ref_grow(columns, idx[~left], grads, hess, depth + 1, cfg),
            }
    return {"weight": ref_leaf_weight(g_raw, h_raw, cfg.lam, cfg.frac_bits)}


def ref_route(node, sample_bins) -> int:
    while "weight" not in node:
        b = int(sample_bins[node["feature"]])
        left = node["missing_left"] if b == MISSING else b <= node["threshold"]
        node = node["left"] if left else node["right"]
    return node["weight"]


def ref_increment(root, columns, eta: float, frac_bits: int) -> np.ndarray:
    """Raw score increment per sample: quantize(eta * weight) of the leaf
    that each column of the bin matrix reaches, routed one sample at a time."""
    w = np.array([ref_route(root, columns[:, i]) for i in range(columns.shape[1])], dtype=np.int64)
    return quantize(eta * (w.astype(np.float64) / float(1 << frac_bits)), frac_bits)


def nested_tree(tree_model, depth=0, node_id=0):
    """The reference's nested-dict form of a library TreeModel."""
    node = tree_model.node(depth, node_id)
    if node.is_leaf:
        return {"weight": node.leaf_weight_raw}
    return {"feature": node.feature, "threshold": node.threshold_bin,
            "missing_left": node.missing_left,
            "left": nested_tree(tree_model, depth + 1, 2 * node_id),
            "right": nested_tree(tree_model, depth + 1, 2 * node_id + 1)}


def ref_train(columns, labels, cfg):
    """Exact-greedy boosted trainer over all samples (subsample must be 1)."""
    assert cfg.subsample == 1.0
    n = columns.shape[1]
    scores = np.full(n, int(quantize(0.0, cfg.frac_bits)), dtype=np.int64)
    grads, hess = grad_hess(margin_probability(scores, cfg.frac_bits), labels, cfg.frac_bits)
    trees = []
    all_idx = np.arange(n, dtype=np.int64)
    for _ in range(cfg.n_trees):
        root = ref_grow(columns, all_idx, grads, hess, 0, cfg)
        trees.append(root)
        scores += ref_increment(root, columns, cfg.eta, cfg.frac_bits)
        grads, hess = grad_hess(margin_probability(scores, cfg.frac_bits), labels, cfg.frac_bits)
    return trees, scores


def assert_trees_match(tree_model, ref_root, frac_bits, ulp_tol=1):
    """Walk a library TreeModel against a reference nested-dict tree."""
    stack = [(0, 0, ref_root)]
    while stack:
        depth, node_id, ref_node = stack.pop()
        node = tree_model.node(depth, node_id)
        if "weight" in ref_node:
            assert node.is_leaf, f"depth {depth} node {node_id}: expected leaf"
            assert abs(node.leaf_weight_raw - ref_node["weight"]) <= ulp_tol, (
                f"depth {depth} node {node_id}: leaf weight "
                f"{node.leaf_weight_raw} vs {ref_node['weight']}"
            )
            continue
        assert not node.is_leaf, f"depth {depth} node {node_id}: expected split"
        assert node.feature == ref_node["feature"], (depth, node_id, node.feature, ref_node["feature"])
        assert node.threshold_bin == ref_node["threshold"], (depth, node_id)
        assert node.missing_left == ref_node["missing_left"], (depth, node_id)
        stack.append((depth + 1, 2 * node_id, ref_node["left"]))
        stack.append((depth + 1, 2 * node_id + 1, ref_node["right"]))


# ------------------------------------------------------- data parallelism

def shard(active_indices, n_engines: int) -> list:
    """Contiguous block partition of ceil(n / n_engines) samples an engine;
    trailing engines may be empty."""
    if n_engines < 1:
        raise ValueError("n_engines must be >= 1")
    idx = np.asarray(active_indices, dtype=np.int64)
    n = idx.size
    block = math.ceil(Fraction(n, n_engines))
    return [idx[k * block: min((k + 1) * block, n)] for k in range(n_engines)]


def merge_histograms(hists: list) -> np.ndarray:
    """Elementwise int64 sum of per-engine histograms, engine order ascending."""
    if not hists:
        raise ValueError("nothing to merge")
    out = np.zeros_like(hists[0], dtype=np.int64)
    for h in hists:
        if h.shape != out.shape:
            raise ValueError(f"histogram shape mismatch: {h.shape} vs {out.shape}")
        out += h
    return out


def merged_node_histogram(memories: list, ranges: list) -> np.ndarray:
    """Build one node's histogram engine by engine, each over its own range, and merge."""
    if len(memories) != len(ranges):
        raise ValueError("one range per engine required")
    return merge_histograms([build_histogram(m, r) for m, r in zip(memories, ranges)])


# ---------------------------------------------------------------- dataset

def _ref_parse_label(token: str, line_no: int, strict: bool) -> int:
    try:
        v = float(token)
    except ValueError:
        raise ValueError(f"line {line_no}: bad label {token!r}")
    if v in (0.0, 1.0):
        return int(v)
    if strict:
        raise ValueError(f"line {line_no}: non-binary label {token!r}")
    return 1 if v > 0 else 0


def ref_load_csv(path: str, label_col: int, max_rows, strict_labels: bool):
    """CSV loading one text line and one cell at a time: (values, labels)."""
    rows = []
    labels = []
    width = None
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if max_rows is not None and len(rows) >= max_rows:
                break
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(f"line {line_no}: expected {width} columns, got {len(cells)}")
            if label_col >= 0:
                if label_col >= len(cells):
                    raise ValueError(f"line {line_no}: no label column {label_col}")
                labels.append(_ref_parse_label(cells[label_col], line_no, strict_labels))
                cells = cells[:label_col] + cells[label_col + 1:]
            else:
                labels.append(0)
            row = np.empty(len(cells), dtype=np.float64)
            for j, cell in enumerate(cells):
                cell = cell.strip()
                if cell == "" or cell.lower() == "nan":
                    row[j] = np.nan
                else:
                    try:
                        row[j] = float(cell)
                    except ValueError:
                        raise ValueError(f"line {line_no}: bad value {cell!r}")
            rows.append(row)
    if not rows:
        raise ValueError("no samples")
    return np.vstack(rows), np.asarray(labels, dtype=np.int8)


# -------------------------------------------------------------- model files

def _node_doc(node) -> dict:
    if node.is_leaf:
        return {"is_leaf": True, "leaf_weight_raw": int(node.leaf_weight_raw)}
    return {"is_leaf": False, "feature": int(node.feature),
            "threshold_bin": int(node.threshold_bin), "missing_left": bool(node.missing_left)}


def ref_model_doc(model, bin_map, config) -> dict:
    """The document a model file holds: json.dump(doc, sort_keys=True, indent=1)
    of it, and a newline, are the file's text.  The engine count is left out."""
    return {
        "format": "fpboost-model",
        "format_version": 1,
        "frac_bits": config.frac_bits,
        "base_score": float(model.base_score),
        "config": {k: v for k, v in asdict(config).items() if k != "n_engines"},
        "bin_map": {"centroids": [[float(v) for v in c] for c in bin_map.centroids]},
        "trees": [[{str(node_id): _node_doc(n) for node_id, n in level.items()}
                   for level in tree.levels] for tree in model.trees],
    }


def ref_log_doc(log) -> dict:
    """The document a training-log file holds, as ref_model_doc's for a model."""
    return {"format": "fpboost-log", "format_version": 1, **asdict(log)}


# ------------------------------------------------------------ training logs

def _ref_tree_shapes(n: int, depth: int, max_depth: int):
    """Every tree over n rows from a node at depth: (n, None, None) for a
    leaf, and above max_depth also (n, left, right) for each split of the
    rows into a left and a right side of at least one row each."""
    yield (n, None, None)
    if depth < max_depth:
        for n_left in range(1, n):
            for left in _ref_tree_shapes(n_left, depth + 1, max_depth):
                for right in _ref_tree_shapes(n - n_left, depth + 1, max_depth):
                    yield (n, left, right)


def ref_logs(n: int, max_depth: int):
    """(depths, n_leaves) of every tree over n rows with max_depth levels of
    splits, one per tree, by enumeration.  depths holds, for each depth
    above max_depth that any node reaches, the pair (trained_sizes,
    split_sizes) as tuples: the row counts of its nodes, then of its splits,
    left to right, children in their parent's order.  n_leaves counts every
    node without children, those at depth max_depth too."""
    for root in _ref_tree_shapes(n, 0, max_depth):
        depths, level, n_leaves = [], [root], 0
        for depth in range(max_depth + 1):
            splits = [node for node in level if node[1] is not None]
            n_leaves += len(level) - len(splits)
            if level and depth < max_depth:
                depths.append((tuple(node[0] for node in level),
                               tuple(node[0] for node in splits)))
            level = [child for _, left, right in splits for child in (left, right)]
        yield tuple(depths), n_leaves
