"""Independent reference implementations used as oracles.

Everything here recomputes results along a different path than the library:
splits by direct sample partitioning (no histograms, no prefix sums, no
index tables), sigmoid in arbitrary precision and as two masked passes,
gain in exact rationals, AUC by pair counting, the subsample generator in
pure-Python integers, node histograms built engine by engine and merged,
and CSV parsing one cell at a time through Python's float().
The scalar gain/weight formulas and the fixed-point state update are shared
with the library on purpose: the oracles exercise the accumulation and
search machinery around them.
"""

import gzip
import math
from fractions import Fraction

import numpy as np
from mpmath import mp

from fpboost.fixed_point import logistic_grad_hess, quantize
from fpboost.node_trainer import GradientHistogram, build_histogram, split_gain

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
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
                gain = split_gain(gl / sc, hl / sc, (g_tot - gl) / sc,
                                  (h_tot - hl) / sc, lam, gamma)
                if gain > best_gain:
                    best_gain = gain
                    best = (f, t, missing_left)
    return best, best_gain


def ref_leaf_weight(g_raw: int, h_raw: int, lam: float, frac_bits: int) -> int:
    sc = float(1 << frac_bits)
    return int(quantize(-((g_raw / sc) / (h_raw / sc + lam)), frac_bits))


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


def ref_train(columns, labels, cfg):
    """Exact-greedy boosted trainer over all samples (subsample must be 1)."""
    assert cfg.subsample == 1.0
    n = columns.shape[1]
    scores = np.full(n, int(quantize(0.0, cfg.frac_bits)), dtype=np.int64)
    grads, hess = logistic_grad_hess(scores, labels, cfg.frac_bits)
    sc = float(1 << cfg.frac_bits)
    trees = []
    all_idx = np.arange(n, dtype=np.int64)
    for _ in range(cfg.n_trees):
        root = ref_grow(columns, all_idx, grads, hess, 0, cfg)
        trees.append(root)
        w = np.array([ref_route(root, columns[:, i]) for i in range(n)], dtype=np.int64)
        scores += quantize(cfg.eta * (w.astype(np.float64) / sc), cfg.frac_bits)
        grads, hess = logistic_grad_hess(scores, labels, cfg.frac_bits)
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

def merge_histograms(hists: list) -> GradientHistogram:
    """Elementwise integer sum of per-engine histograms, engine order ascending."""
    if not hists:
        raise ValueError("nothing to merge")
    first = hists[0]
    out = GradientHistogram.zeros(first.n_features, first.frac_bits)
    for h in hists:
        if h.sum_g.shape != first.sum_g.shape:
            raise ValueError(f"histogram shape mismatch: {h.sum_g.shape} vs {first.sum_g.shape}")
        out.sum_g += h.sum_g
        out.sum_h += h.sum_h
        out.count += h.count
    return out


def merged_node_histogram(memories: list, ranges: list) -> GradientHistogram:
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
