"""Ranking metrics, per-tree evaluation, and the bins -> train -> eval wiring."""

import numpy as np

from .boost_controller import train
from .fixed_point import FRAC_BITS
from .node_trainer import TrainConfig
from .quantizer import MAX_BINS, QuantizedMatrix, RawDataset, fit_bin_map, transform
from .splitter import replay_scores


def auc(scores, labels) -> float:
    """Rank-based AUC with midranks for tied scores."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = int(np.count_nonzero(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need at least one positive and one negative label")
    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    lo = np.searchsorted(sorted_scores, sorted_scores, side="left")
    hi = np.searchsorted(sorted_scores, sorted_scores, side="right")
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = (lo + hi + 1) / 2.0         # 1-based midranks
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_per_tree(model, matrix: QuantizedMatrix, labels, eta: float = 1.0,
                      frac_bits: int = FRAC_BITS, bin_map=None) -> tuple:
    """AUC after each tree of a model, scored on an already-quantized set.

    Scores accumulate in fixed point exactly as during training.  Returns
    (per-tree AUC list, max AUC).  When bin_map is given it must be the one
    the matrix was quantized with.
    """
    if not model.trees:
        raise ValueError("empty model")
    if bin_map is not None and bin_map != matrix.bin_map:
        raise ValueError("validation data was quantized with a different bin map")
    history = []
    replay_scores(model.trees, model.base_score, matrix.columns, eta, frac_bits,
                  after_tree=lambda scores: history.append(auc(scores, labels)))
    return history, max(history)


def train_and_evaluate(train_raw: RawDataset, config: TrainConfig,
                       valid_raw: RawDataset | None = None, max_bins: int = MAX_BINS) -> tuple:
    """Fit bins on the training rows only, quantize both sets with them,
    train, and score the validation set after every tree.

    Returns (model, training log, bin map, per-tree validation AUC list or
    None without a validation set).
    """
    bins = fit_bin_map(train_raw, max_bins)
    # quantized before training, so a validation set that does not fit the
    # bins fails before the run, not after it
    valid = None if valid_raw is None else transform(valid_raw, bins)
    model, log = train(transform(train_raw, bins), train_raw.labels, config)
    history = None
    if valid is not None:
        history, _ = evaluate_per_tree(model, valid, valid_raw.labels, config.eta, config.frac_bits)
    return model, log, bins, history
