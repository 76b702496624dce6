"""Ranking metrics, per-tree evaluation, and the bins -> train -> eval wiring."""

import numpy as np

from .boost_controller import train
from .fixed_point import FRAC_BITS
from .node_trainer import TrainConfig
from .quantizer import MAX_BINS, QuantizedMatrix, RawDataset, fit_bin_map, transform
from .splitter import replay_scores


def _class_counts(labels) -> tuple:
    """(positives, negatives) of labels that hold at least one of each."""
    counts = int(np.count_nonzero(labels == 1)), int(np.count_nonzero(labels == 0))
    if 0 in counts:
        raise ValueError("AUC undefined: need at least one positive and one negative label")
    return counts


def auc(scores, labels) -> float:
    """Rank-based AUC with midranks for tied scores."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos, n_neg = _class_counts(y)
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
    None without a validation set).  A 0-tree model has an empty list.
    """
    bins = fit_bin_map(train_raw, max_bins)
    # quantized and checked for both classes before training, so a
    # validation set that cannot be scored fails before the run, not after it
    valid = None if valid_raw is None else transform(valid_raw, bins)
    if valid is not None and config.n_trees:
        _class_counts(valid_raw.labels)
    model, log = train(transform(train_raw, bins), train_raw.labels, config)
    history = None if valid is None else []
    # evaluate_per_tree refuses an empty model: it has no max AUC
    if valid is not None and model.trees:
        history, _ = evaluate_per_tree(model, valid, valid_raw.labels, config.eta, config.frac_bits)
    return model, log, bins, history
