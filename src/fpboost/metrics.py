"""Ranking metrics, per-tree evaluation, and the bins -> train -> eval wiring."""

from typing import NamedTuple

import numpy as np

from .boost_controller import train
from .fixed_point import FRAC_BITS
from .node_trainer import TrainConfig
from .quantizer import (MAX_BINS, QuantizedMatrix, RawDataset, binary_labels, fit_bin_map,
                        transform)
from .splitter import replay_scores

_EXACT = 1 << 53               # integers up to this size are exact float64 values


class _Classes(NamedTuple):
    """Labels as auc reads them: each row's positive flag as int64 0 or 1,
    the class counts, and the row numbers 0..n-1."""
    positive: np.ndarray
    n_pos: int
    n_neg: int
    rows: np.ndarray


def _classes(labels) -> _Classes:
    """The _Classes of labels that are each 0 or 1 and hold at least one of each."""
    y = np.asarray(labels)
    positive = y == 1
    n_pos, n_neg = int(np.count_nonzero(positive)), int(np.count_nonzero(y == 0))
    if n_pos + n_neg != y.size:
        binary_labels(y)                    # raises, naming the first offending row
    if not n_pos or not n_neg:
        raise ValueError("AUC undefined: need at least one positive and one negative label")
    return _Classes(positive.astype(np.int64), n_pos, n_neg, np.arange(y.size))


def auc(scores, labels) -> float:
    """Rank-based AUC with midranks for tied scores.

    Integer scores within 2**53 of zero, as raw margins are, are their own
    ranks.  Other scores are ranked by a float64 argsort into dense int64
    ranks: equal floats share a rank, so 2**53 and 2**53 + 1 tie as they
    always have.  One np.sort of the keys (rank << 1) | positive then orders
    the rows by score with each tie group's negatives first, and _twice_u
    counts twice the Mann-Whitney U from it.  That count is an exact
    integer, so (U2 / 2) / (n_pos * n_neg) is the same float as the midrank
    sum gave.  labels may also be their _Classes, which evaluate_per_tree
    computes once for all its trees.
    """
    s = np.asarray(scores)
    classes = labels if isinstance(labels, _Classes) else _classes(labels)
    if classes.positive.shape != s.shape:
        raise ValueError("scores and labels differ in length")
    if s.dtype.kind in "iu" and -_EXACT <= int(s.min()) and int(s.max()) <= _EXACT:
        key = s.astype(np.int64, copy=False) << 1
    else:
        key = _dense_ranks(s) << 1
    key |= classes.positive
    key.sort()
    return (_twice_u(key, classes) / 2) / (classes.n_pos * classes.n_neg)


def _dense_ranks(scores: np.ndarray) -> np.ndarray:
    """0-based int64 rank of each float64 score among the distinct scores."""
    s = scores.astype(np.float64, copy=False)
    order = np.argsort(s)
    sorted_scores = s[order]
    if np.isnan(sorted_scores[-1]):           # NaN sorts last
        raise ValueError("AUC undefined: NaN score")
    ranks = np.empty(s.size, dtype=np.int64)
    ranks[order] = np.cumsum(np.r_[False, sorted_scores[1:] != sorted_scores[:-1]])
    return ranks


def _twice_u(key: np.ndarray, classes: _Classes) -> int:
    """U2 = sum over tie groups g of pos_g * (2 * neg_before_g + neg_g), from
    the sorted keys (rank << 1) | positive.

    A group's negatives sort before its positives, so the negatives ahead of
    each positive's row sum to W = sum_g pos_g * (neg_before_g + neg_g), and
    U2 = 2W - sum_g pos_g * neg_g.  Only a group that holds both classes adds
    to the last sum, and it has exactly one negative-to-positive step.
    """
    positive = key & 1
    w = int(positive @ classes.rows) - classes.n_pos * (classes.n_pos - 1) // 2
    first_pos = np.flatnonzero((key[1:] ^ key[:-1]) == 1) + 1
    neg_g = first_pos - np.searchsorted(key, key[first_pos] - 1)
    pos_g = np.searchsorted(key, key[first_pos], side="right") - first_pos
    return 2 * w - int(neg_g @ pos_g)


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
    classes = _classes(labels)
    history = []
    replay_scores(model.trees, model.base_score, matrix.columns, eta, frac_bits,
                  after_tree=lambda scores: history.append(auc(scores, classes)))
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
        _classes(valid_raw.labels)
    model, log = train(transform(train_raw, bins), train_raw.labels, config)
    history = None if valid is None else []
    # evaluate_per_tree refuses an empty model: it has no max AUC
    if valid is not None and model.trees:
        history, _ = evaluate_per_tree(model, valid, valid_raw.labels, config.eta, config.frac_bits)
    return model, log, bins, history
