"""The engine data memory: features, per-sample state, and the index table.

The index table is one array of the active sample ids of a tree.  Every
node owns a half-open address range of it, the root the whole table;
splitting a node stably rewrites its own range in place, left branch
first, so its children own the two halves.
"""

from dataclasses import dataclass

import numpy as np

from .fixed_point import FRAC_BITS, logistic_grad_hess, quantize
from .quantizer import QuantizedMatrix


@dataclass
class StateMemory:
    """Per-sample margin scores, gradients, hessians (raw fixed point) and labels."""

    scores_raw: np.ndarray      # (n,) int64
    grads_raw: np.ndarray       # (n,) int64
    hess_raw: np.ndarray        # (n,) int64
    labels: np.ndarray          # (n,) int8
    frac_bits: int = FRAC_BITS


@dataclass
class EngineMemory:
    matrix: QuantizedMatrix
    state: StateMemory
    table: np.ndarray | None = None     # int64 active sample ids of the current tree


def load(matrix: QuantizedMatrix, labels, base_score: float = 0.0,
         frac_bits: int = FRAC_BITS) -> EngineMemory:
    """Fill the state memory from labels and a uniform starting margin."""
    labels = np.asarray(labels, dtype=np.int8)
    if labels.shape != (matrix.n_samples,):
        raise ValueError(
            f"labels length {labels.shape[0] if labels.ndim == 1 else labels.shape} "
            f"!= n_samples {matrix.n_samples}"
        )
    scores = np.full(matrix.n_samples, quantize(base_score, frac_bits), dtype=np.int64)
    grads, hess = logistic_grad_hess(scores, labels, frac_bits)
    state = StateMemory(scores, grads, hess, labels, frac_bits)
    return EngineMemory(matrix=matrix, state=state)


def init_index_table(active_indices, n_samples: int | None = None) -> np.ndarray:
    """Start a tree: a fresh table of the active samples in order; the root covers it all."""
    idx = np.array(active_indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("active_indices must be 1-d")
    if np.unique(idx).size != idx.size:
        raise ValueError("duplicate sample index in active set")
    if idx.size and idx.min() < 0:
        raise ValueError("negative sample index")
    if n_samples is not None and idx.size and idx.max() >= n_samples:
        raise ValueError("sample index out of range")
    return idx
