"""The engine data memory: features, per-sample state, and the index table.

The index table is one array of the active sample ids of a tree.  Every
node owns a half-open address range of it, the root the whole table;
splitting a node stably rewrites its own range in place, left branch
first, so its children own the two halves.

The feature memory is held twice.  The column-major bins of the matrix
serve partitioning and routing, which read one feature of many samples.
A row-major uint8 copy, one sample's features per row as the paper's
feature memory streams them, serves the histogram build, which reads
every feature of a node's samples; it costs n_samples * n_features bytes.
Two block buffers of the histogram build (intp bin keys and float64
weights, HISTOGRAM_BLOCK * n_features entries each at most) are kept for
reuse by every block and node.  So are the split scan's buffers: one
(2, n_features, 255, 2) int64 block of G and H prefix sums, eight float64
planes of the candidates' (n_features, 255, 2) shape (the dequantized sums
of both sides, the gain and three temporaries of split_gain) and a bool
eligibility mask, which only a scan at lam = 0 writes, about 1.2 MB at 28
features.  Every node's scan writes over them, and the tree keeps only the
TreeNode each scan returns.  All of these are made on first use, so a
memory that never builds a histogram or scans one never holds them.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fixed_point import FRAC_BITS, grad_hess, margin_probability, quantize
from .quantizer import MISSING_BIN, QuantizedMatrix


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
    _block_buffers: tuple = field(default=(), init=False, repr=False, compare=False)

    @cached_property
    def rows(self) -> np.ndarray:
        """Row-major (n_samples, n_features) uint8 copy of the bins."""
        return np.ascontiguousarray(self.matrix.columns.T)

    def block_buffers(self, size: int) -> tuple:
        """(keys, weights) scratch of at least size * n_features intp and
        float64 entries, kept for reuse and regrown only for a larger size."""
        need = size * self.matrix.n_features
        if not self._block_buffers or self._block_buffers[0].size < need:
            self._block_buffers = (np.empty(need, dtype=np.intp), np.empty(need, dtype=np.float64))
        return self._block_buffers

    @cached_property
    def scan_buffers(self) -> tuple:
        """The split scan's buffers for this memory's features, reused by every node."""
        return make_scan_buffers(self.matrix.n_features)


def make_scan_buffers(n_features: int) -> tuple:
    """(prefix, planes, mask) buffers of one split scan over n_features.

    prefix is the (2, n_features, 255, 2) int64 block of G and H prefix
    sums, planes eight float64 arrays of the candidates' (n_features, 255, 2)
    shape, mask a bool array of that shape.
    """
    shape = (n_features, MISSING_BIN, 2)
    return (np.empty((2, *shape), dtype=np.int64), np.empty((8, *shape), dtype=np.float64),
            np.empty(shape, dtype=bool))


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
    grads, hess = grad_hess(margin_probability(scores, frac_bits), labels, frac_bits)
    state = StateMemory(scores, grads, hess, labels, frac_bits)
    return EngineMemory(matrix=matrix, state=state)


def init_index_table(active_indices, n_samples: int | None = None) -> np.ndarray:
    """Start a tree: a fresh table of the active samples in order; the root covers it all."""
    idx = np.array(active_indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("active_indices must be 1-d")
    # strictly ascending ids, as subsample_indices gives, hold no duplicate
    ascending = idx.size < 2 or bool((idx[1:] > idx[:-1]).all())
    if not ascending and np.unique(idx).size != idx.size:
        raise ValueError("duplicate sample index in active set")
    if idx.size and idx.min() < 0:
        raise ValueError("negative sample index")
    if n_samples is not None and idx.size and idx.max() >= n_samples:
        raise ValueError("sample index out of range")
    return idx
