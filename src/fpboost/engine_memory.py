"""The engine data memory: features, per-sample state, and the index table.

The index table is one array of the active sample ids of a tree.  Every
node owns a half-open address range of it, the root the whole table;
splitting a node stably rewrites its own range in place, left branch
first, so its children own the two halves.

The feature memory is held twice.  The column-major bins of the matrix
serve partitioning and routing, which read one feature of many samples.
The histogram build reads every feature of a node's samples, and it reads
the key matrix: one sample's features per row, as the paper's feature
memory streams them, each cell holding its flat histogram key
bin + 256 * feature.  It is built once per memory, so once per train(),
uint16 while n_features <= 256 (the largest key is then 65,535) and uint32
above, at 2 * n_samples * n_features bytes in the narrow case.  A block of
the build is then one gather of whole rows and one widening copy into
bincount's intp keys.
The histogram build streams a node's range in blocks of
min(HISTOGRAM_BLOCK, n_samples) samples through three buffers of that many
rows, made at first use and never resized: the gathered keys (of the key
matrix's type), intp keys and float64 weights.  A table longer than
n_samples streams in more blocks.
The split scan's buffers are kept too: two layouts over one allocation,
each a (2, n_features, 255, sides) int64 block of G and H prefix sums and
eight float64 planes of the candidates' (n_features, 255, sides) shape
(both sides' dequantized sums, the gain and three temporaries of
split_gain), about 1.1 MB at 28 features; a node without missing values
scans the one-sided layout.  Every node's scan writes over them, and the
tree keeps only the TreeNode each scan returns.  All of these are made on
first use, so a memory that never builds a histogram or scans one never
holds them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fixed_point import FRAC_BITS, grad_hess, margin_probability, quantize
from .quantizer import MISSING_BIN, QuantizedMatrix

N_BINS = MISSING_BIN + 1      # bins 0..254 are value bins, 255 is the missing bin
# Samples per histogram accumulation block; it sizes the block buffers.  At
# 2048, the histogram builds of a warm deep-1e-sized train() took 0.245 s
# instead of 0.208 s (medians of 8 alternating process pairs, 2-core Xeon,
# numpy 2.4), and train() itself was level within the noise.  Why is
# unverified: a node histogram (114,688 B at 28 features) stays below
# glibc's initial 128 KiB mmap threshold, and repeated builds of one node
# took the same time at both sizes.
HISTOGRAM_BLOCK = 8192


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

    @cached_property
    def rows(self) -> np.ndarray:
        """Row-major (n_samples, n_features) key matrix bin + 256 * feature,
        uint16 while n_features <= 256 and uint32 above."""
        n_features = self.matrix.n_features
        dtype = np.uint16 if n_features <= 256 else np.uint32
        keys = np.empty((self.matrix.n_samples, n_features), dtype=dtype)
        np.add(self.matrix.columns.T, np.arange(n_features, dtype=dtype) * N_BINS, out=keys)
        return keys

    @cached_property
    def block_buffers(self) -> tuple:
        """(gathered, keys, weights): the histogram build's block scratch of
        min(HISTOGRAM_BLOCK, n_samples) rows, n_features entries a row, of the
        key matrix's dtype, intp and float64."""
        shape = (min(HISTOGRAM_BLOCK, self.matrix.n_samples), self.matrix.n_features)
        return (np.empty(shape, dtype=self.rows.dtype), np.empty(shape, dtype=np.intp),
                np.empty(shape, dtype=np.float64))

    @cached_property
    def scan_buffers(self) -> tuple:
        """The split scan's buffers for this memory's features, reused by every node."""
        return make_scan_buffers(self.matrix.n_features)


def make_scan_buffers(n_features: int) -> tuple:
    """The split scan's buffers over n_features in its two layouts, indexed
    by the number of missing-bin sides less one.

    Each layout is (prefix, planes) for a candidate shape (n_features, 255,
    sides): prefix the (2, *shape) int64 block of G and H prefix sums,
    planes eight float64 arrays of that shape.  The one-sided layout is a
    contiguous view of the front of the two-sided one's memory.
    """
    size = n_features * MISSING_BIN * 2
    prefix, planes = np.empty(2 * size, dtype=np.int64), np.empty(8 * size, dtype=np.float64)

    def layout(sides):
        shape, n = (n_features, MISSING_BIN, sides), size * sides // 2
        return prefix[:2 * n].reshape(2, *shape), planes[:8 * n].reshape(8, *shape)

    return layout(1), layout(2)


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
