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
the build is then one gather of whole rows, whose keys np.add.at takes as
they are.
The histogram build streams a node's range in blocks of
min(HISTOGRAM_BLOCK, n_samples, exact_count(frac_bits)) samples through
four buffers, made at first use and never resized: the gathered keys (of
the key matrix's type), n_features cells a row; the complex128 values
grad + 1j * hess, one a row; the complex128 weights, n_features cells a
row, which repeat each value once per feature; and the complex128
(n_features, 256) bin sums.  The sums go into the int64 histogram once
every exact_count(frac_bits) // block * block samples, which keeps their
float64 real and imaginary parts exact: every 536,869,888 samples at the
default 24 bits (once for any smaller node), every 7,168 at 40, 1,024 at
42 and 31 at 48, where exact_count also caps the block.
The split scan's buffers are kept too: two layouts over one allocation,
each a (2, n_features, 255, sides) int64 block of G and H prefix sums and
six float64 planes of the candidates' (n_features, 255, sides) shape
(both sides' dequantized sums, which split_gain turns into the gain in
place, and two planes for a per-candidate node term), about 0.91 MB at 28
features; a node without missing values scans the one-sided layout.
Every node's scan writes over them, and the tree keeps only the TreeNode
each scan returns.  All of these are made on
first use, so a memory that never builds a histogram or scans one never
holds them.

The state memory's per-sample pass, which ends every tree, runs in place
too.  It keeps the labels as float64 y and 1 - y, made once per memory
(16 bytes a sample), and one scratch set of three float64 arrays and one
bool array of n (25 bytes a sample, 251,200 bytes at 10,048 samples), made
at first use (SampleScratch).  refresh() turns the scores into p, the
gradients and the hessians through it; the training loss and the next
tree's subsample write over its other arrays.  Only refresh() writes p, so
the p it returns is valid until the next refresh.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fixed_point import FRAC_BITS, exact_count, grad_hess, margin_probability, quantize
from .quantizer import MISSING_BIN, QuantizedMatrix, binary_labels

N_BINS = MISSING_BIN + 1      # bins 0..254 are value bins, 255 is the missing bin
# Samples per histogram block: one gather and one np.add.at pass, whose
# repeated complex weights take 458,752 bytes at 28 features and are still
# in cache when the pass reads them.  On a 5,024-row root at 28 features
# the build took a median 464 us in 1,024-row passes against 513 us with
# 8,192-row ones, 512 and 2048 rows in between; gathering 1,024 rows at a
# time too, not 8,192, took 771 against 758 us there and 4,786 against
# 4,725 us on a 50,000-row root (11 and 61 alternating in-process rounds,
# 2-core Xeon, numpy 2.4).
HISTOGRAM_BLOCK = 1024


class SampleScratch(NamedTuple):
    """The per-sample pass's arrays, each of n_samples.  refresh() writes
    them all and leaves p in p; the training loss writes x and ex, the
    subsample x and ex viewed as uint64, and mask."""

    x: np.ndarray       # float64
    p: np.ndarray       # float64
    ex: np.ndarray      # float64
    mask: np.ndarray    # bool

    @classmethod
    def empty(cls, n: int) -> "SampleScratch":
        return cls(np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool))


@dataclass
class StateMemory:
    """Per-sample margin scores, gradients, hessians (raw fixed point) and labels."""

    scores_raw: np.ndarray      # (n,) int64
    grads_raw: np.ndarray       # (n,) int64
    hess_raw: np.ndarray        # (n,) int64
    labels: np.ndarray          # (n,) int8
    frac_bits: int = FRAC_BITS

    @cached_property
    def targets(self) -> tuple:
        """(y, 1 - y): the labels as float64."""
        y = self.labels.astype(np.float64)
        return y, 1.0 - y

    @cached_property
    def scratch(self) -> SampleScratch:
        """The per-sample pass's arrays, reused for every tree."""
        return SampleScratch.empty(self.scores_raw.shape[0])

    def refresh(self) -> np.ndarray:
        """Scores to p, gradients and hessians, in place; returns p, the
        scratch's p, which holds until the next refresh."""
        s = self.scratch
        margin_probability(self.scores_raw, self.frac_bits, s.p, (s.x, s.ex, s.mask))
        grad_hess(s.p, self.targets[0], self.frac_bits, (self.grads_raw, self.hess_raw), s.x)
        return s.p


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
        """(gathered, weights, values, sums): the histogram build's block
        scratch for blocks of min(HISTOGRAM_BLOCK, n_samples,
        exact_count(frac_bits)) rows.  gathered (of the key matrix's dtype)
        and weights (complex128) hold n_features entries a row, values one
        complex128 a row, and sums is the complex128 (n_features, 256) bin
        accumulator."""
        rows = min(HISTOGRAM_BLOCK, self.matrix.n_samples, exact_count(self.state.frac_bits))
        n_features = self.matrix.n_features
        return (np.empty((rows, n_features), dtype=self.rows.dtype),
                np.empty((rows, n_features), dtype=np.complex128),
                np.empty(rows, dtype=np.complex128),
                np.empty((n_features, N_BINS), dtype=np.complex128))

    @cached_property
    def scan_buffers(self) -> tuple:
        """The split scan's buffers for this memory's features, reused by every node."""
        return make_scan_buffers(self.matrix.n_features)


def make_scan_buffers(n_features: int) -> tuple:
    """The split scan's buffers over n_features in its two layouts, indexed
    by the number of missing-bin sides less one.

    Each layout is (prefix, planes) for a candidate shape (n_features, 255,
    sides): prefix the (2, *shape) int64 block of G and H prefix sums,
    planes six float64 arrays of that shape (gl, hl, gr, hr, which the gain
    is computed over in place, and two for a per-candidate node term), about
    0.91 MB at 28 features.  The one-sided layout is a contiguous view of
    the front of the two-sided one's memory.
    """
    size = n_features * MISSING_BIN * 2
    prefix, planes = np.empty(2 * size, dtype=np.int64), np.empty(6 * size, dtype=np.float64)

    def layout(sides):
        shape, n = (n_features, MISSING_BIN, sides), size * sides // 2
        return prefix[:2 * n].reshape(2, *shape), planes[:6 * n].reshape(6, *shape)

    return layout(1), layout(2)


def load(matrix: QuantizedMatrix, labels, base_score: float = 0.0,
         frac_bits: int = FRAC_BITS) -> EngineMemory:
    """Fill the state memory from labels and a uniform starting margin."""
    labels = np.asarray(labels)
    if labels.shape != (matrix.n_samples,):
        raise ValueError(
            f"labels length {labels.shape[0] if labels.ndim == 1 else labels.shape} "
            f"!= n_samples {matrix.n_samples}"
        )
    labels = binary_labels(labels)
    scores = np.full(matrix.n_samples, quantize(base_score, frac_bits), dtype=np.int64)
    state = StateMemory(scores, np.empty_like(scores), np.empty_like(scores), labels, frac_bits)
    state.refresh()
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
