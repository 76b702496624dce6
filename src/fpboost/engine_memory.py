"""The engine data memory: features, per-sample state, and the index table.

The index table is double banked: node splits stream the active bank and
write the partitioned order into the other bank, which becomes active once
a whole depth level has been split.  Node address ranges are half open.
"""

from dataclasses import dataclass, field

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
class IndexTable:
    """Double-banked sample-index table with per-(depth, node) address ranges."""

    banks: np.ndarray                       # (2, n_active) int64
    active_bank: int = 0
    node_ranges: dict = field(default_factory=dict)

    @property
    def n_active(self) -> int:
        return self.banks.shape[1]

    def active(self) -> np.ndarray:
        return self.banks[self.active_bank]

    def inactive(self) -> np.ndarray:
        return self.banks[1 - self.active_bank]

    def record_range(self, depth: int, node: int, start: int, end: int) -> None:
        self.node_ranges[(depth, node)] = (start, end)

    def toggle(self) -> None:
        self.active_bank = 1 - self.active_bank


@dataclass
class EngineMemory:
    matrix: QuantizedMatrix
    state: StateMemory
    table: IndexTable | None = None


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


def init_index_table(active_indices, n_samples: int | None = None) -> IndexTable:
    """Start a tree: bank 0 holds the active samples in order, root covers all."""
    idx = np.asarray(active_indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("active_indices must be 1-d")
    if np.unique(idx).size != idx.size:
        raise ValueError("duplicate sample index in active set")
    if idx.size and idx.min() < 0:
        raise ValueError("negative sample index")
    if n_samples is not None and idx.size and idx.max() >= n_samples:
        raise ValueError("sample index out of range")
    banks = np.zeros((2, idx.size), dtype=np.int64)
    banks[0] = idx
    table = IndexTable(banks=banks, active_bank=0)
    table.record_range(0, 0, 0, idx.size)
    return table


def node_slice(table: IndexTable, depth: int, node: int) -> tuple:
    """Half-open (start, end) address range recorded for one node."""
    key = (depth, node)
    if key not in table.node_ranges:
        raise KeyError(f"no range recorded for depth {depth}, node {node}")
    return table.node_ranges[key]
