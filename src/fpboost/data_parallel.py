"""Data-parallel node training across engines.

Every engine owns a contiguous shard of the active samples and builds its
own per-node gradient histogram; the merged histogram (exact integer sums)
feeds one split decision that is broadcast to all engines.  Because per
sample state is shard-independent and merging is integer addition, the
trained model is bitwise identical for any engine count.
"""

import numpy as np

from .node_trainer import GradientHistogram, build_histogram


def shard(active_indices, n_engines: int) -> list:
    """Contiguous block partition; trailing engines may be empty."""
    if n_engines < 1:
        raise ValueError("n_engines must be >= 1")
    idx = np.asarray(active_indices, dtype=np.int64)
    n = idx.size
    block = -(-n // n_engines)          # ceil(n / n_engines)
    return [idx[k * block: min((k + 1) * block, n)] for k in range(n_engines)]


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
    """Build one node's histogram shard by shard and merge."""
    if len(memories) != len(ranges):
        raise ValueError("one range per engine required")
    return merge_histograms([build_histogram(m, r) for m, r in zip(memories, ranges)])

