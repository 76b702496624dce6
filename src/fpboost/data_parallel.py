"""How the modelled hardware splits work across engines.

In the streaming datapath every engine owns a contiguous block of the
active samples, and the cost model charges each streaming pass at
ceil(samples / engines) clocks.  Training itself runs over one index table:
histogram bins are exact integer sums, so building a node from shards and
adding them up gives the same bins as building it whole, and the trained
model is bitwise identical for any engine count.
"""

import numpy as np


def shard(active_indices, n_engines: int) -> list:
    """Contiguous block partition; trailing engines may be empty."""
    if n_engines < 1:
        raise ValueError("n_engines must be >= 1")
    idx = np.asarray(active_indices, dtype=np.int64)
    n = idx.size
    block = -(-n // n_engines)          # ceil(n / n_engines)
    return [idx[k * block: min((k + 1) * block, n)] for k in range(n_engines)]
