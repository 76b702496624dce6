"""How the modelled hardware splits work across engines.

In the streaming datapath every engine owns a contiguous block of the
active samples: engine k holds positions k*b .. (k+1)*b - 1 of a node's
range, with b = engine_block(samples, engines), so the fullest engine
holds b samples and the cost model charges each streaming pass at b
clocks.  Training itself runs over one index table: histogram bins are
exact integer sums, so building a node from blocks and adding them up
gives the same bins as building it whole, and the trained model is
bitwise identical for any engine count.
"""


def engine_block(n_samples: int, n_engines: int) -> int:
    """ceil(n_samples / n_engines): the fullest engine's share of a
    contiguous split; trailing engines hold fewer samples, or none."""
    return -(-n_samples // n_engines)
