"""Benchmark workloads: sizes, training settings, seeded inputs and pinned outputs.

Each workload is one fpboost training configuration on synthetic CSV files.
The generator below writes the same bytes as ``scripts/make_synthetic.py``
with ``--rows R --missing M --seed S --task-seed 0`` (the benchmark's tests
compare the two), but formats a block of rows at a time, so that making the
inputs stays a small part of set-up time and of peak memory.
"""

from dataclasses import dataclass

import numpy as np

N_FEATURES = 28
INFORMATIVE = 6
NOISE = 2.0
# The labelling rule is fixed, so runs on different seeds draw new rows of
# one task and valid_auc varies only by sampling noise.
TASK_SEED = 0
# Pinned model digests and cycle counts hold for this workload seed.
DEFAULT_SEED = 0
_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class Size:
    rows: int               # rows of the training file; the validation file has as many
    n_trees: int
    model_sha256: str       # sha256 of the saved model bytes at DEFAULT_SEED
    total_cycles: int       # cost_model.estimate(...).total_cycles at DEFAULT_SEED


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    missing: float          # share of feature cells left blank
    max_depth: int
    n_engines: int
    full: Size
    small: Size             # same settings, seconds to run: the benchmark's own tests use it

    def config_kwargs(self, size: Size, n_engines: int | None = None) -> dict:
        """TrainConfig arguments; everything not named here keeps the CLI default."""
        return {
            "max_depth": self.max_depth,
            "n_trees": size.n_trees,
            "n_engines": self.n_engines if n_engines is None else n_engines,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stumps-64e",
            why="paper reference config: 100 stumps on 64 engines; engine simulation dominates train",
            missing=0.0, max_depth=1, n_engines=64,
            full=Size(10_048, 100,
                      "d50c179f43e6fc8dfcf0625f06ffff66ff1e7353c34a6d57c2c9efcf3b5d44fe", 68272),
            small=Size(640, 10,
                       "d91446c8b605d8cd670bd7961a0f6b229844f501e4c4597fa33a78415c6694ed", 3890),
        ),
        Workload(
            name="deep-1e",
            why="40 depth-6 trees on 1 engine with 5% missing cells; the split scan dominates train",
            missing=0.05, max_depth=6, n_engines=1,
            full=Size(10_048, 40,
                      "0498c04b30c0b21a3abfa99d86df651523ee38d36e8faec025c52dc1d00aaad8", 3448009),
            small=Size(640, 4,
                       "d3e29a569b679433975c6f90a77a29570af41daddfffcea0f7fc8545b2d1ed37", 63658),
        ),
        Workload(
            name="ingest-large",
            why="100k+100k rows, 10 depth-3 trees on 64 engines; CSV parsing dominates the pipeline",
            missing=0.05, max_depth=3, n_engines=64,
            full=Size(100_000, 10,
                      "3a6f43c7799aad8cb5641ff9ca8fabe9d6a01588f63621e452988676bb579668", 82228),
            small=Size(6_250, 3,
                       "9bf58d4bc414303a7c40331e45fa4986ae319a67401f7f0a5bfb93fc9dcdc620", 7100),
        ),
    )
}


def row_seeds(seed: int) -> tuple:
    """(training, validation) row seeds of one workload seed; they never collide."""
    return 2 * seed, 2 * seed + 1


def write_csv(path, rows: int, row_seed: int, missing: float, task_seed: int = TASK_SEED) -> None:
    """Write a label-first, header-free synthetic CSV; blank cells are missing."""
    rng = np.random.default_rng(row_seed)
    values = rng.normal(size=(rows, N_FEATURES))
    coef = np.random.default_rng(task_seed).normal(size=INFORMATIVE)
    margin = values[:, :INFORMATIVE] @ coef + rng.normal(scale=NOISE, size=rows)
    labels = (margin > 0).astype(np.int64)
    if missing > 0:
        values[rng.random(size=values.shape) < missing] = np.nan
    line = "%d," + ",".join(["%.7g"] * N_FEATURES)
    with open(path, "w") as fh:
        for lo in range(0, rows, _CHUNK_ROWS):
            hi = lo + _CHUNK_ROWS
            block = "\n".join(line % (y, *row)
                              for y, row in zip(labels[lo:hi].tolist(), values[lo:hi].tolist()))
            # "%.7g" spells a missing cell "nan"; no number contains those letters
            fh.write(block.replace("nan", "") + "\n")
