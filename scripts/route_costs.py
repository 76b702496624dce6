#!/usr/bin/env python3
"""Time the two ways the router takes a level's go-left bits, to set
splitter.ROWS_PER_SPLIT on this CPU.

For n rows and a level of s one-byte codes that are all splits, it prints
the best-of-7 time of the masks (one goes_left mask per split, OR'd) and of
the gather (one bin gather and one go-left table, whatever s), and which one
the rule `s * ROWS_PER_SPLIT > n` picks.  The rows per split at which the
gather starts to win is the constant to choose.  It then trains a
deep-1e-shaped model (40 depth-6 trees on 10,048 rows of 28 features with 5%
missing cells, as `perfbench` does) and prints how many of the levels below
the roots that its predict routes have each number of splits, and which way
each goes (a root is one unmasked compare).  Run from anywhere, in a few
seconds:

    python3 scripts/route_costs.py
"""

import sys
import timeit
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fpboost import splitter                                     # noqa: E402
from fpboost.boost_controller import train                       # noqa: E402
from fpboost.node_trainer import TrainConfig, TreeNode           # noqa: E402
from fpboost.quantizer import RawDataset, fit_bin_map, transform  # noqa: E402

ROWS = (10_048, 100_000)
SPLITS = (4, 8, 12, 16, 24, 32)
N_FEATURES = 28


def _best_us(fn) -> float:
    number = max(1, int(0.02 / max(timeit.timeit(fn, number=1), 1e-6)))
    return min(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6


def level_costs(rng) -> None:
    print(f"go-left bits of one level (ROWS_PER_SPLIT = {splitter.ROWS_PER_SPLIT})")
    print(f"{'rows':>8} {'splits':>6} {'masks us':>9} {'gather us':>9}  rule picks")
    for n in ROWS:
        columns = rng.integers(0, 256, size=(N_FEATURES, n), dtype=np.uint8)
        columns[rng.random(columns.shape) < 0.05] = 255
        wins = []
        for s in SPLITS:
            splits = [(c, TreeNode(is_leaf=False, feature=c % N_FEATURES,
                                   threshold_bin=int(rng.integers(0, 255)),
                                   missing_left=bool(rng.integers(0, 2))))
                      for c in range(s)]
            code = rng.integers(0, s, size=n).astype(np.uint8)
            masks = splitter._masked_go_left(code, splits, columns)
            gather = splitter._gathered_go_left(code, s, splits, columns)
            assert np.array_equal(masks, gather)
            t_masks = _best_us(lambda: splitter._masked_go_left(code, splits, columns))
            t_gather = _best_us(lambda: splitter._gathered_go_left(code, s, splits, columns))
            picks = "gather" if s * splitter.ROWS_PER_SPLIT > n else "masks"
            print(f"{n:>8,} {s:>6} {t_masks:>9.0f} {t_gather:>9.0f}  {picks}")
            if t_gather < t_masks:
                wins.append(s)
        if wins:
            print(f"  the gather wins from {wins[0]} splits: about {n // wins[0]:,} rows per split")
        else:
            print(f"  the masks win up to {SPLITS[-1]} splits: "
                  f"over {n // SPLITS[-1]:,} rows per split")


def deep_1e_levels(rng) -> None:
    n = 10_048
    values = rng.normal(size=(n, N_FEATURES))
    coef = np.random.default_rng(0).normal(size=6)
    labels = (values[:, :6] @ coef + rng.normal(scale=2.0, size=n) > 0).astype(int)
    values[rng.random(values.shape) < 0.05] = np.nan
    raw = RawDataset(values, labels)
    matrix = transform(raw, fit_bin_map(raw))
    model, _ = train(matrix, raw.labels, TrainConfig(max_depth=6, n_trees=40, n_engines=1))

    seen = Counter()
    masked, gathered = splitter._masked_go_left, splitter._gathered_go_left

    def spy_masks(code, splits, columns):
        seen[len(splits), "masks"] += 1
        return masked(code, splits, columns)

    def spy_gather(code, n_level, splits, columns):
        seen[len(splits), "gather"] += 1
        return gathered(code, n_level, splits, columns)

    splitter._masked_go_left, splitter._gathered_go_left = spy_masks, spy_gather
    try:
        for tree in model.trees:
            splitter.route_weights(tree, matrix.columns, dict.fromkeys(
                (key for key, _ in tree.leaves()), 0))
    finally:
        splitter._masked_go_left, splitter._gathered_go_left = masked, gathered
    print(f"\nlevels below the roots routed by predict on a deep-1e-shaped model "
          f"({n:,} rows, 40 trees)")
    print(f"{'splits':>6} {'masks':>6} {'gather':>6}")
    for s in sorted({s for s, _ in seen}):
        print(f"{s:>6} {seen[s, 'masks']:>6} {seen[s, 'gather']:>6}")
    print(f"{'all':>6} {sum(v for (_, way), v in seen.items() if way == 'masks'):>6} "
          f"{sum(v for (_, way), v in seen.items() if way == 'gather'):>6}")


def main() -> int:
    rng = np.random.default_rng(0)
    level_costs(rng)
    deep_1e_levels(rng)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
