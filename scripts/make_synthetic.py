#!/usr/bin/env python3
"""Generate a synthetic binary-classification CSV (label first, no header).

The signal is a noisy linear combination of a few informative features.
An offline stand-in for the README's HIGGS recipe is two files that share
--task-seed and have different --seeds, say --rows 10048 --seed 1 for
training and --rows 10048 --seed 2 for validation: 100 boosted stumps
(`fpboost train` with its defaults) reach a maximum per-tree validation AUC
of about 0.67 on them.
"""

import argparse

import numpy as np


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", help="output csv path")
    parser.add_argument("--rows", type=int, default=20_096)
    parser.add_argument("--features", type=int, default=28)
    parser.add_argument("--informative", type=int, default=6)
    parser.add_argument("--noise", type=float, default=2.0)
    parser.add_argument("--missing", type=float, default=0.0, help="missing-cell fraction")
    parser.add_argument("--seed", type=int, default=0, help="row sampling seed")
    parser.add_argument("--task-seed", type=int, default=0,
                        help="seed of the labeling rule; files sharing it share the task")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    values = rng.normal(size=(args.rows, args.features))
    coef = np.random.default_rng(args.task_seed).normal(size=args.informative)
    margin = values[:, : args.informative] @ coef + rng.normal(scale=args.noise, size=args.rows)
    labels = (margin > 0).astype(int)
    if args.missing > 0:
        values[rng.random(size=values.shape) < args.missing] = np.nan

    with open(args.out, "w") as fh:
        for y, row in zip(labels, values):
            cells = [str(y)] + ["" if np.isnan(v) else f"{v:.7g}" for v in row]
            fh.write(",".join(cells) + "\n")
    print(f"wrote {args.rows} rows x {args.features} features "
          f"(positives: {labels.mean():.3f}) to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
