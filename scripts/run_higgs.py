#!/usr/bin/env python3
"""Reference experiment: boosted stumps on the HIGGS dataset.

Takes the first 10,048 rows for training and the next 10,048 for validation,
trains 100 depth-1 trees (lambda=1, gamma=0, subsample=0.5, 64 engines),
reports the max per-tree validation AUC, and prints the clock-cycle estimate
for the run at 100 MHz.

Get the data with scripts/fetch_higgs.py (or any csv in the same layout:
label first, 28 feature columns, no header).
"""

import argparse
import time

from fpboost.cost_model import CostParams, estimate, format_text
from fpboost.dataset import load_dataset
from fpboost.metrics import train_and_evaluate
from fpboost.model_io import save_model, save_training_log
from fpboost.node_trainer import TrainConfig
from fpboost.quantizer import RawDataset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True, help="HIGGS csv (.gz accepted)")
    parser.add_argument("--rows", type=int, default=10_048,
                        help="rows for each of train and validation")
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--max-depth", type=int, default=1)
    parser.add_argument("--subsample", type=float, default=0.5)
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
    parser.add_argument("--gamma", type=float, default=0.0)
    parser.add_argument("--engines", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clock-mhz", type=float, default=100.0)
    parser.add_argument("--model-out", default=None)
    parser.add_argument("--log-out", default=None)
    args = parser.parse_args()
    # the run reports the best AUC over its trees, so it needs one; a bad
    # row count, clock or training parameter is refused before the data is read
    if args.trees < 1:
        raise SystemExit(f"error: --trees must be >= 1, got {args.trees}")
    if args.rows < 1:
        raise SystemExit(f"error: --rows must be >= 1, got {args.rows}")
    try:
        params = CostParams(clock_hz=args.clock_mhz * 1e6)
    except ValueError as err:
        raise SystemExit(f"error: --clock-mhz: {err}") from None
    try:
        config = TrainConfig(lam=args.lam, gamma=args.gamma, max_depth=args.max_depth,
                             n_trees=args.trees, subsample=args.subsample,
                             n_engines=args.engines, seed=args.seed)
    except ValueError as err:
        raise SystemExit(f"error: {err}") from None

    print(f"loading {2 * args.rows} rows from {args.data} ...")
    full = load_dataset(args.data, "csv", label_col=0, max_rows=2 * args.rows)
    if full.n_samples < 2 * args.rows:
        raise SystemExit(f"error: need {2 * args.rows} rows, file has {full.n_samples}")
    train_raw = RawDataset(values=full.values[: args.rows], labels=full.labels[: args.rows])
    valid_raw = RawDataset(values=full.values[args.rows:], labels=full.labels[args.rows:])

    started = time.monotonic()
    model, log, bins, history = train_and_evaluate(train_raw, config, valid_raw)
    seconds = time.monotonic() - started
    max_auc = max(history)

    print(f"bins + {config.n_trees} trees + per-tree eval in {seconds:.2f}s (software)")
    print(f"final train loss      = {log.trees[-1].train_loss:.5f}")
    print(f"max validation AUC    = {max_auc:.4f} (tree {history.index(max_auc) + 1})")
    report = estimate(log, log.n_samples, config, params)
    print(f"cycle model at {args.clock_mhz:g} MHz:")
    print(format_text(report))

    if args.model_out:
        save_model(model, bins, config, args.model_out)
        print(f"model written to {args.model_out}")
    if args.log_out:
        save_training_log(log, args.log_out)
        print(f"training log written to {args.log_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
