"""Command-line surface: train, predict, eval, cost."""

import argparse
import sys

import numpy as np

from .boost_controller import predict_raw
from .cost_model import CostParams, estimate, format_keyvalue, format_text
from .dataset import load_dataset
from .fixed_point import dequantize, margin_probability
from .metrics import evaluate_per_tree, train_and_evaluate
from .model_io import load_model, load_training_log, save_model, save_training_log
from .node_trainer import TrainConfig
from .quantizer import MAX_BINS, transform


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input dataset path (.gz accepted)")
    p.add_argument("--format", required=True, choices=("csv", "libsvm"), dest="fmt")
    p.add_argument("--label-col", type=int, default=0,
                   help="csv label column; -1 if the file has no labels")
    p.add_argument("--n-features", type=int, default=None,
                   help="libsvm feature-space width (default: max index seen)")
    p.add_argument("--max-rows", type=int, default=None)
    p.add_argument("--lenient-labels", action="store_true",
                   help="map any csv label > 0 to 1 instead of erroring")


def _read(args, path=None) -> "RawDataset":
    """The --data file, or path when given, read with the command's data options."""
    return load_dataset(path or args.data, args.fmt, label_col=args.label_col,
                        n_features=args.n_features, max_rows=args.max_rows,
                        strict_labels=not args.lenient_labels)


def _cmd_train(args) -> int:
    # a bad config is refused before any data is read; both files are read
    # before anything is written, the training file first
    config = TrainConfig(
        lam=args.lam, gamma=args.gamma, max_depth=args.max_depth,
        n_trees=args.trees, subsample=args.subsample, eta=args.eta,
        n_engines=args.engines, seed=args.seed, frac_bits=args.frac_bits,
    )
    raw = _read(args)
    valid_raw = _read(args, args.valid) if args.valid else None
    model, log, bins, auc_history = train_and_evaluate(raw, config, valid_raw, args.max_bins)
    save_model(model, bins, config, args.model_out)
    if args.log_out:
        save_training_log(log, args.log_out)
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write("tree_index,train_loss,valid_auc\n")
            for i, tree_log in enumerate(log.trees):
                valid_cell = f"{auc_history[i]:.6f}" if auc_history else ""
                fh.write(f"{i},{tree_log.train_loss:.6f},{valid_cell}\n")

    summary = f"trained trees={model.n_trees} model={args.model_out}"
    if log.trees:
        summary += f" final_train_loss={log.trees[-1].train_loss:.6f}"
    if auc_history:
        summary += (f" max_valid_auc={max(auc_history):.6f}"
                    f" best_tree={int(np.argmax(auc_history)) + 1}")
    print(summary)
    return 0


def _cmd_predict(args) -> int:
    bundle = load_model(args.model)
    raw = _read(args)
    matrix = transform(raw, bundle.bin_map)
    frac_bits = bundle.config.frac_bits
    scores = predict_raw(bundle.model, matrix, bundle.config.eta, frac_bits)
    values = margin_probability(scores, frac_bits) if args.proba else dequantize(scores, frac_bits)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for v in values:
            out.write(f"{float(v)!r}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_eval(args) -> int:
    bundle = load_model(args.model)
    raw = _read(args)
    matrix = transform(raw, bundle.bin_map)
    history, max_auc = evaluate_per_tree(
        bundle.model, matrix, raw.labels, bundle.config.eta,
        bundle.config.frac_bits, bin_map=bundle.bin_map,
    )
    if args.per_tree_out:
        with open(args.per_tree_out, "w") as fh:
            fh.write("tree_index,valid_auc\n")
            for i, a in enumerate(history):
                fh.write(f"{i},{a:.6f}\n")
    print(f"max_auc={max_auc:.6f} tree={int(np.argmax(history)) + 1} n_trees={len(history)}")
    return 0


def _cmd_cost(args) -> int:
    # checked before the log is read, so a bad option is refused up front
    params = CostParams(
        clock_hz=args.clock_hz,
        pipeline_latency_cycles=args.pipeline_latency,
        gain_scan_cycles=args.gain_scan_cycles,
        per_tree_overhead_cycles=args.per_tree_overhead,
    )
    log = load_training_log(args.log)
    report = estimate(log, log.n_samples, log.config, params, n_validation=args.n_validation)
    print(format_text(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_keyvalue(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fpboost")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a boosted model on a raw dataset")
    _add_data_args(p)
    p.add_argument("--valid", default=None, help="validation dataset (same format)")
    p.add_argument("--max-bins", type=int, default=MAX_BINS)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--max-depth", type=int, default=1)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--subsample", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--engines", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frac-bits", type=int, default=24)
    p.add_argument("--model-out", required=True)
    p.add_argument("--log-out", default=None, help="training log json for the cost model")
    p.add_argument("--metrics-out", default=None, help="per-tree metrics csv")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score a dataset with a saved model")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--proba", action="store_true", help="emit probabilities instead of margins")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="per-tree validation AUC of a saved model")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--per-tree-out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cost", help="clock-cycle estimate from a training log")
    p.add_argument("--log", required=True)
    p.add_argument("--clock-hz", type=float, default=100e6)
    p.add_argument("--pipeline-latency", type=int, default=16)
    p.add_argument("--gain-scan-cycles", type=int, default=256)
    p.add_argument("--per-tree-overhead", type=int, default=64)
    p.add_argument("--n-validation", type=int, default=0,
                   help="also count scoring this many validation rows per tree")
    p.add_argument("--out", default=None, help="write key=value report here")
    p.set_defaults(func=_cmd_cost)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
