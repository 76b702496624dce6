import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fpboost.cli import build_parser, main
from fpboost.model_io import load_model


@pytest.fixture
def csv_pair(tmp_path, rng):
    def write(name, n):
        lines = []
        for _ in range(n):
            x = rng.normal(size=3)
            label = int(x[0] + 0.5 * x[1] + 0.2 * rng.normal() > 0)
            cells = [str(label)] + [f"{v:.6g}" if rng.random() > 0.05 else "" for v in x]
            lines.append(",".join(cells))
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    return write("train.csv", 400), write("valid.csv", 200)


def _train_args(train_csv, valid_csv, tmp_path, extra=()):
    return [
        "train", "--data", train_csv, "--format", "csv", "--valid", valid_csv,
        "--trees", "8", "--max-depth", "2", "--subsample", "0.8",
        "--engines", "2", "--seed", "1",
        "--model-out", str(tmp_path / "model.json"),
        "--log-out", str(tmp_path / "log.json"),
        "--metrics-out", str(tmp_path / "metrics.csv"),
        *extra,
    ]


def test_train_eval_predict_cost_pipeline(tmp_path, csv_pair, capsys):
    train_csv, valid_csv = csv_pair
    rc = main(_train_args(train_csv, valid_csv, tmp_path))
    assert rc == 0
    summary = capsys.readouterr().out
    assert "trained trees=8" in summary and "max_valid_auc=" in summary

    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "tree_index,train_loss,valid_auc"
    assert len(metrics) == 9
    losses = [float(line.split(",")[1]) for line in metrics[1:]]
    assert losses[-1] < losses[0]

    bundle = load_model(str(tmp_path / "model.json"))
    assert bundle.model.n_trees == 8

    rc = main(["eval", "--data", valid_csv, "--format", "csv",
               "--model", str(tmp_path / "model.json"),
               "--per-tree-out", str(tmp_path / "per_tree.csv")])
    assert rc == 0
    eval_out = capsys.readouterr().out
    assert eval_out.startswith("max_auc=")
    per_tree = (tmp_path / "per_tree.csv").read_text().splitlines()
    assert per_tree[0] == "tree_index,valid_auc" and len(per_tree) == 9

    rc = main(["predict", "--data", valid_csv, "--format", "csv",
               "--model", str(tmp_path / "model.json"),
               "--out", str(tmp_path / "margins.txt")])
    assert rc == 0
    margins = [float(v) for v in (tmp_path / "margins.txt").read_text().split()]
    assert len(margins) == 200

    rc = main(["predict", "--data", valid_csv, "--format", "csv",
               "--model", str(tmp_path / "model.json"), "--proba",
               "--out", str(tmp_path / "proba.txt")])
    assert rc == 0
    probas = [float(v) for v in (tmp_path / "proba.txt").read_text().split()]
    assert all(0.0 <= p <= 1.0 for p in probas)

    rc = main(["cost", "--log", str(tmp_path / "log.json"),
               "--out", str(tmp_path / "report.kv")])
    assert rc == 0
    cost_out = capsys.readouterr().out
    assert "total" in cost_out and "wall time" in cost_out
    kv = dict(line.split("=") for line in (tmp_path / "report.kv").read_text().strip().splitlines())
    assert int(kv["total_cycles"]) > 0


def test_train_is_deterministic_across_runs(tmp_path, csv_pair):
    train_csv, valid_csv = csv_pair
    for name in ("a", "b"):
        rc = main(["train", "--data", train_csv, "--format", "csv",
                   "--trees", "4", "--engines", "3", "--seed", "7",
                   "--model-out", str(tmp_path / f"{name}.json")])
        assert rc == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_zero_trees_with_validation_writes_an_empty_model(tmp_path, csv_pair, capsys):
    train_csv, valid_csv = csv_pair
    rc = main(_train_args(train_csv, valid_csv, tmp_path, extra=("--trees", "0")))
    assert rc == 0
    assert capsys.readouterr().out == f"trained trees=0 model={tmp_path / 'model.json'}\n"
    assert load_model(str(tmp_path / "model.json")).model.n_trees == 0
    assert (tmp_path / "metrics.csv").read_text() == "tree_index,train_loss,valid_auc\n"

    rc = main(["eval", "--data", valid_csv, "--format", "csv",
               "--model", str(tmp_path / "model.json")])
    assert rc == 1
    assert capsys.readouterr().err == "error: empty model\n"


def test_missing_file_is_single_line_error(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--format", "csv",
               "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("option, value, message", [
    ("--max-depth", "0", "error: max_depth must be >= 1\n"),
    ("--subsample", "0", "error: subsample must be in (0, 1]\n"),
    ("--max-rows", "0", "error: max_rows must be >= 1, got 0\n"),
], ids=["max-depth", "subsample", "max-rows"])
def test_bad_option_is_refused_before_the_data_is_read(tmp_path, capsys, option, value,
                                                       message):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--format", "csv",
               option, value, "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert capsys.readouterr() == ("", message)
    assert list(tmp_path.iterdir()) == []


def test_overflowing_frac_bits_is_single_line_error(tmp_path, capsys):
    # 2**15 samples at 48 fractional bits can overflow int64 node totals
    p = tmp_path / "big.csv"
    p.write_text("0,1\n1,2\n" * (1 << 14))
    rc = main(["train", "--data", str(p), "--format", "csv", "--frac-bits", "48",
               "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_samples=32768 with frac_bits=48")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "m.json").exists()

def test_non_finite_value_is_single_line_error(tmp_path, capsys):
    p = tmp_path / "inf.csv"
    p.write_text("1,0.5\n0,1e400\n1,2.0\n")
    rc = main(["train", "--data", str(p), "--format", "csv",
               "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: row 1, feature 0: non-finite value inf")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("option, value", [("--gamma", "nan"), ("--lambda", "nan"),
                                           ("--lambda", "inf"), ("--gamma", "inf")])
def test_non_finite_regularizer_is_single_line_error(tmp_path, csv_pair, capsys, option, value):
    rc = main(_train_args(*csv_pair, tmp_path, extra=(option, value)))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lam and gamma must be finite numbers")
    assert len(err.strip().splitlines()) == 1
    for name in ("model.json", "log.json", "metrics.csv"):
        assert not (tmp_path / name).exists()


def test_out_of_range_seed_is_single_line_error(tmp_path, csv_pair, capsys):
    rc = main(_train_args(*csv_pair, tmp_path, extra=("--seed", "-1")))
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be in [0, 2**64), got -1\n"
    for name in ("model.json", "log.json", "metrics.csv"):
        assert not (tmp_path / name).exists()


@pytest.fixture
def separable_csv(tmp_path):
    """2,000 rows of 3 features, label = feature 0 > 0 with 5 labels flipped:
    at lambda 0 the few flipped samples drive leaf weights without bound."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2000, 3))
    y = (x[:, 0] > 0).astype(int)
    y[rng.choice(2000, 5, replace=False)] ^= 1
    p = tmp_path / "separable.csv"
    p.write_text("".join(",".join([str(label)] + [f"{v:.7g}" for v in row]) + "\n"
                         for label, row in zip(y, x)))
    return str(p)


def _train_separable(data, tmp_path, lam, frac_bits):
    return main(["train", "--data", data, "--format", "csv", "--lambda", lam,
                 "--frac-bits", frac_bits, "--trees", "30", "--max-depth", "3",
                 "--subsample", "1", "--model-out", str(tmp_path / "m.json")])


def test_leaf_weight_overflow_is_single_line_error(tmp_path, separable_csv, capsys):
    rc = _train_separable(separable_csv, tmp_path, "0", "32")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tree ")
    assert "does not fit int64 at frac_bits=32" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("frac_bits", ["24", "32", "40", "48"])
def test_unit_lambda_trains_in_range_at_every_frac_bits(tmp_path, separable_csv, frac_bits,
                                                        capsys):
    assert _train_separable(separable_csv, tmp_path, "1", frac_bits) == 0, \
        capsys.readouterr().err
    model = load_model(str(tmp_path / "m.json"))
    leaves = [node.leaf_weight_raw for tree in model.model.trees for level in tree.levels
              for node in level.values() if node.is_leaf]
    # |w| <= min(2**fb, count / lambda) raw steps; far from the int64 ends
    assert max(abs(w) for w in leaves) <= 1 << (int(frac_bits) + 1)


def test_label_col_below_minus_one_is_single_line_error(tmp_path, csv_pair, capsys):
    train_csv, _ = csv_pair
    rc = main(["train", "--data", train_csv, "--format", "csv", "--label-col", "-2",
               "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert capsys.readouterr().err == "error: label_col must be >= -1, got -2\n"
    assert not (tmp_path / "m.json").exists()


def test_negative_validation_rows_is_single_line_error(tmp_path, csv_pair, capsys):
    train_csv, _ = csv_pair
    log = tmp_path / "log.json"
    assert main(["train", "--data", train_csv, "--format", "csv", "--trees", "2",
                 "--model-out", str(tmp_path / "m.json"), "--log-out", str(log)]) == 0
    capsys.readouterr()
    rc = main(["cost", "--log", str(log), "--n-validation", "-1000",
               "--out", str(tmp_path / "report.kv")])
    assert rc == 1
    assert capsys.readouterr() == ("", "error: n_validation must be >= 0, got -1000\n")
    assert not (tmp_path / "report.kv").exists()


@pytest.mark.parametrize("clock", ["nan", "inf"])
def test_non_finite_clock_is_single_line_error(tmp_path, csv_pair, capsys, clock):
    train_csv, _ = csv_pair
    log = tmp_path / "log.json"
    assert main(["train", "--data", train_csv, "--format", "csv", "--trees", "2",
                 "--model-out", str(tmp_path / "m.json"), "--log-out", str(log)]) == 0
    capsys.readouterr()
    rc = main(["cost", "--log", str(log), "--clock-hz", clock,
               "--out", str(tmp_path / "report.kv")])
    assert rc == 1
    err = f"error: clock_hz must be a finite number > 0, got {clock}\n"
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "report.kv").exists()


def test_nan_clock_is_refused_before_the_log_is_read(tmp_path, capsys):
    rc = main(["cost", "--log", str(tmp_path / "nope.json"), "--clock-hz", "nan",
               "--out", str(tmp_path / "report.kv")])
    assert rc == 1
    assert capsys.readouterr() == ("", "error: clock_hz must be a finite number > 0, got nan\n")
    assert list(tmp_path.iterdir()) == []


def test_bad_data_error_mentions_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("1,0.5\n0,zzz\n")
    rc = main(["train", "--data", str(p), "--format", "csv",
               "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_bad_validation_file_fails_before_anything_is_written(tmp_path, csv_pair, capsys):
    train_csv, _ = csv_pair
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0.5\n0,zzz\n")
    rc = main(_train_args(train_csv, str(bad), tmp_path))
    assert rc == 1
    assert capsys.readouterr().err == "error: line 2: bad value 'zzz'\n"
    for name in ("model.json", "log.json", "metrics.csv"):
        assert not (tmp_path / name).exists()


def test_training_file_error_comes_before_validation_file_error(tmp_path, capsys):
    bad_train = tmp_path / "bad_train.csv"
    bad_train.write_text("1,0.5\n1,0.25\n0,yyy\n")
    bad_valid = tmp_path / "bad_valid.csv"
    bad_valid.write_text("1,0.5\n0,zzz\n")
    rc = main(_train_args(str(bad_train), str(bad_valid), tmp_path))
    assert rc == 1
    assert capsys.readouterr().err == "error: line 3: bad value 'yyy'\n"


@pytest.mark.parametrize("command", [["eval"], ["predict"], ["predict", "--proba"]])
def test_loaded_leaf_that_overflows_scores_names_the_tree(tmp_path, csv_pair, capsys, command):
    """A model file may hold any int64 leaf, but -2**63 cannot be added to a
    score: scoring refuses it with the tree's index and no training advice."""
    train_csv, valid_csv = csv_pair
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", train_csv, "--format", "csv", "--trees", "2",
                 "--model-out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    for level in doc["trees"][1]:
        for node in level.values():
            if node["is_leaf"]:
                node["leaf_weight_raw"] = -(1 << 63)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main([command[0], "--data", valid_csv, "--format", "csv",
               "--model", str(model_path), *command[1:]])
    assert rc == 1
    assert capsys.readouterr().err == "error: tree 1: raw margin scores overflow int64\n"


def _readme_cli_commands() -> list:
    """Every `fpboost ...` command in the README's fenced blocks,
    continuation lines joined, split into arguments."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```[a-z]*\n(.*?)```", readme, re.S)
    joined = re.sub(r"\\\n", " ", "".join(blocks))
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("fpboost ")]


def test_readme_cli_block_parses():
    commands = _readme_cli_commands()
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_malformed_model_file_is_single_line_error(tmp_path, csv_pair, capsys):
    train_csv, valid_csv = csv_pair
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", train_csv, "--format", "csv", "--trees", "2",
                 "--model-out", str(model_path)]) == 0
    saved = json.loads(model_path.read_text())
    edits = {
        "error: model config: unknown key 'bogus'": lambda d: d["config"].__setitem__("bogus", 1),
        "error: model: missing key 'trees'": lambda d: d.pop("trees"),
        "error: model config: missing key 'lam'": lambda d: d["config"].pop("lam"),
    }
    for expected, edit in edits.items():
        doc = json.loads(json.dumps(saved))
        edit(doc)
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", "--data", valid_csv, "--format", "csv", "--model", str(model_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == expected + "\n"


def test_predict_without_labels(tmp_path, csv_pair, capsys):
    train_csv, valid_csv = csv_pair
    rc = main(["train", "--data", train_csv, "--format", "csv", "--trees", "2",
               "--model-out", str(tmp_path / "m.json")])
    assert rc == 0
    capsys.readouterr()
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("0.1,0.2,0.3\n-1.0,,2.0\n")
    rc = main(["predict", "--data", str(unlabeled), "--format", "csv",
               "--label-col", "-1", "--model", str(tmp_path / "m.json")])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
