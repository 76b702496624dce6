"""Offline end-to-end run of scripts/run_higgs.py in the reference experiment's shape.

Synthetic stand-in data, same layout and parameters as the real experiment:
this checks the mechanics (ingestion, slicing, 100 stumps, per-tree AUC,
cycle estimate), not the published-accuracy band.  The script's model must
also be byte-equal to `fpboost train --valid` on the two halves written as
separate files.
"""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from fpboost.cli import main
from fpboost.cost_model import CostParams, estimate
from fpboost.model_io import load_model, load_training_log

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_higgs.py"


def _higgs_like_lines(rows, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, 28))
    coef = rng.normal(size=6)
    margin = values[:, :6] @ coef + rng.normal(scale=2.0, size=rows)
    labels = (margin > 0).astype(int)
    return [",".join([f"{float(y):.1f}"] + [f"{v:.7g}" for v in row]) + "\n"
            for y, row in zip(labels, values)]


def _run_script(monkeypatch, capsys, *argv) -> str:
    monkeypatch.setattr("sys.argv", [str(SCRIPT), *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert done.value.code == 0
    return capsys.readouterr().out


def test_reference_experiment_shape(tmp_path, monkeypatch, capsys):
    lines = _higgs_like_lines(6000)
    (tmp_path / "synthetic.csv").write_text("".join(lines))
    (tmp_path / "train.csv").write_text("".join(lines[:3000]))
    (tmp_path / "valid.csv").write_text("".join(lines[3000:]))

    out = _run_script(monkeypatch, capsys, "--data", str(tmp_path / "synthetic.csv"),
                      "--rows", "3000", "--model-out", str(tmp_path / "script_model.json"),
                      "--log-out", str(tmp_path / "script_log.json"))
    assert load_model(str(tmp_path / "script_model.json")).model.n_trees == 100
    printed_auc = float(re.search(r"max validation AUC += ([0-9.]+)", out).group(1))

    # the CLI's defaults are the reference experiment's parameters
    assert main(["train", "--data", str(tmp_path / "train.csv"), "--format", "csv",
                 "--valid", str(tmp_path / "valid.csv"),
                 "--model-out", str(tmp_path / "cli_model.json"),
                 "--metrics-out", str(tmp_path / "metrics.csv")]) == 0
    assert ((tmp_path / "script_model.json").read_bytes()
            == (tmp_path / "cli_model.json").read_bytes())

    rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    history = [float(row.split(",")[2]) for row in rows]
    assert len(history) == 100
    max_auc = max(history)
    assert printed_auc == pytest.approx(max_auc, abs=5e-5)
    # the synthetic task is learnable; anything separable lands well above chance
    assert 0.62 <= max_auc <= 1.0

    log = load_training_log(str(tmp_path / "script_log.json"))
    losses = [t.train_loss for t in log.trees]
    assert losses[-1] < losses[0]

    report = estimate(log, 3000, log.config, CostParams(clock_hz=100e6))
    assert report.total_cycles > 0
    assert report.wall_seconds < 0.05


@pytest.mark.parametrize("argv, message", [
    (["--trees", "0"], "error: --trees must be >= 1, got 0"),
    (["--clock-mhz", "nan"], "error: --clock-mhz: clock_hz must be a finite number > 0, got nan"),
    (["--rows", "0"], "error: --rows must be >= 1, got 0"),
    (["--max-depth", "0"], "error: max_depth must be >= 1"),
    (["--subsample", "0"], "error: subsample must be in (0, 1]"),
])
def test_refused_up_front(tmp_path, monkeypatch, capsys, argv, message):
    """The run reports the best AUC over its trees and the wall time at its
    clock: zero trees or rows, a NaN clock and a config TrainConfig refuses
    are each refused with one error line before the data is read."""
    (tmp_path / "synthetic.csv").write_text("".join(_higgs_like_lines(200)))
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--data", str(tmp_path / "synthetic.csv"),
                                     "--rows", "100", *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert done.value.code == message
    assert capsys.readouterr().out == ""
