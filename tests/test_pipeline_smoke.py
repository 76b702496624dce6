"""Offline end-to-end run of the README's HIGGS recipe, and of its fetch step.

Synthetic stand-in data, same layout and parameters as the real experiment:
scripts/fetch_higgs.py splits a gzipped csv into train and validation halves,
then `fpboost train --valid` and `fpboost cost` run on them.  This checks the
mechanics (split, ingestion, 100 stumps, per-tree AUC, cycle estimate), not
the published-accuracy band.
"""

import gzip
import hashlib
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from fpboost.cli import main
from fpboost.model_io import load_model, load_training_log

FETCH = Path(__file__).resolve().parent.parent / "scripts" / "fetch_higgs.py"

# sha256 of the model that scripts/run_higgs.py wrote for _higgs_like_lines(6000)
# with --rows 3000 before the script was deleted; `fpboost train --valid` on the
# two halves wrote the same bytes
RECIPE_MODEL_SHA256 = "8162deedfd4f50fbed04193ed34f65ca0a326453b8b3d073f514d22ead201aff"


def _higgs_like_lines(rows, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, 28))
    coef = rng.normal(size=6)
    margin = values[:, :6] @ coef + rng.normal(scale=2.0, size=rows)
    labels = (margin > 0).astype(int)
    return [",".join([f"{float(y):.1f}"] + [f"{v:.7g}" for v in row]) + "\n"
            for y, row in zip(labels, values)]


def _gzipped_source(tmp_path, lines) -> str:
    """lines gzipped into one file, as a file:// URL for fetch_higgs.py."""
    path = tmp_path / "HIGGS.csv.gz"
    path.write_bytes(gzip.compress("".join(lines).encode()))
    return path.as_uri()


def _fetch(monkeypatch, *argv):
    """Run fetch_higgs.py with argv; its exit code (0, or the error line)."""
    monkeypatch.setattr("sys.argv", [str(FETCH), *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(FETCH), run_name="__main__")
    return done.value.code


def test_reference_experiment_shape(tmp_path, monkeypatch, capsys):
    url = _gzipped_source(tmp_path, _higgs_like_lines(6000))
    data = tmp_path / "data"
    assert _fetch(monkeypatch, "--url", url, "--rows", "3000", "--out-dir", str(data)) == 0

    # the CLI's defaults are the reference experiment's parameters
    model_path, log_path = tmp_path / "model.json", tmp_path / "log.json"
    assert main(["train", "--data", str(data / "higgs_train.csv.gz"), "--format", "csv",
                 "--valid", str(data / "higgs_valid.csv.gz"), "--model-out", str(model_path),
                 "--log-out", str(log_path),
                 "--metrics-out", str(tmp_path / "metrics.csv")]) == 0
    printed_auc = float(re.search(r"max_valid_auc=([0-9.]+)", capsys.readouterr().out).group(1))
    assert hashlib.sha256(model_path.read_bytes()).hexdigest() == RECIPE_MODEL_SHA256
    assert load_model(str(model_path)).model.n_trees == 100

    rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    history = [float(row.split(",")[2]) for row in rows]
    assert len(history) == 100
    max_auc = max(history)
    assert printed_auc == max_auc
    # the synthetic task is learnable; anything separable lands well above chance
    assert 0.62 <= max_auc <= 1.0

    losses = [t.train_loss for t in load_training_log(str(log_path)).trees]
    assert losses[-1] < losses[0]

    assert main(["cost", "--log", str(log_path), "--out", str(tmp_path / "report.kv")]) == 0
    report = dict(line.split("=") for line in
                  (tmp_path / "report.kv").read_text().splitlines())
    assert int(report["total_cycles"]) > 0
    assert float(report["wall_seconds"]) < 0.05


def test_fetch_splits_the_source_into_two_halves(tmp_path, monkeypatch):
    lines = _higgs_like_lines(50)
    url = _gzipped_source(tmp_path, lines)
    out = tmp_path / "out"
    assert _fetch(monkeypatch, "--url", url, "--rows", "20", "--out-dir", str(out)) == 0
    for name, part in (("higgs_train.csv.gz", lines[:20]), ("higgs_valid.csv.gz", lines[20:40])):
        assert gzip.decompress((out / name).read_bytes()) == "".join(part).encode()


def test_fetch_refuses_a_short_source_and_writes_nothing(tmp_path, monkeypatch):
    url = _gzipped_source(tmp_path, _higgs_like_lines(39))
    out = tmp_path / "out"
    assert _fetch(monkeypatch, "--url", url, "--rows", "20", "--out-dir", str(out)) \
        == f"error: need 40 rows, {url} has 39"
    assert not out.exists()


def test_fetch_refuses_zero_rows_before_opening_the_url(tmp_path, monkeypatch, capsys):
    def refuse(url):
        raise AssertionError(f"opened {url}")

    monkeypatch.setattr("urllib.request.urlopen", refuse)
    assert _fetch(monkeypatch, "--url", "file:///nonexistent.csv.gz", "--rows", "0",
                  "--out-dir", str(tmp_path / "out")) == "error: --rows must be >= 1, got 0"
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()
