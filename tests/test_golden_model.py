"""Pinned model and log bytes for a small depth-5 training run.

The digests were recorded before the split scan was vectorized and before
sibling histograms were taken by subtraction; any speed-up of node training
must leave both files byte-identical for every engine count.
"""

import hashlib

import numpy as np
import pytest

from fpboost.cli import main

MODEL_SHA256 = "1efe6616ab8a9937c50c17a9ae0ffa6a35696fe008535b5598cfe31252ecb690"
# the log records the engine count in its config, so its bytes differ per count
LOG_SHA256 = {
    1: "1d49fac00deeda9239582fc7beeeb36912130a26276d75fb196b4f995c44d53d",
    4: "48a46ee4fc68da5eb163058f2d9dfa1eebd8b37892f46bde38f533c89f3bcd88",
}


def _write_csv(path, rows=3000, features=10, informative=4, missing=0.05, seed=11):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, features))
    coef = rng.normal(size=informative)
    margin = values[:, :informative] @ coef + rng.normal(scale=1.5, size=rows)
    labels = (margin > 0).astype(int)
    values[rng.random(size=values.shape) < missing] = np.nan
    with open(path, "w") as fh:
        for y, row in zip(labels, values):
            cells = [str(y)] + ["" if np.isnan(v) else f"{v:.7g}" for v in row]
            fh.write(",".join(cells) + "\n")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def train_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "train.csv"
    _write_csv(path)
    return path


@pytest.mark.parametrize("engines", [1, 4])
def test_depth5_model_and_log_bytes_are_pinned(tmp_path, train_csv, engines, capsys):
    model_out, log_out = tmp_path / "model.json", tmp_path / "log.json"
    rc = main([
        "train", "--data", str(train_csv), "--format", "csv",
        "--max-depth", "5", "--trees", "8", "--engines", str(engines), "--seed", "3",
        "--model-out", str(model_out), "--log-out", str(log_out),
    ])
    assert rc == 0, capsys.readouterr().err
    assert _sha256(model_out) == MODEL_SHA256
    assert _sha256(log_out) == LOG_SHA256[engines]
