"""Pinned model and log bytes of small training runs.

The depth-5 digests were recorded before the split scan was vectorized and
before sibling histograms were taken by subtraction; the multi-block and
48-bit digests before histograms gathered row-major blocks.  Any speed-up
of node training must leave the files byte-identical for every engine count.
"""

import hashlib

import numpy as np
import pytest

from fpboost.boost_controller import subsample_indices
from fpboost.cli import main
from fpboost.node_trainer import HISTOGRAM_BLOCK

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


def _train_sha256(tmp_path, data, *options) -> str:
    model_out = tmp_path / "model.json"
    rc = main(["train", "--data", str(data), "--format", "csv",
               "--model-out", str(model_out), *options])
    assert rc == 0
    return _sha256(model_out)


# 20,000 rows at subsample 0.9: every root streams about 18,000 samples,
# three histogram blocks of HISTOGRAM_BLOCK = 8192
MULTI_BLOCK_SHA256 = "b6ce9a98e2eacdfcfc1a1b80f2e9b590a6ed7a051eef4dc64a34b7679cd314cb"
# 48 fractional bits: every block of 32 or more samples takes the 24-bit limb pass
HIGH_FRAC_BITS_SHA256 = "7b7ef2158ed655a89945d0d6d3b0fe8b3763d1f0485e1b1df0545f7e575b8f90"


@pytest.mark.parametrize("engines", [1, 64])
def test_multi_block_model_bytes_are_pinned(tmp_path_factory, tmp_path, engines):
    data = tmp_path_factory.mktemp("golden_multi") / "train.csv"
    _write_csv(data, rows=20000, features=6, seed=13)
    roots = [subsample_indices(5, t, 20000, 0.9).size for t in range(4)]
    assert min(roots) > 2 * HISTOGRAM_BLOCK
    assert _train_sha256(tmp_path, data, "--max-depth", "3", "--trees", "4",
                         "--subsample", "0.9", "--engines", str(engines),
                         "--seed", "5") == MULTI_BLOCK_SHA256


@pytest.mark.parametrize("engines", [1, 64])
def test_high_frac_bits_model_bytes_are_pinned(tmp_path, train_csv, engines):
    assert _train_sha256(tmp_path, train_csv, "--max-depth", "4", "--trees", "6",
                         "--frac-bits", "48", "--engines", str(engines),
                         "--seed", "7") == HIGH_FRAC_BITS_SHA256
