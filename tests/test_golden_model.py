"""Pinned model and log bytes of small training runs.

The depth-5 digests were recorded before the split scan was vectorized and
before sibling histograms were taken by subtraction; the multi-block and
48-bit digests before histograms gathered row-major blocks; the lambda = 0,
gamma = 0.5 and 300-feature digests before the scan skipped its NaN mask
for lambda > 0 and its gamma pass for gamma = 0, and before leaf weights
were rounded without numpy; the dense digest before histograms gathered
precomputed keys and a scan of a node without missing values scanned one
side only.  Any speed-up of node training must leave the
files byte-identical for every engine count.
"""

import hashlib

import numpy as np
import pytest

from fpboost.boost_controller import subsample_indices
from fpboost.cli import main
from fpboost.engine_memory import HISTOGRAM_BLOCK

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
# 48 fractional bits: histogram blocks hold exact_count(48) = 31 samples
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


# lambda = 0 takes the scan's NaN mask; gamma = 0.5 its gamma pass
REGULARIZER_SHA256 = {
    "--lambda": "d391ff601dfd523043ca046465bd114ddd29f055859752a11f53d376cb39bf51",
    "--gamma": "9d7aa2208e6c4735a5aa150455ad8c02292fda2431676d3e45446a4e90f232d5",
}
# 300 features: histogram keys bin + 256 * feature pass 2**16
WIDE_SHA256 = "c85f42d2eb2980e6f79c7e639f2dbc6cbbce3362ce5b69b3e383331080c39189"


@pytest.mark.parametrize("engines", [1, 64])
@pytest.mark.parametrize("option, value", [("--lambda", "0"), ("--gamma", "0.5")])
def test_regularizer_model_bytes_are_pinned(tmp_path, train_csv, option, value, engines):
    assert _train_sha256(tmp_path, train_csv, "--max-depth", "4", "--trees", "6",
                         option, value, "--engines", str(engines),
        "--seed", "9") == REGULARIZER_SHA256[option]


@pytest.mark.parametrize("engines", [1, 64])
def test_wide_model_bytes_are_pinned(tmp_path_factory, tmp_path, engines):
    data = tmp_path_factory.mktemp("golden_wide") / "train.csv"
    _write_csv(data, rows=400, features=300, informative=6, seed=17)
    assert _train_sha256(tmp_path, data, "--max-depth", "3", "--trees", "4",
        "--engines", str(engines), "--seed", "2") == WIDE_SHA256


# no missing cell: every node's missing bin is empty
DENSE_SHA256 = "0130ebb837bd9105f8814d040346754b9ef8f96f6a3fb03fd1837701b0ddbb6f"


@pytest.mark.parametrize("engines", [1, 64])
def test_dense_model_bytes_are_pinned(tmp_path_factory, tmp_path, engines):
    data = tmp_path_factory.mktemp("golden_dense") / "train.csv"
    _write_csv(data, rows=3000, features=10, missing=0.0, seed=23)
    assert _train_sha256(tmp_path, data, "--max-depth", "3", "--trees", "8",
        "--engines", str(engines), "--seed", "6") == DENSE_SHA256


# Every output of the CLI over --frac-bits x --lambda x --gamma, each trained at
# --engines 1 and 64: sha256 prefixes of the model, the log at 1 and at 64
# engines, the metrics csv, predict's margins and probabilities and eval's
# per-tree AUC, all recorded before the scan handed its children their totals.
# At 48 bits and lambda = 0 a leaf weight leaves int64 and train refuses the
# config: it pins that one error line, at both engine counts
GRID_REFUSED = ("error: tree 4: fixed-point value 9142953832.257195 does not fit int64 "
                "at frac_bits=48")
GRID_OUTPUTS = ("model_1", "log_1", "log_64", "metrics_1", "margins", "proba", "per_tree")
GRID_SHA256 = {
    (24, "0", "0"): ("fc19772a95d90d9c", "3a3c331088af8d4f", "7e84359a2e67fad1",
        "6e61a08e26bb5e8c", "a4eb06a139e0788d", "0afd1afae42b9b16", "2a93e25b91739b77"),
    (24, "0", "0.5"): ("4456f91b8425b599", "e20b383eda995e9b", "b5e175857452a744",
        "7064adeae70cf498", "5bd49bc27709e26c", "9010c4d13394a8d1", "2a704078f81bfe54"),
    (24, "1", "0"): ("0aec64985c33c985", "ee856cc4a2292fb1", "f6e234a71c30afc3",
        "e4693e3b0ba66091", "715bd7093f8fd364", "b5342095695758e6", "09c1614af0b0bc1e"),
    (24, "1", "0.5"): ("effe586e2d16cf91", "77512b035ec6e023", "37b14e4b4994577d",
        "8f9eec883d0c72ae", "1d43719d83e85376", "a5383cd8fb640170", "d6be76e768fbcb67"),
    (30, "0", "0"): ("c9003b5fcdadde59", "b513528649a58a6e", "84494f80516d6036",
        "6e61a08e26bb5e8c", "a637afa000011be6", "7a768606bfd18d8f", "2a93e25b91739b77"),
    (30, "0", "0.5"): ("fa256023f8c8f85c", "98a017574a52f2f2", "7256e53c6646ea88",
        "7064adeae70cf498", "0b2ead567be3ac23", "56439ad70eac64c2", "2a704078f81bfe54"),
    (30, "1", "0"): ("72a9ae868791990d", "348ec90877705a8d", "2c903501df408850",
        "e4693e3b0ba66091", "d3813775fa6a3193", "60aed7f7f13abf80", "09c1614af0b0bc1e"),
    (30, "1", "0.5"): ("6ba47edacb32afad", "7c853f517781be65", "c13abc32852a9914",
        "8f9eec883d0c72ae", "ea42d87cca628a2c", "4e87265d955f6b03", "d6be76e768fbcb67"),
    (48, "0", "0"): GRID_REFUSED,
    (48, "0", "0.5"): GRID_REFUSED,
    (48, "1", "0"): ("8a79afa02069ef00", "deb92e2830fde8ea", "9097a6dfaaca1347",
        "e4693e3b0ba66091", "c7cfb2ba9b3b73f9", "18d1f2c245b0c5c2", "09c1614af0b0bc1e"),
    (48, "1", "0.5"): ("02275ac45aed84f7", "b85bb26d5378fb48", "9cccb55a08087cd8",
        "8f9eec883d0c72ae", "302f04fd696b09af", "50001c5f86764663", "d6be76e768fbcb67"),
}


@pytest.fixture(scope="module")
def grid_csvs(tmp_path_factory):
    """A 2,000-row training file and a 1,000-row validation file of one
    seeded 3,000-row draw."""
    folder = tmp_path_factory.mktemp("golden_grid")
    _write_csv(folder / "all.csv", rows=3000, features=10, seed=19)
    lines = (folder / "all.csv").read_text().splitlines(keepends=True)
    (folder / "train.csv").write_text("".join(lines[:2000]))
    (folder / "valid.csv").write_text("".join(lines[2000:]))
    return folder / "train.csv", folder / "valid.csv"


@pytest.mark.parametrize("frac_bits, lam, gamma", list(GRID_SHA256))
def test_cli_outputs_are_pinned_across_the_config_grid(tmp_path, grid_csvs, frac_bits, lam,
                                                       gamma, capsys):
    """The same bytes for train, predict and eval, at every engine count."""
    train_csv, valid_csv = grid_csvs
    want = GRID_SHA256[frac_bits, lam, gamma]
    for engines in (1, 64):
        model = tmp_path / f"model_{engines}"
        rc = main(["train", "--data", str(train_csv), "--format", "csv", "--valid", str(valid_csv),
                   "--max-depth", "4", "--trees", "6", "--subsample", "0.7", "--seed", "4",
                   "--engines", str(engines), "--frac-bits", str(frac_bits),
                   "--lambda", lam, "--gamma", gamma, "--model-out", str(model),
                   "--log-out", str(tmp_path / f"log_{engines}"),
                   "--metrics-out", str(tmp_path / f"metrics_{engines}")])
        err = capsys.readouterr().err
        if isinstance(want, str):
            assert (rc, err, model.exists()) == (1, want + "\n", False)
        else:
            assert rc == 0, err
    if isinstance(want, str):
        return
    for name in ("model", "metrics"):       # the engine count reaches only the log
        assert (tmp_path / f"{name}_1").read_bytes() == (tmp_path / f"{name}_64").read_bytes()
    scored = ["--data", str(valid_csv), "--format", "csv", "--model", str(tmp_path / "model_1")]
    assert main(["predict", *scored, "--out", str(tmp_path / "margins")]) == 0
    assert main(["predict", *scored, "--proba", "--out", str(tmp_path / "proba")]) == 0
    assert main(["eval", *scored, "--per-tree-out", str(tmp_path / "per_tree")]) == 0
    assert tuple(_sha256(tmp_path / name)[:16] for name in GRID_OUTPUTS) == want
