"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite's verdict can be read off
directly.  Comparative wall-clock/power benchmarks against other machines
are out of scope by design; the checks here are self-contained.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fpboost.boost_controller import predict_raw, train
from fpboost.cost_model import CostParams, estimate
from fpboost.dataset import load_dataset
from fpboost.engine_memory import EngineMemory, init_index_table, load
from fpboost.fixed_point import FRAC_BITS, grad_hess, margin_probability
from fpboost.metrics import train_and_evaluate
from fpboost.model_io import load_model, save_model
from fpboost.node_trainer import TrainConfig, build_histogram
from fpboost.quantizer import RawDataset, fit_bin_map, transform
from conftest import random_quantized, random_raw
from reference import assert_trees_match, merge_histograms, mp_grad_hess, ref_train, shard

SCALE = 1 << FRAC_BITS


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_01_oracle_equivalence_on_random_datasets():
    with criterion("1 oracle equivalence (200 random datasets)"):
        rng = np.random.default_rng(101)
        started = time.monotonic()
        for trial in range(200):
            n = int(rng.integers(2, 257))
            n_features = int(rng.integers(1, 9))
            raw = random_raw(rng, n, n_features, distinct=16,
                             missing_frac=float(rng.choice([0.0, 0.1, 0.3])))
            matrix = transform(raw, fit_bin_map(raw))
            config = TrainConfig(
                n_trees=int(rng.integers(1, 4)),
                max_depth=int(rng.choice([1, 1, 2, 2, 3])),
                subsample=1.0,
                lam=float(rng.choice([0.5, 1.0, 2.0])),
                gamma=float(rng.choice([0.0, 0.0, 0.1])),
                eta=float(rng.choice([1.0, 1.0, 0.5])),
                n_engines=int(rng.choice([1, 2, 4])),
                seed=trial,
            )
            model, _ = train(matrix, raw.labels, config)
            ref_trees, ref_scores = ref_train(matrix.columns, raw.labels, config)
            assert model.n_trees == len(ref_trees)
            for tree, ref in zip(model.trees, ref_trees):
                assert_trees_match(tree, ref, config.frac_bits, ulp_tol=1)
            got_scores = predict_raw(model, matrix, config.eta, config.frac_bits)
            assert np.all(np.abs(got_scores - ref_scores) <= config.n_trees), \
                f"trial {trial}: scores drifted beyond cumulative weight tolerance"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_02_engine_count_invariance(tmp_path):
    with criterion("2 engine-count invariance (10,000 x 28, E in {1,2,4,64})"):
        started = time.monotonic()
        rng = np.random.default_rng(202)
        values = rng.normal(size=(10_000, 28))
        labels = (values[:, :4].sum(axis=1) + rng.normal(scale=1.5, size=10_000) > 0).astype(int)
        values[rng.random(size=values.shape) < 0.02] = np.nan
        raw = RawDataset(values=values, labels=labels)
        bins = fit_bin_map(raw)
        matrix = transform(raw, bins)
        blobs = []
        for engines in (1, 2, 4, 64):
            config = TrainConfig(n_trees=5, max_depth=3, subsample=0.5,
                                 n_engines=engines, seed=33)
            model, _ = train(matrix, raw.labels, config)
            path = tmp_path / f"model_e{engines}.json"
            save_model(model, bins, config, str(path))
            blobs.append(path.read_bytes())
        assert all(blob == blobs[0] for blob in blobs), "serialized models differ"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def _find_higgs():
    candidates = []
    env = os.environ.get("FPBOOST_HIGGS")
    if env:
        candidates.append(Path(env))
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "HIGGS.csv", here / "data" / "HIGGS.csv.gz"]
    for c in candidates:
        if c.is_file():
            return str(c)
    return None


def test_03_higgs_auc_band():
    higgs = _find_higgs()
    if higgs is None:
        print("[acceptance] 3 Higgs AUC band: SKIP (dataset file not present)")
        pytest.skip(
            "HIGGS dataset not available: place the UCI file at data/HIGGS.csv[.gz] "
            "or set FPBOOST_HIGGS (see scripts/fetch_higgs.py)"
        )
    with criterion("3 Higgs max per-tree validation AUC in [0.73, 0.78]"):
        started = time.monotonic()
        full = load_dataset(higgs, "csv", label_col=0, max_rows=20_096)
        assert full.n_samples == 20_096, "need at least 20,096 rows of HIGGS"
        train_raw = RawDataset(values=full.values[:10_048], labels=full.labels[:10_048])
        valid_raw = RawDataset(values=full.values[10_048:], labels=full.labels[10_048:])
        config = TrainConfig(lam=1.0, gamma=0.0, max_depth=1, n_trees=100,
                             subsample=0.5, eta=1.0, n_engines=64, seed=0)
        *_, history = train_and_evaluate(train_raw, config, valid_raw)
        max_auc = max(history)
        elapsed = time.monotonic() - started
        print(f"  higgs max per-tree validation AUC = {max_auc:.4f} ({elapsed:.1f}s)")
        assert 0.73 <= max_auc <= 0.78, f"max AUC {max_auc:.4f} outside band"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_04_histogram_conservation_and_merge():
    with criterion("4 histogram conservation + merge equality (1,000 nodes)"):
        rng = np.random.default_rng(404)
        for _ in range(1_000):
            n = int(rng.integers(1, 300))
            n_features = int(rng.integers(1, 7))
            matrix, labels = random_quantized(rng, n, n_features,
                                              missing_frac=float(rng.choice([0.0, 0.2])))
            base = load(matrix, labels, 0.0)
            base.state.scores_raw[:] = rng.integers(-3 * SCALE, 3 * SCALE, size=n)
            g, h = grad_hess(margin_probability(base.state.scores_raw), labels)
            base.state.grads_raw[:] = g
            base.state.hess_raw[:] = h

            node = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            whole = EngineMemory(matrix, base.state, init_index_table(node, n))
            hist = build_histogram(whole, (0, node.size))

            # bin-wise totals equal node totals bitwise, every feature
            state = base.state
            node_sums = (state.grads_raw[node].sum(), state.hess_raw[node].sum())
            assert (hist.sum(axis=2) == np.array(node_sums)[:, None]).all()

            # any sharding merges back to the unsharded histogram bitwise
            engines = int(rng.choice([2, 3, 64]))
            parts = shard(node, engines)
            shard_hists = []
            for part in parts:
                e = EngineMemory(matrix, base.state, init_index_table(part, n))
                shard_hists.append(build_histogram(e, (0, part.size)))
            merged = merge_histograms(shard_hists)
            assert np.array_equal(merged, hist)


def test_05_gradient_quantization_matches_arbitrary_precision():
    with criterion("5 quantized (grad, hess) == arbitrary-precision oracle (10,000 scores)"):
        rng = np.random.default_rng(505)
        raws = rng.integers(-12 * SCALE, 12 * SCALE, size=10_000, dtype=np.int64)
        labels = rng.integers(0, 2, size=10_000)
        grads, hess = grad_hess(margin_probability(raws), labels)
        for raw, y, g, h in zip(raws, labels, grads, hess):
            eg, eh = mp_grad_hess(int(raw), int(y), FRAC_BITS)
            assert int(g) == eg, f"grad mismatch at score {raw}"
            assert int(h) == eh, f"hess mismatch at score {raw}"


def test_06_cost_model_band():
    with criterion("6 cost estimate in [0.5 ms, 12.5 ms] for the reference setup"):
        rng = np.random.default_rng(606)
        values = rng.normal(size=(10_048, 28))
        labels = (values[:, 0] > 0).astype(int)
        raw = RawDataset(values=values, labels=labels)
        matrix = transform(raw, fit_bin_map(raw))
        config = TrainConfig(lam=1.0, gamma=0.0, max_depth=1, n_trees=100,
                             subsample=0.5, n_engines=64, seed=0)
        _, log = train(matrix, raw.labels, config)
        report = estimate(log, 10_048, config, CostParams(clock_hz=100e6))
        wall_ms = report.wall_seconds * 1e3
        print(f"  estimated training wall time = {wall_ms:.3f} ms")
        assert 0.5 <= wall_ms <= 12.5, f"{wall_ms:.3f} ms outside band"


def test_07_model_persistence(tmp_path):
    with criterion("7 save -> load -> predict bitwise identical (50 models)"):
        rng = np.random.default_rng(707)
        for i in range(50):
            n = int(rng.integers(10, 150))
            raw = random_raw(rng, n, int(rng.integers(1, 6)),
                             missing_frac=float(rng.choice([0.0, 0.15])))
            bins = fit_bin_map(raw)
            matrix = transform(raw, bins)
            config = TrainConfig(
                n_trees=int(rng.integers(0, 5)),
                max_depth=int(rng.integers(1, 4)),
                subsample=float(rng.choice([0.5, 1.0])),
                eta=float(rng.choice([1.0, 0.3])),
                n_engines=int(rng.choice([1, 3])),
                seed=i,
            )
            model, _ = train(matrix, raw.labels, config)
            path = tmp_path / f"m{i}.json"
            save_model(model, bins, config, str(path))
            bundle = load_model(str(path))
            direct = predict_raw(model, matrix, config.eta, config.frac_bits)
            loaded = predict_raw(bundle.model, matrix, bundle.config.eta,
                                 bundle.config.frac_bits)
            assert np.array_equal(direct, loaded), f"model {i}: predictions differ"
