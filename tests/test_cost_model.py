import math

import numpy as np
import pytest

from fpboost.boost_controller import DepthLog, TrainingLog, TreeLog, train
from fpboost.cost_model import CostParams, estimate, format_keyvalue, format_text, to_wall_time
from fpboost.node_trainer import TrainConfig
from conftest import random_quantized
from reference import shard


def _log(tree_logs, config, n_samples=0, n_features=1):
    return TrainingLog(n_samples=n_samples, n_features=n_features,
                       config=config, trees=tree_logs)


def _stump_tree_log(n_node):
    return TreeLog(n_subsampled=n_node, n_leaves=2, train_loss=0.5,
                   depths=[DepthLog(trained_sizes=[n_node], split_sizes=[n_node])])


class TestToWallTime:
    def test_known_point(self):
        assert to_wall_time(250_000, 100e6) == pytest.approx(2.5e-3)

    def test_zero_cycles(self):
        assert to_wall_time(0, 100e6) == 0.0

    def test_one_cycle_one_hz(self):
        assert to_wall_time(1, 1.0) == 1.0

    def test_bad_clock(self):
        # a NaN clock gave a NaN wall time, and an infinite one 0.0 s
        for clock_hz in (0.0, -1.0, math.nan, math.inf, -math.inf, True):
            with pytest.raises(ValueError, match="clock_hz must be a finite number > 0"):
                to_wall_time(1000, clock_hz)


class TestEstimate:
    def test_zero_trees(self):
        report = estimate(_log([], TrainConfig()), 1000, TrainConfig(), CostParams())
        assert report.total_cycles == 0
        assert report.wall_seconds == 0.0

    def test_breakdown_sums_to_total(self, rng):
        matrix, labels = random_quantized(rng, 500, 3)
        config = TrainConfig(n_trees=4, max_depth=3, subsample=0.8, n_engines=4)
        _, log = train(matrix, labels, config)
        report = estimate(log, 500, config, CostParams())
        parts = (report.histogram_cycles + report.split_cycles + report.update_cycles
                 + report.scan_cycles + report.overhead_cycles)
        assert parts == report.total_cycles

    def test_doubling_engines_halves_streaming(self):
        params = CostParams()
        cfg_a = TrainConfig(n_engines=4)
        cfg_b = TrainConfig(n_engines=8)
        tree = _stump_tree_log(1024)
        ra = estimate(_log([tree], cfg_a), 2048, cfg_a, params)
        rb = estimate(_log([tree], cfg_b), 2048, cfg_b, params)
        lat = params.pipeline_latency_cycles
        assert ra.histogram_cycles - lat == 2 * (rb.histogram_cycles - lat)
        assert ra.split_cycles - lat == 2 * (rb.split_cycles - lat)
        assert ra.update_cycles - lat == 2 * (rb.update_cycles - lat)
        assert ra.scan_cycles == rb.scan_cycles
        assert ra.overhead_cycles == rb.overhead_cycles

    def test_monotone_in_samples_trees_depth(self, rng):
        params = CostParams()
        base_cfg = TrainConfig(n_trees=3, max_depth=2, subsample=1.0, n_engines=2)
        matrix, labels = random_quantized(rng, 300, 3)
        _, log = train(matrix, labels, base_cfg)
        base = estimate(log, 300, base_cfg, params).total_cycles

        big_m, big_l = random_quantized(rng, 600, 3)
        _, log_more_samples = train(big_m, big_l, base_cfg)
        assert estimate(log_more_samples, 600, base_cfg, params).total_cycles >= base

        cfg_more_trees = TrainConfig(n_trees=6, max_depth=2, subsample=1.0, n_engines=2)
        _, log_mt = train(matrix, labels, cfg_more_trees)
        assert estimate(log_mt, 300, cfg_more_trees, params).total_cycles >= base

        cfg_deeper = TrainConfig(n_trees=3, max_depth=4, subsample=1.0, n_engines=2)
        _, log_d = train(matrix, labels, cfg_deeper)
        assert estimate(log_d, 300, cfg_deeper, params).total_cycles >= base

    def test_engine_scaling_bounds(self, rng):
        params = CostParams()
        matrix, labels = random_quantized(rng, 400, 3)
        for engines in (2, 4, 64):
            cfg1 = TrainConfig(n_trees=3, max_depth=2, subsample=1.0, n_engines=1)
            cfge = TrainConfig(n_trees=3, max_depth=2, subsample=1.0, n_engines=engines)
            _, log1 = train(matrix, labels, cfg1)
            _, loge = train(matrix, labels, cfge)

            def streaming(report):
                return report.histogram_cycles + report.split_cycles + report.update_cycles

            r1 = streaming(estimate(log1, 400, cfg1, params))
            re = streaming(estimate(loge, 400, cfge, params))
            assert re <= r1
            assert re >= r1 / engines

    def test_validation_flag_adds_cycles(self):
        cfg = TrainConfig(n_engines=8)
        tree = _stump_tree_log(512)
        params = CostParams()
        without = estimate(_log([tree], cfg), 1024, cfg, params)
        with_valid = estimate(_log([tree], cfg), 1024, cfg, params, n_validation=1024)
        assert with_valid.total_cycles == without.total_cycles + 128

    def test_negative_validation_rows_rejected(self):
        cfg = TrainConfig(n_engines=8)
        with pytest.raises(ValueError, match="^n_validation must be >= 0, got -1000$"):
            estimate(_log([_stump_tree_log(4)], cfg), 4, cfg, CostParams(), n_validation=-1000)

    @pytest.mark.parametrize("engines", [1, 2, 3, 7, 64])
    def test_pass_charge_is_the_fullest_shard(self, engines):
        """Every streaming pass over n samples costs the largest block of a
        contiguous split of n samples over the engines, plus one latency."""
        cfg = TrainConfig(n_engines=engines)
        params = CostParams()
        lat = params.pipeline_latency_cycles
        for n in range(301):
            fullest = max(part.size for part in shard(np.arange(n), engines))
            tree = TreeLog(n_subsampled=n, n_leaves=2, train_loss=0.5,
                           depths=[DepthLog(trained_sizes=[n], split_sizes=[n])])
            report = estimate(_log([tree], cfg), n, cfg, params)
            assert report.histogram_cycles == report.split_cycles == fullest + lat
            assert report.update_cycles == fullest + lat
            with_valid = estimate(_log([tree], cfg), 0, cfg, params, n_validation=n)
            assert with_valid.update_cycles == fullest + lat


class TestParamsAndFormat:
    def test_params_must_be_positive(self):
        with pytest.raises(ValueError):
            CostParams(clock_hz=0)
        with pytest.raises(ValueError):
            CostParams(pipeline_latency_cycles=0)

    @pytest.mark.parametrize("name, value", [
        ("clock_hz", math.nan), ("clock_hz", math.inf), ("clock_hz", True),
        pytest.param("clock_hz", 10**400, id="clock_hz-10**400"),
        ("pipeline_latency_cycles", True), ("gain_scan_cycles", 256.0),
        ("per_tree_overhead_cycles", 2.5), ("per_tree_overhead_cycles", math.nan),
    ])
    def test_params_must_be_finite_and_of_their_type(self, name, value):
        """The clock is a finite number, and the cycle counts are positive
        integers, not bools."""
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            CostParams(**{name: value})

    def test_text_and_keyvalue_formats(self):
        cfg = TrainConfig(n_engines=2)
        report = estimate(_log([_stump_tree_log(100)], cfg), 200, cfg, CostParams())
        text = format_text(report)
        assert "total" in text and "wall time" in text and "cycles" in text
        kv = format_keyvalue(report)
        pairs = dict(line.split("=") for line in kv.strip().splitlines())
        assert int(pairs["total_cycles"]) == report.total_cycles
        assert float(pairs["wall_seconds"]) == report.wall_seconds
