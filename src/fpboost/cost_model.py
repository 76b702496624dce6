"""First-order clock-cycle model of the training datapath.

Streaming passes process one sample per clock per engine, so a pass over
s samples takes data_parallel.engine_block(s, engines) clocks, the fullest
engine's share, plus the pipeline latency.  Node training adds a serial
ordered-bin gain sweep with all features scored in parallel.
The constants are parameters so the model can be re-calibrated; out of the
box it is an order-of-magnitude estimator, not a cycle-accurate one.
"""

import math
from dataclasses import dataclass

from .data_parallel import engine_block
from .fixed_point import is_int, is_real


@dataclass(frozen=True)
class CostParams:
    clock_hz: float = 100e6
    pipeline_latency_cycles: int = 16       # fill/drain per streaming pass
    gain_scan_cycles: int = 256             # per node: one sweep over ordered bins
    per_tree_overhead_cycles: int = 64      # init/handshake per boosting round

    def __post_init__(self):
        _check_clock(self.clock_hz)
        for name in ("pipeline_latency_cycles", "gain_scan_cycles", "per_tree_overhead_cycles"):
            value = getattr(self, name)
            if not (is_int(value) and value > 0):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class CostReport:
    histogram_cycles: int
    split_cycles: int
    update_cycles: int
    scan_cycles: int
    overhead_cycles: int
    total_cycles: int
    wall_seconds: float


def _check_clock(clock_hz) -> None:
    # NaN fails every comparison, and an infinite clock makes any run take 0 s
    if not (is_real(clock_hz) and math.isfinite(clock_hz) and clock_hz > 0):
        raise ValueError(f"clock_hz must be a finite number > 0, got {clock_hz!r}")


def to_wall_time(cycles: int, clock_hz: float) -> float:
    _check_clock(clock_hz)
    return cycles / clock_hz


def estimate(log, n_samples: int, config, params: CostParams = CostParams(),
             n_validation: int = 0) -> CostReport:
    """Cycle estimate for a finished training run.

    log is the per-tree training log: each tree carries per-depth lists of
    node sample counts for the histogram pass and for the partition pass.
    Scoring n_validation extra samples per tree is off by default.
    """
    if n_validation < 0:
        raise ValueError(f"n_validation must be >= 0, got {n_validation}")
    engines = config.n_engines
    lat = params.pipeline_latency_cycles
    hist_cycles = 0
    split_cycles = 0
    scan_cycles = 0
    update_cycles = 0
    for tree in log.trees:
        for depth in tree.depths:
            hist_cycles += sum(engine_block(s, engines) for s in depth.trained_sizes) + lat
            if depth.split_sizes:
                split_cycles += sum(engine_block(s, engines) for s in depth.split_sizes) + lat
            scan_cycles += params.gain_scan_cycles * len(depth.trained_sizes)
        # validation rows ride the score-update pass, without a latency of their own
        update_cycles += (engine_block(n_samples, engines) + engine_block(n_validation, engines)
                          + lat)
    overhead_cycles = params.per_tree_overhead_cycles * len(log.trees)
    total = hist_cycles + split_cycles + update_cycles + scan_cycles + overhead_cycles
    return CostReport(
        histogram_cycles=hist_cycles,
        split_cycles=split_cycles,
        update_cycles=update_cycles,
        scan_cycles=scan_cycles,
        overhead_cycles=overhead_cycles,
        total_cycles=total,
        wall_seconds=to_wall_time(total, params.clock_hz),
    )


# (CostReport field, text label) of each cycle count, in report order
_REPORT_ROWS = (
    ("histogram_cycles", "histogram passes"),
    ("split_cycles", "partition passes"),
    ("scan_cycles", "gain scans"),
    ("update_cycles", "score updates"),
    ("overhead_cycles", "per-tree overhead"),
    ("total_cycles", "total"),
)


def format_text(report: CostReport) -> str:
    width = max(len(label) for _, label in _REPORT_ROWS)
    lines = [f"{label:<{width}}  {getattr(report, key):>14,} cycles"
             for key, label in _REPORT_ROWS]
    lines.append(f"{'wall time':<{width}}  {report.wall_seconds * 1e3:>14.6f} ms")
    return "\n".join(lines)


def format_keyvalue(report: CostReport) -> str:
    lines = [f"{key}={getattr(report, key)}" for key, _ in _REPORT_ROWS]
    lines.append(f"wall_seconds={report.wall_seconds!r}")
    return "\n".join(lines) + "\n"
