"""Host-speed probe: a fixed piece of work timed between pipeline stages.

The machines this benchmark runs on are shared, and their speed moves by up
to 2x over seconds to minutes as neighbours load them.  Timed work is cut
into segments of at most about half a second, each bracketed by two probe
samples, and each segment is rescaled to the reference speed, at which one
probe sample takes REFERENCE_S:

    rescaled = seconds * REFERENCE_S / mean(probe before, probe after)

The probe is part of the benchmark, not of fpboost, so a change to the
program moves the stage times and leaves the probe alone.  Its two parts
mimic what the pipeline does: parsing CSV text cell by cell in the
interpreter, numpy histogram and scan kernels on cache-sized arrays, and
gathers from an array larger than the caches, as routing does at 100k rows.
"""

import time

import numpy as np

# Probe time at the reference host speed: about what one sample, and its
# interpreter part alone, take on an idle 2-core Xeon sandbox at 2.0 GHz with
# Python 3.11 and numpy 2.4.
REFERENCE_S = 0.025
REFERENCE_INTERPRETER_S = 0.010


class SpeedProbe:
    def __init__(self, seed: int = 12345):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(1500, 28))
        rows[rng.random(size=rows.shape) < 0.05] = np.nan
        line = ",".join(["%.7g"] * 28)
        self._lines = [(line % tuple(r)).replace("nan", "") + "\n" for r in rows.tolist()]
        self._keys = rng.integers(0, 28 * 256, size=300_000)
        self._weights = rng.normal(size=300_000)
        self._bins = rng.normal(size=255)
        self._table = rng.integers(0, 1 << 30, size=4_000_000)
        self._gather = rng.integers(0, self._table.size, size=400_000)
        self.sample()           # first calls pay one-time costs

    def _interpreter(self) -> None:
        for text in self._lines:
            row = []
            for cell in text.strip().split(","):
                cell = cell.strip()
                row.append(float("nan") if cell == "" or cell.lower() == "nan" else float(cell))

    def _numeric(self) -> None:
        for _ in range(10):
            np.bincount(self._keys, weights=self._weights, minlength=28 * 256)
        for _ in range(1000):
            np.argmax(np.cumsum(self._bins))

    def _memory(self) -> None:
        self._table[self._gather].sum()

    def sample(self) -> tuple:
        """(interpreter, numeric, memory) seconds of one probe run."""
        t0 = time.perf_counter()
        self._interpreter()
        t1 = time.perf_counter()
        self._numeric()
        t2 = time.perf_counter()
        self._memory()
        return t1 - t0, t2 - t1, time.perf_counter() - t2


def rescale(seconds: float, before: tuple, after: tuple) -> tuple:
    """Seconds at the reference host speed, from the probe samples around them:
    (by the whole probe, by its interpreter part alone)."""
    return (seconds * REFERENCE_S / ((sum(before) + sum(after)) / 2.0),
            seconds * REFERENCE_INTERPRETER_S / ((before[0] + after[0]) / 2.0))


class ProbedClock:
    """Elapsed time in segments that end with a probe sample.

    mark() closes the open segment, samples the probe and returns the running
    totals (wall seconds, seconds at the reference speed, seconds at the
    reference interpreter speed); the probe's own time is in none of them.
    CSV reading and input generation run in the interpreter almost alone, so
    they are rescaled by the probe's interpreter part.  Long stages get extra marks through hook(), which
    wraps a function fpboost calls often (once per tree) so that a segment
    ends there once MARK_EVERY_S have passed.  Without a probe the clock
    only measures, and all totals are wall seconds.
    """

    MARK_EVERY_S = 0.5

    def __init__(self, speed: SpeedProbe | None = None):
        self._speed = speed
        self._last = speed.sample() if speed else None
        self._totals = [0.0, 0.0, 0.0]
        self._start = time.perf_counter()

    def mark(self) -> tuple:
        seconds = time.perf_counter() - self._start
        if self._speed is None:
            scaled = (seconds, seconds)
        else:
            sample = self._speed.sample()
            scaled = rescale(seconds, self._last, sample)
            self._last = sample
        for k, v in enumerate((seconds, *scaled)):
            self._totals[k] += v
        self._start = time.perf_counter()
        return tuple(self._totals)

    def hook(self, fn):
        def marked(*args, **kwargs):
            if time.perf_counter() - self._start >= self.MARK_EVERY_S:
                self.mark()
            return fn(*args, **kwargs)

        return marked
