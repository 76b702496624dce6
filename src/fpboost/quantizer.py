"""8-bit feature quantization.

Each feature column is reduced to at most 255 representative values (bin
centroids); raw values map to the index of the nearest centroid and missing
values map to the reserved bin 255.  Centroids are fit on training data only
and reused unchanged for any other split of the data.

Between two neighbouring centroids, a value's bin is decided by one float64
threshold: the largest value that is still nearer the lower centroid (ties
go low).  So a value's bin is the number of thresholds below it.  A bin map
builds its thresholds once, on first use, by bisection over the float64
values between each centroid pair, and a per-feature table of about
TABLE_BUCKETS equal buckets over the centroid range.  Transform reads each
value's bin from the table with one exact compare and searches only the
values in buckets that hold two or more thresholds, so the bins are those a
search of every value gives.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_BINS = 255
MISSING_BIN = 255
# Buckets in each feature's decision table (see _Decision).
TABLE_BUCKETS = 4096
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_ROUND = 2.0 ** 52
_ROUND_BITS = np.float64(_ROUND).view(np.int64)


@dataclass(frozen=True, eq=False)
class BinMap:
    """Per-feature centroid arrays, ascending, 1..255 entries each."""

    centroids: list

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinMap):
            return NotImplemented
        return len(self.centroids) == len(other.centroids) and all(
            a.shape == b.shape and bool(np.all(a == b))
            for a, b in zip(self.centroids, other.centroids)
        )

    def __post_init__(self):
        cleaned = []
        for f, cents in enumerate(self.centroids):
            c = np.asarray(cents, dtype=np.float64)
            if c.ndim != 1 or not (1 <= c.size <= MAX_BINS):
                raise ValueError(f"feature {f}: need 1..{MAX_BINS} centroids, got shape {c.shape}")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"feature {f}: centroids must be finite")
            # compared, not differenced: a difference overflows across huge spans
            if not np.all(c[1:] > c[:-1]):
                raise ValueError(f"feature {f}: centroids must be strictly ascending")
            c.flags.writeable = False
            cleaned.append(c)
        object.__setattr__(self, "centroids", cleaned)

    @property
    def n_features(self) -> int:
        return len(self.centroids)

    @cached_property
    def decisions(self) -> list:
        """Each feature's _Decision, built for every feature at once on first use."""
        cents = np.concatenate(self.centroids)
        # drop the pairs that join the last centroid of a feature to the next one's first
        pairs = np.ones(cents.size - 1, dtype=bool)
        pairs[np.cumsum([c.size for c in self.centroids])[:-1] - 1] = False
        thresholds = _thresholds(cents[:-1][pairs], cents[1:][pairs])
        cuts = np.cumsum([c.size - 1 for c in self.centroids])[:-1]
        return [_decision(c, t) for c, t in zip(self.centroids, np.split(thresholds, cuts))]


def binary_labels(labels) -> np.ndarray:
    """labels as int8, refused unless each one is 0 or 1.  The check runs
    before the cast, which would wrap 257 to 1 and truncate 0.5 to 0."""
    y = np.asarray(labels)
    bad = (y != 0) & (y != 1)
    if bad.any():
        raise ValueError(f"labels must be 0 or 1; offending row {int(np.argmax(bad))}")
    return y.astype(np.int8)


@dataclass
class RawDataset:
    """Dense real-valued samples with NaN as the missing marker.

    Every other value must be finite: quantization has no bin for +-inf, and
    model files could not store such a centroid as JSON.
    """

    values: np.ndarray          # (n_samples, n_features) float64
    labels: np.ndarray          # (n_samples,) in {0, 1}

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.values.ndim != 2 or self.values.shape[1] < 1:
            raise ValueError("values must be a 2-d array with at least one feature")
        if self.labels.shape != (self.values.shape[0],):
            raise ValueError("labels length must equal the number of samples")
        self.labels = binary_labels(self.labels)
        infinite = np.isinf(self.values)
        if infinite.any():
            row, feature = divmod(int(np.argmax(infinite)), self.values.shape[1])
            raise ValueError(
                f"row {row}, feature {feature}: non-finite value {self.values[row, feature]}; "
                "values must be finite, with NaN for missing"
            )

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass
class QuantizedMatrix:
    """Column-major 8-bit bin indices: row f holds the column for feature f."""

    columns: np.ndarray         # (n_features, n_samples) uint8, read-only
    bin_map: BinMap

    def __post_init__(self):
        self.columns = np.ascontiguousarray(self.columns, dtype=np.uint8)
        if self.columns.ndim != 2:
            raise ValueError("columns must be a 2-d array")
        if self.columns.shape[0] != self.bin_map.n_features:
            raise ValueError("column count must match the bin map")
        self.columns.flags.writeable = False

    @property
    def n_features(self) -> int:
        return self.columns.shape[0]

    @property
    def n_samples(self) -> int:
        return self.columns.shape[1]


def check_max_bins(max_bins: int) -> None:
    """Refuse a bin count outside [1, MAX_BINS]."""
    if not 1 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be in [1, {MAX_BINS}]")


def fit_bins(column, max_bins: int = MAX_BINS) -> np.ndarray:
    """Fit ascending bin centroids for one feature column.

    With at most max_bins distinct non-missing values the centroids are
    exactly those values.  Otherwise they are the nearest-rank empirical
    quantiles at probabilities k/(max_bins+1), k = 1..max_bins, deduplicated.
    A -0.0 counts as 0.0, so a zero centroid is always +0.0.
    """
    check_max_bins(max_bins)
    col = np.asarray(column, dtype=np.float64)
    if col.size == 0:
        raise ValueError("empty column")
    # + 0.0 turns -0.0 into 0.0: otherwise the sign of a zero centroid would
    # depend on the row order of a column holding both zeros
    values = np.sort(col[~np.isnan(col)] + 0.0)
    if values.size == 0:
        raise ValueError("all-missing feature")

    distinct = _distinct(values)
    if distinct.size <= max_bins:
        return distinct

    n = values.size
    # nearest-rank quantile: element at ceil(p * n) - 1, in pure integer math
    ranks = np.array([-((-k * n) // (max_bins + 1)) - 1 for k in range(1, max_bins + 1)])
    return _distinct(values[ranks])


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, without sorting it again."""
    keep = np.empty(ascending.size, dtype=bool)
    keep[0] = True
    np.not_equal(ascending[1:], ascending[:-1], out=keep[1:])
    return ascending[keep]


def fit_bin_map(raw: RawDataset, max_bins: int = MAX_BINS) -> BinMap:
    """Fit centroids independently for every feature of a training set."""
    return BinMap([fit_bins(raw.values[:, f], max_bins) for f in range(raw.n_features)])


def _ordered(x: np.ndarray) -> np.ndarray:
    """Map float64 bits (as int64) to keys that sort like the floats, and back.

    The map is its own inverse; -0.0 and +0.0 get the adjacent keys -1 and 0.
    """
    return x ^ ((x >> 63) & _MAGNITUDE)


def _thresholds(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per centroid pair a < b, the largest float64 t with (t - a) <= (b - t).

    The test holds at a and fails at b, and both of its sides are monotone in
    t, so t is found by bisection over the ordered keys of [a, b).  Those keys
    may span the whole int64 range, so neither the midpoint nor the loop test
    subtracts them.
    """
    lo, hi = _ordered(lower.view(np.int64)), _ordered(upper.view(np.int64))
    # a distance overflows only across a span wider than the float range,
    # and then only the larger one does: inf still compares right
    with np.errstate(over="ignore"):
        while (hi - 1 > lo).any():
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
            t = _ordered(mid).view(np.float64)
            lower_wins = (t - lower) <= (upper - t)
            lo = np.where(lower_wins, mid, lo)
            hi = np.where(lower_wins, hi, mid)
    return _ordered(lo).view(np.float64)


def _slots(v: np.ndarray, lo: float, hi: float, per_unit: float, out=None) -> np.ndarray:
    """Each value's slot in a _Decision table: 1 + its bucket.

    Clipped to [lo, hi], (v - lo) * per_unit lies in [0, TABLE_BUCKETS], and
    adding 2**52 rounds it to an integer held in the low bits of the sum, so
    the bucket is monotone in v.  NaN passes every step, and its bits,
    whatever its sign, give an index beyond one end of the table: a take with
    mode="clip" reads slot 0 or TABLE_BUCKETS + 2 for it.
    """
    t = np.maximum(v, lo, out=out)
    np.minimum(t, hi, out=t)
    # only a signalling NaN can raise the invalid flag here
    with np.errstate(invalid="ignore"):
        t -= lo
        t *= per_unit
        t += _ROUND
    slots = t.view(np.int64)
    slots -= _ROUND_BITS - 1
    return slots


def _search(thresholds: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bins of values by binary search: the number of thresholds below each."""
    return np.searchsorted(thresholds, v)


@dataclass(frozen=True)
class _Decision:
    """How transform bins one feature: a bin is the number of thresholds below a value.

    thresholds[k] is the largest float64 that still takes bin k.  The table
    splits [c[0], c[-1]] into TABLE_BUCKETS + 1 buckets (see _slots) and
    holds per bucket the number of thresholds below it (base), so a value in
    a bucket that holds at most one threshold takes base + (v > bounds[base]),
    where bounds is the thresholds padded with +inf to 256 entries.  The end
    slots give NaN the missing bin.  Values in crowded buckets, which hold
    more, are searched; without a table (per_unit 0: one centroid, or a span
    too wide or too narrow for the buckets) every value is.
    """

    thresholds: np.ndarray
    lo: float = 0.0
    hi: float = 0.0
    per_unit: float = 0.0
    base: np.ndarray = None         # uint8 per slot
    bounds: np.ndarray = None       # float64, 256 entries
    crowded: np.ndarray = None      # bool per slot; None when no bucket is crowded


def _decision(c: np.ndarray, thresholds: np.ndarray) -> _Decision:
    lo, hi = float(c[0]), float(c[-1])
    # Python floats: a span that overflows gives 0.0 and a tiny one inf, never a warning
    per_unit = TABLE_BUCKETS / (hi - lo) if hi > lo else 0.0
    if not 0.0 < per_unit < math.inf:
        return _Decision(thresholds)
    counts = np.bincount(_slots(thresholds, lo, hi, per_unit), minlength=TABLE_BUCKETS + 3)
    base = (np.cumsum(counts) - counts).astype(np.uint8)
    base[[0, -1]] = MISSING_BIN
    bounds = np.full(MISSING_BIN + 1, math.inf)
    bounds[:thresholds.size] = thresholds
    crowded = counts > 1
    return _Decision(thresholds, lo, hi, per_unit, base, bounds,
                     crowded if crowded.any() else None)


def transform(raw: RawDataset, bins: BinMap) -> QuantizedMatrix:
    """Map every value to its nearest centroid's index; missing to bin 255.

    Between neighbouring centroids a < b, v takes a's index if
    (v - a) <= (b - v) and b's otherwise, so equidistant values take the
    lower index, and values beyond the ends take the end indices.  So a
    value's bin is the number of thresholds below it, a threshold being the
    largest float64 that still takes the lower index of its pair.  The
    thresholds and a bucket table over them are built once per bin map (see
    _Decision); a value then takes two table lookups and one compare, and
    only values in buckets crowded with thresholds are searched.
    """
    if raw.n_features != bins.n_features:
        raise ValueError(
            f"feature count mismatch: data has {raw.n_features}, bin map has {bins.n_features}"
        )
    # the tables outlive this call, so they are built before the scratch
    # buffers below: made after them, they sat above the freed buffers on the
    # heap, and ingest-large's peak RSS rose by 20 MB in some runs
    decisions = bins.decisions
    columns = np.empty((raw.n_features, raw.n_samples), dtype=np.uint8)
    scratch = np.empty(raw.n_samples)
    above = np.empty(raw.n_samples)
    greater = np.empty(raw.n_samples, dtype=bool)
    for f, d in enumerate(decisions):
        col = raw.values[:, f]
        out = columns[f]
        if d.base is None:
            out[:] = _search(d.thresholds, col)
            np.copyto(out, MISSING_BIN, where=np.isnan(col, out=greater))
            continue
        slots = _slots(col, d.lo, d.hi, d.per_unit, out=scratch)
        np.take(d.base, slots, out=out, mode="clip")
        np.take(d.bounds, out, out=above, mode="clip")
        out += np.greater(col, above, out=greater)
        if d.crowded is not None:
            crowded = np.flatnonzero(np.take(d.crowded, slots, mode="clip"))
            if crowded.size:
                out[crowded] = _search(d.thresholds, col[crowded])
    return QuantizedMatrix(columns=columns, bin_map=bins)
