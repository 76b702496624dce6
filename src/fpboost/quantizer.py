"""8-bit feature quantization.

Each feature column is reduced to at most 255 representative values (bin
centroids); raw values map to the index of the nearest centroid and missing
values map to the reserved bin 255.  Centroids are fit on training data only
and reused unchanged for any other split of the data.

To find a value's two neighbouring centroids, transform first looks up a
guess in a per-feature table of GUESS_BUCKETS equal buckets over the
centroid range.  Each guess is checked exactly against the centroids on
either side, and only the values whose guess fails the check are searched
with searchsorted, so the bins are those a search of every value gives.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_BINS = 255
MISSING_BIN = 255
# Buckets in each feature's first-guess table.  On the ingest-large training
# file (100k rows, 28 features of 255 centroids), 4.4% of the cells missed
# their guess at 4096 buckets and 1.1% at 16384, and transform took the same
# 0.11 s at both; on a 10k-row file the larger tables cost 4-6 ms a call more
# (2-core Xeon, numpy 2.4).
GUESS_BUCKETS = 4096


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
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.values.ndim != 2 or self.values.shape[1] < 1:
            raise ValueError("values must be a 2-d array with at least one feature")
        if self.labels.shape != (self.values.shape[0],):
            raise ValueError("labels length must equal the number of samples")
        bad = ~np.isin(self.labels, (0, 1))
        if bad.any():
            raise ValueError(f"labels must be 0 or 1; offending row {int(np.argmax(bad))}")
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


def fit_bins(column, max_bins: int = MAX_BINS) -> np.ndarray:
    """Fit ascending bin centroids for one feature column.

    With at most max_bins distinct non-missing values the centroids are
    exactly those values.  Otherwise they are the nearest-rank empirical
    quantiles at probabilities k/(max_bins+1), k = 1..max_bins, deduplicated.
    A -0.0 counts as 0.0, so a zero centroid is always +0.0.
    """
    if not 1 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be in [1, {MAX_BINS}]")
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


def _insertion_points(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """clip(searchsorted(c, v), 1, n - 1): the index of the upper centroid of the pair around v."""
    return np.clip(np.searchsorted(c, v), 1, c.size - 1)


def _neighbours(c: np.ndarray, v: np.ndarray) -> tuple:
    """Insertion points r of values v, already clipped to [c[0], c[-1]], and c[r - 1], c[r].

    A guess r from the bucket table is kept only if (r == 1 or c[r - 1] < v)
    and v <= c[r].  Exactly one r in [1, n - 1] passes, the insertion point,
    so every kept guess is exact; the rest are searched.  No value lies above
    c[n - 1], so r == n - 1 needs no clause of its own.
    """
    lo, hi = float(c[0]), float(c[-1])
    # Python floats: a span that overflows gives 0.0 and a tiny one inf, never a warning
    per_unit = GUESS_BUCKETS / (hi - lo)
    if not 0.0 < per_unit < math.inf:
        r = _insertion_points(c, v)         # no usable table: every value misses
        return r, c[r - 1], c[r]
    table = _insertion_points(c, lo + np.arange(GUESS_BUCKETS) / per_unit)
    bucket = ((v - lo) * per_unit).astype(np.intp)
    r = table[np.minimum(bucket, GUESS_BUCKETS - 1, out=bucket)]
    lower, upper = c[r - 1], c[r]
    miss = np.flatnonzero(((r > 1) & (lower >= v)) | (v > upper))
    if miss.size:
        r[miss] = r_miss = _insertion_points(c, v[miss])
        lower[miss] = c[r_miss - 1]
        upper[miss] = c[r_miss]
    return r, lower, upper


def transform(raw: RawDataset, bins: BinMap) -> QuantizedMatrix:
    """Map every value to its nearest centroid's index; missing to bin 255.

    With r = clip(searchsorted(c, v), 1, n - 1), v takes r - 1 if
    (v - c[r - 1]) <= (c[r] - v) and r otherwise, so equidistant values take
    the lower index.  Values are first clipped to [c[0], c[-1]], which moves
    no index.  r is a guess from a table of GUESS_BUCKETS equal buckets over
    that range, built per call and checked exactly; values that fail the
    check are searched, and so is every value of a column whose span is too
    wide or too narrow for the table.
    """
    if raw.n_features != bins.n_features:
        raise ValueError(
            f"feature count mismatch: data has {raw.n_features}, bin map has {bins.n_features}"
        )
    columns = np.empty((raw.n_features, raw.n_samples), dtype=np.uint8)
    for f, c in enumerate(bins.centroids):
        col = raw.values[:, f]
        missing = np.isnan(col)
        if c.size == 1:
            columns[f] = 0
        else:
            v = np.clip(col, c[0], c[-1])
            np.copyto(v, c[0], where=missing)
            r, lower, upper = _neighbours(c, v)
            # a distance overflows only across a span wider than the float
            # range, and then only the larger one does: inf still compares right
            with np.errstate(over="ignore"):
                columns[f] = r - ((v - lower) <= (upper - v))
        columns[f, missing] = MISSING_BIN
    return QuantizedMatrix(columns=columns, bin_map=bins)
