"""8-bit feature quantization.

Each feature column is reduced to at most 255 representative values (bin
centroids); raw values map to the index of the nearest centroid and missing
values map to the reserved bin 255.  Centroids are fit on training data only
and reused unchanged for any other split of the data.
"""

from dataclasses import dataclass

import numpy as np

MAX_BINS = 255
MISSING_BIN = 255


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
            if c.size > 1 and not np.all(np.diff(c) > 0):
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
    """
    if not 1 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be in [1, {MAX_BINS}]")
    col = np.asarray(column, dtype=np.float64)
    if col.size == 0:
        raise ValueError("empty column")
    values = np.sort(col[~np.isnan(col)])
    if values.size == 0:
        raise ValueError("all-missing feature")

    distinct = np.unique(values)
    if distinct.size <= max_bins:
        return distinct

    n = values.size
    # nearest-rank quantile: element at ceil(p * n) - 1, in pure integer math
    ranks = np.array([-((-k * n) // (max_bins + 1)) - 1 for k in range(1, max_bins + 1)])
    return np.unique(values[ranks])


def fit_bin_map(raw: RawDataset, max_bins: int = MAX_BINS) -> BinMap:
    """Fit centroids independently for every feature of a training set."""
    return BinMap([fit_bins(raw.values[:, f], max_bins) for f in range(raw.n_features)])


def transform(raw: RawDataset, bins: BinMap) -> QuantizedMatrix:
    """Map every value to its nearest centroid's index; missing to bin 255.

    Equidistant values take the lower bin index.
    """
    if raw.n_features != bins.n_features:
        raise ValueError(
            f"feature count mismatch: data has {raw.n_features}, bin map has {bins.n_features}"
        )
    columns = np.full((raw.n_features, raw.n_samples), MISSING_BIN, dtype=np.uint8)
    for f in range(raw.n_features):
        col = raw.values[:, f]
        present = ~np.isnan(col)
        v = col[present]
        c = bins.centroids[f]
        if c.size == 1:
            idx = np.zeros(v.size, dtype=np.int64)
        else:
            # clipping makes the two end cells absorb everything outside the range
            right = np.clip(np.searchsorted(c, v), 1, c.size - 1)
            idx = np.where((v - c[right - 1]) <= (c[right] - v), right - 1, right)
        columns[f, present] = idx.astype(np.uint8)
    return QuantizedMatrix(columns=columns, bin_map=bins)
