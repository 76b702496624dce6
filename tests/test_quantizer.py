import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpboost.quantizer import MISSING_BIN, BinMap, RawDataset, fit_bin_map, fit_bins, transform
from reference import nearest_centroid_scan, sort_rank_quantiles


def _matrix(values, centroids_per_feature):
    raw = RawDataset(values=np.asarray(values, dtype=np.float64),
                     labels=np.zeros(len(values), dtype=np.int8))
    return transform(raw, BinMap(centroids_per_feature))


class TestFitBins:
    def test_few_distinct_values_become_centroids(self):
        assert list(fit_bins([1.0, 2.0, 3.0, 2.0])) == [1.0, 2.0, 3.0]

    def test_constant_column(self):
        assert list(fit_bins([5.0] * 100)) == [5.0]

    def test_quantiles_match_sort_rank_oracle(self, rng):
        values = rng.random(1000)
        assert np.unique(values).size == 1000
        got = fit_bins(values, 255)
        expected = sort_rank_quantiles(values, 255)
        assert got.size == 255
        assert list(got) == expected

    def test_quantile_oracle_various_sizes(self, rng):
        for n, max_bins in [(256, 255), (300, 7), (1000, 100), (50, 49), (512, 255)]:
            values = rng.normal(size=n)
            assert list(fit_bins(values, max_bins)) == sort_rank_quantiles(values, max_bins)

    def test_missing_values_ignored(self):
        col = [np.nan, 1.0, np.nan, 2.0]
        assert list(fit_bins(col)) == [1.0, 2.0]

    def test_all_missing_errors(self):
        with pytest.raises(ValueError, match="all-missing feature"):
            fit_bins([np.nan, np.nan])

    def test_empty_column_errors(self):
        with pytest.raises(ValueError):
            fit_bins([])

    def test_max_bins_bounds(self):
        with pytest.raises(ValueError):
            fit_bins([1.0], 0)
        with pytest.raises(ValueError):
            fit_bins([1.0], 256)

    def test_skewed_duplicates_dedup(self, rng):
        # almost all mass on one value: quantiles collide and deduplicate
        col = np.concatenate([np.zeros(10_000), rng.random(50) + 1.0])
        got = fit_bins(col, 255)
        assert got.size < 255
        assert np.all(np.diff(got) > 0)


class TestTransform:
    def test_nearest_centroid(self):
        m = _matrix([[2.4]], [np.array([1.0, 2.0, 3.0])])
        assert m.columns[0, 0] == 1

    def test_missing_maps_to_reserved_bin(self):
        m = _matrix([[np.nan]], [np.array([1.0, 2.0, 3.0])])
        assert m.columns[0, 0] == MISSING_BIN

    def test_equidistant_tie_takes_lower_index(self):
        m = _matrix([[2.5]], [np.array([1.0, 2.0, 3.0])])
        assert m.columns[0, 0] == 1

    def test_feature_count_mismatch(self):
        raw = RawDataset(values=np.zeros((2, 2)), labels=np.zeros(2, dtype=np.int8))
        with pytest.raises(ValueError, match="mismatch"):
            transform(raw, BinMap([np.array([0.0])]))

    def test_matches_linear_scan_oracle(self, rng):
        cents = np.sort(rng.choice(rng.normal(size=40), size=17, replace=False))
        values = np.concatenate([rng.normal(size=300), cents, cents + 1e-12])
        m = _matrix(values.reshape(-1, 1), [cents])
        for v, got in zip(values, m.columns[0]):
            assert got == nearest_centroid_scan(float(v), list(cents))

    def test_output_is_column_major_and_readonly(self, rng):
        raw = RawDataset(values=rng.normal(size=(10, 3)), labels=np.zeros(10, dtype=np.int8))
        m = transform(raw, fit_bin_map(raw))
        assert m.columns.shape == (3, 10)
        with pytest.raises(ValueError):
            m.columns[0, 0] = 1


finite_columns = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=60
)


@settings(max_examples=150)
@given(finite_columns, st.integers(min_value=1, max_value=255))
def test_monotone_binning(column, max_bins):
    cents = fit_bins(column, max_bins)
    m = _matrix(np.asarray(sorted(column)).reshape(-1, 1), [cents])
    bins = m.columns[0].astype(int)
    assert np.all(np.diff(bins) >= 0)
    assert np.all(bins != MISSING_BIN)


@settings(max_examples=150)
@given(finite_columns)
def test_centroids_map_to_themselves(column):
    cents = fit_bins(column, 255)
    m = _matrix(np.asarray(cents).reshape(-1, 1), [cents])
    assert list(m.columns[0]) == list(range(len(cents)))


@settings(max_examples=150)
@given(finite_columns, st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_round_trip_bound(column, value):
    cents = fit_bins(column, 255)
    m = _matrix(np.array([[value]]), [cents])
    chosen = cents[m.columns[0, 0]]
    assert all(abs(value - chosen) <= abs(value - c) for c in cents)


def test_bin_map_validation():
    with pytest.raises(ValueError, match="ascending"):
        BinMap([np.array([2.0, 1.0])])
    with pytest.raises(ValueError):
        BinMap([np.array([])])
    with pytest.raises(ValueError):
        BinMap([np.arange(256, dtype=np.float64)])
    for bad in ([1.0, np.inf], [-np.inf], [np.nan]):
        with pytest.raises(ValueError, match="finite"):
            BinMap([np.array([0.5]), np.array(bad)])


def test_raw_dataset_rejects_non_finite_values():
    # fit_bins would keep +-inf as centroids and transform would bin -inf
    # above the lowest finite value
    values = np.array([[1.0], [2.0], [np.inf], [-np.inf], [3.0]])
    with pytest.raises(ValueError, match=r"^row 2, feature 0: non-finite value inf"):
        RawDataset(values=values, labels=np.zeros(5, dtype=np.int8))
    values = np.array([[0.0, np.nan], [np.nan, -np.inf]])
    with pytest.raises(ValueError, match=r"^row 1, feature 1: non-finite value -inf"):
        RawDataset(values=values, labels=np.zeros(2, dtype=np.int8))


def test_bin_map_equality():
    a = BinMap([np.array([1.0, 2.0])])
    b = BinMap([np.array([1.0, 2.0])])
    c = BinMap([np.array([1.0, 3.0])])
    assert a == b
    assert a != c


def test_validation_data_reuses_training_bins(rng):
    train = RawDataset(values=rng.normal(size=(500, 2)), labels=np.zeros(500, dtype=np.int8))
    valid = RawDataset(values=rng.normal(size=(200, 2)) * 10, labels=np.zeros(200, dtype=np.int8))
    bins = fit_bin_map(train)
    mv = transform(valid, bins)
    assert mv.bin_map is bins
    assert mv.columns.shape == (2, 200)
