import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpboost import quantizer
from fpboost.boost_controller import train
from fpboost.model_io import save_model
from fpboost.node_trainer import TrainConfig
from fpboost.quantizer import MISSING_BIN, BinMap, RawDataset, fit_bin_map, fit_bins, transform
from reference import (nearest_centroid_scan, nearest_centroid_scan_all, ref_transform,
                       sort_rank_quantiles)


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

    def test_negative_zero_centroid_is_positive_zero(self):
        for col in ([-0.0], [-0.0, 1.0], [0.0, -0.0, np.nan], [1.0, -0.0, 0.0, -1.0]):
            cents = fit_bins(col)
            zero = cents[cents == 0.0]
            assert zero.size == 1 and not np.signbit(zero[0])
        # 401 distinct values: the centroids are quantiles, and the lowest is zero
        col = np.concatenate([np.full(60, -0.0), np.full(60, 0.0), np.arange(1.0, 401.0)])
        cents = fit_bins(col)
        assert cents[0] == 0.0 and not np.signbit(cents[0])

    def test_row_order_does_not_change_a_mixed_zero_model(self, rng, tmp_path):
        n = 240
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        values = np.column_stack([np.where(rng.random(n) < 0.4, zeros, rng.normal(size=n)),
                                  rng.normal(size=n)])
        labels = (values[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(np.int8)
        config = TrainConfig(max_depth=2, n_trees=3, subsample=1.0)
        digests = set()
        for k in range(8):
            order = rng.permutation(n)
            raw = RawDataset(values=values[order], labels=labels[order])
            bins = fit_bin_map(raw)
            zero = bins.centroids[0][bins.centroids[0] == 0.0]
            assert zero.size == 1 and not np.signbit(zero[0])
            model, _ = train(transform(raw, bins), raw.labels, config)
            path = tmp_path / f"model{k}.json"
            save_model(model, bins, config, str(path))
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        assert len(digests) == 1


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


def _transform_column(values, centroids):
    """Bins of one column from transform, after checking them against ref_transform."""
    raw = RawDataset(values=np.asarray(values, dtype=np.float64).reshape(-1, 1),
                     labels=np.zeros(len(values), dtype=np.int8))
    bins = BinMap([np.asarray(centroids, dtype=np.float64)])
    got = transform(raw, bins).columns[0]
    # ref_transform's distances may overflow across huge spans; see its docstring
    with np.errstate(over="ignore"):
        expected = ref_transform(raw, bins).columns[0]
    assert np.array_equal(got, expected)
    return got.tolist()


@pytest.fixture
def searched(monkeypatch):
    """Sizes of the value arrays transform binary-searches instead of reading its table."""
    sizes = []
    search = quantizer._search

    def spy(thresholds, v):
        sizes.append(v.size)
        return search(thresholds, v)

    monkeypatch.setattr(quantizer, "_search", spy)
    return sizes


class TestGuessTable:
    """The decision table's guess per bucket (see quantizer._Decision), checked
    by one compare, and the binary search that replaces it."""

    def test_bucket_index_clips_before_subtracting(self):
        # 1.7e308 - (-1e308) overflows; the clip to 1e307 comes first
        values = [1.7e308, -1.7e308, 0.0, 5e306]
        assert _transform_column(values, [-1e308, 0.0, 1e307]) == [2, 0, 1, 1]

    def test_span_that_overflows_searches_every_value(self, searched):
        values = [-1.7e308, -1e308, 0.0, 1e308, 1.7e308, np.nan, 1.5e308]
        assert _transform_column(values, [-1.7e308, 1.7e308]) == [0, 0, 0, 1, 1, MISSING_BIN, 1]
        assert (_transform_column(values, [-1.7e308, 1.0, 1.7e308])
                == [0, 0, 1, 2, 2, MISSING_BIN, 2])
        assert searched == [len(values)] * 2     # missing cells included

    def test_span_too_narrow_for_the_table_searches_every_value(self, searched):
        tiny = 5e-324
        values = [0.0, tiny, 2 * tiny, -1.0, 1.0]
        assert _transform_column(values, [0.0, 2 * tiny]) == [0, 0, 1, 0, 1]
        assert searched == [len(values)]

    def test_two_centroids(self):
        values = [0.0, 1.0, 2.0, 2.0000001, 3.0, 4.0, np.nan, -0.0]
        assert _transform_column(values, [1.0, 3.0]) == [0, 0, 0, 1, 1, 1, MISSING_BIN, 0]

    def test_every_value_misses(self, searched):
        # the first three thresholds crowd bucket 0, where every value falls
        cents = [0.0, 1e-12, 2e-12, 3e-12, 1.0]
        values = [1.2e-12, 1.8e-12, 2.2e-12, 2.9e-12, 3e-12, 2e-12 + 1e-25]
        assert _transform_column(values, cents) == [1, 2, 2, 3, 3, 2]
        assert searched == [len(values)]

    def test_values_at_and_beyond_the_ends_hit_their_guess(self, searched):
        cents = np.linspace(-3.0, 5.0, 200)
        values = [-3.0, -3.0, -1e300, -4.0, 5.0, 5.0, 1e300, 6.0]
        assert _transform_column(values, cents) == [0, 0, 0, 0, 199, 199, 199, 199]
        assert searched == []

    def test_workload_columns_mostly_hit(self, rng, searched):
        raw = RawDataset(values=rng.normal(size=(5000, 3)), labels=np.zeros(5000, dtype=np.int8))
        bins = fit_bin_map(raw)
        assert np.array_equal(transform(raw, bins).columns, ref_transform(raw, bins).columns)
        assert sum(searched) < 0.1 * raw.values.size


_FLOAT_MAX = float(np.finfo(np.float64).max)
_TINY = 5e-324
_any_float = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _centroid_lists(draw):
    """1..255 centroids of one of five kinds, unsorted and possibly repeated."""
    n = draw(st.one_of(st.integers(2, 8), st.integers(1, 255), st.just(255)))
    kind = draw(st.sampled_from(["moderate", "any", "huge", "subnormal", "skewed"]))
    if kind == "moderate":
        return draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n, unique=True))
    if kind == "any":
        return draw(st.lists(_any_float, min_size=n, max_size=n, unique=True))
    if kind == "huge":
        # a span near the top of the float range, up to one that overflows
        ends = [-draw(st.floats(1e307, _FLOAT_MAX)), draw(st.floats(1e307, _FLOAT_MAX))]
        rest = max(n - 2, 0)
        return ends + draw(st.lists(_any_float, min_size=rest, max_size=rest, unique=True))
    if kind == "subnormal":
        # exact multiples of the smallest subnormal
        ks = draw(st.lists(st.integers(-(1 << 20), 1 << 20), min_size=n, max_size=n, unique=True))
        return [k * _TINY for k in ks]
    # skewed: all but one centroid within 1e-9 of each other, one far away
    base = draw(st.floats(-1e3, 1e3))
    offsets = st.lists(st.floats(0.0, 1e-9), min_size=max(n - 1, 1), max_size=max(n - 1, 1),
                       unique=True)
    cluster = [base + d for d in draw(offsets)]
    far = draw(st.floats(1.0, 1e300))
    return cluster + [base + far if draw(st.booleans()) else base - far]


@st.composite
def _columns(draw):
    """(values, centroids): centroids, their midpoints and neighbours, zeros, NaN, outliers."""
    cents = sorted(set(draw(_centroid_lists())))
    values = list(cents)
    values += [a / 2 + b / 2 for a, b in zip(cents, cents[1:])]
    values += [float(np.nextafter(c, np.inf)) for c in cents if c < _FLOAT_MAX]
    values += [float(np.nextafter(c, -np.inf)) for c in cents if c > -_FLOAT_MAX]
    values += [0.0, -0.0, np.nan]
    values += draw(st.lists(_any_float, max_size=20))
    values += [draw(st.floats(max_value=cents[0], allow_infinity=False)),
               draw(st.floats(min_value=cents[-1], allow_infinity=False))]
    return values, cents


@settings(max_examples=200, deadline=None)
@given(_columns())
def test_transform_matches_search_per_value_and_linear_scan(column):
    values, cents = column
    got = _transform_column(values, cents)
    for v, b, scan in zip(values, got, nearest_centroid_scan_all(values, cents).tolist()):
        if np.isnan(v):
            assert b == MISSING_BIN
            continue
        assert abs(v - cents[b]) == abs(v - cents[scan])
        # the scan breaks a tie between rounded distances at the lowest index
        # anywhere; transform compares only the two neighbours of v, so it can
        # pick the upper of them when the distances of centroids below v round
        # to the same float
        assert b == scan or (scan < b and cents[b] <= v)


@settings(max_examples=30, deadline=None)
@given(_columns())
def test_vectorised_scan_matches_the_scalar_scan(column):
    values, cents = column
    for v, got in zip(values, nearest_centroid_scan_all(values, cents).tolist()):
        if not np.isnan(v):
            assert got == nearest_centroid_scan(v, cents)


@settings(max_examples=60, deadline=None)
@given(_columns())
def test_c_and_f_ordered_values_give_the_same_bins(column):
    values, cents = column
    bins = BinMap([cents, cents])
    stacked = np.column_stack([values, values[::-1]])
    labels = np.zeros(len(values), dtype=np.int8)
    with np.errstate(over="ignore"):        # see _transform_column
        expected = ref_transform(RawDataset(values=stacked, labels=labels), bins)
    for order in "CF":
        raw = RawDataset(values=np.asarray(stacked, order=order), labels=labels)
        assert raw.values.flags[f"{order}_CONTIGUOUS"]
        assert transform(raw, bins).columns.tobytes() == expected.columns.tobytes()


@settings(max_examples=100, deadline=None)
@given(_centroid_lists())
def test_thresholds_are_the_last_values_that_take_the_lower_centroid(centroids):
    cents = np.array(sorted(set(centroids)))
    thresholds = BinMap([cents]).decisions[0].thresholds
    assert thresholds.shape == (cents.size - 1,)
    with np.errstate(over="ignore"):        # a distance across a huge span is inf
        for a, b, t in zip(cents[:-1], cents[1:], thresholds):
            assert a <= t < b
            assert (t - a) <= (b - t)
            up = np.nextafter(t, np.inf)
            assert not (up - a) <= (b - up)


def test_any_nan_is_missing():
    # quiet and signalling NaNs of either sign; the table's end slots hold them
    bits = [0x7FF8000000000000, 0x7FF0000000000001, -0x0008000000000000, -0x000FFFFFFFFFFFFF]
    nans = np.array(bits, dtype=np.int64).view(np.float64)
    assert np.isnan(nans).all() and np.signbit(nans).tolist() == [False, False, True, True]
    values = np.concatenate([nans, [0.0, 1e307]])
    # through a table, and over a span too wide for one
    assert _transform_column(values, [1.0, 2.0, 3.0]) == [MISSING_BIN] * 4 + [0, 2]
    assert _transform_column(values, [-1e308, 1e308]) == [MISSING_BIN] * 4 + [0, 1]


def test_c_and_f_ordered_workload_values_give_the_same_bytes(rng):
    values = rng.normal(size=(3000, 6))
    values[rng.random(values.shape) < 0.05] = np.nan
    labels = np.zeros(3000, dtype=np.int8)
    raw = RawDataset(values=values, labels=labels)
    bins = fit_bin_map(raw)
    c_order = transform(raw, bins)
    f_order = transform(RawDataset(values=np.asfortranarray(values), labels=labels), bins)
    assert c_order.columns.tobytes() == f_order.columns.tobytes()
    assert np.array_equal(c_order.columns, ref_transform(raw, bins).columns)


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


@pytest.mark.parametrize("labels, row", [([257, 256, 1], 0), ([0, 1, 2], 2), ([1, -3, 0], 1),
                                         ([0.0, 0.5, 1.0], 1)])
def test_raw_dataset_rejects_labels_outside_0_1_before_the_cast(labels, row):
    # an int8 cast first would read 257, 256 as 1, 0 and 0.5 as 0
    with pytest.raises(ValueError, match=f"^labels must be 0 or 1; offending row {row}$"):
        RawDataset(values=np.zeros((3, 1)), labels=np.array(labels))


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
