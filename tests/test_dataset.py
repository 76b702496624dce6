import gzip
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fpboost import dataset
from fpboost.dataset import CSV_CHUNK_LINES, load_dataset
from fpboost.quantizer import RawDataset
from reference import ref_load_csv


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCsv:
    def test_basic_with_missing(self, tmp_path):
        path = _write(tmp_path, "d.csv", "1,0.5,2.0\n0,,3.0\n")
        raw = load_dataset(path, "csv")
        assert raw.n_samples == 2 and raw.n_features == 2
        assert list(raw.labels) == [1, 0]
        assert raw.values[0, 0] == 0.5
        assert np.isnan(raw.values[1, 0])
        assert raw.values[1, 1] == 3.0

    def test_nan_token_is_missing(self, tmp_path):
        path = _write(tmp_path, "d.csv", "0,nan,1.0\n1,NaN,2.0\n")
        raw = load_dataset(path, "csv")
        assert np.isnan(raw.values).sum() == 2

    def test_label_column_selection(self, tmp_path):
        path = _write(tmp_path, "d.csv", "0.5,1,2.0\n")
        raw = load_dataset(path, "csv", label_col=1)
        assert list(raw.labels) == [1]
        assert list(raw.values[0]) == [0.5, 2.0]

    def test_no_label_column(self, tmp_path):
        path = _write(tmp_path, "d.csv", "0.5,2.0\n1.5,3.0\n")
        raw = load_dataset(path, "csv", label_col=-1)
        assert list(raw.labels) == [0, 0]
        assert raw.n_features == 2

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "d.csv", "")
        with pytest.raises(ValueError, match="no samples"):
            load_dataset(path, "csv")

    def test_bad_value_reports_line(self, tmp_path):
        path = _write(tmp_path, "d.csv", "1,0.5\n0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(path, "csv")

    def test_ragged_row_reports_line(self, tmp_path):
        path = _write(tmp_path, "d.csv", "1,0.5,1.0\n0,2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(path, "csv")

    def test_strict_label_mode(self, tmp_path):
        path = _write(tmp_path, "d.csv", "2,0.5\n")
        with pytest.raises(ValueError, match="non-binary label"):
            load_dataset(path, "csv")
        raw = load_dataset(path, "csv", strict_labels=False)
        assert list(raw.labels) == [1]

    def test_float_binary_labels_accepted(self, tmp_path):
        path = _write(tmp_path, "d.csv", "1.0,0.5\n0.0,0.25\n")
        raw = load_dataset(path, "csv")
        assert list(raw.labels) == [1, 0]

    def test_max_rows(self, tmp_path):
        path = _write(tmp_path, "d.csv", "1,1.0\n0,2.0\n1,3.0\n")
        raw = load_dataset(path, "csv", max_rows=2)
        assert raw.n_samples == 2

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "d.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("1,0.5\n0,1.5\n")
        raw = load_dataset(str(path), "csv")
        assert raw.n_samples == 2


class TestLibsvm:
    def test_absent_features_are_missing(self, tmp_path):
        path = _write(tmp_path, "d.libsvm", "1 1:0.5 3:2.0\n")
        raw = load_dataset(path, "libsvm")
        assert raw.n_features == 3
        assert raw.values[0, 0] == 0.5
        assert np.isnan(raw.values[0, 1])
        assert raw.values[0, 2] == 2.0

    def test_sign_label_convention(self, tmp_path):
        path = _write(tmp_path, "d.libsvm", "+1 1:1.0\n-1 1:2.0\n0 1:3.0\n")
        raw = load_dataset(path, "libsvm")
        assert list(raw.labels) == [1, 0, 0]

    def test_n_features_override(self, tmp_path):
        path = _write(tmp_path, "d.libsvm", "1 2:1.0\n")
        raw = load_dataset(path, "libsvm", n_features=5)
        assert raw.n_features == 5
        path2 = _write(tmp_path, "d2.libsvm", "1 9:1.0\n")
        with pytest.raises(ValueError, match="exceeds"):
            load_dataset(path2, "libsvm", n_features=3)

    def test_bad_token_reports_line(self, tmp_path):
        path = _write(tmp_path, "d.libsvm", "1 1:0.5\n1 broken\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(path, "libsvm")

    def test_zero_index_rejected(self, tmp_path):
        path = _write(tmp_path, "d.libsvm", "1 0:0.5\n")
        with pytest.raises(ValueError, match="line 1"):
            load_dataset(path, "libsvm")

    def test_comments_and_blank_lines(self, tmp_path):
        path = _write(tmp_path, "d.libsvm", "# header\n\n1 1:0.5 # trailing\n")
        raw = load_dataset(path, "libsvm")
        assert raw.n_samples == 1


def test_unknown_format(tmp_path):
    path = _write(tmp_path, "d.x", "1,2\n")
    with pytest.raises(ValueError, match="unknown dataset format"):
        load_dataset(path, "parquet")


def test_deterministic_reload(tmp_path, rng):
    lines = []
    for _ in range(50):
        label = int(rng.integers(0, 2))
        vals = [("" if rng.random() < 0.2 else f"{rng.normal():.9g}") for _ in range(4)]
        lines.append(",".join([str(label)] + vals))
    path = _write(tmp_path, "d.csv", "\n".join(lines) + "\n")
    a = load_dataset(path, "csv")
    b = load_dataset(path, "csv")
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(np.isnan(a.values), np.isnan(b.values))
    assert np.array_equal(a.values[~np.isnan(a.values)], b.values[~np.isnan(b.values)])


# ---------------------------------------------------------------- chunked CSV vs the reference

def _outcome(load):
    """A RawDataset, or the message of the ValueError raised instead."""
    try:
        return load()
    except ValueError as err:
        return f"error: {err}"


def _assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.values.shape == want.values.shape
    nan = np.isnan(want.values)
    assert np.array_equal(np.isnan(got.values), nan)
    assert np.array_equal(got.values[~nan].view(np.int64), want.values[~nan].view(np.int64))
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)


def _check_against_reference(path, label_col=0, max_rows=None, strict_labels=True):
    got = _outcome(lambda: load_dataset(str(path), "csv", label_col=label_col,
                                        max_rows=max_rows, strict_labels=strict_labels))
    want = _outcome(lambda: RawDataset(*ref_load_csv(str(path), label_col, max_rows,
                                                     strict_labels)))
    _assert_same(got, want)
    return got


_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:+.6e}"),
    st.integers(-1000, 1000).map(str),
)
_odd_cell = st.sampled_from(["", " ", "\t", "nan", "NaN", "-nan", " 2.5 ", "1_0", "oops",
                             "inf", "1e400", "\u0663"])
_cell = st.one_of(_number, _number, _odd_cell)
_label = st.sampled_from(["0", "1", "1.0", "2", "-1", "", "nan"])


@st.composite
def _csv_text(draw):
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        n = width if draw(st.integers(0, 19)) else draw(st.integers(1, width + 1))
        cells = [draw(_cell) for _ in range(n)]
        cells[draw(st.integers(0, n - 1))] = draw(_label)
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_text(), label_col=st.sampled_from([-1, 0, 1, 4]),
       max_rows=st.one_of(st.none(), st.integers(1, 6)), strict_labels=st.booleans(),
       chunk_lines=st.integers(1, 4))
@example(text="1, ,2\n", label_col=0, max_rows=None, strict_labels=True, chunk_lines=4)
@example(text="1,2\n0,3\n2,oops\n", label_col=0, max_rows=None, strict_labels=True,
         chunk_lines=4)
def test_chunked_loader_matches_reference(tmp_path, text, label_col, max_rows, strict_labels,
                                          chunk_lines):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(dataset, "CSV_CHUNK_LINES", chunk_lines):
        _check_against_reference(path, label_col, max_rows, strict_labels)


def _rows(n, start=0):
    return [f"{(i + start) % 2},{i * 0.25:.17g},{-i / 3:.17g},{'' if i % 5 else 'nan'}"
            for i in range(n)]


@pytest.mark.parametrize("n_rows", [0, 1, CSV_CHUNK_LINES - 1, CSV_CHUNK_LINES,
                                    CSV_CHUNK_LINES + 1])
def test_kept_line_counts_around_the_chunk_size(tmp_path, n_rows):
    path = tmp_path / "d.csv"
    path.write_text("".join(line + "\n" for line in _rows(n_rows)))
    got = _check_against_reference(path)
    if n_rows == 0:
        assert got == "error: no samples"
    else:
        assert got.n_samples == n_rows


def test_blank_lines_straddling_a_chunk_boundary(tmp_path):
    c = CSV_CHUNK_LINES
    lines = _rows(c - 2) + ["", "  ", "", ""] + _rows(3, start=c) + [""]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    assert _check_against_reference(path).n_samples == c + 1


@pytest.mark.parametrize("bad", ["0,1.0,oops,2", "2,1.0,1.5,2", "1,1.0,2", " ,1.0,1.5,2"])
def test_error_after_the_first_chunk_names_its_physical_line(tmp_path, bad):
    c = CSV_CHUNK_LINES
    lines = _rows(c) + ["", ""] + _rows(2) + [bad] + _rows(3)
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    got = _check_against_reference(path)
    assert got.startswith(f"error: line {c + 5}: ")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_undecodable_byte_names_its_physical_line(tmp_path, newline):
    c = CSV_CHUNK_LINES
    lines = [line.encode() for line in _rows(c) + ["", ""] + _rows(2)]
    lines += [b"0,1.0,\xff,2"] + [line.encode() for line in _rows(3)]
    path = tmp_path / "d.csv"
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(ValueError, match=rf"^line {c + 5}: .* byte 0xff in position 6"):
        load_dataset(str(path), "csv")
    # an earlier bad line is still the one reported
    path.write_bytes(newline.join(lines[:c + 3] + [b"1,oops,1,1"] + lines[c + 4:]) + newline)
    with pytest.raises(ValueError, match=rf"^line {c + 4}: bad value 'oops'"):
        load_dataset(str(path), "csv")


def test_undecodable_byte_on_line_two(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"1,0.5\n0,\xff1\n")
    with pytest.raises(ValueError, match=r"^line 2: .* byte 0xff in position 2"):
        load_dataset(str(path), "csv")
    path = tmp_path / "d.libsvm"
    path.write_bytes(b"1 1:0.5\n1 1:\xff\n")
    with pytest.raises(ValueError, match=r"^line 2: .* byte 0xff in position 4"):
        load_dataset(str(path), "libsvm")


@pytest.mark.parametrize("fmt, data", [
    ("csv", b"1,0.5\n0,\xff1\n"),
    ("csv", b"1,0.5\r0,\xff1\n"),          # one binary line, two physical lines
    ("csv", b"1,0.5\n\n0,oops\n"),
    ("libsvm", b"1 1:0.5\n1 1:\xff\n"),
    ("libsvm", b"1 1:0.5\n\n1 1:oops\n"),
])
def test_bad_line_after_max_rows_is_never_read(tmp_path, fmt, data):
    path = tmp_path / f"d.{fmt}"
    path.write_bytes(data)
    raw = load_dataset(str(path), fmt, max_rows=1)
    assert raw.n_samples == 1 and raw.values[0, 0] == 0.5 and raw.labels[0] == 1
    with pytest.raises(ValueError, match=r"^line [23]: "):
        load_dataset(str(path), fmt)


@pytest.mark.parametrize("fmt", ["csv", "libsvm"])
@pytest.mark.parametrize("max_rows", [0, -1])
def test_max_rows_below_one_is_rejected(tmp_path, fmt, max_rows):
    path = tmp_path / f"d.{fmt}"
    path.write_text("1,0.5\n" if fmt == "csv" else "1 1:0.5\n")
    with pytest.raises(ValueError, match=f"max_rows must be >= 1, got {max_rows}"):
        load_dataset(str(path), fmt, max_rows=max_rows)


@pytest.mark.parametrize("label_col", [-2, -3])
def test_label_col_below_minus_one_is_rejected(tmp_path, label_col):
    """-1 means no label column; a lower index would read a labeled file as
    unlabeled, with its labels as a feature."""
    path = _write(tmp_path, "d.csv", "1,0.5\n0,1.5\n")
    with pytest.raises(ValueError, match=f"^label_col must be >= -1, got {label_col}$"):
        load_dataset(path, "csv", label_col=label_col)


def test_malformed_tail_after_max_rows_is_never_parsed(tmp_path):
    c = CSV_CHUNK_LINES
    path = tmp_path / "d.csv"
    path.write_text("\n".join(_rows(c + 10) + ["2,oops", "x"]) + "\n")
    got = _check_against_reference(path, max_rows=c + 10)
    assert got.n_samples == c + 10
    assert isinstance(_check_against_reference(path), str)


def test_gzip_input_spans_chunks(tmp_path):
    path = tmp_path / "d.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("\r\n".join(_rows(CSV_CHUNK_LINES + 7)) + "\r\n")
    assert _check_against_reference(path).n_samples == CSV_CHUNK_LINES + 7


@pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
@pytest.mark.parametrize("max_rows", [None, 1, 3 * CSV_CHUNK_LINES + 5, 5 * CSV_CHUNK_LINES + 3])
def test_rows_fill_one_array_cut_to_size(tmp_path, suffix, max_rows):
    # 5 chunks and a tail: a gzip file's buffer doubles twice, a plain file's
    # starts at the rows its size predicts, and both are cut at the end
    n = 5 * CSV_CHUNK_LINES + 3
    path = tmp_path / f"d{suffix}"
    text = "".join(line + "\n" for line in _rows(n))
    if suffix == ".csv":
        path.write_text(text)
    else:
        with gzip.open(path, "wt") as fh:
            fh.write(text)
    got = _check_against_reference(path, max_rows=max_rows)
    assert got.n_samples == (max_rows or n)
    assert got.labels.flags.owndata and got.labels.flags.c_contiguous
    assert got.labels.shape == (got.n_samples,)
    _assert_one_features_by_rows_buffer(got.values, got.n_samples)


@pytest.mark.parametrize("bad_line", [None, 2 * CSV_CHUNK_LINES + 9])
def test_gzip_members_load_as_the_plain_file(tmp_path, bad_line):
    """One- and two-member gzip files load the plain file's values and
    labels, or its first error line."""
    lines = [line + "\n" for line in _rows(4 * CSV_CHUNK_LINES + 5)]
    if bad_line:
        lines[bad_line - 1] = "1,0.5,oops,\n"
    plain = tmp_path / "d.csv"
    plain.write_text("".join(lines))
    paths = [plain]
    for parts in ([lines], [lines[:2500], lines[2500:]]):
        paths.append(tmp_path / f"d{len(parts)}.csv.gz")
        paths[-1].write_bytes(b"".join(gzip.compress("".join(part).encode()) for part in parts))
    loads = [_outcome(lambda: load_dataset(str(path), "csv")) for path in paths]
    for got in loads[1:]:
        _assert_same(got, loads[0])
    if bad_line:
        assert loads[0] == f"error: line {bad_line}: bad value 'oops'"
    else:
        assert loads[0].n_samples == len(lines)


def test_rows_beyond_the_size_prediction_grow_the_buffer(tmp_path):
    # the first chunk's long rows predict about a third of the rows the file holds
    long = [f"{i % 2},{i / 7:.17g},{-i / 3:.17g},{i / 9:.17g}" for i in range(CSV_CHUNK_LINES)]
    short = [f"{i % 2},{i % 10},{i % 3},{i % 7}" for i in range(4 * CSV_CHUNK_LINES)]
    path = tmp_path / "d.csv"
    path.write_text("".join(line + "\n" for line in long + short))
    got = _check_against_reference(path)
    assert got.n_samples == 5 * CSV_CHUNK_LINES
    _assert_one_features_by_rows_buffer(got.values, got.n_samples)


def _assert_one_features_by_rows_buffer(values, n_rows):
    """values is the transpose of one buffer of exactly n_features x n_rows cells."""
    assert values.shape[0] == n_rows
    assert values.flags.f_contiguous
    assert values.base.flags.owndata and values.base.size == values.size


def test_libsvm_columns_are_contiguous(tmp_path):
    path = _write(tmp_path, "d.libsvm", "1 1:0.5 3:2.0\n0 2:1.5\n1 3:-1.0\n")
    raw = load_dataset(path, "libsvm")
    _assert_one_features_by_rows_buffer(raw.values, 3)
    assert np.array_equal(raw.values, [[0.5, np.nan, 2.0], [np.nan, 1.5, np.nan],
                                       [np.nan, np.nan, -1.0]], equal_nan=True)


@pytest.mark.parametrize("label_col", [-1, 0, 1, 3])
def test_csv_columns_are_contiguous_wherever_the_label_is(tmp_path, label_col):
    # chunk 1 goes through np.loadtxt and chunk 2, with a "1_0.0" cell that
    # only float() reads, through the line parser; both drop the label cell
    n = CSV_CHUNK_LINES + 5
    rows = np.arange(4.0 * n).reshape(n, 4)
    if label_col >= 0:
        rows[:, label_col] %= 2
    rows[n - 2, 2] = 10.0
    cells = [[repr(v) for v in row] for row in rows.tolist()]
    cells[n - 2][2] = "1_0.0"
    path = _write(tmp_path, "d.csv", "".join(",".join(row) + "\n" for row in cells))
    raw = load_dataset(path, "csv", label_col=label_col)
    _assert_one_features_by_rows_buffer(raw.values, n)
    if label_col >= 0:
        assert np.array_equal(raw.labels, rows[:, label_col])
        rows = np.delete(rows, label_col, axis=1)
    assert np.array_equal(raw.values, rows)
