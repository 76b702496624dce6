"""Dataset ingestion: dense CSV and sparse libsvm-style text files.

CSV grammar.  A file (gzip-compressed when its name ends in ``.gz``) is a
sequence of physical lines, each ended by ``\n``, ``\r\n`` or ``\r``.  A
line holding only whitespace is skipped; every other line is one row of
comma-separated cells, and every row has as many cells as the first.  There
is no header, quoting or comment syntax.  A cell is read with Python's
``float`` after stripping whitespace, and a blank, whitespace-only or
``nan`` (any case) cell is missing (NaN).  The label cell must read as 0 or
1 (any value > 0 counts as 1 when strict labels are off); a blank label is
an error.  Non-finite values such as ``inf`` or ``1e400`` are rejected with
their row and feature (see ``RawDataset``).  A bad line, including one with
bytes the locale's text encoding cannot decode, is reported by its physical
line number, and the first bad line in the file is the one reported.

CSV files are read in chunks of CSV_CHUNK_LINES physical lines, and each
chunk is parsed with one ``np.loadtxt`` call.  A chunk that call cannot take
as it is (a bad or ragged line, or a spelling only ``float`` accepts, such as
whitespace-only cells, ``1_000`` or non-ASCII digits) is parsed line by line
instead, which gives the same values or the same first error.

In libsvm files an absent feature is treated as MISSING (it lands in the
reserved bin), not as zero.  This differs from libraries that densify
sparse inputs with zeros; callers relying on zero-fill must densify first.
"""

import gzip
import io
import itertools
import locale

import numpy as np

from .quantizer import RawDataset

# Physical lines per CSV chunk.  Larger chunks parse no faster and raise the
# loader's peak memory.
CSV_CHUNK_LINES = 1024
_COMMA, _NEWLINE = ord(","), ord("\n")


def _open_binary(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _text_lines(binary_lines, line_no: int):
    """Decode lines read in binary mode into the lines text mode reads: a
    CRLF or a lone CR ends a line too, and is read as LF.  An undecodable
    byte raises a ValueError naming its physical line, numbered from
    line_no + 1, once the lines before it have been yielded."""
    encoding = locale.getpreferredencoding(False)
    for raw in binary_lines:
        try:
            text = raw.decode(encoding)
        except UnicodeDecodeError as err:
            cut = raw.rfind(b"\r", 0, err.start) + 1      # start of the bad line
            good = raw[:cut].decode(encoding)
            yield from io.StringIO(good, newline=None)
            bad_line = line_no + good.count("\r") + 1
            err = UnicodeDecodeError(err.encoding, raw[cut:], err.start - cut, err.end - cut,
                                     err.reason)
            raise ValueError(f"line {bad_line}: {err}") from None
        lines = list(io.StringIO(text, newline=None)) if "\r" in text else [text]
        line_no += len(lines)
        yield from lines


def _parse_label(token: str, line_no: int, strict: bool) -> int:
    try:
        v = float(token)
    except ValueError:
        raise ValueError(f"line {line_no}: bad label {token!r}")
    if v in (0.0, 1.0):
        return int(v)
    if strict:
        raise ValueError(f"line {line_no}: non-binary label {token!r}")
    return 1 if v > 0 else 0


def _parse_lines(lines, line_no: int, width, label_col: int, want, strict_labels: bool):
    """Parse text lines numbered from line_no + 1 cell by cell, stopping
    after the `want`-th row without reading the line that follows it.

    Returns (values or None, labels, width, number of the last line read).
    """
    rows = []
    labels = []
    for line_no, line in enumerate(lines, start=line_no + 1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ValueError(f"line {line_no}: expected {width} columns, got {len(cells)}")
        if label_col >= 0:
            if label_col >= len(cells):
                raise ValueError(f"line {line_no}: no label column {label_col}")
            labels.append(_parse_label(cells[label_col], line_no, strict_labels))
            cells = cells[:label_col] + cells[label_col + 1:]
        else:
            labels.append(0)
        row = np.empty(len(cells), dtype=np.float64)
        for j, cell in enumerate(cells):
            cell = cell.strip()
            if cell == "" or cell.lower() == "nan":
                row[j] = np.nan
            else:
                try:
                    row[j] = float(cell)
                except ValueError:
                    raise ValueError(f"line {line_no}: bad value {cell!r}")
        rows.append(row)
        if len(rows) == want:
            break
    values = np.vstack(rows) if rows else None
    return values, np.asarray(labels, dtype=np.int8), width, line_no


def _parse_block(chunk: list, line_no: int, width, label_col: int, want, strict_labels: bool):
    """Parse a chunk of binary lines numbered from line_no + 1 with one
    np.loadtxt call; None when the chunk needs the line parser.

    Same return value as _parse_lines.
    """
    whole = b"".join(chunk)
    if not whole.isascii():
        return None         # the text decoder and str.strip() see more than bytes do
    crlf = b"\r" in whole
    if crlf and b"\r" in whole.replace(b"\r\n", b""):
        return None         # a lone CR ends a physical line too
    rows = [line for line in chunk if not line.isspace()][:want]
    end_no = line_no + len(chunk)
    if not rows:
        return None, np.zeros(0, dtype=np.int8), width, end_no
    if width is None:
        width = rows[0].count(b",") + 1
    if label_col >= width:
        return None
    buf = whole if len(rows) == len(chunk) else b"".join(rows)
    if crlf:
        buf = buf.replace(b"\r\n", b"\n")
    if not buf.endswith(b"\n"):
        buf += b"\n"
    byte = np.frombuffer(buf, dtype=np.uint8)
    n_tabs = buf.count(b"\t") if b"\t" in buf else 0
    if np.count_nonzero(byte < 32) != len(rows) + n_tabs:
        return None         # a control byte, which float() and loadtxt read apart
    # a cell is empty where a delimiter follows a delimiter or the chunk start
    delim = (byte == _COMMA) | (byte == _NEWLINE)
    empty = np.flatnonzero(delim & np.concatenate(([True], delim[:-1])))
    if empty.size:
        cuts = [0, *empty.tolist(), len(buf)]
        buf = b"nan".join([buf[a:b] for a, b in zip(cuts, cuts[1:])])
    try:
        table = np.loadtxt(io.BytesIO(buf), delimiter=",", dtype=np.float64,
                           ndmin=2, comments=None)
    except ValueError:
        return None         # a bad cell, or a row whose width differs from the first's
    if table.shape != (len(rows), width):
        return None         # loadtxt matched rows to this chunk's first, not the file's
    if label_col < 0:
        return table, np.zeros(len(rows), dtype=np.int8), width, end_no
    raw_labels = table[:, label_col]
    binary = (raw_labels == 0.0) | (raw_labels == 1.0)
    labels = np.where(binary, raw_labels, 0.0).astype(np.int8)
    odd = np.flatnonzero(~binary)
    if odd.size:
        kept_at = [k for k, line in enumerate(chunk) if not line.isspace()]
        for i in odd.tolist():
            token = rows[i].strip().split(b",")[label_col].decode()
            labels[i] = _parse_label(token, line_no + kept_at[i] + 1, strict_labels)
    return np.delete(table, label_col, axis=1), labels, width, end_no


def _load_csv(path: str, label_col: int, max_rows, strict_labels: bool):
    # the rows fill one array, doubled in place when full and cut to size at
    # the end, so a load never holds its values twice
    values = labels = None
    n_rows = 0
    width = None
    line_no = 0
    with _open_binary(path) as fh:
        while max_rows is None or n_rows < max_rows:
            chunk = list(itertools.islice(fh, CSV_CHUNK_LINES))
            if not chunk:
                break
            want = None if max_rows is None else max_rows - n_rows
            parsed = _parse_block(chunk, line_no, width, label_col, want, strict_labels)
            if parsed is None:
                parsed = _parse_lines(_text_lines(chunk, line_no), line_no, width, label_col,
                                      want, strict_labels)
            block_values, block_labels, width, line_no = parsed
            if block_values is None:
                continue
            end = n_rows + block_labels.size
            if values is None:
                values = np.empty((max(end, CSV_CHUNK_LINES), block_values.shape[1]))
                labels = np.empty(values.shape[0], dtype=np.int8)
            elif end > values.shape[0]:
                _resize(values, labels, max(end, 2 * values.shape[0]))
            values[n_rows:end] = block_values
            labels[n_rows:end] = block_labels
            n_rows = end
    if not n_rows:
        raise ValueError("no samples")
    _resize(values, labels, n_rows)
    return values, labels


def _resize(values: np.ndarray, labels: np.ndarray, n_rows: int) -> None:
    """Grow or cut both arrays to n_rows rows in place; no view of them may exist."""
    values.resize((n_rows, values.shape[1]), refcheck=False)
    labels.resize(n_rows, refcheck=False)


def _load_libsvm(path: str, n_features, max_rows):
    entries = []
    labels = []
    max_seen = 0
    with _open_binary(path) as fh:
        for line_no, line in enumerate(_text_lines(fh, 0), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            # libsvm labels follow the sign convention: anything > 0 is positive
            labels.append(_parse_label(tokens[0], line_no, strict=False))
            row = {}
            for token in tokens[1:]:
                try:
                    idx_str, val_str = token.split(":", 1)
                    idx = int(idx_str)      # 1-based on disk
                    val = float(val_str)
                except ValueError:
                    raise ValueError(f"line {line_no}: bad feature token {token!r}")
                if idx < 1:
                    raise ValueError(f"line {line_no}: feature index must be >= 1")
                row[idx - 1] = val
                max_seen = max(max_seen, idx)
            entries.append(row)
            if len(entries) == max_rows:
                break           # before the next line is read and decoded
    if not entries:
        raise ValueError("no samples")
    width = n_features if n_features is not None else max_seen
    if width < 1:
        raise ValueError("no features present")
    if max_seen > width:
        raise ValueError(f"feature index {max_seen} exceeds n_features {width}")
    values = np.full((len(entries), width), np.nan, dtype=np.float64)
    for i, row in enumerate(entries):
        for j, v in row.items():
            values[i, j] = v
    return values, np.asarray(labels, dtype=np.int8)


def load_dataset(path: str, fmt: str, label_col: int = 0, n_features=None,
                 max_rows=None, strict_labels: bool = True) -> RawDataset:
    """Read a dataset file into a dense RawDataset (NaN marks missing).

    csv: label taken from column label_col (default first); label_col = -1
    means the file has no label column and labels are set to 0.
    libsvm: leading token is the label (any value > 0 counts as 1 when
    strict_labels is off); feature ids are 1-based; absent ids are missing.
    With max_rows, reading stops after that many rows: later lines are never
    read, so they cannot fail the load.
    """
    if max_rows is not None and max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    if fmt == "csv":
        values, labels = _load_csv(path, label_col, max_rows, strict_labels)
    elif fmt == "libsvm":
        values, labels = _load_libsvm(path, n_features, max_rows)
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")
    return RawDataset(values=values, labels=labels)
