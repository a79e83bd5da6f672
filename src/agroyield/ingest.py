"""CSV parsing and writing, cleaning, row encoding, seeded row-index splits.

A `Dataset` holds columns: `district` and `crop` enum values, an int64
`year`, an (n, 47) float matrix `values` of the features other than the
year, production and yield (`schema.VALUE_COLUMNS`), and `row`, the 0-based
data row of the source file, which the cleaning log names. Every layer
works on the arrays; `Dataset.records[i]` builds row i as an `AgroRecord`.
`feature_matrix` encodes rows as raw 46-column features; each model scales
them with its own min-max ranges (`models.Normalizer`).

CSV contract: UTF-8, comma-separated, `.` decimal point, mandatory header
    district, year, crop, <45 remaining schema columns>, production, yield
The schema's year column doubles as the identifier, so it appears once.
The district indicator columns are present in the file (they are schema
columns) but are recomputed from the district label on parse.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import chain, islice

import numpy as np

from . import fork, schema
from .errors import AgroYieldError
from .rng import GAMMA, MIX1, MIX2, SplitMix64
from .schema import Crop, District

CSV_HEADER = (
    ("district", "year", "crop")
    + schema.schema_columns()[1:]
    + ("production", "yield")
)
_HEADER_LINE = (",".join(CSV_HEADER) + "\n").encode()

# Rows parsed, hashed or formatted per block: enough to amortize the NumPy
# calls, few enough that the block's str objects stay under a megabyte.
_CHUNK_ROWS = 256
# Rows per forked part of `write_csv` and `load_csv`: below this a part's
# fork, exit and copy cost more than handling its rows in the caller saves.
# On a 2-vCPU Xeon, two parts beat one process in 3 of 40 writes of 512
# rows (256 + 256), in 31, 1 and 29 of 40 writes of 768 rows (256 + 512)
# and in 35 and 36 of 40 writes of 1,024 rows (512 + 512); reads of 1,024
# rows won 26 of 40 and of 1,536 rows 40 of 40.
_FORK_ROWS = 512
# bytes read at a time by the pass that finds where `load_csv`'s parts begin
_BLOCK_BYTES = 1 << 16
# one salt per key entry: district, crop, year, then the value columns
_HASH_SALT = (np.arange(1, 4 + len(schema.VALUE_COLUMNS), dtype=np.uint64)
              * np.uint64(GAMMA))
_YIELD = schema.VALUE_INDEX["yield"]
_DISTRICT_NAMES = [d.name.lower() for d in District]
_CROP_NAMES = [c.name.lower() for c in Crop]


@dataclass(eq=False)
class Dataset:
    """Column arrays of n records. No code writes an array after the
    dataset is built, so datasets may share arrays: `clean` returns its
    input's arrays when it drops no row. The rows of a dataset from `clean`
    or `synthgen.generate` are valid, and `take` keeps them valid: those
    two validate each row once, and no later step validates again."""
    district: np.ndarray  # (n,) District values
    crop: np.ndarray      # (n,) Crop values
    year: np.ndarray      # (n,) int64, as `schema.year64` stores it
    values: np.ndarray    # (n, 47) float, `schema.VALUE_COLUMNS`
    row: np.ndarray       # (n,) int64, 0-based data row of the source
    source: str = "<memory>"
    cleaning_log: list = field(default_factory=list)  # (row_index, reason)

    def __len__(self) -> int:
        return len(self.year)

    @property
    def records(self) -> "Records":
        return Records(self)

    def take(self, index) -> "Dataset":
        """Rows `index`, in that order, as a new dataset with an empty log."""
        return Dataset(self.district[index], self.crop[index],
                       self.year[index], self.values[index], self.row[index],
                       self.source)


class Records(Sequence):
    """A dataset's rows as `schema.AgroRecord`s, each built when read."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset)

    def __getitem__(self, i) -> schema.AgroRecord:
        ds = self._dataset
        return schema.AgroRecord(
            District(int(ds.district[i])), int(ds.year[i]),
            Crop(int(ds.crop[i])), tuple(ds.values[i].tolist()))


@lru_cache(maxsize=256)
def _code(parse, text: str) -> int:
    """The enum value `parse` reads from `text`; few distinct texts occur."""
    return parse(text).value


def _columns(rows: list, start: int) -> tuple:
    """(district, crop, year, values, row) of CSV data rows `start`, ...;
    ValueError if any row is malformed."""
    if any(len(fields) != len(CSV_HEADER) for fields in rows):
        raise ValueError("wrong field count")
    district = np.array([_code(schema.parse_district, f[0]) for f in rows],
                        dtype=np.int64)
    crop = np.array([_code(schema.parse_crop, f[2]) for f in rows],
                    dtype=np.int64)
    year = np.array([schema.year64(int(f[1])) for f in rows], dtype=np.int64)
    values = np.array([f[3:] for f in rows], dtype=float).reshape(
        len(rows), len(schema.VALUE_COLUMNS))
    values[:, schema.INDICATORS] = schema.INDICATOR_PATTERNS[district]
    return district, crop, year, values, np.arange(start, start + len(rows))


def parse_csv(stream, source: str = "<stream>") -> Dataset:
    """Parse a CSV stream; malformed rows, and a last row without a line
    end, are logged and skipped, while bytes that are not UTF-8 or an
    oversized field raise AgroYieldError."""
    try:
        return _parse_rows(stream, source)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise AgroYieldError(f"{source} is not a readable CSV file: {exc}") from exc


def _row_blocks(reader, start: int):
    """(columns, failed) of each block of `_CHUNK_ROWS` rows that `reader`
    yields, the first numbered `start`: the `_columns` of the rows that
    parse, and the numbers of the rows that do not."""
    while rows := list(islice(reader, _CHUNK_ROWS)):
        try:
            columns, failed = _columns(rows, start), []
        except ValueError:  # find the bad rows one by one
            parts, failed = [_columns([], start)], []
            for i, fields in enumerate(rows, start):
                try:
                    parts.append(_columns([fields], i))
                except ValueError:
                    failed.append(i)
            columns = [np.concatenate(column) for column in zip(*parts)]
        yield columns, failed
        start += len(rows)


def _empty_columns(n: int) -> list:
    """Uninitialized arrays for the `_columns` of n rows."""
    return [np.empty((n,) + a.shape[1:], a.dtype) for a in _columns([], 0)]


def _fill(arrays: list, filled: int, blocks, log: list) -> int:
    """Copy the columns of `blocks` into `arrays` from row `filled` on and
    log their failed rows; the number of rows filled afterwards."""
    for columns, failed in blocks:
        for array, column in zip(arrays, columns):
            array[filled:filled + len(column)] = column
        filled += len(columns[0])
        log.extend((row, "parse failure") for row in failed)
    return filled


def _parse_rows(stream, source: str) -> Dataset:
    if isinstance(stream, (bytes, bytearray)):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    elif not stream.seekable():  # a pipe: parse a copy of its text
        stream = io.StringIO(stream.read())
    begin = stream.tell()
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise AgroYieldError("input has no header row")
    if len(header) != len(CSV_HEADER):
        raise AgroYieldError(f"header does not match schema contract: got "
                             f"{len(header)} columns, expected "
                             f"{len(CSV_HEADER)}")
    for i, (got, want) in enumerate(zip(header, CSV_HEADER), start=1):
        if got != want:  # a spreadsheet's UTF-8 BOM shows up in column 1
            raise AgroYieldError(f"header does not match schema contract: "
                                 f"column {i} is {got!r}, expected {want!r}")
    # every data row takes at least one of the lines left: count them, then
    # parse again from the top into arrays of that many rows
    capacity, line = 0, "\n"
    for capacity, line in enumerate(stream, 1):
        pass
    stream.seek(begin)
    reader = csv.reader(stream)
    next(reader)
    arrays, log = _empty_columns(capacity), []
    filled = _fill(arrays, 0, _row_blocks(reader, 0), log)
    return _dataset(arrays, filled, log, source,
                    cut=not line.endswith(("\n", "\r")))


def _dataset(arrays: list, filled: int, log: list, source: str,
             cut: bool) -> Dataset:
    """The Dataset of the first `filled` rows of `arrays`, with the failed
    rows that `log` lists. When `cut`, the last row has no line end, which
    every CSV this program writes has, so it may have been cut short: it
    is logged as a parse failure too."""
    last = filled + len(log) - 1
    if cut and (not log or log[-1][0] != last):
        filled -= 1
        log.append((last, "parse failure"))
    return Dataset(*(a[:filled] for a in arrays), source=source,
                   cleaning_log=log)


def _line_starts(fh) -> np.ndarray | None:
    """The int64 byte offsets at which the data lines of a binary CSV file
    `fh` start, one per line, read from its first data line on. None when
    a line need not be one CSV row, which is when the file holds a quote
    or a CR not followed by LF."""
    offset = fh.tell()
    starts, cr, last = [np.array([offset], np.int64)], False, b"\n"
    while block := fh.read(_BLOCK_BYTES):
        if b'"' in block:
            return None
        if cr or b"\r" in block:  # each CR must begin a CRLF
            crlf = block.count(b"\r\n") + (cr and block[:1] == b"\n")
            if block.count(b"\r") + cr != crlf + block.endswith(b"\r"):
                return None
        ends = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n"))
        starts.append(ends + (offset + 1))  # the lines after the newlines
        offset += len(block)
        cr, last = block.endswith(b"\r"), block[-1:]
    if cr:
        return None
    starts = np.concatenate(starts)
    return starts[:-1] if last == b"\n" else starts  # no line after a last LF


def _part_blocks(path, starts: np.ndarray, bound: tuple):
    """The `_row_blocks` of data rows start, ..., stop - 1, for `bound` =
    (start, stop), of the CSV file `path`, in which each line is one row
    and line k begins at byte starts[k]."""
    start, stop = bound
    with open(path, "rb") as fh:
        fh.seek(int(starts[start]))
        lines = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        yield from _row_blocks(csv.reader(islice(lines, stop - start)), start)


def _load_parts(path, source: str) -> Dataset | None:
    """`load_csv` of the data lines of the file at `path`, parsed in the
    `fork.each` of their ranges; None where only the one-process parse may
    decide the result: for a file that is not regular, a header that is
    not the contract's and a line that need not be one row."""
    if not os.path.isfile(path):  # a pipe can be read only once
        return None
    with open(path, "rb") as fh:
        header = fh.readline(len(_HEADER_LINE) + 1)
        if header not in (_HEADER_LINE, _HEADER_LINE[:-1] + b"\r\n"):
            return None
        starts = _line_starts(fh)
        fh.seek(-1, os.SEEK_END)
        cut = fh.read(1) != b"\n"
    if starts is None:
        return None
    n = len(starts)
    arrays, log = _empty_columns(n), []
    with fork.each(partial(_part_blocks, path, starts),
                   fork.ranges(n, n // _FORK_ROWS),
                   os.path.dirname(os.path.abspath(path))) as blocks:
        filled = _fill(arrays, 0, blocks, log)
    return _dataset(arrays, filled, log, source, cut)


def load_csv(path) -> Dataset:
    """`parse_csv` of the file at `path`, parsed on every CPU of the
    affinity mask.

    Where each data line is one row, the lines are parsed in the
    `fork.each` of their ranges, at most one per `_FORK_ROWS` lines, with
    part files beside `path`, into arrays for every line; the caller
    parses the range of a child that failed. Where that cannot be done, or
    anything raises, the file is parsed again in one process, and what
    that returns or raises is the result."""
    try:
        dataset = _load_parts(path, str(path))
    except Exception:  # the one-process parse below decides the outcome
        dataset = None
    if dataset is None:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            dataset = parse_csv(fh, source=str(path))
    return dataset


def _format_floats(column: np.ndarray) -> list:
    """Integral values below 1e15 as integers, every other value by repr."""
    integral = (column == np.trunc(column)) & (np.abs(column) < 1e15)
    if integral.all():
        return list(map(str, column.astype(np.int64).tolist()))
    text = list(map(repr, column.tolist()))
    for i in np.flatnonzero(integral).tolist():
        text[i] = str(int(column[i]))
    return text


def _format_rows(dataset: Dataset, bound: tuple):
    """The CSV lines of rows start, ..., stop - 1, for `bound` = (start,
    stop), as bytes, a block at a time."""
    start, stop = bound
    for begin in range(start, stop, _CHUNK_ROWS):
        rows = slice(begin, min(begin + _CHUNK_ROWS, stop))
        columns = [
            [_DISTRICT_NAMES[d] for d in dataset.district[rows].tolist()],
            list(map(str, dataset.year[rows].tolist())),
            [_CROP_NAMES[c] for c in dataset.crop[rows].tolist()],
        ] + [_format_floats(col) for col in dataset.values[rows].T]
        yield ("\n".join(map(",".join, zip(*columns))) + "\n").encode()


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset of valid rows, as `clean` or `generate` makes, whole
    or not at all (`schema.write_file`).

    The rows are formatted in the `fork.each` of their ranges, at most one
    per `_FORK_ROWS` rows, with part files beside `path`, so the bytes, and
    any error raised, are those of one process."""
    n = len(dataset)
    with fork.each(partial(_format_rows, dataset),
                   fork.ranges(n, n // _FORK_ROWS),
                   os.path.dirname(os.path.abspath(path))) as blocks:
        schema.write_file(path, chain([_HEADER_LINE], blocks))


def cleaning_log_jsonl(dataset: Dataset) -> str:
    lines = [json.dumps({"row": row, "reason": reason})
             for row, reason in dataset.cleaning_log]
    return "\n".join(lines) + ("\n" if lines else "")


def _row_hashes(dataset: Dataset) -> np.ndarray:
    """A 64-bit hash of each row's district, crop, year and value bits after
    `+ 0.0` (so -0.0 hashes as 0.0): rows with equal keys hash equal. Each
    key entry is mixed with its position's salt by the SplitMix64 finalizer,
    and a row's hash is the sum of its mixed entries, modulo 2**64."""
    hashes = np.empty(len(dataset), np.uint64)
    for start in range(0, len(dataset), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        z = np.column_stack([
            dataset.district[rows], dataset.crop[rows], dataset.year[rows],
            (dataset.values[rows] + 0.0).view(np.int64)]).view(np.uint64)
        z += _HASH_SALT
        z ^= z >> np.uint64(30)
        z *= np.uint64(MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(MIX2)
        z ^= z >> np.uint64(31)
        hashes[rows] = z.sum(axis=1, dtype=np.uint64)
    return hashes


def _first_occurrences(dataset: Dataset) -> np.ndarray:
    """True at the first of each group of equal rows. As with float
    equality, -0.0 equals 0.0 and a row holding NaN equals no other. Keys
    are compared only between rows whose hash another such row shares."""
    # a row's minimum is NaN exactly when the row holds a NaN
    hashed = np.flatnonzero(~np.isnan(dataset.values.min(axis=1)))
    hashes = _row_hashes(dataset)[hashed]
    # equal hashes sit side by side in sorted order; the stable sort maps
    # fewer of NumPy's pages than the default, which a small input notices
    order = np.argsort(hashes, kind="stable")
    same = hashes[order[1:]] == hashes[order[:-1]]
    shared = np.zeros(len(hashed), dtype=bool)
    shared[order[1:][same]] = shared[order[:-1][same]] = True
    first, seen = np.ones(len(dataset), dtype=bool), set()
    for i in hashed[shared].tolist():
        key = (int(dataset.district[i]), int(dataset.crop[i]),
               int(dataset.year[i]), (dataset.values[i] + 0.0).tobytes())
        first[i] = key not in seen
        seen.add(key)
    return first


def clean(dataset: Dataset) -> Dataset:
    """Drop exact duplicates, keeping the first occurrence of each record,
    and the records failing validation. The log adds each duplicate, then
    each invalid record with every violation, in row order. When no row is
    dropped the result shares the input's arrays."""
    first = _first_occurrences(dataset)
    mask = schema.violations(dataset.year, dataset.values)
    invalid = first & mask.any(axis=1)
    log = dataset.cleaning_log + [
        (row, "duplicate") for row in dataset.row[~first].tolist()] + [
        (int(dataset.row[i]), "; ".join(schema.violation_messages(mask[i])))
        for i in np.flatnonzero(invalid)]
    keep = first & ~invalid
    kept = dataset if keep.all() else dataset.take(np.flatnonzero(keep))
    return replace(kept, cleaning_log=log)


def feature_matrix(year, values) -> np.ndarray:
    """The (n, 46) feature matrix, in `schema.schema_columns()` order, of a
    year column and the matching (n, 47) `schema.VALUE_COLUMNS` values of
    valid rows, as `clean` or `generate` makes: a dataset's, a part's, or
    one record's, as `[record.year]` and `[record.values]`."""
    x = np.empty((len(year), schema.N_FEATURES))
    x[:, 0] = year  # then the `VALUE_COLUMNS` before production and yield
    x[:, 1:] = np.asarray(values, dtype=float)[:, :schema.N_FEATURES - 1]
    return x


def target_vector(dataset: Dataset) -> np.ndarray:
    return dataset.values[:, _YIELD].copy()


def split(n: int, train_ratio: float, seed: int) -> tuple:
    """Seeded shuffle split of rows 0, ..., n - 1, n >= 2, into (train,
    test) int64 index arrays; train gets the first floor(n * ratio) of the
    order. `pipeline.split_crop` checks n and the CLI the ratio."""
    order = np.array(SplitMix64(seed).permutation(n), dtype=np.int64)
    n_train = int(n * train_ratio)
    return order[:n_train], order[n_train:]
