"""CSV parsing, cleaning, min-max normalization, seeded row-index splits.

A `Dataset` holds columns: `district` and `crop` enum values, an int64
`year`, an (n, 47) float matrix `values` of the features other than the
year, production and yield (`schema.VALUE_COLUMNS`), and `row`, the 0-based
data row of the source file, which the cleaning log names. Every layer
works on the arrays; `Dataset.records[i]` builds row i as an `AgroRecord`.

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
import shutil
import tempfile  # noqa: F401  the parallel tests patch ingest.tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import islice

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


def record_dataset(record: schema.AgroRecord) -> Dataset:
    """A one-row dataset holding `record`, whose year must fit int64."""
    return Dataset(np.array([record.district.value]),
                   np.array([record.crop.value]),
                   np.array([record.year], dtype=np.int64),
                   np.array([record.values], dtype=float),
                   np.zeros(1, dtype=np.int64))


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
    """Parse a CSV stream; malformed rows are logged and skipped, while
    bytes that are not UTF-8 or an oversized field raise AgroYieldError."""
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
    capacity = sum(1 for _ in stream)
    stream.seek(begin)
    reader = csv.reader(stream)
    next(reader)
    arrays, log = _empty_columns(capacity), []
    filled = _fill(arrays, 0, _row_blocks(reader, 0), log)
    return Dataset(*(a[:filled] for a in arrays), source=source,
                   cleaning_log=log)


def _line_starts(fh) -> tuple | None:
    """(n, starts) of the data lines of a binary CSV file `fh`, read from
    its first data line on: there are n lines, and line k * `_CHUNK_ROWS`
    starts at byte starts[k]. None when a line need not be one CSV row,
    which is when the file holds a quote or a CR not followed by LF."""
    offset = fh.tell()
    starts, n, cr, last = [offset], 0, False, b"\n"
    while block := fh.read(_BLOCK_BYTES):
        if b'"' in block:
            return None
        if cr or b"\r" in block:  # each CR must begin a CRLF
            crlf = block.count(b"\r\n") + (cr and block[:1] == b"\n")
            if block.count(b"\r") + cr != crlf + block.endswith(b"\r"):
                return None
        ends = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n"))
        # the line after the newline at ends[j] is line n + j + 1
        starts += (ends[-(n + 1) % _CHUNK_ROWS::_CHUNK_ROWS]
                   + (offset + 1)).tolist()
        n += len(ends)
        offset += len(block)
        cr, last = block.endswith(b"\r"), block[-1:]
    if cr:
        return None
    return n + (last != b"\n"), starts


def _part_blocks(path, begin: int, start: int, stop: int):
    """The `_row_blocks` of data rows start, ..., stop - 1 of the CSV file
    `path`, in which each line is one row and row `start` begins at byte
    `begin`."""
    with open(path, "rb") as fh:
        fh.seek(begin)
        lines = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        yield from _row_blocks(csv.reader(islice(lines, stop - start)), start)


def _write_part(path, begin: int, start: int, stop: int, part) -> None:
    """Write the `_part_blocks` of rows start, ..., stop - 1 to the binary
    file `part`, each as its two row counts, its columns and its failed
    rows, for `_read_part`."""
    for columns, failed in _part_blocks(path, begin, start, stop):
        part.write(np.array([len(columns[0]), len(failed)], np.int64))
        for column in columns:
            part.write(column)
        part.write(np.array(failed, np.int64))


def _read_part(part, arrays: list, filled: int, log: list) -> int:
    """Read the blocks that `_write_part` wrote to `part` into `arrays` from
    row `filled` on and log their failed rows; the rows filled afterwards."""
    part.seek(0)
    while counts := part.read(16):
        kept, failed = np.frombuffer(counts, np.int64).tolist()
        rows = np.empty(failed, np.int64)
        for view in [a[filled:filled + kept] for a in arrays] + [rows]:
            if part.readinto(view) != view.nbytes:
                raise EOFError("a part file ends inside a block")
        log.extend((row, "parse failure") for row in rows.tolist())
        filled += kept
    return filled


def _load_parts(path, source: str) -> Dataset | None:
    """`load_csv` of the parts that `_part_bounds` gives the data lines of
    the file at `path`; None where only the one-process parse may decide
    the result: for a file that is not regular, a header that is not the
    contract's, a line that need not be one row, a part that cannot be
    forked and a child that does not exit 0."""
    if not os.path.isfile(path):  # a pipe can be read only once
        return None
    with open(path, "rb") as fh:
        header = fh.readline(len(_HEADER_LINE) + 1)
        if header not in (_HEADER_LINE, _HEADER_LINE[:-1] + b"\r\n"):
            return None
        lines = _line_starts(fh)
    if lines is None:
        return None
    n, starts = lines
    bounds = _part_bounds(n)
    jobs = [partial(_write_part, path, starts[start // _CHUNK_ROWS], start,
                    stop) for start, stop in zip(bounds[1:-1], bounds[2:])]
    with fork.forked(jobs, os.path.dirname(os.path.abspath(path))) as children:
        if any(pid is None for pid, _ in children):
            return None
        arrays, log = _empty_columns(n), []
        filled = _fill(arrays, 0, _part_blocks(path, starts[0], 0, bounds[1]),
                       log)
        for child in children:
            if not fork.exited(child):
                return None
            filled = _read_part(child[1], arrays, filled, log)
    return Dataset(*(a[:filled] for a in arrays), source=source,
                   cleaning_log=log)


def load_csv(path) -> Dataset:
    """`parse_csv` of the file at `path`, parsed on every CPU of the
    affinity mask.

    Where each data line is one row, the lines are split as `_part_bounds`
    says. The calling process parses the first range into arrays for every
    line, while one forked child per other range parses it into an
    anonymous file beside `path`; each part is then read into place, in
    order. Wherever that cannot be done, or anything fails, the file is
    parsed again in one process, and what that returns or raises is the
    result. No child or part file outlives the call."""
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


def _format_rows(dataset: Dataset, start: int, stop: int, fh) -> None:
    """Write rows start, ..., stop - 1 to the binary file `fh` as CSV
    lines, a block at a time."""
    for begin in range(start, stop, _CHUNK_ROWS):
        rows = slice(begin, min(begin + _CHUNK_ROWS, stop))
        columns = [
            [_DISTRICT_NAMES[d] for d in dataset.district[rows].tolist()],
            list(map(str, dataset.year[rows].tolist())),
            [_CROP_NAMES[c] for c in dataset.crop[rows].tolist()],
        ] + [_format_floats(col) for col in dataset.values[rows].T]
        fh.write(("\n".join(map(",".join, zip(*columns))) + "\n").encode())


def _part_bounds(n: int) -> list:
    """Bounds of the row ranges that `write_csv` and `load_csv` handle in
    parallel: one range per CPU the process may run on, but at most one per
    `_FORK_ROWS` rows, each starting at a multiple of `_CHUNK_ROWS`."""
    parts = max(1, min(fork.cpus(), n // _FORK_ROWS))
    blocks = -(-n // _CHUNK_ROWS)
    return [min(n, blocks * i // parts * _CHUNK_ROWS)
            for i in range(parts + 1)]


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset of valid rows, as `clean` or `generate` makes.

    The rows are split as `_part_bounds` says. The calling process formats
    the first range into the file while one forked child per other range
    formats it into an anonymous file beside it; the parts are then
    appended in order. A part whose child did not exit 0 is formatted by
    the caller, so the bytes, and any error raised, are those of one
    process. No child or part file outlives the call."""
    bounds = _part_bounds(len(dataset))
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    jobs = [partial(_format_rows, dataset, start, stop)
            for start, stop in ranges]
    directory = os.path.dirname(os.path.abspath(path))
    with open(path, "wb") as fh:
        fh.write(_HEADER_LINE)
        fh.flush()  # else each child would inherit the header in the buffer
        with fork.forked(jobs, directory) as children:
            _format_rows(dataset, 0, bounds[1], fh)
            for child, (start, stop) in zip(children, ranges):
                if fork.exited(child):
                    child[1].seek(0)
                    shutil.copyfileobj(child[1], fh)
                else:
                    _format_rows(dataset, start, stop, fh)


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


def feature_matrix(dataset: Dataset) -> np.ndarray:
    """The (n, 46) feature matrix, in `schema.schema_columns()` order, of a
    dataset of valid rows, as `clean` or `generate` makes."""
    x = np.empty((len(dataset), 46))
    x[:, 0] = dataset.year
    x[:, 1:] = dataset.values[:, :45]
    return x


def target_vector(dataset: Dataset) -> np.ndarray:
    return dataset.values[:, _YIELD].copy()


_INDICATOR_MASK = np.array(
    [c in schema.INDICATOR_COLUMNS for c in schema.schema_columns()]
)


@dataclass
class Normalizer:
    column_mins: np.ndarray  # (46,)
    column_maxs: np.ndarray  # (46,)
    target_min: float
    target_max: float


def fit_normalizer(x: np.ndarray, y: np.ndarray) -> Normalizer:
    """Ranges of an encoded (n, 46) train matrix and its yield vector."""
    if len(x) == 0:
        raise AgroYieldError("cannot fit a normalizer on an empty dataset")
    return Normalizer(
        column_mins=x.min(axis=0),
        column_maxs=x.max(axis=0),
        target_min=float(y.min()),
        target_max=float(y.max()),
    )


def normalize_features(norm: Normalizer, x: np.ndarray) -> np.ndarray:
    """x' = clip((x - min) / (max - min), 0, 1); constant columns -> 0;
    district indicator columns pass through unchanged."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    span = norm.column_maxs - norm.column_mins
    safe_span = np.where(span > 0, span, 1.0)
    out = np.clip((x - norm.column_mins) / safe_span, 0.0, 1.0)
    out[:, span == 0] = 0.0
    out[:, _INDICATOR_MASK] = x[:, _INDICATOR_MASK]
    return out


def normalize_target(norm: Normalizer, y: np.ndarray) -> np.ndarray:
    span = norm.target_max - norm.target_min
    if span == 0:
        return np.zeros_like(np.asarray(y, dtype=float))
    return (np.asarray(y, dtype=float) - norm.target_min) / span


def denormalize_target(norm: Normalizer, y_norm):
    span = norm.target_max - norm.target_min
    return np.asarray(y_norm, dtype=float) * span + norm.target_min


def split(n: int, train_ratio: float, seed: int) -> tuple:
    """Seeded shuffle split of rows 0, ..., n - 1 into (train, test) int64
    index arrays; train gets the first floor(n * ratio) of the order."""
    if not 0.0 < train_ratio < 1.0:
        raise ValueError("train_ratio must be in (0, 1)")
    if n < 2:
        raise AgroYieldError(f"need at least 2 records to split, got {n}")
    order = np.array(SplitMix64(seed).permutation(n), dtype=np.int64)
    n_train = int(n * train_ratio)
    return order[:n_train], order[n_train:]
