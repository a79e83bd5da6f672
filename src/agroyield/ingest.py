"""CSV parsing, cleaning, min-max normalization, seeded splits.

A `Dataset` holds columns: `district` and `crop` enum values, an int64
`year`, an (n, 47) float matrix `values` of the features other than the
year, production and yield (`schema.VALUE_COLUMNS`), and `row`, the 0-based
data row of the source file, which the cleaning log names. Every layer
works on the arrays; `Dataset.records` builds an `AgroRecord` view when read.

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
import signal
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice

import numpy as np

from . import schema
from .errors import AgroYieldError
from .rng import GAMMA, MIX1, MIX2, SplitMix64
from .schema import Crop, District

CSV_HEADER = (
    ("district", "year", "crop")
    + schema.schema_columns()[1:]
    + ("production", "yield")
)

# Rows parsed, hashed or formatted per block: enough to amortize the NumPy
# calls, few enough that the block's str objects stay under a megabyte.
_CHUNK_ROWS = 256
# Rows per forked part of `write_csv`: below this a part's fork, exit and
# copy cost more than formatting its rows in the caller saves. On a 2-vCPU
# Xeon, two parts beat one process in 3 of 40 writes of 512 rows (256 +
# 256), in 31, 1 and 29 of 40 writes of 768 rows (256 + 512) and in 35 and
# 36 of 40 writes of 1,024 rows (512 + 512).
_FORK_ROWS = 512
# one salt per key entry: district, crop, year, then the value columns
_HASH_SALT = (np.arange(1, 4 + len(schema.VALUE_COLUMNS), dtype=np.uint64)
              * np.uint64(GAMMA))
_YIELD = schema.VALUE_COLUMNS.index("yield")
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

    def take(self, index, source: str, cleaning_log=()) -> "Dataset":
        """Rows `index`, in that order, as a new dataset."""
        return Dataset(self.district[index], self.crop[index],
                       self.year[index], self.values[index], self.row[index],
                       source, list(cleaning_log))


class Records(Sequence):
    """Read-only `AgroRecord` views of a dataset's rows, built when read."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset)

    def __getitem__(self, i) -> schema.AgroRecord:
        ds = self._dataset
        return schema.record_from_values(
            District(int(ds.district[i])), int(ds.year[i]),
            Crop(int(ds.crop[i])), ds.values[i].tolist())


def record_dataset(record: schema.AgroRecord) -> Dataset:
    """A one-row dataset holding `record`."""
    return Dataset(np.array([record.district.value]),
                   np.array([record.crop.value]),
                   np.array([schema.year64(record.year)], dtype=np.int64),
                   np.array([schema.record_values(record)], dtype=float),
                   np.zeros(1, dtype=np.int64))


@dataclass(frozen=True)
class SplitConfig:
    train_ratio: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_ratio < 1.0:
            raise ValueError("train_ratio must be in (0, 1)")


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
    arrays = [np.empty((capacity,) + a.shape[1:], a.dtype)
              for a in _columns([], 0)]
    filled, log, start = 0, [], 0
    while rows := list(islice(reader, _CHUNK_ROWS)):
        try:
            blocks = [_columns(rows, start)]
        except ValueError:  # find the bad rows one by one
            blocks = []
            for i, fields in enumerate(rows):
                try:
                    blocks.append(_columns([fields], start + i))
                except ValueError:
                    log.append((start + i, "parse failure"))
        for block in blocks:
            for array, part in zip(arrays, block):
                array[filled:filled + len(part)] = part
            filled += len(part)
        start += len(rows)
    return Dataset(*(a[:filled] for a in arrays), source=source,
                   cleaning_log=log)


def load_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_csv(fh, source=str(path))


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
    """Write rows start, ..., stop - 1 as CSV lines, a block at a time."""
    for begin in range(start, stop, _CHUNK_ROWS):
        rows = slice(begin, min(begin + _CHUNK_ROWS, stop))
        columns = [
            [_DISTRICT_NAMES[d] for d in dataset.district[rows].tolist()],
            list(map(str, dataset.year[rows].tolist())),
            [_CROP_NAMES[c] for c in dataset.crop[rows].tolist()],
        ] + [_format_floats(col) for col in dataset.values[rows].T]
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _part_bounds(n: int) -> list:
    """Bounds of the row ranges `write_csv` formats in parallel: one range
    per CPU the process may run on, but at most one per `_FORK_ROWS` rows,
    each starting at a multiple of `_CHUNK_ROWS`."""
    parts = 1
    if hasattr(os, "fork"):
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity mask on this platform
            cpus = os.cpu_count() or 1
        parts = max(1, min(cpus, n // _FORK_ROWS))
    blocks = -(-n // _CHUNK_ROWS)
    return [min(n, blocks * i // parts * _CHUNK_ROWS)
            for i in range(parts + 1)]


def _fork_part(dataset: Dataset, start: int, stop: int, directory):
    """(pid, file) of a forked child that formats rows start, ..., stop - 1
    into an anonymous file in `directory`; (None, None) when the file or the
    child cannot be made. The child leaves only through `os._exit`, so it
    runs no exit handler and flushes no buffer it inherited."""
    try:
        part = tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n",
                                      dir=directory)
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        part.close()
        return None, None
    if pid == 0:
        code = 1
        try:
            _format_rows(dataset, start, stop, part)
            part.flush()
            code = 0
        finally:
            os._exit(code)
    return pid, part


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset of valid rows, as `clean` or `generate` makes.

    The rows are split as `_part_bounds` says. The calling process formats
    the first range into the file while one forked child per other range
    formats it into an anonymous file beside it; the parts are then
    appended in order. A part whose child did not exit 0 is formatted by
    the caller, so the bytes, and any error raised, are those of one
    process. No child or part file outlives the call."""
    bounds = _part_bounds(len(dataset))
    directory = os.path.dirname(os.path.abspath(path))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.flush()  # else each child would inherit the header in the buffer
        children = []  # [pid or None once reaped, part file, start, stop]
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                children.append([*_fork_part(dataset, start, stop, directory),
                                 start, stop])
            _format_rows(dataset, 0, bounds[1], fh)
            for child in children:
                pid, part, start, stop = child
                status = 1
                if pid is not None:
                    status = os.waitpid(pid, 0)[1]
                    child[0] = None
                if status == 0:
                    part.seek(0)
                    fh.flush()
                    shutil.copyfileobj(part.buffer, fh.buffer)
                else:
                    _format_rows(dataset, start, stop, fh)
        finally:
            for pid, part, _, _ in children:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                if part is not None:
                    part.close()


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
    if keep.all():
        return replace(dataset, cleaning_log=log)
    return dataset.take(np.flatnonzero(keep), dataset.source, log)


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


def split(dataset: Dataset, cfg: SplitConfig):
    """Seeded shuffle split; train gets the first floor(n * ratio) records."""
    n = len(dataset)
    if n < 2:
        raise AgroYieldError(f"need at least 2 records to split, got {n}")
    order = SplitMix64(cfg.seed).permutation(n)
    n_train = int(n * cfg.train_ratio)
    return (dataset.take(order[:n_train], f"{dataset.source}[train]"),
            dataset.take(order[n_train:], f"{dataset.source}[test]"))
