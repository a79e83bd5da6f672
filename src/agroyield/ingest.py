"""CSV parsing, cleaning, min-max normalization, seeded splits.

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
from dataclasses import dataclass, field

import numpy as np

from . import schema
from .errors import (EmptyDataset, EmptyInput, HeaderMismatch,
                     MalformedConfig, TooFewRecords)
from .rng import SplitMix64

CSV_HEADER = (
    ("district", "year", "crop")
    + schema.schema_columns()[1:]
    + ("production", "yield")
)


@dataclass
class Dataset:
    records: list
    source: str = "<memory>"
    cleaning_log: list = field(default_factory=list)  # (row_index, reason)


@dataclass(frozen=True)
class SplitConfig:
    train_ratio: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_ratio < 1.0:
            raise ValueError("train_ratio must be in (0, 1)")


def _format_value(x) -> str:
    if isinstance(x, int):
        return str(x)
    if float(x).is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def record_to_row(record: schema.AgroRecord) -> list:
    features = schema.encode_features(record)
    row = [record.district.name.lower(), str(record.year), record.crop.name.lower()]
    row += [_format_value(v) for v in features[1:]]
    row += [_format_value(record.production), _format_value(record.yield_t_ha)]
    return row


def _row_to_record(fields: list) -> schema.AgroRecord:
    district = schema.parse_district(fields[0])
    year = int(fields[1])
    crop = schema.parse_crop(fields[2])
    # positions relative to CSV_HEADER; indicators at the tail are ignored
    nums = [float(x) for x in fields[3:]]
    w = schema.Weather(*nums[0:4])
    f = schema.Fertilizer(*nums[4:8])
    land = tuple(nums[8:14])
    soil = tuple(nums[14:33])
    props = schema.SoilProperty(*nums[33:39])
    area = nums[39]
    production, yield_t_ha = nums[45], nums[46]
    return schema.AgroRecord(
        district=district, year=year, crop=crop, weather=w, fertilizer=f,
        land_fractions=land, soil_fractions=soil, soil_props=props,
        area=area, production=production, yield_t_ha=yield_t_ha,
    )


def parse_csv(stream, source: str = "<stream>") -> Dataset:
    """Parse a CSV stream; malformed rows are logged and skipped, while
    bytes that are not UTF-8 or an oversized field raise MalformedConfig."""
    try:
        return _parse_rows(stream, source)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedConfig(f"{source} is not a readable CSV file: {exc}") from exc


def _parse_rows(stream, source: str) -> Dataset:
    if isinstance(stream, (bytes, bytearray)):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInput("input has no header row")
    if tuple(header) != CSV_HEADER:
        raise HeaderMismatch(
            f"header does not match schema contract (got {len(header)} columns)"
        )
    records, log = [], []
    for row_index, fields in enumerate(reader):
        try:
            if len(fields) != len(CSV_HEADER):
                raise ValueError("wrong field count")
            records.append(_row_to_record(fields))
        except (ValueError, IndexError):
            log.append((row_index, "parse failure"))
    return Dataset(records=records, source=source, cleaning_log=log)


def load_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_csv(fh, source=str(path))


def write_csv(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in dataset.records:
            writer.writerow(record_to_row(record))


def cleaning_log_jsonl(dataset: Dataset) -> str:
    lines = [json.dumps({"row": row, "reason": reason})
             for row, reason in dataset.cleaning_log]
    return "\n".join(lines) + ("\n" if lines else "")


def deduplicate(dataset: Dataset) -> Dataset:
    """Drop exact duplicates, keeping the first occurrence of each record."""
    seen = set()
    kept, log = [], list(dataset.cleaning_log)
    for i, record in enumerate(dataset.records):
        if record in seen:
            log.append((i, "duplicate"))
        else:
            seen.add(record)
            kept.append(record)
    return Dataset(records=kept, source=dataset.source, cleaning_log=log)


def drop_invalid(dataset: Dataset) -> Dataset:
    """Drop records failing validation, logging every violation."""
    kept, log = [], list(dataset.cleaning_log)
    for i, record in enumerate(dataset.records):
        violations = schema.validate_record(record)
        if violations:
            log.append((i, "; ".join(violations)))
        else:
            kept.append(record)
    return Dataset(records=kept, source=dataset.source, cleaning_log=log)


def clean(dataset: Dataset) -> Dataset:
    return drop_invalid(deduplicate(dataset))


def feature_matrix(records) -> np.ndarray:
    return np.array([schema.encode_features(r) for r in records], dtype=float)


def target_vector(records) -> np.ndarray:
    return np.array([r.yield_t_ha for r in records], dtype=float)


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
        raise EmptyDataset("cannot fit a normalizer on an empty dataset")
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
    n = len(dataset.records)
    if n < 2:
        raise TooFewRecords(f"need at least 2 records to split, got {n}")
    order = SplitMix64(cfg.seed).permutation(n)
    n_train = int(n * cfg.train_ratio)
    train_records = [dataset.records[i] for i in order[:n_train]]
    test_records = [dataset.records[i] for i in order[n_train:]]
    return (
        Dataset(records=train_records, source=f"{dataset.source}[train]"),
        Dataset(records=test_records, source=f"{dataset.source}[test]"),
    )
