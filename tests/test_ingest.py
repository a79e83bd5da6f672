import contextlib
import csv
import io
import itertools
import math
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agroyield import ingest, schema, synthgen
from agroyield.errors import AgroYieldError
from agroyield.ingest import (
    CSV_HEADER,
    Dataset,
    clean,
    parse_csv,
    write_csv,
)
from agroyield.models import Normalizer
from agroyield.pipeline import split
from helpers import dataset_of, make_record, one_cpu, record_value
from test_schema import valid_records


def csv_text(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_csv(dataset_of(records), path)
        return path.read_text(encoding="utf-8")


class TestParseCsv:
    def test_table1_row_round_trip(self):
        r = make_record()
        ds = parse_csv(csv_text([r]))
        assert len(ds.records) == 1
        got = ds.records[0]
        assert record_value(got, "avg_rainfall") == 2385.0
        assert record_value(got, "humidity") == 71.0
        assert record_value(got, "urea") == 25967.0
        assert got == r

    def test_header_only_gives_empty_dataset(self):
        ds = parse_csv(",".join(CSV_HEADER) + "\n")
        assert list(ds.records) == []
        assert ds.cleaning_log == []

    def test_non_numeric_field_logged_and_skipped(self):
        text = csv_text([make_record()])
        text = text.replace("71,25967", "soggy,25967")
        ds = parse_csv(text)
        assert list(ds.records) == []
        assert ds.cleaning_log == [(0, "parse failure")]

    def test_header_mismatch(self):
        with pytest.raises(AgroYieldError,
                           match="got 3 columns, expected 50"):
            parse_csv("a,b,c\n1,2,3\n")

    def test_reordered_header_rejected(self):
        cols = list(CSV_HEADER)
        cols[0], cols[1] = cols[1], cols[0]
        with pytest.raises(AgroYieldError,
                           match="column 1 is 'year', expected 'district'"):
            parse_csv(",".join(cols) + "\n")

    def test_byte_order_mark_named_in_header_error(self):
        # a spreadsheet's UTF-8 export starts with a BOM; it is not stripped
        text = "\ufeff" + csv_text([make_record()])
        with pytest.raises(AgroYieldError, match=re.escape(
                "header does not match schema contract: "
                "column 1 is '\\ufeffdistrict', expected 'district'")):
            parse_csv(text)

    def test_missing_column_gives_both_counts(self):
        with pytest.raises(AgroYieldError, match=re.escape(
                "header does not match schema contract: "
                "got 49 columns, expected 50")):
            parse_csv(",".join(CSV_HEADER[:-1]) + "\n")

    def test_empty_input(self):
        with pytest.raises(AgroYieldError, match="no header row"):
            parse_csv("")

    def test_wrong_field_count_logged(self):
        text = csv_text([make_record()])
        lines = text.splitlines()
        lines[1] = lines[1] + ",999"
        ds = parse_csv("\n".join(lines) + "\n")
        assert ds.cleaning_log == [(0, "parse failure")]

    def test_write_then_parse_is_identity(self, tmp_path):
        records = [make_record(year=2008 + i, yield_t_ha=1.0 + i)
                   for i in range(5)]
        path = tmp_path / "d.csv"
        write_csv(dataset_of(records), path)
        assert list(ingest.load_csv(path).records) == records


_HEADER_BYTES = csv_text([]).encode()
_ROW_BYTES = csv_text([make_record()]).encode()[len(_HEADER_BYTES):]


@settings(max_examples=300, deadline=None)
@given(with_header=st.booleans(),
       cut=st.integers(0, len(_ROW_BYTES)),
       tail=st.one_of(st.binary(max_size=300),
                      st.text(",.-+0123456789eEinfa\"\r\n\x00",
                              max_size=300).map(str.encode)),
       as_stream=st.booleans())
def test_arbitrary_bytes_parse_or_raise_package_error(with_header, cut, tail,
                                                      as_stream):
    data = (_HEADER_BYTES if with_header else b"") + _ROW_BYTES[:cut] + tail
    if as_stream:  # decoded while rows are read, as load_csv does
        data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        ds = parse_csv(data)
    except AgroYieldError:
        return
    assert isinstance(ds, Dataset)


class TestDeduplicate:
    def test_exact_duplicate_removed(self):
        r1, r2 = make_record(), make_record(year=2009)
        ds = clean(dataset_of([r1, r1, r2]))
        assert list(ds.records) == [r1, r2]
        assert ds.cleaning_log == [(1, "duplicate")]

    def test_distinct_records_unchanged(self):
        r1, r2 = make_record(), make_record(year=2009)
        ds = clean(dataset_of([r1, r2]))
        assert list(ds.records) == [r1, r2]

    def test_idempotent(self):
        d = dataset_of([make_record(), make_record(), make_record(year=2010)])
        once = clean(d)
        twice = clean(once)
        assert list(twice.records) == list(once.records)

    @given(st.lists(st.sampled_from([2008, 2009, 2010, 2011]), max_size=20))
    def test_never_grows_and_idempotent(self, years):
        d = dataset_of([make_record(year=y) for y in years])
        once = clean(d)
        assert len(once.records) <= len(d.records)
        assert list(clean(once).records) == list(once.records)


class TestDropInvalid:
    def test_inverted_temps_removed_with_reason(self):
        bad = make_record(max_temp=20.0, min_temp=30.0)
        ds = clean(dataset_of([bad]))
        assert list(ds.records) == []
        assert "min_temp < max_temp violated" in ds.cleaning_log[0][1]

    def test_all_valid_is_noop(self):
        records = [make_record(year=2008 + i) for i in range(3)]
        ds = clean(dataset_of(records))
        assert list(ds.records) == records
        assert ds.cleaning_log == []

    def test_mixed_counts(self):
        good = [make_record(year=2008 + i) for i in range(3)]
        bad = [make_record(avg_rainfall=0.0, max_temp=20.0, min_temp=30.0,
                           year=y)
               for y in (2014, 2015)]
        ds = clean(dataset_of(good + bad))
        assert len(ds.records) == 3
        assert len(ds.cleaning_log) == 2


def rainfall_dataset(values):
    return dataset_of([
        make_record(avg_rainfall=v, year=2008 + i)
        for i, v in enumerate(values)
    ])


def fit_on(dataset):
    """The normalizer fitted on `dataset` and its normalized feature matrix."""
    x = ingest.feature_matrix(dataset.year, dataset.values)
    norm = Normalizer.fit(x, ingest.target_vector(dataset))
    return norm, norm.scale(x)


class TestNormalizer:
    def test_table1_rainfall_min_max(self):
        norm, _ = fit_on(rainfall_dataset([2385.0, 1930.0, 1523.0]))
        i = schema.schema_columns().index("avg_rainfall")
        assert norm.column_mins[i] == 1523.0
        assert norm.column_maxs[i] == 2385.0

    def test_constant_column(self):
        norm, _ = fit_on(rainfall_dataset([5.0, 5.0, 5.0]))
        i = schema.schema_columns().index("avg_rainfall")
        assert norm.column_mins[i] == norm.column_maxs[i] == 5.0

    def test_single_record_min_equals_max(self):
        norm, _ = fit_on(rainfall_dataset([1930.0]))
        assert np.all(norm.column_mins == norm.column_maxs)

    def test_empty_dataset_raises(self):
        with pytest.raises(AgroYieldError, match="empty dataset"):
            Normalizer.fit(np.zeros((0, 46)), np.zeros(0))

    def test_endpoints_and_interior_value(self):
        train = rainfall_dataset([2385.0, 1930.0, 1523.0])
        norm, x = fit_on(train)
        i = schema.schema_columns().index("avg_rainfall")
        col = sorted(x[:, i])
        assert col[0] == 0.0
        assert col[-1] == 1.0
        # (1930 - 1523) / (2385 - 1523), by hand
        assert col[1] == pytest.approx(407.0 / 862.0, abs=1e-12)

    def test_constant_column_maps_to_zero(self):
        train = rainfall_dataset([5.0, 5.0])
        norm, x = fit_on(train)
        i = schema.schema_columns().index("avg_rainfall")
        assert np.all(x[:, i] == 0.0)

    def test_out_of_range_values_clipped(self):
        train = rainfall_dataset([1523.0, 2385.0])
        norm, _ = fit_on(train)
        ds = rainfall_dataset([100.0, 9000.0])
        test = ingest.feature_matrix(ds.year, ds.values)
        out = norm.scale(test)
        i = schema.schema_columns().index("avg_rainfall")
        assert out[0, i] == 0.0
        assert out[1, i] == 1.0

    def test_indicator_columns_pass_through(self):
        records = [make_record(district=d, year=2008 + i)
                   for i, d in enumerate(schema.District)]
        ds = dataset_of(records)
        norm, x = fit_on(ds)
        raw = ingest.feature_matrix(ds.year, ds.values)
        assert np.array_equal(x[:, -5:], raw[:, -5:])

    def test_train_columns_hit_0_and_1(self):
        ds = rainfall_dataset([1000.0, 1500.0, 2000.0, 2500.0])
        norm, x = fit_on(ds)
        span = norm.column_maxs - norm.column_mins
        for j in range(x.shape[1]):
            if span[j] == 0 or schema.schema_columns()[j].startswith("district_"):
                continue
            assert abs(x[:, j].min()) <= 1e-12
            assert abs(x[:, j].max() - 1.0) <= 1e-12

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30, unique=True))
    def test_order_preserving_per_column(self, values):
        lo, hi = min(values), max(values)
        norm_col = [(v - lo) / (hi - lo) for v in values]
        order = np.argsort(values)
        assert all(norm_col[order[k]] <= norm_col[order[k + 1]]
                   for k in range(len(values) - 1))


class TestSplit:  # `pipeline.split`, kept here under its test names
    def test_sizes_floor_rule(self):
        train, test = split(10, 0.8, 1)
        assert (train.dtype, test.dtype) == (np.int64, np.int64)
        assert (len(train), len(test)) == (8, 2)

    def test_same_seed_identical(self):
        a, b = split(20, 0.8, 42), split(20, 0.8, 42)
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()

    def test_different_seed_differs(self):
        assert split(50, 0.8, 1)[0].tolist() != split(50, 0.8, 2)[0].tolist()

    def test_partition(self):
        train, test = split(31, 0.8, 3)
        assert sorted(train.tolist() + test.tolist()) == list(range(31))


# ------------------------------------------------------------------------
# The column code against the per-record code it replaced.

def _reference_deduplicate(records):
    """Dataclass-equality dedupe over record objects, as it was: the kept
    positions and the log."""
    seen, kept, log = set(), [], []
    for i, record in enumerate(records):
        if record in seen:
            log.append((i, "duplicate"))
        else:
            seen.add(record)
            kept.append(i)
    return kept, log


def _variant(base, kind):
    """`base`, or a copy with a zero fraction negated or a NaN humidity."""
    if kind == "negative-zero":
        return make_record(year=base.year,
                           yield_t_ha=record_value(base, "yield"),
                           land_frac_mediumhighland=-0.0)
    if kind == "nan":
        return make_record(year=base.year,
                           yield_t_ha=record_value(base, "yield"),
                           humidity=math.nan)
    return base


_BASES = [make_record(year=y, yield_t_ha=t) for y in (2008, 2009)
          for t in (2.0, 0.0, -0.0)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_BASES),
                          st.sampled_from(["plain", "negative-zero", "nan"])),
                max_size=25))
def test_deduplicate_matches_dataclass_equality(picks):
    ds = dataset_of([_variant(base, kind) for base, kind in picks])
    # fresh objects per row, as parsing makes them: no NaN is shared
    records = list(ds.records)
    kept, log = _reference_deduplicate(records)
    cleaned = clean(ds)
    assert [e for e in cleaned.cleaning_log if e[1] == "duplicate"] == log
    # the NaN rows are also invalid, so clean drops them after deduplicating
    invalid = schema.violations(ds.year, ds.values).any(axis=1)
    kept = [i for i in kept if not invalid[i]]
    assert np.array_equal(cleaned.values, ds.values[kept])
    assert cleaned.year.tolist() == ds.year[kept].tolist()


def _reference_clean(dataset):
    """`clean` as it was: deduplicate on a set of whole-row keys, then drop
    the invalid rows, each step gathering its own copy."""
    keys = np.column_stack([dataset.district, dataset.crop, dataset.year,
                            (dataset.values + 0.0).view(np.int64)])
    first, seen = np.ones(len(dataset), dtype=bool), set()
    for i in np.flatnonzero(~np.isnan(dataset.values).any(axis=1)).tolist():
        key = keys[i].tobytes()
        first[i] = key not in seen
        seen.add(key)
    log = dataset.cleaning_log + [(row, "duplicate")
                                  for row in dataset.row[~first].tolist()]
    deduped = replace(dataset.take(np.flatnonzero(first)), cleaning_log=log)
    mask = schema.violations(deduped.year, deduped.values)
    bad = mask.any(axis=1)
    log = deduped.cleaning_log + [
        (int(deduped.row[i]), "; ".join(schema.violation_messages(mask[i])))
        for i in np.flatnonzero(bad)]
    return replace(deduped.take(np.flatnonzero(~bad)), cleaning_log=log)


def _assert_same_dataset(got, want):
    assert got.source == want.source
    assert got.cleaning_log == want.cleaning_log
    for name in ("district", "crop", "year", "values", "row"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.ascontiguousarray(a).tobytes() \
            == np.ascontiguousarray(b).tobytes(), name


_CLEAN_BASES = synthgen.generate(synthgen.GenConfig(n_records=3, seed=12))


def _dirty_row(values, kind, column):
    """A copy of a generated row's values, changed as `kind` says."""
    v = values.copy()
    if kind == "negative-zero":  # a zero indicator becomes -0.0
        ind = v[schema.INDICATORS]
        v[schema.INDICATORS] = np.where(ind == 0.0, -0.0, ind)
    elif kind == "nan":
        v[column] = math.nan
    elif kind == "humidity":
        v[schema.VALUE_COLUMNS.index("humidity")] = 150.0
    elif kind == "temps":
        v[schema.VALUE_COLUMNS.index("min_temp")] = 40.0
    elif kind == "fractions":
        v[schema.LAND.start] += 0.5
    return v


def _dirty_dataset(picks):
    """Rows of `_CLEAN_BASES` changed by `_dirty_row`, with a parse log."""
    base = [b for b, _, _ in picks]
    values = np.array([_dirty_row(_CLEAN_BASES.values[b], kind, column)
                       for b, kind, column in picks]).reshape(len(picks), 47)
    return Dataset(_CLEAN_BASES.district[base], _CLEAN_BASES.crop[base],
                   _CLEAN_BASES.year[base], values,
                   np.arange(len(picks)) * 2, "dirty",
                   [(2 * len(picks) + 1, "parse failure")])


def _one_hash(dataset):
    return np.full(len(dataset), 7, dtype=np.uint64)


# repeated picks are exact duplicates, "plain" and "negative-zero" picks of
# one base are -0.0/0.0 twins, and the last three kinds are invalid
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.integers(0, len(_CLEAN_BASES) - 1),
    st.sampled_from(["plain", "negative-zero", "nan", "humidity", "temps",
                     "fractions"]),
    st.sampled_from([0, 3, 20, 46])), max_size=30), st.booleans())
def test_clean_matches_deduplicate_then_drop_invalid(picks, collide):
    ds = _dirty_dataset(picks)
    if collide:  # every row shares one hash, so every key is compared
        with mock.patch.object(ingest, "_row_hashes", _one_hash):
            got = clean(ds)
    else:
        got = clean(ds)
    _assert_same_dataset(got, _reference_clean(ds))


def test_clean_with_one_hash_for_every_row_drops_only_later_copies(
        monkeypatch):
    hashed = []
    monkeypatch.setattr(ingest, "_row_hashes",
                        lambda ds: hashed.append(len(ds)) or _one_hash(ds))
    ds = synthgen.generate(synthgen.GenConfig(n_records=8, seed=4))
    order = [0, 1, 2, 3, 0, 4, 2, 2, 5, 6, 7, 1]
    values = ds.values[order]
    twin = np.where(values[3] == 0.0, -0.0, values[3])  # equals row 3
    dirty = Dataset(ds.district[order + [3]], ds.crop[order + [3]],
                    ds.year[order + [3]], np.vstack([values, twin]),
                    np.arange(13), "dirty")
    got = clean(dirty)
    assert hashed == [13]
    assert got.cleaning_log == [(row, "duplicate") for row in (4, 6, 7, 11, 12)]
    assert got.row.tolist() == [0, 1, 2, 3, 5, 8, 9, 10]
    assert got.values.tobytes() == ds.values.tobytes()


def test_clean_without_a_drop_shares_the_arrays():
    ds = synthgen.generate(synthgen.GenConfig(n_records=50, seed=1))
    got = clean(ds)
    assert got.cleaning_log == [] and got.source == ds.source
    for name in ("district", "crop", "year", "values", "row"):
        assert getattr(got, name) is getattr(ds, name)


def _reference_parse(stream, cut):
    """`parse_csv` of a stream with a valid header as it was: one array per
    block, concatenated. When `cut`, the last row, which has no line end,
    fails."""
    reader = csv.reader(stream)
    next(reader)
    rows = list(reader)
    if cut:
        rows[-1] = []
    reader = iter(rows)
    parts, log, start = [ingest._columns([], 0)], [], 0
    while rows := list(itertools.islice(reader, ingest._CHUNK_ROWS)):
        try:
            parts.append(ingest._columns(rows, start))
        except ValueError:
            for i, fields in enumerate(rows):
                try:
                    parts.append(ingest._columns([fields], start + i))
                except ValueError:
                    log.append((start + i, "parse failure"))
        start += len(rows)
    return Dataset(*map(np.concatenate, zip(*parts)), source="<stream>",
                   cleaning_log=log)


_GOOD_LINES = csv_text(list(_CLEAN_BASES.records)).splitlines()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_GOOD_LINES[1:] + ["", "a,b", "dhaka,x"]),
                max_size=30),
       st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(), st.booleans())
def test_preallocated_parse_matches_concatenated_blocks(lines, newline, last,
                                                        as_stream):
    text = newline.join([_GOOD_LINES[0]] + lines) + (newline if last else "")

    def stream():  # as load_csv opens a file, or as a str is read
        if as_stream:
            return io.TextIOWrapper(io.BytesIO(text.encode()),
                                    encoding="utf-8", newline="")
        return io.StringIO(text)

    cut = bool(lines) and not text.endswith(("\n", "\r"))
    try:
        want = _reference_parse(stream(), cut)
    except csv.Error as exc:  # a bare "\r" inside a line of a str
        with pytest.raises(AgroYieldError, match=re.escape(str(exc))):
            parse_csv(stream())
        return
    _assert_same_dataset(parse_csv(stream()), want)


def test_a_pipe_parses_like_a_file(tmp_path):
    text = csv_text(list(_CLEAN_BASES.records)) + "a,b\n"
    read, write = os.pipe()
    with open(write, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(read, encoding="utf-8", newline="") as fh:
        assert not fh.seekable()
        got = parse_csv(fh)
    _assert_same_dataset(got, parse_csv(text))
    assert got.cleaning_log == [(len(_CLEAN_BASES), "parse failure")]


def _reference_format_value(x) -> str:
    if isinstance(x, int):
        return str(x)
    if float(x).is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _reference_csv(records) -> str:
    """The CSV text of the per-value writer that `write_csv` replaced."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        features = r.values[:45]
        writer.writerow(
            [r.district.name.lower(), str(r.year), r.crop.name.lower()]
            + [_reference_format_value(float(v)) for v in features]
            + [_reference_format_value(record_value(r, "production")),
               _reference_format_value(record_value(r, "yield"))])
    return out.getvalue()


_NEAR_1E15 = st.one_of(
    st.sampled_from([1e15, 1e15 - 1, 1e15 + 2, 999999999999999.9, 1e16,
                     2.0 ** 53, 0.0, -0.0, 0.5, 1e-300]),
    st.integers(10 ** 15 - 5, 10 ** 15 + 5).map(float),
    st.floats(0.0, 1e17),
    st.floats(-1e16, 1e16))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | _NEAR_1E15,
                max_size=40))
def test_column_formatting_matches_per_value_formatting(column):
    assert ingest._format_floats(np.array(column, dtype=float)) \
        == [_reference_format_value(x) for x in column]


@st.composite
def large_valued_records(draw):
    """Valid records whose unbounded columns hold values near 1e15."""
    base = draw(valid_records())
    non_negative = _NEAR_1E15.map(abs)
    values = list(base.values)
    for name in ("avg_rainfall", "urea", "tsp", "dap", "mp"):
        values[schema.VALUE_INDEX[name]] = draw(non_negative)
    return replace(base, values=tuple(values))


@settings(max_examples=100, deadline=None)
@given(st.lists(large_valued_records(), max_size=8))
def test_write_csv_matches_per_value_writer(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    ds = dataset_of(records)
    write_csv(ds, path)
    assert path.read_text(encoding="utf-8") == _reference_csv(records)
    back = ingest.load_csv(path)
    assert back.cleaning_log == []
    for name in ("district", "crop", "year", "values"):
        assert np.array_equal(getattr(back, name), getattr(ds, name))


def test_write_then_load_keeps_the_arrays_of_a_generated_dataset(tmp_path):
    ds = synthgen.generate(synthgen.GenConfig(n_records=3000, seed=8))
    write_csv(ds, tmp_path / "d.csv")
    back = ingest.load_csv(tmp_path / "d.csv")
    for name in ("district", "crop", "year", "values"):
        assert np.array_equal(getattr(back, name), getattr(ds, name))


@pytest.mark.parametrize("cpus", ["every", "one"])
def test_a_last_line_cut_short_is_a_parse_failure(tmp_path, cpus):
    # cut 5 bytes short, with no final newline, the last yield loses
    # digits, which no rule of `clean` can see
    ds = synthgen.generate(synthgen.GenConfig(n_records=1200, seed=0))
    write_csv(ds, tmp_path / "d.csv")
    raw = (tmp_path / "d.csv").read_bytes()
    (tmp_path / "cut.csv").write_bytes(raw[:-5])
    with one_cpu() if cpus == "one" else contextlib.nullcontext():
        back = ingest.load_csv(tmp_path / "cut.csv")
    assert back.cleaning_log == [(1199, "parse failure")]
    assert np.array_equal(back.values, ds.values[:1199])


# ------------------------------------------------------------------------
# The row view against the rows it views.

def _assert_rows_round_trip(ds):
    """Each row's record holds the row's bytes, and `feature_matrix` of the
    record, as `evaluation.select_crop` encodes it, is the row's."""
    assert len(ds.records) == len(ds)
    for i, record in enumerate(ds.records):
        assert (record.district.value, record.crop.value, record.year) \
            == (ds.district[i], ds.crop[i], ds.year[i])
        assert np.array(record.values).tobytes() == ds.values[i].tobytes()
        got = ingest.feature_matrix([record.year], [record.values])
        want = ingest.feature_matrix(ds.year[i:i + 1], ds.values[i:i + 1])
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        assert record.values[schema.INDICATORS] == tuple(
            schema.INDICATOR_PATTERNS[record.district.value].tolist())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
       st.lists(st.tuples(st.integers(0, 299), st.sampled_from(
           ["avg_rainfall", "urea", "tsp", "dap", "mp"])), max_size=6),
       st.lists(st.tuples(st.integers(0, 299), st.sampled_from(
           [1900, 2 ** 31, 2 ** 62, 2 ** 63 - 2])), max_size=4),
       st.lists(st.tuples(st.integers(0, 299), st.sampled_from(
           [10 ** 400, 2 ** 63 - 1])), min_size=1, max_size=3))
def test_records_round_trip_every_row(tmp_path_factory, seed, n, zeros,
                                      years, coded_years):
    generated = synthgen.generate(synthgen.GenConfig(n_records=n, seed=seed))
    _assert_rows_round_trip(generated)
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    write_csv(generated, path)
    lines = path.read_text(encoding="utf-8").splitlines()

    def load_edited(edits):
        for row, field, text in edits:
            fields = lines[1 + row % n].split(",")
            fields[field] = text
            lines[1 + row % n] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ingest.load_csv(path)

    # the written CSV with some cells set to -0.0 and some years to large
    # valid ones, so clean keeps every row
    edits = [(row, CSV_HEADER.index(name), "-0.0") for row, name in zeros]
    edits += [(row, 1, str(year)) for row, year in years]
    cleaned = clean(load_edited(edits))
    assert len(cleaned) == n
    assert np.signbit(cleaned.values).any() == bool(zeros)
    _assert_rows_round_trip(cleaned)
    # years that parse to the codes of `schema.year64`, whose rows clean
    # drops: the rows as parsed round-trip too
    loaded = load_edited([(row, 1, str(year)) for row, year in coded_years])
    assert set(loaded.year.tolist()) & {schema.YEAR_NOT_FINITE,
                                        schema.YEAR_OUT_OF_RANGE}
    _assert_rows_round_trip(loaded)
