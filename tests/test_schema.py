import errno
import math
import os
import stat
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from agroyield import ingest, schema
from agroyield.errors import AgroYieldError
from agroyield.schema import (
    LAND_FRAC_COLUMNS,
    SOIL_FRAC_COLUMNS,
    AgroRecord,
    Crop,
    District,
    encode_district,
    parse_crop,
    parse_district,
    schema_columns,
)
from helpers import dataset_of, make_record


def messages(record) -> list:
    """The invariants `record` violates, as `schema.violations` finds them."""
    ds = dataset_of([record])
    return schema.violation_messages(schema.violations(ds.year, ds.values)[0])


def features(record) -> tuple:
    """`record`'s 46 feature values, as `ingest.feature_matrix` encodes them."""
    return tuple(ingest.feature_matrix([record.year],
                                       [record.values])[0].tolist())


def decode_district(indicators) -> District:
    """The district of five indicator values, by the rule the schema
    documents: no ones is Dhaka, five are Narsingdi, one is that district."""
    ones = [i for i, v in enumerate(indicators) if v == 1.0]
    if len(ones) == 0:
        return District.Dhaka
    if len(ones) == 5:
        return District.Narsingdi
    assert len(ones) == 1, indicators
    return [d for d in District
            if d not in (District.Dhaka, District.Narsingdi)][ones[0]]


class TestEnums:
    def test_member_counts(self):
        assert len(District) == 7
        assert len(Crop) == 6
        assert len(LAND_FRAC_COLUMNS) == 6
        assert len(SOIL_FRAC_COLUMNS) == 19

    def test_district_parse_case_insensitive(self):
        assert parse_district("dhaka") is District.Dhaka
        assert parse_district("TANGAIL") is District.Tangail
        assert parse_district("Kishoregonj") is District.Kishoregonj

    def test_unknown_district_is_hard_error(self):
        with pytest.raises(ValueError):
            parse_district("atlantis")

    def test_crop_parse(self):
        assert parse_crop("ausrice") is Crop.AusRice
        assert parse_crop("aus_rice") is Crop.AusRice
        assert parse_crop("Jute") is Crop.Jute


class TestSchemaColumns:
    def test_exactly_46_labels(self):
        assert len(schema_columns()) == 46

    def test_stable_across_calls(self):
        assert schema_columns() == schema_columns()

    def test_first_label_is_year(self):
        assert schema_columns()[0] == "year"

    def test_fertilizer_labels_at_positions_6_to_9(self):
        assert schema_columns()[5:9] == ("urea", "tsp", "dap", "mp")

    def test_composition_counts(self):
        cols = schema_columns()
        assert sum(c.startswith("land_frac_") for c in cols) == 6
        assert sum(c.startswith("soil_frac_") for c in cols) == 19
        assert sum(c.startswith("district_") for c in cols) == 5


class TestValidateRecord:
    def test_valid_record_ok(self):
        assert messages(make_record()) == []

    def test_humidity_out_of_range(self):
        r = make_record(humidity=150.0)
        assert any("humidity" in v for v in messages(r))

    def test_land_fraction_sum(self):
        r = make_record(land_frac_highland=0.8)
        assert any("land_fractions sum" in v for v in messages(r))

    def test_reports_every_violation(self):
        r = make_record(max_temp=20.0, min_temp=30.0, humidity=150.0,
                        land_frac_highland=0.8)
        assert len(messages(r)) >= 3

    def test_yield_production_consistency(self):
        r = make_record(area=100.0, production=500.0, yield_t_ha=2.0)
        assert any("inconsistent" in v for v in messages(r))

    @pytest.mark.parametrize("year", [10 ** 400, -10 ** 400],
                             ids=["huge", "huge-negative"])
    def test_year_beyond_float_range_is_a_violation(self, year):
        r = make_record(year=year)
        assert messages(r)[0] == "year not finite"
        ds = dataset_of([r])
        with pytest.raises(AgroYieldError, match="^year not finite$"):
            schema.require_valid(ds.year, ds.values)


class TestEncodeFeatures:
    def test_dhaka_reference_level_all_zero(self):
        fv = features(make_record(district=District.Dhaka))
        assert fv[-5:] == (0.0,) * 5

    def test_land_fractions_copied(self):
        fv = features(make_record())
        cols = schema_columns()
        start = cols.index("land_frac_highland")
        assert fv[start:start + 6] == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_table1_values_verbatim(self):
        fv = features(make_record())
        cols = schema_columns()
        assert fv[cols.index("avg_rainfall")] == 2385.0
        assert fv[cols.index("humidity")] == 71.0
        assert fv[cols.index("urea")] == 25967.0
        assert fv[cols.index("tsp")] == 8262.0
        assert fv[cols.index("dap")] == 1573.0

    def test_invalid_record_raises(self):
        # an invalid row is stopped where data enters, before any encoding
        ds = dataset_of([make_record(humidity=150.0)])
        with pytest.raises(AgroYieldError,
                           match=r"^humidity out of \[0,100\]$"):
            schema.require_valid(ds.year, ds.values)
        cleaned = ingest.clean(ds)
        assert len(cleaned) == 0
        assert cleaned.cleaning_log == [(0, "humidity out of [0,100]")]

    def test_column_names_match_schema(self):
        fv = features(make_record())
        assert len(fv) == len(schema_columns())


class TestDistrictEncoding:
    @pytest.mark.parametrize("district", list(District))
    def test_round_trip(self, district):
        assert decode_district(encode_district(district)) is district

    def test_patterns_distinct(self):
        patterns = {encode_district(d) for d in District}
        assert len(patterns) == 7


@st.composite
def valid_records(draw):
    district = draw(st.sampled_from(list(District)))
    crop = draw(st.sampled_from(list(Crop)))
    year = draw(st.integers(1900, 2100))
    min_temp = draw(st.floats(5.0, 24.0))
    max_temp = draw(st.floats(min_temp + 0.5, 45.0))
    land_raw = draw(st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6))
    soil_raw = draw(st.lists(st.floats(0.01, 1.0), min_size=19, max_size=19))
    land = tuple(x / sum(land_raw) for x in land_raw)
    soil = tuple(x / sum(soil_raw) for x in soil_raw)
    yield_t_ha = draw(st.floats(0.1, 30.0))
    area = draw(st.floats(1.0, 1e5))
    return make_record(
        district=district, crop=crop, year=year,
        avg_rainfall=draw(st.floats(0.0, 5000.0)),
        max_temp=max_temp, min_temp=min_temp,
        humidity=draw(st.floats(0.0, 100.0)),
        **{name: draw(st.floats(0.0, 1e5))
           for name in ("urea", "tsp", "dap", "mp")},
        **dict(zip(LAND_FRAC_COLUMNS, land)),
        **dict(zip(SOIL_FRAC_COLUMNS, soil)),
        soil_moisture=float(draw(st.integers(1, 5))),
        soil_texture=float(draw(st.integers(1, 5))),
        soil_consistency=float(draw(st.integers(1, 5))),
        soil_reaction=draw(st.floats(3.0, 10.0)),
        soil_structure=float(draw(st.integers(1, 5))),
        soil_composition=float(draw(st.integers(1, 5))),
        area=area, yield_t_ha=yield_t_ha,
    )


class TestProperties:
    @given(valid_records())
    def test_encoding_length_and_finiteness(self, record):
        fv = features(record)
        assert len(fv) == 46
        assert all(math.isfinite(v) for v in fv)

    @given(valid_records())
    def test_district_round_trip_through_features(self, record):
        fv = features(record)
        assert decode_district(fv[-5:]) is record.district

    @given(valid_records(), st.sampled_from(list(District)))
    def test_district_injectivity(self, record, other_district):
        if other_district is record.district:
            return
        values = list(record.values)
        values[schema.INDICATORS] = encode_district(other_district)
        changed = replace(record, district=other_district,
                          values=tuple(values))
        assert features(changed) != features(record)


# ------------------------------------------------------------------------
# The column validator against the scalar validator it replaced.

def _reference_validate_record(record):
    """The per-record validator the rule table replaced, with its checks,
    arithmetic and order unchanged; it reads the row's values by name."""
    value = dict(zip(schema.VALUE_COLUMNS, record.values))
    land_fractions = [value[c] for c in LAND_FRAC_COLUMNS]
    soil_fractions = [value[c] for c in SOIL_FRAC_COLUMNS]
    v = []
    if not -sys.float_info.max <= record.year <= sys.float_info.max:
        v.append("year not finite")
    for name in ("avg_rainfall", "max_temp", "min_temp", "humidity",
                 "urea", "tsp", "dap", "mp", "area", "production", "yield"):
        if not math.isfinite(value[name]):
            v.append(f"{name} not finite")
    if any(not math.isfinite(x) for x in land_fractions):
        v.append("land_fractions not finite")
    if any(not math.isfinite(x) for x in soil_fractions):
        v.append("soil_fractions not finite")
    if v:
        return v

    if record.year < 1900:
        v.append("year < 1900")
    if not value["min_temp"] < value["max_temp"]:
        v.append("min_temp < max_temp violated")
    if not 0.0 <= value["humidity"] <= 100.0:
        v.append("humidity out of [0,100]")
    if value["avg_rainfall"] < 0:
        v.append("avg_rainfall < 0")
    for name in ("urea", "tsp", "dap", "mp"):
        if value[name] < 0:
            v.append(f"{name} < 0")
    if len(land_fractions) != 6:
        v.append("land_fractions length != 6")
    elif min(land_fractions) < 0:
        v.append("land_fractions has negative entry")
    elif abs(sum(land_fractions) - 1.0) > schema.FRACTION_SUM_TOL:
        v.append("land_fractions sum != 1")
    if len(soil_fractions) != 19:
        v.append("soil_fractions length != 19")
    elif min(soil_fractions) < 0:
        v.append("soil_fractions has negative entry")
    elif abs(sum(soil_fractions) - 1.0) > schema.FRACTION_SUM_TOL:
        v.append("soil_fractions sum != 1")
    for name in ("moisture", "texture", "consistency", "structure", "composition"):
        val = value[f"soil_{name}"]
        if not 1.0 <= val <= 5.0:
            v.append(f"soil {name} out of [1,5]")
    if not 3.0 <= value["soil_reaction"] <= 10.0:
        v.append("soil reaction out of [3,10]")
    if value["area"] < 0:
        v.append("area < 0")
    if value["production"] < 0:
        v.append("production < 0")
    if value["yield"] < 0:
        v.append("yield < 0")
    if value["area"] > 0:
        implied = value["production"] / value["area"]
        tol = schema.YIELD_CONSISTENCY_TOL * max(1.0, value["yield"])
        if abs(value["yield"] - implied) > tol:
            v.append("yield inconsistent with production/area")
    return v


_EDGE_VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 3.0, 5.0,
                10.0, 100.0, -1.0, 0.5, 1e-300, 1e300)
# years the two validators agree on; 2**63 - 1 and up differ (see below)
_YEARS = st.one_of(st.integers(1800, 2100),
                   st.sampled_from([1899, 1900, 10 ** 400, -10 ** 400,
                                    -2 ** 70, -2 ** 63, 2 ** 62]))


@st.composite
def edgy_records(draw):
    """A valid record with a few values replaced by edge cases, production
    maybe a little off yield * area, and maybe a fraction group shifted to
    sum to about 1 +- 1e-9. The indicators follow the district, whatever
    edge values were drawn for them."""
    base = draw(valid_records())
    values = list(base.values)
    for j in draw(st.lists(st.integers(0, 46), max_size=5)):
        values[j] = draw(st.one_of(st.sampled_from(_EDGE_VALUES),
                                   st.floats(), st.floats(-200.0, 200.0)))
    # production off yield * area by a relative 0 .. 2e-6, around the tolerance
    values[45] *= draw(st.sampled_from([1.0, 1 + 5e-7, 1 + 2e-6, 1 - 2e-6]))
    group = draw(st.sampled_from([None, schema.LAND, schema.SOIL]))
    if group is not None:
        values[group.start] += draw(st.sampled_from(
            [1e-9, -1e-9, 0.9e-9, -0.9e-9, 1.1e-9, -1.1e-9]))
    values[schema.INDICATORS] = encode_district(base.district)
    return AgroRecord(base.district, draw(_YEARS), base.crop, tuple(values))


@settings(max_examples=500, deadline=None)
@given(edgy_records())
def test_validate_record_matches_scalar_reference(record):
    assert messages(record) == _reference_validate_record(record)


@settings(max_examples=100, deadline=None)
@given(st.lists(edgy_records(), max_size=12),
       st.sampled_from([1, 2, 5, schema.BLOCK_ROWS]))
def test_column_violations_match_scalar_reference_per_row(records, rows):
    ds = dataset_of(records)
    with mock.patch.object(schema, "BLOCK_ROWS", rows):  # rows per block
        mask = schema.violations(ds.year, ds.values)
    assert mask.shape[0] == len(records)
    assert [schema.violation_messages(row) for row in mask] \
        == [_reference_validate_record(r) for r in records]


@pytest.mark.parametrize("year", [2 ** 63 - 1, 2 ** 63, 10 ** 300])
def test_year_beyond_int64_is_out_of_range(year):
    # the year column is int64; the scalar validator accepted these years
    assert _reference_validate_record(make_record(year=year)) == []
    assert messages(make_record(year=year)) == ["year out of range"]


class TestWriteText:
    """`schema.write_file` makes a regular file appear whole, through a
    temporary file in its directory, and writes any other target in
    place."""

    def test_a_new_and_an_old_file_are_written_whole(self, tmp_path):
        path = tmp_path / "a.json"
        schema.write_file(path, [b"first\n"])
        schema.write_file(path, [b"sec", b"ond\n"])
        assert path.read_bytes() == b"second\n"
        assert os.listdir(tmp_path) == ["a.json"]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_a_failed_rename_keeps_the_old_bytes(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "a.json"
        path.write_bytes(b"old")

        def full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full)
        with pytest.raises(OSError, match="No space left"):
            schema.write_file(path, [b"new"])
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["a.json"]

    def test_an_interrupted_write_leaves_no_part_file(self, tmp_path,
                                                      monkeypatch):
        made = []

        def interrupted(fd, mode):
            made.extend(os.listdir(tmp_path))  # the part file, made
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "fchmod", interrupted)
        with pytest.raises(KeyboardInterrupt):
            schema.write_file(tmp_path / "a.json", [b"text"])
        assert len(made) == 1 and made[0].startswith(".a.json.")
        assert os.listdir(tmp_path) == []

    def test_a_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(b"old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        schema.write_file(link, [b"new"])
        assert link.is_symlink() and target.read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]

    def test_stdout_is_written_in_place(self, capfd):
        schema.write_file("/dev/stdout", [b"to ", b"stdout\n"])
        assert capfd.readouterr().out == "to stdout\n"
