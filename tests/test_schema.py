import math

import pytest
from hypothesis import given, strategies as st

from agroyield import schema
from agroyield.errors import InvalidRecord
from agroyield.schema import (
    Crop,
    District,
    Fertilizer,
    LandType,
    SoilProperty,
    SoilType,
    Weather,
    decode_district,
    encode_district,
    encode_features,
    parse_crop,
    parse_district,
    schema_columns,
    validate_record,
)
from helpers import make_record


class TestEnums:
    def test_member_counts(self):
        assert len(District) == 7
        assert len(Crop) == 6
        assert len(LandType) == 6
        assert len(SoilType) == 19

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
        assert validate_record(make_record()) == []

    def test_humidity_out_of_range(self):
        r = make_record(weather=Weather(2385.0, 34.0, 12.0, 150.0))
        violations = validate_record(r)
        assert any("humidity" in v for v in violations)

    def test_land_fraction_sum(self):
        r = make_record(land_fractions=(0.8, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert any("land_fractions sum" in v for v in validate_record(r))

    def test_reports_every_violation(self):
        r = make_record(
            weather=Weather(2385.0, 20.0, 30.0, 150.0),
            land_fractions=(0.8, 0.0, 0.0, 0.0, 0.0, 0.0),
        )
        violations = validate_record(r)
        assert len(violations) >= 3

    def test_yield_production_consistency(self):
        r = make_record(area=100.0, production=500.0, yield_t_ha=2.0)
        assert any("inconsistent" in v for v in validate_record(r))

    @pytest.mark.parametrize("year", [10 ** 400, -10 ** 400],
                             ids=["huge", "huge-negative"])
    def test_year_beyond_float_range_is_a_violation(self, year):
        r = make_record(year=year)
        assert validate_record(r)[0] == "year not finite"
        with pytest.raises(InvalidRecord):
            encode_features(r)


class TestEncodeFeatures:
    def test_dhaka_reference_level_all_zero(self):
        fv = encode_features(make_record(district=District.Dhaka))
        assert fv[-5:] == (0.0,) * 5

    def test_land_fractions_copied(self):
        fv = encode_features(make_record())
        cols = schema_columns()
        start = cols.index("land_frac_highland")
        assert fv[start:start + 6] == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_table1_values_verbatim(self):
        r = make_record()
        fv = encode_features(r)
        cols = schema_columns()
        assert fv[cols.index("avg_rainfall")] == 2385.0
        assert fv[cols.index("humidity")] == 71.0
        assert fv[cols.index("urea")] == 25967.0
        assert fv[cols.index("tsp")] == 8262.0
        assert fv[cols.index("dap")] == 1573.0

    def test_invalid_record_raises(self):
        r = make_record(weather=Weather(2385.0, 34.0, 12.0, 150.0))
        with pytest.raises(InvalidRecord):
            encode_features(r)

    def test_column_names_match_schema(self):
        fv = encode_features(make_record())
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
        weather=Weather(
            avg_rainfall=draw(st.floats(0.0, 5000.0)),
            max_temp=max_temp, min_temp=min_temp,
            humidity=draw(st.floats(0.0, 100.0)),
        ),
        fertilizer=Fertilizer(*(draw(st.floats(0.0, 1e5)) for _ in range(4))),
        land_fractions=land, soil_fractions=soil,
        soil_props=SoilProperty(
            moisture=float(draw(st.integers(1, 5))),
            texture=float(draw(st.integers(1, 5))),
            consistency=float(draw(st.integers(1, 5))),
            reaction=draw(st.floats(3.0, 10.0)),
            structure=float(draw(st.integers(1, 5))),
            composition=float(draw(st.integers(1, 5))),
        ),
        area=area, yield_t_ha=yield_t_ha,
    )


class TestProperties:
    @given(valid_records())
    def test_encoding_length_and_finiteness(self, record):
        fv = encode_features(record)
        assert len(fv) == 46
        assert all(math.isfinite(v) for v in fv)

    @given(valid_records())
    def test_district_round_trip_through_features(self, record):
        fv = encode_features(record)
        assert decode_district(fv[-5:]) is record.district

    @given(valid_records(), st.sampled_from(list(District)))
    def test_district_injectivity(self, record, other_district):
        if other_district is record.district:
            return
        changed = make_record(
            district=other_district, crop=record.crop, year=record.year,
            weather=record.weather, fertilizer=record.fertilizer,
            land_fractions=record.land_fractions,
            soil_fractions=record.soil_fractions,
            soil_props=record.soil_props, area=record.area,
            yield_t_ha=record.yield_t_ha,
        )
        assert encode_features(changed) != encode_features(record)
