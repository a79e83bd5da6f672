import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agroyield import ingest, schema, synthgen
from agroyield.schema import LAND_FRAC_COLUMNS, SOIL_FRAC_COLUMNS, Crop, District
from agroyield.synthgen import CropResponse, GenConfig, generate, load_responses
from helpers import make_record, record_value
from test_schema import valid_records


def unit_response(**over):
    fields = dict(
        base_yield=3.0,
        opt_rainfall=2385.0, width_rainfall=800.0,
        opt_max_temp=34.0, width_max_temp=6.0,
        opt_humidity=71.0, width_humidity=10.0,
        fertilizer_coeffs=(0.2, 0.1, 0.1, 0.05),
        fertilizer_scales=(30000.0, 9000.0, 4000.0, 3000.0),
        soil_weights=(1.0,) * 19,
        land_weights=(1.0,) * 6,
    )
    fields.update(over)
    return CropResponse(**fields)


NO_FERTILIZER = dict(urea=0.0, tsp=0.0, dap=0.0, mp=0.0)


def oracle(response, *records):
    """The noise-free yields of `records` under `response`, in t/ha, from
    `synthgen._oracle` on their rows."""
    return synthgen._oracle(np.array([r.values for r in records]),
                            np.zeros(len(records), dtype=int), [response])


def crop_oracle(dataset, responses):
    """The noise-free yield of each row of `dataset` under its crop's
    response, as `generate` draws it."""
    return synthgen._oracle(dataset.values, dataset.crop,
                            [responses[c] for c in Crop])


class TestGroundTruthYield:
    def test_at_optima_with_unit_suitability_gives_base_yield(self):
        record = make_record(**NO_FERTILIZER)
        assert oracle(unit_response(), record)[0] == pytest.approx(3.0)

    def test_one_width_off_optimum_scales_by_exp_minus_one(self):
        resp = unit_response()
        record = make_record(**NO_FERTILIZER)
        shifted = make_record(**NO_FERTILIZER,
                              avg_rainfall=2385.0 + resp.width_rainfall)
        shifted_yield, optimal_yield = oracle(resp, shifted, record)
        assert shifted_yield / optimal_yield \
            == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_jute_prefers_high_rainfall_and_humidity(self):
        jute = load_responses()[Crop.Jute]
        wet = make_record(crop=Crop.Jute, avg_rainfall=2350.0, max_temp=33.0,
                          min_temp=15.0, humidity=71.0)
        dry = make_record(crop=Crop.Jute, avg_rainfall=1150.0, max_temp=33.0,
                          min_temp=15.0, humidity=58.0)
        wet_yield, dry_yield = oracle(jute, wet, dry)
        assert wet_yield > dry_yield

    def test_strictly_positive_on_generated_records(self):
        responses = load_responses()
        ds = generate(GenConfig(n_records=300, seed=5))
        assert (crop_oracle(ds, responses) > 0).all()

    def test_fertilizer_response_saturates(self):
        resp = unit_response()
        low = make_record(**{**NO_FERTILIZER, "urea": 1000.0})
        high = make_record(**{**NO_FERTILIZER, "urea": 1e9})
        cap = 3.0 * (1.0 + resp.fertilizer_coeffs[0])
        low_yield, high_yield = oracle(resp, low, high)
        assert low_yield < high_yield <= cap


class TestGenerate:
    def test_coverage_mode_hits_each_triple_once(self):
        ds = generate(GenConfig(n_records=420, seed=7))
        triples = {(r.district, r.year, r.crop) for r in ds.records}
        assert len(ds.records) == 420
        assert len(triples) == 420

    def test_max_temp_in_published_range(self):
        ds = generate(GenConfig(n_records=500, seed=3))
        assert all(22.5 <= record_value(r, "max_temp") <= 35.0
                   for r in ds.records)

    def test_same_seed_byte_identical(self, tmp_path):
        a = generate(GenConfig(n_records=200, seed=9))
        b = generate(GenConfig(n_records=200, seed=9))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        ingest.write_csv(a, pa)
        ingest.write_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_zero_noise_matches_oracle_exactly(self):
        responses = load_responses()
        ds = generate(GenConfig(n_records=100, seed=2, noise_sigma=0.0),
                      responses)
        assert ds.values[:, schema.VALUE_INDEX["yield"]].tolist() \
            == crop_oracle(ds, responses).tolist()

    def test_generated_records_are_valid(self):
        ds = generate(GenConfig(n_records=200, seed=4))
        assert not schema.violations(ds.year, ds.values).any()

    def test_crop_and_district_subsets(self):
        ds = generate(GenConfig(n_records=50, seed=1,
                                districts=(District.Tangail,),
                                crops=(Crop.Jute,)))
        assert all(r.district is District.Tangail for r in ds.records)
        assert all(r.crop is Crop.Jute for r in ds.records)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n_records=0)
        with pytest.raises(ValueError):
            GenConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            GenConfig(years=(2017, 2008))


class TestResponses:
    def test_shipped_presets_cover_all_crops(self):
        responses = load_responses()
        assert set(responses) == set(Crop)
        for resp in responses.values():
            assert resp.base_yield > 0
            assert len(resp.soil_weights) == 19
            assert len(resp.land_weights) == 6
            assert all(0 < w <= 1 for w in resp.soil_weights)
            assert all(0 < w <= 1 for w in resp.land_weights)

    def test_custom_responses_file(self, tmp_path):
        import json
        text = (tmp_path / "r.json")
        src = synthgen.resources.files("agroyield").joinpath("responses.json")
        doc = json.loads(src.read_text())
        doc["Jute"]["base_yield"] = 9.0
        text.write_text(json.dumps(doc))
        responses = load_responses(text)
        assert responses[Crop.Jute].base_yield == 9.0


# ------------------------------------------------------------------------
# The column oracle against the per-record formula it replaced.

def _reference_ground_truth_yield(record, response):
    """The scalar oracle `generate` used per record, with its arithmetic
    and order unchanged; it reads the row's values by name."""
    def bump(x, opt, width):
        z = (x - opt) / width
        return math.exp(-z * z)

    v = dict(zip(schema.VALUE_COLUMNS, record.values))
    g = (
        bump(v["avg_rainfall"], response.opt_rainfall, response.width_rainfall)
        * bump(v["max_temp"], response.opt_max_temp, response.width_max_temp)
        * bump(v["humidity"], response.opt_humidity, response.width_humidity)
    )
    soil = sum(frac * wt for frac, wt
               in zip([v[c] for c in SOIL_FRAC_COLUMNS], response.soil_weights))
    land = sum(frac * wt for frac, wt
               in zip([v[c] for c in LAND_FRAC_COLUMNS], response.land_weights))
    amounts = (v["urea"], v["tsp"], v["dap"], v["mp"])
    fert = 1.0 + sum(
        c * (a / (a + s)) if a > 0 else 0.0
        for c, a, s in zip(response.fertilizer_coeffs, amounts,
                           response.fertilizer_scales)
    )
    return response.base_yield * g * soil * land * fert


@settings(max_examples=200, deadline=None)
@given(valid_records(), st.sampled_from(list(Crop)))
def test_oracle_equals_scalar_reference(record, crop):
    response = load_responses()[crop]
    assert oracle(response, record)[0] \
        == _reference_ground_truth_yield(record, response)


def test_generated_yields_equal_scalar_reference():
    responses = load_responses()
    ds = generate(GenConfig(n_records=600, seed=12, noise_sigma=0.0),
                  responses)
    for r in ds.records:
        expected = _reference_ground_truth_yield(r, responses[r.crop])
        assert record_value(r, "yield") == expected
        assert record_value(r, "production") \
            == expected * record_value(r, "area")


# sha256 of the district, crop, year, values and row bytes of 9,000
# records, which span several `schema.BLOCK_ROWS` blocks, as the generator
# that drew whole matrices made them
GENERATE_9000_SHA256 = \
    "4d301812e6e166c243681606599eca947d2611c567adc29ff8280c179ac1b4a4"


def _digest(ds):
    h = hashlib.sha256()
    for a in (ds.district, ds.crop, ds.year, ds.values, ds.row):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_generate_across_blocks_matches_pin():
    assert _digest(generate(GenConfig(n_records=9000, seed=21))) \
        == GENERATE_9000_SHA256
