"""Seeded synthetic dataset generator with an analytic ground-truth yield.

Value ranges are calibrated to the published district data: annual max
temperature in [22.5, 35] C, min temperature in [10, 22] C, annual
rainfall on the order of 1100-2400 mm, humidity 55-72 %, and fertilizer
tonnage spans matching the sample rows (urea roughly 25k-38k t). The
ground-truth yield function is a product of Gaussian suitability bumps,
soil/land suitability dot products, and a saturating fertilizer response,
so every experiment has an exact noise-free oracle.

The shipped per-crop response presets are synthetic, chosen to reproduce
qualitative orderings (jute favors high rainfall and humidity); they are
not estimates of any real crop physiology.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .errors import MalformedConfig
from .ingest import Dataset
from .schema import AgroRecord, Crop, District, Fertilizer, SoilProperty, Weather

MAX_TEMP_RANGE = (22.5, 35.0)
MIN_TEMP_RANGE = (10.0, 22.0)
RAINFALL_RANGE = (1100.0, 2400.0)
HUMIDITY_RANGE = (55.0, 72.0)
FERTILIZER_RANGES = {
    "urea": (25000.0, 38000.0),
    "tsp": (8000.0, 10000.0),
    "dap": (1500.0, 6000.0),
    "mp": (1000.0, 5000.0),  # span not documented in the source tables
}
AREA_RANGE = (1000.0, 50000.0)
REACTION_RANGE = (4.5, 8.5)


@dataclass(frozen=True)
class GenConfig:
    n_records: int = 10000
    seed: int = 0
    years: tuple = (2008, 2017)  # inclusive
    noise_sigma: float = 0.05    # relative, multiplicative
    districts: tuple = tuple(District)
    crops: tuple = tuple(Crop)

    def __post_init__(self):
        if self.n_records < 1:
            raise ValueError("n_records must be >= 1")
        if self.years[1] < self.years[0]:
            raise ValueError("years range is empty")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class CropResponse:
    base_yield: float                 # t/ha at all optima with unit suitability
    opt_rainfall: float
    width_rainfall: float
    opt_max_temp: float
    width_max_temp: float
    opt_humidity: float
    width_humidity: float
    fertilizer_coeffs: tuple          # 4 response coefficients
    fertilizer_scales: tuple          # 4 half-saturation constants, tons
    soil_weights: tuple               # 19 suitability weights in (0, 1]
    land_weights: tuple               # 6 suitability weights in (0, 1]


def _bump(x: float, opt: float, width: float) -> float:
    z = (x - opt) / width
    return math.exp(-z * z)


def ground_truth_yield(record: AgroRecord, response: CropResponse) -> float:
    """Noise-free yield in t/ha for a record under a crop response."""
    w, f = record.weather, record.fertilizer
    g = (
        _bump(w.avg_rainfall, response.opt_rainfall, response.width_rainfall)
        * _bump(w.max_temp, response.opt_max_temp, response.width_max_temp)
        * _bump(w.humidity, response.opt_humidity, response.width_humidity)
    )
    soil = sum(frac * wt for frac, wt
               in zip(record.soil_fractions, response.soil_weights))
    land = sum(frac * wt for frac, wt
               in zip(record.land_fractions, response.land_weights))
    amounts = (f.urea, f.tsp, f.dap, f.mp)
    fert = 1.0 + sum(
        c * (a / (a + s)) if a > 0 else 0.0
        for c, a, s in zip(response.fertilizer_coeffs, amounts,
                           response.fertilizer_scales)
    )
    return response.base_yield * g * soil * land * fert


# list-valued response keys -> required length
_VECTOR_LENGTHS = {"fertilizer_coeffs": 4, "fertilizer_scales": 4,
                   "soil_weights": 19, "land_weights": 6}


def _number(value, name: str) -> float:
    """`value` as a float; MalformedConfig unless it is a finite number."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise MalformedConfig(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _response_from_dict(d, crop: str) -> CropResponse:
    """One crop's entry; MalformedConfig names a missing or ill-typed key
    or a width that is not > 0 (it divides)."""
    def get(*path):
        node = d
        for depth, key in enumerate(path):
            if not isinstance(node, dict) or key not in node:
                raise MalformedConfig(
                    f"responses for {crop}: missing "
                    f"{'.'.join(path[:depth + 1])}")
            node = node[key]
        return node

    def number(*path):
        return _number(get(*path), f"responses for {crop}: {'.'.join(path)}")

    def width(key):
        value = number(key, "width")
        if value <= 0:
            raise MalformedConfig(
                f"responses for {crop}: {key}.width must be > 0, got {value}")
        return value

    def vector(key):
        value = get(key)
        length = _VECTOR_LENGTHS[key]
        if not isinstance(value, list) or len(value) != length:
            raise MalformedConfig(
                f"responses for {crop}: {key} must be a list of "
                f"{length} numbers")
        for i, item in enumerate(value):
            _number(item, f"responses for {crop}: {key}[{i}]")
        return tuple(value)

    return CropResponse(
        base_yield=number("base_yield"),
        opt_rainfall=number("rainfall", "opt"),
        width_rainfall=width("rainfall"),
        opt_max_temp=number("max_temp", "opt"),
        width_max_temp=width("max_temp"),
        opt_humidity=number("humidity", "opt"),
        width_humidity=width("humidity"),
        fertilizer_coeffs=vector("fertilizer_coeffs"),
        fertilizer_scales=vector("fertilizer_scales"),
        soil_weights=vector("soil_weights"),
        land_weights=vector("land_weights"),
    )


def load_responses(path=None) -> dict:
    """Load per-crop responses; defaults to the shipped presets.

    A document that is not valid JSON, not an object, lacks a crop or has
    a missing or ill-typed key raises MalformedConfig.
    """
    try:
        if path is None:
            text = resources.files("agroyield").joinpath(
                "responses.json").read_text()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad bytes, JSON or nesting
        raise MalformedConfig(
            f"responses file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedConfig(f"responses file {path} must be a JSON object")
    out = {}
    for crop in Crop:
        if crop.name not in raw:
            raise MalformedConfig(f"responses file missing crop {crop.name}")
        out[crop] = _response_from_dict(raw[crop.name], crop.name)
    return out


def generate(cfg: GenConfig, responses: dict | None = None) -> Dataset:
    """Generate a deterministic synthetic dataset.

    Records cycle through the (district, year, crop) triples in
    enumeration order, so n = |districts| * |years| * |crops| covers each
    triple exactly once.
    """
    if responses is None:
        responses = load_responses()
    rng = np.random.default_rng(cfg.seed)
    years = range(cfg.years[0], cfg.years[1] + 1)
    triples = [(d, y, c) for d in cfg.districts for y in years for c in cfg.crops]

    n = cfg.n_records
    max_temp = rng.uniform(*MAX_TEMP_RANGE, n)
    min_temp = rng.uniform(*MIN_TEMP_RANGE, n)
    rainfall = rng.uniform(*RAINFALL_RANGE, n)
    humidity = rng.uniform(*HUMIDITY_RANGE, n)
    fert = {k: rng.uniform(lo, hi, n) for k, (lo, hi) in FERTILIZER_RANGES.items()}
    land_raw = rng.exponential(1.0, (n, 6))
    soil_raw = rng.exponential(1.0, (n, 19))
    ordinals = rng.integers(1, 6, (n, 5)).astype(float)
    reaction = rng.uniform(*REACTION_RANGE, n)
    area = rng.uniform(*AREA_RANGE, n)
    noise = rng.standard_normal(n)

    land_fracs = land_raw / land_raw.sum(axis=1, keepdims=True)
    soil_fracs = soil_raw / soil_raw.sum(axis=1, keepdims=True)

    records = []
    for i in range(n):
        district, year, crop = triples[i % len(triples)]
        record = AgroRecord(
            district=district,
            year=year,
            crop=crop,
            weather=Weather(
                avg_rainfall=float(rainfall[i]),
                max_temp=float(max_temp[i]),
                min_temp=float(min_temp[i]),
                humidity=float(humidity[i]),
            ),
            fertilizer=Fertilizer(
                urea=float(fert["urea"][i]),
                tsp=float(fert["tsp"][i]),
                dap=float(fert["dap"][i]),
                mp=float(fert["mp"][i]),
            ),
            land_fractions=tuple(float(x) for x in land_fracs[i]),
            soil_fractions=tuple(float(x) for x in soil_fracs[i]),
            soil_props=SoilProperty(
                moisture=float(ordinals[i, 0]),
                texture=float(ordinals[i, 1]),
                consistency=float(ordinals[i, 2]),
                reaction=float(reaction[i]),
                structure=float(ordinals[i, 3]),
                composition=float(ordinals[i, 4]),
            ),
            area=0.0, production=0.0, yield_t_ha=0.0,
        )
        gt = ground_truth_yield(record, responses[crop])
        factor = max(0.01, 1.0 + cfg.noise_sigma * float(noise[i]))
        y = gt * factor if cfg.noise_sigma > 0 else gt
        a = float(area[i])
        records.append(replace(record, area=a, production=y * a, yield_t_ha=y))
    return Dataset(records=records, source=f"synthgen(seed={cfg.seed})")
