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
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import AgroYieldError
from .ingest import Dataset
from .schema import (BLOCK_ROWS, FERTILIZER, INDICATOR_PATTERNS, INDICATORS,
                     LAND, SOIL, VALUE_COLUMNS, VALUE_INDEX, Crop,
                     District, json_number, json_numbers, require_valid,
                     sum_in_order)

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
# the first draws of `generate`, in order: (column, range)
_UNIFORM_DRAWS = (
    ("max_temp", MAX_TEMP_RANGE), ("min_temp", MIN_TEMP_RANGE),
    ("avg_rainfall", RAINFALL_RANGE), ("humidity", HUMIDITY_RANGE),
    *FERTILIZER_RANGES.items())
# the ordinal soil properties, drawn together after the fractions
_ORDINALS = [VALUE_INDEX[f"soil_{name}"] for name in (
    "moisture", "texture", "consistency", "structure", "composition")]


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


def _oracle(values: np.ndarray, which: np.ndarray, table: list) -> np.ndarray:
    """Noise-free yield in t/ha of each row of a `VALUE_COLUMNS` matrix,
    under the response `table[which[i]]`. Each bump is one `math.exp`, and
    sums and products run in the order of the scalar formula, so a row's
    yield does not depend on the rows beside it. Sums take one column at a
    time, so no temporary is wider than a column."""
    def param(name):  # (responses,) or (responses, entries)
        return np.array([getattr(r, name) for r in table], dtype=float)

    def bump(column, key):
        x = values[:, VALUE_INDEX[column]]
        z = (x - param(f"opt_{key}")[which]) / param(f"width_{key}")[which]
        return np.fromiter(map(math.exp, (-z * z).tolist()), float, len(z))

    def weighted(name, columns):
        w = param(name)
        return sum_in_order(v * w[which, j]
                            for j, v in enumerate(values[:, columns].T))

    coeffs, scales = param("fertilizer_coeffs"), param("fertilizer_scales")
    # a / (a + s) is not used where a <= 0; a response file's extreme values
    # may overflow to inf or NaN, which `generate`'s validation reports
    with np.errstate(all="ignore"):
        g = (bump("avg_rainfall", "rainfall") * bump("max_temp", "max_temp")
             * bump("humidity", "humidity"))
        fert = 1.0 + sum_in_order(
            np.where(a > 0, coeffs[which, j] * (a / (a + scales[which, j])),
                     0.0)
            for j, a in enumerate(values[:, FERTILIZER].T))
        return (param("base_yield")[which] * g
                * weighted("soil_weights", SOIL)
                * weighted("land_weights", LAND) * fert)


# list-valued response keys -> required length
_VECTOR_LENGTHS = {"fertilizer_coeffs": 4, "fertilizer_scales": 4,
                   "soil_weights": 19, "land_weights": 6}


def _response_from_dict(d, crop: str) -> CropResponse:
    """One crop's entry; AgroYieldError names a missing or ill-typed key
    or a width that is not > 0 (it divides)."""
    def get(*path):
        node = d
        for depth, key in enumerate(path):
            if not isinstance(node, dict) or key not in node:
                raise AgroYieldError(
                    f"responses for {crop}: missing "
                    f"{'.'.join(path[:depth + 1])}")
            node = node[key]
        return node

    def number(*path):
        return json_number(get(*path),
                           f"responses for {crop}: {'.'.join(path)}")

    def width(key):
        value = number(key, "width")
        if value <= 0:
            raise AgroYieldError(
                f"responses for {crop}: {key}.width must be > 0, got {value}")
        return value

    def vector(key):
        return tuple(json_numbers(get(key), f"responses for {crop}: {key}",
                                  _VECTOR_LENGTHS[key]).tolist())

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
    a missing or ill-typed key raises AgroYieldError.
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
        raise AgroYieldError(
            f"responses file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise AgroYieldError(f"responses file {path} must be a JSON object")
    out = {}
    for crop in Crop:
        if crop.name not in raw:
            raise AgroYieldError(f"responses file missing crop {crop.name}")
        out[crop] = _response_from_dict(raw[crop.name], crop.name)
    return out


def _draw_fractions(rng, out: np.ndarray) -> None:
    """Fill `out` with rows of exponential(1) draws, each divided by its
    row's sum, drawing `BLOCK_ROWS` rows at a time: the same draws and
    quotients as one draw of the whole matrix, without its copy."""
    for start in range(0, len(out), BLOCK_ROWS):
        block = out[start:start + BLOCK_ROWS]
        raw = rng.exponential(1.0, block.shape)
        np.divide(raw, raw.sum(axis=1, keepdims=True), out=block)


def generate(cfg: GenConfig, responses: dict | None = None) -> Dataset:
    """Generate a deterministic synthetic dataset.

    Records cycle through the (district, year, crop) triples in
    enumeration order, so n = |districts| * |years| * |crops| covers each
    triple exactly once. Every row is validated once; AgroYieldError names
    the violations of the first invalid one.
    """
    if responses is None:
        responses = load_responses()
    n = cfg.n_records
    values = np.empty((n, len(VALUE_COLUMNS)))
    # Each draw goes into its columns at once, in the order that fixes the
    # data: weather, fertilizer, fractions, ordinals, reaction, area, noise.
    rng = np.random.default_rng(cfg.seed)
    for column, (lo, hi) in _UNIFORM_DRAWS:
        values[:, VALUE_INDEX[column]] = rng.uniform(lo, hi, n)
    for columns in (LAND, SOIL):
        _draw_fractions(rng, values[:, columns])
    values[:, _ORDINALS] = rng.integers(1, 6, (n, len(_ORDINALS)))
    values[:, VALUE_INDEX["soil_reaction"]] = rng.uniform(*REACTION_RANGE, n)
    values[:, VALUE_INDEX["area"]] = rng.uniform(*AREA_RANGE, n)

    years = range(cfg.years[0], cfg.years[1] + 1)
    triples = np.array([(d.value, y, k) for d in cfg.districts for y in years
                        for k in range(len(cfg.crops))], dtype=np.int64)
    district, year, which = triples[np.arange(n) % len(triples)].T
    values[:, INDICATORS] = INDICATOR_PATTERNS[district]
    y = _oracle(values, which, [responses[c] for c in cfg.crops])
    with np.errstate(over="ignore"):  # an inf is reported below
        if cfg.noise_sigma > 0:
            y *= np.maximum(0.01,
                            1.0 + cfg.noise_sigma * rng.standard_normal(n))
        values[:, VALUE_INDEX["production"]] = (
            y * values[:, VALUE_INDEX["area"]])
    values[:, VALUE_INDEX["yield"]] = y
    # a custom response can give a negative or non-finite yield
    require_valid(year, values)
    crop = np.array([c.value for c in cfg.crops])[which]
    return Dataset(district, crop, year, values, np.arange(n),
                   source=f"synthgen(seed={cfg.seed})")
