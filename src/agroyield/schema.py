"""Canonical 46-column feature schema for district-year-crop records.

Column composition (46 total):
    year(1) + weather(4) + fertilizer(4) + land fractions(6)
    + soil fractions(19) + soil properties(6) + area(1)
    + district indicators(5)

District encoding uses 5 indicator columns for 7 districts: Dhaka (the
first member) is the dropped all-zero reference, Narsingdi (the last
member) folds to the all-ones pattern, and the remaining five districts
are ordinary one-hot. Decoding is unambiguous: zero ones = Dhaka, five
ones = Narsingdi, exactly one = that district.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidRecord

FRACTION_SUM_TOL = 1e-9
YIELD_CONSISTENCY_TOL = 1e-6


class District(Enum):
    Dhaka = 0
    Gazipur = 1
    Mymensingh = 2
    Narayanganj = 3
    Tangail = 4
    Kishoregonj = 5
    Narsingdi = 6


class Crop(Enum):
    AusRice = 0
    AmanRice = 1
    BoroRice = 2
    Wheat = 3
    Potato = 4
    Jute = 5


class LandType(Enum):
    Highland = 0
    MediumHighland = 1
    MediumLowland = 2
    Lowland = 3
    VeryLowland = 4
    Miscellaneous = 5


class SoilType(Enum):
    CalcareousAlluvium = 0
    NoncalcareousAlluvium = 1
    AcidBasinClay = 2
    CalcareousBrownFloodplain = 3
    CalcareousGreyFloodplain = 4
    CalcareousDarkGreyFloodplain = 5
    NoncalcareousGreyFloodplain = 6
    NoncalcareousDarkGreyFloodplain = 7
    Peat = 8
    MadeLand = 9
    NoncalcareousBrownFloodplain = 10
    ShallowRedBrownTerrace = 11
    DeepRedBrownTerrace = 12
    BrownMottledTerrace = 13
    ShallowGreyTerrace = 14
    DeepGreyTerrace = 15
    GreyValley = 16
    AcidSulphateSoil = 17
    BrownHillSoil = 18


def _parse_enum(cls, name: str):
    key = name.strip().lower().replace(" ", "").replace("_", "").replace("-", "")
    for member in cls:
        if member.name.lower() == key:
            return member
    raise ValueError(f"unknown {cls.__name__}: {name!r}")


def parse_district(name: str) -> District:
    return _parse_enum(District, name)


def parse_crop(name: str) -> Crop:
    return _parse_enum(Crop, name)


CROP_DISPLAY_NAMES = {
    Crop.AusRice: "Aus rice",
    Crop.AmanRice: "Aman rice",
    Crop.BoroRice: "Boro rice",
    Crop.Wheat: "Wheat",
    Crop.Potato: "Potato",
    Crop.Jute: "Jute",
}


@dataclass(frozen=True)
class Weather:
    avg_rainfall: float  # annual mm
    max_temp: float      # deg C
    min_temp: float      # deg C
    humidity: float      # percent


@dataclass(frozen=True)
class Fertilizer:
    urea: float  # metric tons applied
    tsp: float
    dap: float
    mp: float


@dataclass(frozen=True)
class SoilProperty:
    moisture: float      # ordinal 1-5
    texture: float       # ordinal 1-5
    consistency: float   # ordinal 1-5
    reaction: float      # pH-like, [3.0, 10.0]
    structure: float     # ordinal 1-5
    composition: float   # ordinal 1-5


@dataclass(frozen=True)
class AgroRecord:
    district: District
    year: int
    crop: Crop
    weather: Weather
    fertilizer: Fertilizer
    land_fractions: tuple  # 6 reals summing to 1
    soil_fractions: tuple  # 19 reals summing to 1
    soil_props: SoilProperty
    area: float            # hectares
    production: float      # metric tons
    yield_t_ha: float      # metric tons / hectare (target)


_WEATHER_COLUMNS = ("avg_rainfall", "max_temp", "min_temp", "humidity")
_FERTILIZER_COLUMNS = ("urea", "tsp", "dap", "mp")
_SOIL_PROP_COLUMNS = (
    "soil_moisture",
    "soil_texture",
    "soil_consistency",
    "soil_reaction",
    "soil_structure",
    "soil_composition",
)

# Districts carried as indicator columns (drop-first, fold-last).
_INDICATOR_DISTRICTS = tuple(d for d in District
                             if d not in (District.Dhaka, District.Narsingdi))

_COLUMNS = (
    ("year",)
    + _WEATHER_COLUMNS
    + _FERTILIZER_COLUMNS
    + tuple(f"land_frac_{lt.name.lower()}" for lt in LandType)
    + tuple(f"soil_frac_{st.name.lower()}" for st in SoilType)
    + _SOIL_PROP_COLUMNS
    + ("area",)
    + tuple(f"district_{d.name.lower()}" for d in _INDICATOR_DISTRICTS)
)

assert len(_COLUMNS) == 46

INDICATOR_COLUMNS = tuple(c for c in _COLUMNS if c.startswith("district_"))


def schema_columns() -> tuple:
    """The 46 canonical feature column labels, in fixed order."""
    return _COLUMNS


def encode_district(district: District) -> tuple:
    if district is District.Dhaka:
        return (0.0,) * 5
    if district is District.Narsingdi:
        return (1.0,) * 5
    return tuple(1.0 if d is district else 0.0 for d in _INDICATOR_DISTRICTS)


def decode_district(indicators) -> District:
    ones = [i for i, v in enumerate(indicators) if v == 1.0]
    if len(ones) == 0:
        return District.Dhaka
    if len(ones) == 5:
        return District.Narsingdi
    if len(ones) == 1:
        return _INDICATOR_DISTRICTS[ones[0]]
    raise ValueError(f"unrecognized district indicator pattern: {indicators}")


_FLOAT_MAX = sys.float_info.max


def validate_record(record: AgroRecord) -> list:
    """Return every violated invariant (empty list means valid)."""
    v = []
    w, f, sp = record.weather, record.fertilizer, record.soil_props

    # year is an int; math.isfinite raises on one beyond float range
    if not -_FLOAT_MAX <= record.year <= _FLOAT_MAX:
        v.append("year not finite")
    numeric = {
        "avg_rainfall": w.avg_rainfall,
        "max_temp": w.max_temp,
        "min_temp": w.min_temp,
        "humidity": w.humidity,
        "urea": f.urea, "tsp": f.tsp, "dap": f.dap, "mp": f.mp,
        "area": record.area,
        "production": record.production,
        "yield": record.yield_t_ha,
    }
    for name, value in numeric.items():
        if not math.isfinite(value):
            v.append(f"{name} not finite")
    if any(not math.isfinite(x) for x in record.land_fractions):
        v.append("land_fractions not finite")
    if any(not math.isfinite(x) for x in record.soil_fractions):
        v.append("soil_fractions not finite")
    if v:
        return v

    if record.year < 1900:
        v.append("year < 1900")
    if not w.min_temp < w.max_temp:
        v.append("min_temp < max_temp violated")
    if not 0.0 <= w.humidity <= 100.0:
        v.append("humidity out of [0,100]")
    if w.avg_rainfall < 0:
        v.append("avg_rainfall < 0")
    for name in ("urea", "tsp", "dap", "mp"):
        if getattr(f, name) < 0:
            v.append(f"{name} < 0")
    if len(record.land_fractions) != 6:
        v.append("land_fractions length != 6")
    elif min(record.land_fractions) < 0:
        v.append("land_fractions has negative entry")
    elif abs(sum(record.land_fractions) - 1.0) > FRACTION_SUM_TOL:
        v.append("land_fractions sum != 1")
    if len(record.soil_fractions) != 19:
        v.append("soil_fractions length != 19")
    elif min(record.soil_fractions) < 0:
        v.append("soil_fractions has negative entry")
    elif abs(sum(record.soil_fractions) - 1.0) > FRACTION_SUM_TOL:
        v.append("soil_fractions sum != 1")
    for name in ("moisture", "texture", "consistency", "structure", "composition"):
        val = getattr(sp, name)
        if not 1.0 <= val <= 5.0:
            v.append(f"soil {name} out of [1,5]")
    if not 3.0 <= sp.reaction <= 10.0:
        v.append("soil reaction out of [3,10]")
    if record.area < 0:
        v.append("area < 0")
    if record.production < 0:
        v.append("production < 0")
    if record.yield_t_ha < 0:
        v.append("yield < 0")
    if record.area > 0:
        implied = record.production / record.area
        tol = YIELD_CONSISTENCY_TOL * max(1.0, record.yield_t_ha)
        if abs(record.yield_t_ha - implied) > tol:
            v.append("yield inconsistent with production/area")
    return v


def encode_features(record: AgroRecord) -> tuple:
    """A valid record's 46 feature values, in `schema_columns()` order."""
    violations = validate_record(record)
    if violations:
        raise InvalidRecord(violations)
    w, f, sp = record.weather, record.fertilizer, record.soil_props
    return (
        (float(record.year), w.avg_rainfall, w.max_temp, w.min_temp, w.humidity,
         f.urea, f.tsp, f.dap, f.mp)
        + tuple(float(x) for x in record.land_fractions)
        + tuple(float(x) for x in record.soil_fractions)
        + (sp.moisture, sp.texture, sp.consistency, sp.reaction,
           sp.structure, sp.composition, float(record.area))
        + encode_district(record.district)
    )
