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

It also holds what the files share: `json_number` and `json_numbers`
read a model file's numbers, and `write_file` makes every file that the
commands write, CSVs included, appear whole.
"""

from __future__ import annotations

import math
import os
import stat
import sys
import tempfile
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AgroYieldError

FRACTION_SUM_TOL = 1e-9
YIELD_CONSISTENCY_TOL = 1e-6
# Rows per block where a temporary of every row would copy the data.
BLOCK_ROWS = 1024


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


_WEATHER_COLUMNS = ("avg_rainfall", "max_temp", "min_temp", "humidity")
_FERTILIZER_COLUMNS = ("urea", "tsp", "dap", "mp")
LAND_FRAC_COLUMNS = tuple(f"land_frac_{t}" for t in (
    "highland", "mediumhighland", "mediumlowland", "lowland", "verylowland",
    "miscellaneous"))
SOIL_FRAC_COLUMNS = tuple(f"soil_frac_{t}" for t in (
    "calcareousalluvium", "noncalcareousalluvium", "acidbasinclay",
    "calcareousbrownfloodplain", "calcareousgreyfloodplain",
    "calcareousdarkgreyfloodplain", "noncalcareousgreyfloodplain",
    "noncalcareousdarkgreyfloodplain", "peat", "madeland",
    "noncalcareousbrownfloodplain", "shallowredbrownterrace",
    "deepredbrownterrace", "brownmottledterrace", "shallowgreyterrace",
    "deepgreyterrace", "greyvalley", "acidsulphatesoil", "brownhillsoil"))
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
    + LAND_FRAC_COLUMNS
    + SOIL_FRAC_COLUMNS
    + _SOIL_PROP_COLUMNS
    + ("area",)
    + tuple(f"district_{d.name.lower()}" for d in _INDICATOR_DISTRICTS)
)

N_FEATURES = len(_COLUMNS)
assert N_FEATURES == 46

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


# A record's stored values, as columns of a dataset's (n, 47) float
# matrix: every feature but the year (indicators included), then the
# production and the target. Code finds a column through `VALUE_INDEX`.
VALUE_COLUMNS = _COLUMNS[1:] + ("production", "yield")
VALUE_INDEX = {name: j for j, name in enumerate(VALUE_COLUMNS)}
FERTILIZER, LAND, SOIL, INDICATORS = (
    slice(VALUE_INDEX[group[0]], VALUE_INDEX[group[-1]] + 1) for group in (
        _FERTILIZER_COLUMNS, LAND_FRAC_COLUMNS, SOIL_FRAC_COLUMNS,
        INDICATOR_COLUMNS))

# indicator pattern of each district, indexed by District value
INDICATOR_PATTERNS = np.array([encode_district(d) for d in District])


@dataclass(frozen=True)
class AgroRecord:
    """One dataset row. `values` holds its 47 stored floats in
    `VALUE_COLUMNS` order: weather (annual rainfall in mm, max and min
    temperature in deg C, humidity in %), fertilizer applied (4, metric
    tons), land fractions (6) and soil fractions (19), each summing to 1,
    soil properties (6: ordinals 1-5 and a pH-like reaction in [3, 10]),
    area in hectares, the 5 district indicators, production in metric tons
    and the target yield in t/ha."""
    district: District
    year: int
    crop: Crop
    values: tuple


_FLOAT_MAX = sys.float_info.max
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
YEAR_NOT_FINITE = _INT64_MIN     # a year beyond float range
YEAR_OUT_OF_RANGE = _INT64_MAX   # a year from 2**63 - 1 to the float limit


def year64(year: int) -> int:
    """`year` as the year column stores it: unchanged when int64 holds it,
    else one of the two codes above, or int64's minimum + 1 for a negative
    year within float range (which fails `year < 1900` like the year)."""
    if _INT64_MIN < year < _INT64_MAX:
        return year
    if not -_FLOAT_MAX <= year <= _FLOAT_MAX:
        return YEAR_NOT_FINITE
    return YEAR_OUT_OF_RANGE if year > 0 else _INT64_MIN + 1


def sum_in_order(terms) -> np.ndarray:
    """Elementwise 0 + terms[0] + terms[1] + ..., left to right: the
    additions `sum` makes, so each element equals `sum` of its terms."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


def json_number(value, what) -> float:
    """A finite JSON number (not a bool) as a float; AgroYieldError if it
    is anything else, an integer beyond float range included."""
    try:
        ok = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok:
        raise AgroYieldError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def json_numbers(values, what, size=None, integer=False) -> np.ndarray:
    """A JSON list of finite numbers (integers if `integer`; never bools) as
    an array of `size` entries; AgroYieldError if it is anything else."""
    kinds = {int} if integer else {int, float}
    if (type(values) is not list or not set(map(type, values)) <= kinds
            or size is not None and len(values) != size):
        count = "" if size is None else f"{size} "
        raise AgroYieldError(f"{what} must be a list of {count}"
                             f"{'integers' if integer else 'numbers'}")
    try:
        arr = np.fromiter(values, np.int64 if integer else float, len(values))
    except OverflowError as exc:  # an integer beyond int64 or float range
        raise AgroYieldError(f"{what} is out of range: {exc}") from exc
    if not np.isfinite(arr).all():
        raise AgroYieldError(f"{what} must be finite")
    return arr


def write_file(path, chunks) -> None:
    """Write the byte strings of `chunks` to `path` whole or not at all:
    into a temporary file in its directory, which is then renamed onto
    `path`, and removed if anything fails first, an interrupt included. The
    temporary name is `.<name>.<random>.part`, with `<name>` cut to fit the
    directory's longest file name. A target that exists and is not a
    regular file (a symlink such as /dev/stdout, a FIFO, a device) is
    written in place, since a rename would replace it: through fd 1 itself
    when it is the file that fd 1 writes, which keeps a shell's `>>`
    append. The file gets the mode a new file opened for writing gets."""
    path = os.fspath(path)
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        try:
            stdout = os.path.samestat(os.stat(path), os.fstat(1))
        except OSError:  # a dangling symlink, or no fd 1
            stdout = False
        with open(1 if stdout else path, "wb", closefd=not stdout) as fh:
            fh.writelines(chunks)
        return
    directory, name = os.path.split(path)
    directory = directory or "."
    # the name gains two dots, mkstemp's 8 random characters and ".part"
    name = os.fsencode(name)[:os.pathconf(directory, "PC_NAME_MAX") - 15]
    fd, part = tempfile.mkstemp(prefix=f".{os.fsdecode(name)}.",
                                suffix=".part", dir=directory)
    try:
        with open(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise


_NONNEGATIVE = ("area", "production", "yield")
_FINITE = _WEATHER_COLUMNS + _FERTILIZER_COLUMNS + _NONNEGATIVE
_FINITE_COLUMNS = [VALUE_INDEX[name] for name in _FINITE]
# (message, column, lo, hi): violated unless lo <= value <= hi, so NaN
# violates. In report order; the fraction rules fall after the first six.
_BOUNDS = (
    ("humidity out of [0,100]", "humidity", 0.0, 100.0),
    *((f"{name} < 0", name, 0.0, np.inf)
      for name in ("avg_rainfall",) + _FERTILIZER_COLUMNS),
    *((f"soil {name} out of [1,5]", f"soil_{name}", 1.0, 5.0)
      for name in ("moisture", "texture", "consistency", "structure",
                   "composition")),
    ("soil reaction out of [3,10]", "soil_reaction", 3.0, 10.0),
    *((f"{name} < 0", name, 0.0, np.inf) for name in _NONNEGATIVE),
)
_BOUND_COLUMNS = [VALUE_INDEX[column] for _, column, _, _ in _BOUNDS]
_LO, _HI = (np.array([b[k] for b in _BOUNDS]) for k in (2, 3))
_MESSAGES = (
    "year not finite", *(f"{name} not finite" for name in _FINITE),
    "land_fractions not finite", "soil_fractions not finite",
    # a row failing one of the rules above is reported on those alone,
    # so the rules below see finite values wherever they compare with 0
    "year < 1900", "year out of range", "min_temp < max_temp violated",
    *(m for m, *_ in _BOUNDS[:6]),
    "land_fractions has negative entry", "land_fractions sum != 1",
    "soil_fractions has negative entry", "soil_fractions sum != 1",
    *(m for m, *_ in _BOUNDS[6:]),
    "yield inconsistent with production/area",
)


def _fractions(v, cols):
    """The negative-entry and sum rules of one fraction group."""
    negative = (v[:, cols] < 0).any(axis=1)
    off = np.abs(sum_in_order(v[:, cols].T) - 1.0) > FRACTION_SUM_TOL
    return negative, ~negative & off


def violations(year: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(n, rules) mask of the invariants each row violates, in the order of
    `_MESSAGES`, from a year column of `year64` values and an (n, 47)
    `VALUE_COLUMNS` matrix. Rows are checked `BLOCK_ROWS` at a time, so no
    temporary holds more than a block."""
    mask = np.empty((len(year), len(_MESSAGES)), dtype=bool)
    for start in range(0, len(year), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        mask[rows] = _block_violations(year[rows], values[rows])
    return mask


def _block_violations(year: np.ndarray, v: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        finite = np.column_stack([
            year == YEAR_NOT_FINITE,
            ~np.isfinite(v[:, _FINITE_COLUMNS]),
            ~np.isfinite(v[:, LAND]).all(axis=1),
            ~np.isfinite(v[:, SOIL]).all(axis=1)])
        x = v[:, _BOUND_COLUMNS]
        outside = ~((_LO <= x) & (x <= _HI))
        area, production, target = (v[:, VALUE_INDEX[c]]
                                    for c in ("area", "production", "yield"))
        implied = production / np.where(area > 0, area, 1.0)
        tol = YIELD_CONSISTENCY_TOL * np.maximum(1.0, target)
        ranged = np.column_stack([
            year < 1900, year == YEAR_OUT_OF_RANGE,
            ~(v[:, VALUE_INDEX["min_temp"]] < v[:, VALUE_INDEX["max_temp"]]),
            outside[:, :6], *_fractions(v, LAND), *_fractions(v, SOIL),
            outside[:, 6:],
            (area > 0) & (np.abs(target - implied) > tol)])
    ranged &= ~finite.any(axis=1, keepdims=True)
    return np.hstack([finite, ranged])


def violation_messages(row_mask: np.ndarray) -> list:
    """The messages of one row of a `violations` mask, in report order."""
    return [_MESSAGES[j] for j in np.flatnonzero(row_mask)]


def require_valid(year: np.ndarray, values: np.ndarray) -> None:
    """Raise AgroYieldError with the violations of the first invalid row."""
    mask = violations(year, values)
    bad = np.flatnonzero(mask.any(axis=1))
    if len(bad):
        raise AgroYieldError("; ".join(violation_messages(mask[bad[0]])))
