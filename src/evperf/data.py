"""CSV ingestion, cleaning, performance-class binning, feature scaling, and
stratified fold assignment."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Canonical column names used throughout the pipeline. Input files with other
# headers are mapped onto these through an alias table (see read_alias_table).
CAPACITY_KWH = "battery_capacity_kwh"
CELL_COUNT = "number_of_cells"
WEIGHT_KG = "weight_kg"
TORQUE_NM = "torque_nm"
RANGE_KM = "range_km"
ACCEL_S = "acceleration_0_100_s"

DEFAULT_FEATURES: tuple[str, ...] = (
    CAPACITY_KWH,
    CELL_COUNT,
    WEIGHT_KG,
    TORQUE_NM,
    RANGE_KM,
)
DEFAULT_SCHEMA: tuple[str, ...] = DEFAULT_FEATURES + (ACCEL_S,)

HIGH_MAX_SECONDS = 4.0  # 0-100 km/h at or under this => High
MID_MAX_SECONDS = 7.0   # above High cutoff, at or under this => Mid


class DataError(ValueError):
    """Malformed input data or inconsistent pipeline arguments."""


class PerfClass(IntEnum):
    """Acceleration performance class; a higher value means a quicker car."""

    LOW = 0
    MID = 1
    HIGH = 2


NUM_CLASSES = len(PerfClass)
CLASS_NAMES: tuple[str, ...] = tuple(c.name.capitalize() for c in sorted(PerfClass))


def bin_acceleration(t: float) -> PerfClass:
    """Map a 0-100 km/h time in seconds to its performance class.

    Boundaries are inclusive on the quick side: 4.0 s is High, 7.0 s is Mid.
    """
    if not math.isfinite(t) or t <= 0:
        raise DataError(f"acceleration time must be positive and finite, got {t!r}")
    if t <= HIGH_MAX_SECONDS:
        return PerfClass.HIGH
    if t <= MID_MAX_SECONDS:
        return PerfClass.MID
    return PerfClass.LOW


@dataclass
class VehicleRecord:
    """One vehicle's numeric attributes keyed by canonical column name.

    Missing values are stored as None. Present values are always finite;
    the CSV loader coerces anything else to missing.
    """

    values: dict[str, float | None]

    def get(self, name: str) -> float | None:
        return self.values.get(name)

    def has(self, name: str) -> bool:
        return self.values.get(name) is not None


def read_alias_table(path: str | Path) -> dict[str, str]:
    """Parse a ``source header = canonical name`` mapping file.

    Blank lines and lines starting with '#' are ignored.
    """
    aliases: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'source = canonical', got {raw!r}")
        src, dst = (part.strip() for part in line.split("=", 1))
        if not src or not dst:
            raise DataError(f"{path}:{lineno}: empty name in alias {raw!r}")
        aliases[src] = dst
    return aliases


def _parse_cell(text: str) -> tuple[float | None, bool]:
    """Parse one CSV cell; returns (value, is_malformed).

    Empty cells are missing by convention and not counted as malformed.
    """
    s = text.strip()
    if not s:
        return None, False
    try:
        v = float(s)
    except ValueError:
        return None, True
    if not math.isfinite(v):
        return None, True
    return v, False


def load_csv(
    path: str | Path,
    schema: Sequence[str] = DEFAULT_SCHEMA,
    aliases: dict[str, str] | None = None,
) -> list[VehicleRecord]:
    """Read vehicle records from a UTF-8 comma-separated file.

    The first row must be a header. Headers are renamed through ``aliases``
    before checking that every column in ``schema`` is present. Numeric cells
    that are empty or unparseable become missing values; malformed cells in
    schema columns are counted and reported as a single warning. Values that
    violate basic record invariants (non-positive acceleration time, cell
    counts below one) are likewise coerced to missing. Rows with fewer cells
    than the header leave the rest missing, rows with more have the extra
    cells ignored, and both are counted in one more warning.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    aliases = aliases or {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        names = [aliases.get(h.strip(), h.strip()) for h in header]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise DataError(f"{path}: duplicate header names: {dupes}")
        missing = [c for c in schema if c not in names]
        if missing:
            raise DataError(f"{path}: missing required columns: {missing}")
        schema_set = set(schema)
        records: list[VehicleRecord] = []
        malformed = short = long = 0
        for row in reader:
            short += len(row) < len(names)
            long += len(row) > len(names)
            vals: dict[str, float | None] = {}
            for name, cell in zip(names, row):
                v, bad = _parse_cell(cell)
                if v is not None:
                    if (name == ACCEL_S and v <= 0) or (name == CELL_COUNT and v < 1):
                        v, bad = None, True
                if bad and name in schema_set:
                    malformed += 1
                vals[name] = v
            records.append(VehicleRecord(vals))
    if malformed:
        logger.warning("%s: %d malformed cells treated as missing", path, malformed)
    if short or long:
        logger.warning("%s: %d rows shorter than the header (missing cells treated as missing) "
                       "and %d rows longer (extra cells ignored)", path, short, long)
    return records


def drop_missing(records: list[VehicleRecord], required: Sequence[str]) -> list[VehicleRecord]:
    """Listwise deletion: keep only records with all ``required`` fields present.

    Input order is preserved and surviving records are returned unmodified.
    """
    kept = [r for r in records if all(r.has(c) for c in required)]
    dropped = len(records) - len(kept)
    if dropped:
        logger.info(
            "dropped %d of %d records missing one of %s", dropped, len(records), list(required)
        )
    return kept


@dataclass(frozen=True)
class ScalerParams:
    """Per-column standardization parameters (population statistics)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DataError("scaler mean/std must be matching 1-d arrays")
        if np.any(self.std < 0):
            raise DataError("scaler std must be non-negative")


def fit_scaler(features: np.ndarray) -> ScalerParams:
    """Column means and population standard deviations of a feature matrix."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError("fit_scaler needs a non-empty 2-d matrix")
    return ScalerParams(mean=x.mean(axis=0), std=x.std(axis=0, ddof=0))


def apply_scaler(features: np.ndarray, params: ScalerParams) -> np.ndarray:
    """Standardize columns as (x - mean) / std.

    Columns whose fitted std is zero carry no information and map to zero
    everywhere, including for values unseen at fit time.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.mean.shape[0]:
        raise DataError(
            f"feature matrix has {x.shape[-1]} columns, scaler expects {params.mean.shape[0]}"
        )
    degenerate = params.std == 0
    denom = np.where(degenerate, 1.0, params.std)
    z = (x - params.mean) / denom
    z[:, degenerate] = 0.0
    return z


@dataclass
class Dataset:
    """A complete numeric feature matrix with integer class labels.

    ``labels`` holds class indices (PerfClass values for the EV pipeline).
    ``scaler`` records the standardization applied to ``features``, if any.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    scaler: ScalerParams | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.feature_names = tuple(self.feature_names)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError("feature rows and label count differ")
        if self.features.shape[1] != len(self.feature_names):
            raise DataError("feature columns and feature_names differ")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("feature_names must be unique")
        if self.features.size and not np.all(np.isfinite(self.features)):
            raise DataError("feature matrix contains non-finite entries")
        if self.labels.size and self.labels.min() < 0:
            raise DataError("labels must be non-negative class indices")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def build_dataset(
    records: list[VehicleRecord],
    feature_names: Sequence[str] = DEFAULT_FEATURES,
) -> Dataset:
    """Assemble a labeled Dataset from cleaned records.

    Records missing the acceleration time or any requested feature are
    dropped here so the resulting matrix is complete.
    """
    names = tuple(feature_names)
    usable = drop_missing(records, names + (ACCEL_S,))
    if not usable:
        raise DataError("no records with complete features and acceleration time")
    rows = [[r.get(c) for c in names] for r in usable]
    labels = [int(bin_acceleration(r.get(ACCEL_S))) for r in usable]
    return Dataset(
        features=np.asarray(rows, dtype=float),
        labels=np.asarray(labels, dtype=np.int64),
        feature_names=names,
    )


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Assign each sample a fold index in [0, k), balancing classes.

    Within each class, indices are shuffled by ``seed`` and dealt round-robin
    onto folds; the dealing position carries over between classes so no fold
    is left empty whenever there are at least k samples in total. Per-class
    fold counts therefore never differ by more than one.
    """
    y = np.asarray(labels, dtype=np.int64)
    n = y.shape[0]
    if k < 2:
        raise DataError(f"k must be at least 2, got {k}")
    if k > n:
        raise DataError(f"k={k} exceeds sample count {n}")
    rng = np.random.default_rng(seed)
    folds = np.empty(n, dtype=np.int64)
    cursor = 0
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        perm = rng.permutation(idx)
        for j, sample in enumerate(perm):
            folds[sample] = (cursor + j) % k
        cursor = (cursor + idx.size) % k
    return folds
