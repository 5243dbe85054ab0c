"""Columnar CSV ingestion, cleaning, performance-class binning, feature
scaling, and stratified fold assignment."""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass, replace
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


def bin_accelerations(times: np.ndarray) -> np.ndarray:
    """Performance class (PerfClass value) of each 0-100 km/h time in seconds.

    Boundaries are inclusive on the quick side: 4.0 s is High, 7.0 s is Mid.
    Raises DataError naming the first time that is not positive and finite.
    """
    t = np.asarray(times, dtype=float)
    bad = ~(np.isfinite(t) & (t > 0))
    if bad.any():
        raise DataError("acceleration time must be positive and finite, "
                        f"got {t[bad][0].item()!r}")
    return np.where(t <= HIGH_MAX_SECONDS, int(PerfClass.HIGH),
                    np.where(t <= MID_MAX_SECONDS, int(PerfClass.MID), int(PerfClass.LOW)))


def bin_acceleration(t: float) -> PerfClass:
    """Performance class of one 0-100 km/h time: a one-element ``bin_accelerations``."""
    return PerfClass(int(bin_accelerations([t])[0]))


@dataclass
class VehicleRecord:
    """One vehicle's numeric attributes keyed by canonical column name.

    Missing values are stored as None; ``VehicleTable.from_records`` turns
    records into a table.
    """

    values: dict[str, float | None]

    def get(self, name: str) -> float | None:
        return self.values.get(name)


def read_alias_table(path: str | Path) -> dict[str, str]:
    """Parse a ``source header = canonical name`` mapping file.

    Blank lines and lines starting with '#' are ignored.
    """
    aliases: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
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


@dataclass(eq=False)
class VehicleTable:
    """Vehicles as columns: one float64 array per canonical column, NaN where missing.

    Every column holds one value per vehicle, in input order, and ``len()``
    is the number of vehicles. The cleaning counts describe the CSV the
    table was read from and are zero for a table built from records:
    ``malformed_cells`` counts the cells of its columns that were
    unparseable, non-finite or broke a record invariant, and ``short_rows``
    and ``long_rows`` the rows with fewer or more cells than the header.
    """

    columns: dict[str, np.ndarray]
    n_rows: int
    malformed_cells: int = 0
    short_rows: int = 0
    long_rows: int = 0

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"no column {name!r} in the table; it has {list(self.columns)}") from None

    @classmethod
    def from_records(cls, records: Sequence[VehicleRecord], names: Sequence[str]) -> "VehicleTable":
        """The ``names`` columns of ``records``; a value a record lacks is NaN."""
        return cls({c: np.array([r.get(c) for r in records], dtype=float)
                    for c in dict.fromkeys(names)}, len(records))

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """The ``names`` columns side by side, shape (len(self), len(names))."""
        out = np.empty((self.n_rows, len(names)))
        for j, c in enumerate(names):
            out[:, j] = self[c]
        return out


# Record invariants: a value of the column that compares true against the
# bound is coerced to missing and counted as malformed.
_INVARIANTS = ((ACCEL_S, np.less_equal, 0.0), (CELL_COUNT, np.less, 1.0))


def load_csv(
    path: str | Path,
    schema: Sequence[str] = DEFAULT_SCHEMA,
    aliases: dict[str, str] | None = None,
) -> VehicleTable:
    """Read the ``schema`` columns of a UTF-8 comma-separated file into a table.

    The first row must be a header; a leading byte-order mark is skipped.
    Headers are renamed through ``aliases`` before checking that every
    column in ``schema`` is present, and only those columns are read. A cell
    is ``float()`` of its stripped text: an empty cell is missing, and an
    unparseable or non-finite one is missing and counted as malformed.
    Values that violate basic record invariants (non-positive acceleration
    time, cell counts below one) are likewise coerced to missing and
    counted. Rows with fewer cells than the header leave the rest missing,
    rows with more have the extra cells ignored, and both are counted. The
    counts are kept on the table and reported in one warning each.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    aliases = aliases or {}
    schema = list(dict.fromkeys(schema))
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
        width = len(names)
        cells = [(names.index(c), array("d")) for c in schema]
        nan, isfinite = math.nan, math.isfinite
        n_rows = malformed = short = long = 0
        for row in reader:
            n_rows += 1
            n_cells = len(row)
            if n_cells != width:
                short += n_cells < width
                long += n_cells > width
            for position, out in cells:
                v = nan
                if position < n_cells:
                    text = row[position].strip()
                    if text:
                        try:
                            v = float(text)
                        except ValueError:
                            malformed += 1
                        else:
                            if not isfinite(v):
                                v = nan
                                malformed += 1
                out.append(v)
    columns = {c: np.array(out, dtype=float) for c, (_, out) in zip(schema, cells)}
    for name, violates, bound in _INVARIANTS:
        if name in columns:
            bad = violates(columns[name], bound)
            columns[name][bad] = nan
            malformed += int(np.count_nonzero(bad))
    if malformed:
        logger.warning("%s: %d malformed cells treated as missing", path, malformed)
    if short or long:
        logger.warning("%s: %d rows shorter than the header (missing cells treated as missing) "
                       "and %d rows longer (extra cells ignored)", path, short, long)
    return VehicleTable(columns, n_rows, malformed, short, long)


def drop_missing(table: VehicleTable, required: Sequence[str]) -> VehicleTable:
    """Listwise deletion: keep only vehicles with every ``required`` column present.

    Input order and the cleaning counts are kept, and the table itself is
    returned when nothing is dropped.
    """
    keep = np.ones(len(table), dtype=bool)
    for c in required:
        keep &= ~np.isnan(table[c])
    kept = int(np.count_nonzero(keep))
    dropped = len(table) - kept
    if not dropped:
        return table
    logger.info(
        "dropped %d of %d records missing one of %s", dropped, len(table), list(required)
    )
    return replace(table, columns={c: v[keep] for c, v in table.columns.items()}, n_rows=kept)


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
    table: VehicleTable | Sequence[VehicleRecord],
    feature_names: Sequence[str] = DEFAULT_FEATURES,
) -> Dataset:
    """Assemble a labeled Dataset from a table, or from records through a table.

    Vehicles missing the acceleration time or any requested feature are
    dropped here so the resulting matrix is complete.
    """
    names = tuple(feature_names)
    required = names + (ACCEL_S,)
    if not isinstance(table, VehicleTable):
        table = VehicleTable.from_records(table, required)
    usable = drop_missing(table, required)
    if not len(usable):
        raise DataError("no records with complete features and acceleration time")
    return Dataset(
        features=usable.matrix(names),
        labels=bin_accelerations(usable[ACCEL_S]),
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
