"""Reference CSV reader for the columnar loader: one record per row, one cell at a time.

``reference_load_csv`` is the per-row parser ``evperf.data.load_csv`` once
was, kept as an independent oracle; like the loader, it skips a leading
byte-order mark. Each row becomes a dict of every header column's parsed
value (None when missing); it returns those records, the cleaning counts
and the warning texts the loader is expected to log.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Sequence

from evperf.data import ACCEL_S, CELL_COUNT, DEFAULT_SCHEMA, DataError


def _parse_cell(text: str) -> tuple[float | None, bool]:
    """Parse one CSV cell; returns (value, is_malformed). Empty is missing, not malformed."""
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


def reference_load_csv(path: str | Path, schema: Sequence[str] = DEFAULT_SCHEMA,
                       aliases: dict[str, str] | None = None):
    """(records, {"malformed_cells", "short_rows", "long_rows"}, warning texts) of a CSV."""
    path = Path(path)
    aliases = aliases or {}
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
        schema_set = set(schema)
        records: list[dict[str, float | None]] = []
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
            records.append(vals)
    warnings = []
    if malformed:
        warnings.append(f"{path}: {malformed} malformed cells treated as missing")
    if short or long:
        warnings.append(f"{path}: {short} rows shorter than the header (missing cells treated "
                        f"as missing) and {long} rows longer (extra cells ignored)")
    counts = {"malformed_cells": malformed, "short_rows": short, "long_rows": long}
    return records, counts, warnings
