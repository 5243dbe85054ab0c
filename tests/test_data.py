import csv
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from csv_oracle import reference_load_csv
from evperf.data import (
    ACCEL_S,
    CELL_COUNT,
    DEFAULT_SCHEMA,
    TORQUE_NM,
    WEIGHT_KG,
    DataError,
    Dataset,
    PerfClass,
    VehicleRecord,
    VehicleTable,
    apply_scaler,
    bin_acceleration,
    bin_accelerations,
    build_dataset,
    drop_missing,
    fit_scaler,
    load_csv,
    read_alias_table,
    stratified_kfold,
)


class TestBinAcceleration:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (3.9, PerfClass.HIGH),
            (4.0, PerfClass.HIGH),
            (4.0001, PerfClass.MID),
            (7.0, PerfClass.MID),
            (7.001, PerfClass.LOW),
            (25.0, PerfClass.LOW),
        ],
    )
    def test_boundaries(self, t, expected):
        assert bin_acceleration(t) is expected

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(DataError):
            bin_acceleration(bad)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_monotone_step_function(self, t1, t2):
        if t1 > t2:
            t1, t2 = t2, t1
        assert bin_acceleration(t1) >= bin_acceleration(t2)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), max_size=20))
    def test_batch_equals_scalar(self, times):
        assert bin_accelerations(times).tolist() == [int(bin_acceleration(t)) for t in times]

    def test_batch_names_first_bad_time(self):
        with pytest.raises(DataError, match=r"got -2\.0"):
            bin_accelerations([5.0, -2.0, math.nan])


class TestLoadCsv:
    def test_empty_cell_becomes_missing(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n"
            "50,,1800,300,400,6.5\n"
        )
        table = load_csv(f)
        assert len(table) == 1
        assert np.isnan(table[CELL_COUNT][0])
        assert table[WEIGHT_KG][0] == 1800.0

    def test_header_only_gives_empty_list(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n")
        table = load_csv(f)
        assert len(table) == 0
        assert all(column.shape == (0,) for column in table.columns.values())

    def test_unparseable_cell_is_missing_and_warned(self, tmp_path, caplog):
        f = tmp_path / "d.csv"
        f.write_text(
            "battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n"
            "50,4000,abc,300,400,6.5\n"
        )
        with caplog.at_level("WARNING"):
            table = load_csv(f)
        assert np.isnan(table[WEIGHT_KG][0])
        assert any("malformed" in r.message for r in caplog.records)

    def test_ragged_rows_counted_and_warned(self, tmp_path, caplog):
        f = tmp_path / "d.csv"
        f.write_text(
            "battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n"
            "50,4000,1800,300,400\n"
            "50,4000,1800,300,400,6.5,extra,cells\n"
            "\n"
            "50,4000,1800,300,400,6.5\n"
        )
        with caplog.at_level("WARNING"):
            table = load_csv(f)
        assert len(table) == 4
        assert np.isnan(table[ACCEL_S][0]) and table[WEIGHT_KG][0] == 1800.0
        rows = table.matrix(DEFAULT_SCHEMA)
        assert table[ACCEL_S][1] == 6.5 and rows[1].tolist() == rows[3].tolist()
        assert np.isnan(table[CELL_COUNT][2])
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "2 rows shorter" in warnings[0] and "1 rows longer" in warnings[0]

    def test_rectangular_rows_not_warned(self, tmp_path, caplog):
        f = tmp_path / "d.csv"
        f.write_text(
            "battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n"
            "50,,1800,300,400,6.5\n"
        )
        with caplog.at_level("WARNING"):
            load_csv(f)
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_invalid_values_coerced_to_missing(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n"
            "50,0,1800,300,400,-2\n"
        )
        table = load_csv(f)
        assert np.isnan(table[CELL_COUNT][0])
        assert np.isnan(table[ACCEL_S][0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_missing_required_column_named(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("battery_capacity_kwh,weight_kg,torque_nm,range_km,acceleration_0_100_s\n")
        with pytest.raises(DataError, match=CELL_COUNT):
            load_csv(f)

    def test_duplicate_headers_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("number_of_cells,number_of_cells,acceleration_0_100_s\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(f, schema=(CELL_COUNT,))

    def test_aliases_rename_headers(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("Cells,0-100 (s)\n4000,5.2\n")
        aliases = {"Cells": CELL_COUNT, "0-100 (s)": ACCEL_S}
        table = load_csv(f, schema=(CELL_COUNT, ACCEL_S), aliases=aliases)
        assert table[CELL_COUNT][0] == 4000.0
        assert table[ACCEL_S][0] == 5.2

    def test_alias_table_file(self, tmp_path):
        f = tmp_path / "aliases.txt"
        f.write_text("# comment\nCells = number_of_cells\n\n0-100 (s)=acceleration_0_100_s\n")
        assert read_alias_table(f) == {
            "Cells": CELL_COUNT,
            "0-100 (s)": ACCEL_S,
        }

    def test_alias_table_rejects_garbage(self, tmp_path):
        f = tmp_path / "aliases.txt"
        f.write_text("no separator here\n")
        with pytest.raises(DataError):
            read_alias_table(f)

    def test_byte_order_marks_skipped(self, tmp_path):
        aliases = tmp_path / "aliases.txt"
        aliases.write_bytes(b"\xef\xbb\xbfCells = number_of_cells\n")
        f = tmp_path / "d.csv"
        f.write_bytes(b"\xef\xbb\xbfCells,acceleration_0_100_s\n4000,5.2\n")
        table = load_csv(f, schema=(CELL_COUNT, ACCEL_S), aliases=read_alias_table(aliases))
        assert (table[CELL_COUNT].tolist(), table[ACCEL_S].tolist()) == ([4000.0], [5.2])

    def test_cleaning_counts_returned(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "id,battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n"
            "a,50,4000,1800,300,400,6.5\n"
            "b,50,4000,abc,300,400,6.5\n"      # 1 malformed: junk
            "c,50,4000,1800,nan,,6.5\n"        # 1 malformed: non-finite; empty is not
            "d,50,0.5,1800,300,400,0\n"        # 2 malformed: invariants
            "e,50,4000,1800\n"                 # short
            "f,50,4000,1800,300,400,6.5,x,y\n"  # long
            "\n"                               # short
            "junk,50,4000,1800,300,400,6.5\n"  # a column outside the schema is not read
        )
        table = load_csv(f)
        assert len(table) == 8
        assert (table.malformed_cells, table.short_rows, table.long_rows) == (4, 2, 1)
        kept = drop_missing(table, DEFAULT_SCHEMA)
        assert len(kept) == 3
        assert (kept.malformed_cells, kept.short_rows, kept.long_rows) == (4, 2, 1)

    def test_only_schema_columns_kept(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("id,number_of_cells,acceleration_0_100_s\nx,4000,5.2\n")
        table = load_csv(f, schema=(ACCEL_S, CELL_COUNT))
        assert list(table.columns) == [ACCEL_S, CELL_COUNT]


# Cell texts for the oracle comparison: valid floats, junk, empty and blank
# cells, non-finite spellings, non-positive times and cell counts below 1.
_CELL_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-10, max_value=10).map(lambda v: f"{v:.3g}"),
    st.integers(-5, 5000).map(str),
    st.sampled_from(["", " ", "\t", "abc", "n/a", "?", "1.2.3", "-", "1,5", '"', "nan", "NaN",
                     "inf", "-inf", "Infinity", "1e999", "1_000", "4.0", "7.0", "\u00a01.5"]),
    st.sampled_from(["0", "-0", "0.0", "-0.0", "-1.5", "0.5", "0.999", "1", "1.0"]),
)
_CELLS = st.tuples(st.sampled_from(["", " ", "\t "]), _CELL_TEXTS, st.sampled_from(["", " "])).map(
    "".join)


@st.composite
def _csv_cases(draw):
    """(header, rows, schema, aliases, byte-order mark) of a generated CSV."""
    schema = draw(st.lists(st.sampled_from(DEFAULT_SCHEMA), min_size=1, unique=True))
    others = [c for c in DEFAULT_SCHEMA if c not in schema]
    present = schema + (draw(st.lists(st.sampled_from(others), unique=True)) if others else [])
    if draw(st.integers(0, 9)) == 0:
        present = present[1:]  # a required column left out
    extra = draw(st.lists(st.sampled_from(["id", "notes", ACCEL_S]), max_size=2))
    aliased = draw(st.lists(st.sampled_from(present), unique=True)) if present else []
    aliases = {f"Alias {name}": name for name in aliased}
    # padded, since the loader strips each header before looking up its alias
    header = [f"  Alias {c} " if c in aliased else c for c in present + extra]
    header = draw(st.permutations(header))
    width = len(header)
    rows = draw(st.lists(
        st.integers(0, width + 2).flatmap(lambda k: st.lists(_CELLS, min_size=k, max_size=k)),
        max_size=12))
    return header, rows, schema, aliases, draw(st.booleans())


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.texts = []

    def emit(self, record):
        self.texts.append(record.getMessage())


class TestLoadCsvMatchesOracle:
    """The columnar loader reads every CSV as the per-row reference parser does."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_csv_cases())
    @example(case=(list(DEFAULT_SCHEMA),  # the invariants' exact bounds, on both sides
                   [["9", "1", "9", "9", "9", "0"], ["9", "0.999", "9", "9", "9", "-0.0"],
                    ["9", "1.0", "9", "9", "9", "1e-300"]], list(DEFAULT_SCHEMA), {}, False))
    def test_generated_csv(self, tmp_path, case):
        header, rows, schema, aliases, bom = case
        path = tmp_path / "fuzz.csv"
        with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        try:
            records, counts, warnings = reference_load_csv(path, schema, aliases)
        except DataError as exc:
            with pytest.raises(DataError) as caught:
                load_csv(path, schema, aliases)
            assert str(caught.value) == str(exc)
            return
        handler = _Warnings()
        logger = logging.getLogger("evperf.data")
        logger.addHandler(handler)
        try:
            table = load_csv(path, schema, aliases)
        finally:
            logger.removeHandler(handler)
        assert len(table) == len(records)
        assert list(table.columns) == schema
        for c in schema:
            expected = [r.get(c) for r in records]
            missing = np.array([v is None for v in expected], dtype=bool)
            assert np.isnan(table[c]).tolist() == missing.tolist(), c
            present = np.array([v for v in expected if v is not None], dtype=float)
            assert table[c][~missing].tobytes() == present.tobytes(), c
        assert {k: getattr(table, k) for k in counts} == counts
        assert handler.texts == warnings


def _table(**columns):
    """A VehicleTable of equal-length value lists, None for a missing value."""
    arrays = {c: np.array(v, dtype=float) for c, v in columns.items()}
    return VehicleTable(arrays, len(next(iter(arrays.values()))))


class TestDropMissing:
    def test_listwise_deletion_counts(self):
        # 478 records, 202 without a cell count, leaves 276
        table = _table(number_of_cells=[3000.0] * 276 + [None] * 202, weight_kg=[2000.0] * 478)
        kept = drop_missing(table, [CELL_COUNT])
        assert len(table) == 478
        assert len(kept) == 276

    def test_identity_when_nothing_missing(self):
        table = _table(number_of_cells=[float(i) for i in range(1, 5)])
        kept = drop_missing(table, [CELL_COUNT])
        assert kept[CELL_COUNT].tolist() == table[CELL_COUNT].tolist()
        assert kept is table  # survivors not copied

    def test_all_missing_gives_empty(self):
        assert len(drop_missing(_table(number_of_cells=[None] * 3), [CELL_COUNT])) == 0

    def test_order_preserved(self):
        table = _table(number_of_cells=[1.0, None, 3.0], weight_kg=[None, None, None])
        kept = drop_missing(table, [CELL_COUNT])
        assert kept[CELL_COUNT].tolist() == [1.0, 3.0]

    def test_unknown_column_named(self):
        with pytest.raises(DataError, match="no column 'torque_nm'"):
            drop_missing(_table(number_of_cells=[1.0]), [TORQUE_NM])


class TestScaler:
    def test_fit_population_std(self):
        params = fit_scaler(np.array([[1.0], [2.0], [3.0]]))
        assert params.mean[0] == pytest.approx(2.0)
        assert params.std[0] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_constant_column(self):
        params = fit_scaler(np.array([[5.0], [5.0], [5.0]]))
        assert params.mean[0] == 5.0
        assert params.std[0] == 0.0

    def test_single_row(self):
        params = fit_scaler(np.array([[3.0, 7.0]]))
        assert np.array_equal(params.mean, [3.0, 7.0])
        assert np.array_equal(params.std, [0.0, 0.0])

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            fit_scaler(np.empty((0, 3)))

    def test_apply_basic(self):
        from evperf.data import ScalerParams

        params = ScalerParams(mean=np.array([4.0]), std=np.array([2.0]))
        assert apply_scaler(np.array([[6.0]]), params)[0, 0] == pytest.approx(1.0)
        assert apply_scaler(np.array([[4.0]]), params)[0, 0] == 0.0

    def test_degenerate_column_maps_to_zero(self):
        params = fit_scaler(np.array([[5.0], [5.0]]))
        out = apply_scaler(np.array([[9.0], [5.0]]), params)
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_dimension_mismatch(self):
        params = fit_scaler(np.ones((3, 2)))
        with pytest.raises(DataError):
            apply_scaler(np.ones((3, 3)), params)

    def test_roundtrip_standardizes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 3.0, size=(40, 4))
        x[:, 2] = 1.25  # degenerate column
        z = apply_scaler(x, fit_scaler(x))
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        stds = z.std(axis=0, ddof=0)
        assert stds[2] == 0.0
        assert np.allclose(np.delete(stds, 2), 1.0, atol=1e-9)


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(np.array([[1.0], [np.inf]]), np.array([0, 1]), ("a",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError, match="unique"):
            Dataset(np.ones((2, 2)), np.array([0, 1]), ("a", "a"))

    def test_rejects_row_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 1)), np.array([0]), ("a",))

    def test_build_dataset_drops_incomplete_and_labels(self):
        table = _table(number_of_cells=[3000.0, None, 500.0, 800.0],
                       acceleration_0_100_s=[3.5, 5.0, 9.0, None])
        ds = build_dataset(table, (CELL_COUNT,))
        assert ds.n_samples == 2
        assert list(ds.labels) == [int(PerfClass.HIGH), int(PerfClass.LOW)]
        assert ds.features[:, 0].tolist() == [3000.0, 500.0]

    def test_build_dataset_from_records_equals_from_table(self):
        records = [VehicleRecord({CELL_COUNT: 3000.0, ACCEL_S: 3.5}),
                   VehicleRecord({ACCEL_S: 5.0}),  # a key a record lacks is missing
                   VehicleRecord({CELL_COUNT: 500.0, WEIGHT_KG: 1.0, ACCEL_S: 9.0})]
        a = build_dataset(records, (CELL_COUNT,))
        b = build_dataset(VehicleTable.from_records(records, (CELL_COUNT, ACCEL_S)), (CELL_COUNT,))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tolist() == b.labels.tolist() == [2, 0]

    def test_build_dataset_rejects_bad_time(self):
        with pytest.raises(DataError, match="positive and finite, got -1.0"):
            build_dataset(_table(number_of_cells=[3000.0], acceleration_0_100_s=[-1.0]),
                          (CELL_COUNT,))


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        labels = np.repeat([0, 1, 2], 10)
        folds = stratified_kfold(labels, 5, seed=1)
        for f in range(5):
            counts = np.bincount(labels[folds == f], minlength=3)
            assert counts.tolist() == [2, 2, 2]

    def test_deterministic(self):
        labels = np.repeat([0, 1, 2], 9)
        a = stratified_kfold(labels, 4, seed=7)
        b = stratified_kfold(labels, 4, seed=7)
        assert np.array_equal(a, b)
        c = stratified_kfold(labels, 4, seed=8)
        assert not np.array_equal(a, c)  # different shuffles with overwhelming probability

    def test_uneven_class_dealt_round_robin(self):
        labels = np.zeros(7, dtype=int)
        folds = stratified_kfold(labels, 5, seed=0)
        counts = np.bincount(folds, minlength=5)
        assert counts.max() - counts.min() == 1
        assert sorted(set(counts.tolist())) == [1, 2]

    def test_partition_properties(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 3, size=53)
        k = 5
        folds = stratified_kfold(labels, k, seed=2)
        assert folds.shape == labels.shape
        assert set(folds.tolist()) == set(range(k))  # every fold non-empty
        for c in range(3):
            per_fold = np.bincount(folds[labels == c], minlength=k)
            assert per_fold.max() - per_fold.min() <= 1

    def test_errors(self):
        with pytest.raises(DataError):
            stratified_kfold(np.array([0, 1]), 1, seed=0)
        with pytest.raises(DataError):
            stratified_kfold(np.array([0, 1]), 3, seed=0)
