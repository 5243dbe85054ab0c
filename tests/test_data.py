import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evperf.data import (
    ACCEL_S,
    CELL_COUNT,
    WEIGHT_KG,
    DataError,
    Dataset,
    PerfClass,
    VehicleRecord,
    apply_scaler,
    bin_acceleration,
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


class TestLoadCsv:
    def test_empty_cell_becomes_missing(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n"
            "50,,1800,300,400,6.5\n"
        )
        records = load_csv(f)
        assert len(records) == 1
        assert records[0].get(CELL_COUNT) is None
        assert records[0].get(WEIGHT_KG) == 1800.0

    def test_header_only_gives_empty_list(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n")
        assert load_csv(f) == []

    def test_unparseable_cell_is_missing_and_warned(self, tmp_path, caplog):
        f = tmp_path / "d.csv"
        f.write_text(
            "battery_capacity_kwh,number_of_cells,weight_kg,torque_nm,range_km,acceleration_0_100_s\n"
            "50,4000,abc,300,400,6.5\n"
        )
        with caplog.at_level("WARNING"):
            records = load_csv(f)
        assert records[0].get(WEIGHT_KG) is None
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
            records = load_csv(f)
        assert len(records) == 4
        assert records[0].get(ACCEL_S) is None and records[0].get(WEIGHT_KG) == 1800.0
        assert records[1].get(ACCEL_S) == 6.5 and records[1] == records[3]
        assert records[2].get(CELL_COUNT) is None
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
        rec = load_csv(f)[0]
        assert rec.get(CELL_COUNT) is None
        assert rec.get(ACCEL_S) is None

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
        records = load_csv(f, schema=(CELL_COUNT, ACCEL_S), aliases=aliases)
        assert records[0].get(CELL_COUNT) == 4000.0
        assert records[0].get(ACCEL_S) == 5.2

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


def _record(**kv):
    return VehicleRecord(dict(kv))


class TestDropMissing:
    def test_listwise_deletion_counts(self):
        # 478 records, 202 without a cell count, leaves 276
        records = [_record(number_of_cells=3000.0, weight_kg=2000.0) for _ in range(276)]
        records += [_record(number_of_cells=None, weight_kg=2000.0) for _ in range(202)]
        kept = drop_missing(records, [CELL_COUNT])
        assert len(records) == 478
        assert len(kept) == 276

    def test_identity_when_nothing_missing(self):
        records = [_record(number_of_cells=float(i)) for i in range(1, 5)]
        kept = drop_missing(records, [CELL_COUNT])
        assert kept == records
        assert all(a is b for a, b in zip(kept, records))  # survivors not copied

    def test_all_missing_gives_empty(self):
        records = [_record(number_of_cells=None) for _ in range(3)]
        assert drop_missing(records, [CELL_COUNT]) == []

    def test_order_preserved(self):
        records = [
            _record(number_of_cells=1.0, weight_kg=None),
            _record(number_of_cells=None),
            _record(number_of_cells=3.0),
        ]
        kept = drop_missing(records, [CELL_COUNT])
        assert [r.get(CELL_COUNT) for r in kept] == [1.0, 3.0]


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
        records = [
            _record(number_of_cells=3000.0, acceleration_0_100_s=3.5),
            _record(number_of_cells=None, acceleration_0_100_s=5.0),
            _record(number_of_cells=500.0, acceleration_0_100_s=9.0),
            _record(number_of_cells=800.0, acceleration_0_100_s=None),
        ]
        ds = build_dataset(records, (CELL_COUNT,))
        assert ds.n_samples == 2
        assert list(ds.labels) == [int(PerfClass.HIGH), int(PerfClass.LOW)]
        assert ds.features[:, 0].tolist() == [3000.0, 500.0]


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
