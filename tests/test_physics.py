import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings, strategies as st

from evperf.data import ACCEL_S, PerfClass, bin_acceleration
from evperf.physics import (
    DEFAULT_SWEEP_PARALLEL,
    MAX_SPRINT_TIME,
    SPEED_EPS,
    TARGET_SPEED,
    PackConfig,
    PhysicsError,
    SynthConfig,
    VehicleParams,
    accel_time_0_100,
    default_pack,
    default_vehicle,
    diminishing_returns_sweep,
    ohmic_loss,
    pack_max_power,
    pack_resistance,
    pack_voltage,
    resistive_forces,
    saturation_synth_config,
    synth_dataset,
    synth_records,
    terminal_voltage,
    total_mass,
    tractive_force,
)
from evperf.physics import (
    _NODES,
    _QUAD_BLOCK,
    _WEIGHTS,
    _StreamSeed,
    _force_terms,
    _sprint_times,
    _stream_words,
)

from synth_oracle import reference_synth_records


def make_pack(**overrides):
    base = dict(
        n_series=96, n_parallel=4, r_cell=0.02, v_cell_nominal=3.7, v_cell_min=3.0,
        cell_mass=0.07,
    )
    base.update(overrides)
    return PackConfig(**base)


def make_vehicle(**overrides):
    base = dict(
        base_mass=1500.0, c_d=0.3, frontal_area=2.0, c_rr=0.01, wheel_radius=0.33,
        gear_ratio=9.0, driveline_efficiency=0.95, motor_torque_max=300.0,
        traction_limit_accel=9.5,
    )
    base.update(overrides)
    return VehicleParams(**base)


class TestPackElectrical:
    def test_voltage_anchors(self):
        assert pack_voltage(make_pack(n_series=96, n_parallel=1)) == pytest.approx(355.2, rel=1e-12)
        assert pack_voltage(make_pack(n_series=192, n_parallel=1)) == pytest.approx(710.4, rel=1e-12)
        assert pack_voltage(make_pack(n_series=1, n_parallel=1)) == pytest.approx(3.7)

    def test_resistance_series_and_parallel(self):
        assert pack_resistance(make_pack(n_series=2, n_parallel=1, r_cell=0.01)) == pytest.approx(0.02)
        assert pack_resistance(make_pack(n_series=1, n_parallel=2, r_cell=0.01)) == pytest.approx(0.005)
        assert pack_resistance(
            make_pack(n_series=96, n_parallel=4, r_cell=0.002, r_interconnects=0.005)
        ) == pytest.approx(0.053)

    def test_resistance_monotonicity(self):
        p = make_pack()
        assert pack_resistance(replace(p, n_parallel=8)) < pack_resistance(p)
        assert pack_resistance(replace(p, n_series=192)) > pack_resistance(p)

    def test_max_power_hand_case(self):
        # 400 V open circuit, 300 V cutoff, 0.1 ohm -> 400 kW
        p = make_pack(n_series=100, n_parallel=1, r_cell=0.001, v_cell_nominal=4.0, v_cell_min=3.0)
        assert pack_max_power(p) == pytest.approx(400e3)

    def test_max_power_vanishes_at_cutoff_limit(self):
        p = make_pack(v_cell_nominal=4.0, v_cell_min=4.0 * (1 - 1e-12))
        assert pack_max_power(p) == pytest.approx(0.0, abs=1e-3)

    def test_max_power_linear_in_parallel(self):
        p = make_pack(r_interconnects=0.0)
        assert pack_max_power(replace(p, n_parallel=8)) == pytest.approx(
            2.0 * pack_max_power(p), rel=1e-9
        )

    def test_terminal_voltage_and_loss(self):
        assert terminal_voltage(400.0, 0.0, 0.1) == 400.0
        assert terminal_voltage(400.0, 100.0, 0.1) == pytest.approx(390.0)
        assert ohmic_loss(100.0, 0.1) == pytest.approx(1000.0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(PhysicsError):
            make_pack(n_series=0)
        with pytest.raises(PhysicsError):
            make_pack(v_cell_min=3.7)  # must be strictly below nominal
        with pytest.raises(PhysicsError):
            make_pack(r_cell=-0.01)

    @pytest.mark.parametrize("field, value", [
        ("r_cell", math.nan), ("r_cell", math.inf), ("n_parallel", math.nan),
        ("v_cell_nominal", math.inf),
        ("r_interconnects", math.nan), ("pack_overhead_mass_fraction", math.inf),
    ])
    def test_non_finite_pack_rejected(self, field, value):
        with pytest.raises(PhysicsError, match="finite"):
            replace(default_pack(), **{field: value})


class TestMassAndForces:
    def test_total_mass(self):
        v = make_vehicle()
        p = make_pack(n_series=100, n_parallel=1, cell_mass=1.0)
        assert total_mass(v, p) == pytest.approx(1600.0)
        p2 = make_pack(n_series=100, n_parallel=1, cell_mass=1.0, pack_overhead_mass_fraction=0.3)
        assert total_mass(v, p2) == pytest.approx(1630.0)

    def test_mass_monotone_in_cells(self):
        v = make_vehicle()
        p = make_pack()
        assert total_mass(v, replace(p, n_parallel=5)) > total_mass(v, p)
        assert total_mass(v, replace(p, n_series=97)) > total_mass(v, p)

    def test_torque_limited_regime(self):
        v = make_vehicle()
        p = make_pack(n_parallel=40)  # plenty of power
        expected = 300.0 * 9.0 * 0.95 / 0.33
        assert tractive_force(v, p, 0.5) == pytest.approx(expected)
        assert expected == pytest.approx(7772.7, abs=0.1)

    def test_power_limited_regime(self):
        v = make_vehicle(motor_torque_max=5000.0, traction_limit_accel=1000.0)
        p = make_pack()
        speed = 30.0
        expected = 0.95 * pack_max_power(p) / speed
        assert tractive_force(v, p, speed) == pytest.approx(expected)

    def test_traction_cap(self):
        v = make_vehicle(motor_torque_max=1e6, traction_limit_accel=8.0)
        p = make_pack(n_parallel=60)
        assert tractive_force(v, p, 0.5) == pytest.approx(total_mass(v, p) * 8.0)

    @pytest.mark.parametrize("field, value", [
        ("c_d", math.nan), ("base_mass", math.inf), ("driveline_efficiency", math.nan),
        ("motor_torque_max", math.nan),
    ])
    def test_non_finite_vehicle_rejected(self, field, value):
        with pytest.raises(PhysicsError, match="finite"):
            replace(default_vehicle(), **{field: value})

    def test_resistive_forces(self):
        v = make_vehicle(c_d=0.3, frontal_area=2.0)
        p = make_pack()
        rolling = resistive_forces(v, p, 0.0)
        assert rolling == pytest.approx(0.01 * total_mass(v, p) * 9.81)
        aero_10 = resistive_forces(v, p, 10.0) - rolling
        assert aero_10 == pytest.approx(36.75)
        aero_40 = resistive_forces(v, p, 40.0) - rolling
        assert aero_40 == pytest.approx(16.0 * aero_10, rel=1e-12)


def _constant_power_setup(mass=2000.0, power=300e3):
    """Drag/rolling negligible, torque/traction unbounded, unit efficiency."""
    v = VehicleParams(
        base_mass=mass, c_d=1e-15, frontal_area=1e-15, c_rr=1e-15, wheel_radius=0.33,
        gear_ratio=9.0, driveline_efficiency=1.0, motor_torque_max=1e12,
        traction_limit_accel=1e12,
    )
    # V_ocv=400, V_min=300; r_cell chosen so V*(V-Vmin)/R equals `power`
    r_total = 400.0 * 100.0 / power
    p = PackConfig(
        n_series=100, n_parallel=1, r_cell=r_total / 100.0, v_cell_nominal=4.0,
        v_cell_min=3.0, cell_mass=1e-12,
    )
    return v, p


def test_quadrature_constants_equal_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(48)
    assert np.array_equal(_NODES, nodes)
    assert np.array_equal(_WEIGHTS, weights)


def test_import_leaves_numpy_polynomial_unloaded():
    src = str(Path(__import__("evperf").__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, evperf.cli; print('numpy.polynomial' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


class TestSprintIntegration:
    def test_matches_constant_power_closed_form(self):
        v, p = _constant_power_setup()
        t = accel_time_0_100(v, p)
        closed = 2000.0 * TARGET_SPEED**2 / (2.0 * 300e3)
        assert abs(t - closed) / closed < 0.01

    def test_matches_exact_constant_power_time(self):
        # the kinetic energy gained from SPEED_EPS equals power times time
        v, p = _constant_power_setup()
        exact = 2000.0 * (TARGET_SPEED**2 - SPEED_EPS**2) / (2.0 * 300e3)
        assert abs(accel_time_0_100(v, p) - exact) / exact < 1e-12

    def test_energy_balance(self):
        # with no losses, kinetic energy at the target equals wheel energy
        v, p = _constant_power_setup()
        t = accel_time_0_100(v, p)
        kinetic = 0.5 * 2000.0 * TARGET_SPEED**2
        assert kinetic == pytest.approx(300e3 * t, rel=0.01)

    def test_time_doubles_with_mass(self):
        v1, p = _constant_power_setup(mass=2000.0)
        v2, _ = _constant_power_setup(mass=4000.0)
        assert accel_time_0_100(v2, p) == pytest.approx(2.0 * accel_time_0_100(v1, p), rel=0.01)

    def test_monotone_in_mass(self):
        p = make_pack(n_parallel=10)
        times = [accel_time_0_100(make_vehicle(base_mass=m), p) for m in (1400.0, 1800.0, 2200.0)]
        assert times[0] < times[1] < times[2]

    def test_unreachable_target_raises(self):
        v = make_vehicle(c_d=250.0, frontal_area=10.0)  # drag wall below 100 km/h
        with pytest.raises(PhysicsError):
            accel_time_0_100(v, make_pack())

    def test_cannot_move_raises(self):
        v = make_vehicle(motor_torque_max=0.1)
        with pytest.raises(PhysicsError):
            accel_time_0_100(v, make_pack())

    def test_fleet_times_equal_single_sprints(self):
        pairs = _mixed_fleet()
        times = _fleet_times(pairs)
        assert times.shape == (len(pairs),)
        for seconds, (v, p) in zip(times.tolist(), pairs):
            assert seconds == accel_time_0_100(v, p)
            assert seconds == pytest.approx(_reference_sprint(v, p), rel=5e-8, abs=0)

    def test_blocked_fleet_times_equal_single_sprints(self):
        # the power-limited vehicles, whose v* = P / F_cap is below 100 km/h,
        # fill three quadrature blocks and part of a fourth
        pairs = _mixed_fleet(n=4 * _QUAD_BLOCK)
        terms = _fleet_terms(pairs)
        powered = (terms.wheel_power / terms.force_cap < TARGET_SPEED).sum()
        assert 3 * _QUAD_BLOCK < powered < 4 * _QUAD_BLOCK
        times = _sprint_times(terms)
        assert times.tolist() == [accel_time_0_100(v, p) for v, p in pairs]

    @pytest.mark.parametrize("bad, message", [
        ((replace(default_vehicle(), c_d=250.0, frontal_area=10.0), default_pack()),
         "force balance stalls at"),
        ((replace(default_vehicle(), motor_torque_max=0.1), default_pack()), "cannot accelerate"),
        ((default_vehicle(), replace(default_pack(), n_parallel=1)), "force balance stalls at 26.66"),
        ((default_vehicle(), replace(default_pack(), n_parallel=1, r_cell=0.018)),
         f"not reached within {MAX_SPRINT_TIME:.0f} s"),
    ], ids=["drag_wall", "cannot_move", "power_stall", "time_limit"])
    def test_fleet_raises_as_alone(self, bad, message):
        # the failing vehicle among normal ones gives the message it gives alone
        with pytest.raises(PhysicsError, match=message) as alone:
            accel_time_0_100(*bad)
        with pytest.raises(PhysicsError) as in_fleet:
            _fleet_times(_mixed_fleet([bad], n=8))
        assert str(in_fleet.value) == str(alone.value)

    def test_underflowed_drag_is_drag_free(self):
        # 0.5 * rho * c_d * area underflows to 0.0 here
        v = replace(default_vehicle(), c_d=1e-200, frontal_area=1e-200)
        assert accel_time_0_100(v, default_pack()) == pytest.approx(
            _reference_sprint(v, default_pack()), rel=5e-8, abs=0)

    def test_time_limit_boundary(self):
        # terminal speeds just above 100 km/h: 119.96 s passes, about 196 s does not
        v, slow = default_vehicle(), replace(default_pack(), n_parallel=1, r_cell=0.017)
        assert accel_time_0_100(v, slow) == pytest.approx(119.9586, abs=1e-4)
        with pytest.raises(PhysicsError, match=r"not reached within 120 s \(takes 195\.9 s\)"):
            accel_time_0_100(v, replace(slow, r_cell=0.018))


def _reference_sprint(v, p, dt=1e-3):
    """Plain-float fixed-step RK4 sprint, an independent reference for the quadrature.

    Its own error at dt = 1 ms is about 1.6e-8 relative on the synthetic fleets.
    """
    m = total_mass(v, p)
    force_cap = v.motor_torque_max * v.gear_ratio * v.driveline_efficiency / v.wheel_radius
    wheel_power = v.driveline_efficiency * pack_max_power(p)

    def dvdt(speed):
        drive = min(force_cap, wheel_power / max(speed, 0.1), m * v.traction_limit_accel)
        aero = 0.5 * 1.225 * v.c_d * v.frontal_area * speed * speed
        return (drive - (aero + v.c_rr * m * 9.81)) / m

    speed, t = 0.1, 0.0
    while True:
        k1 = dvdt(speed)
        k2 = dvdt(speed + 0.5 * dt * k1)
        k3 = dvdt(speed + 0.5 * dt * k2)
        k4 = dvdt(speed + dt * k3)
        new_speed = speed + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        if new_speed >= TARGET_SPEED:
            return t + dt * (TARGET_SPEED - speed) / (new_speed - speed)
        t += dt
        speed = new_speed


def _stack(configs):
    """One fleet config whose differing fields are arrays over the given configs."""
    first = configs[0]
    varying = {
        f.name: np.array([getattr(c, f.name) for c in configs])
        for f in fields(first)
        if any(getattr(c, f.name) != getattr(first, f.name) for c in configs)
    }
    return replace(first, **varying)


def _mixed_fleet(extra=(), n=40, seed=0):
    """n vehicles over SynthConfig's default ranges, then the (vehicle, pack) extras.

    The drawn vehicles take 3-20 s and turn power-limited at 3-25 m/s, except
    one that stays at its force cap up to 100 km/h; the default pack with 2-4
    parallel strings takes 16-37 s.
    """
    sc = SynthConfig()
    rng = np.random.default_rng(seed)
    pairs = [
        (
            replace(default_vehicle(), base_mass=rng.uniform(*sc.base_mass_range),
                    motor_torque_max=rng.uniform(*sc.motor_torque_range)),
            replace(default_pack(), r_cell=rng.uniform(*sc.r_cell_range),
                    n_series=int(rng.integers(sc.n_series_range[0], sc.n_series_range[1] + 1)),
                    n_parallel=int(rng.integers(sc.n_parallel_range[0], sc.n_parallel_range[1] + 1))),
        )
        for _ in range(n)
    ]
    pairs += [(default_vehicle(), replace(default_pack(), n_parallel=k)) for k in (4, 2, 3)]
    pairs += list(extra)
    return pairs


def _fleet_terms(pairs):
    return _force_terms(_stack([v for v, _ in pairs]), _stack([p for _, p in pairs]))


def _fleet_times(pairs):
    return _sprint_times(_fleet_terms(pairs))


def _sign_changes(values, tol):
    signs = [v for v in values if abs(v) > tol]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


class TestSweep:
    def test_default_sweep_has_single_knee(self):
        curve = diminishing_returns_sweep(default_vehicle(), default_pack(), DEFAULT_SWEEP_PARALLEL)
        times = np.array([t for _, t in curve])
        second = np.diff(times, 2)
        tol = 1e-9 * np.abs(times).max()
        assert _sign_changes(second.tolist(), tol) <= 1

    def test_massless_cells_never_hurt(self):
        # cell_mass must be positive, so use an epsilon mass and allow the
        # correspondingly tiny time creep on the torque-limited plateau
        pack = replace(default_pack(), cell_mass=1e-12)
        curve = diminishing_returns_sweep(default_vehicle(), pack, range(4, 40, 4))
        times = [t for _, t in curve]
        assert all(b <= a + 1e-8 for a, b in zip(times, times[1:]))

    def test_mass_only_regime_never_helps(self):
        # negligible resistance: power always exceeds the traction cap
        pack = replace(default_pack(), r_cell=1e-7)
        curve = diminishing_returns_sweep(default_vehicle(), pack, range(4, 40, 4))
        times = [t for _, t in curve]
        assert all(b >= a - 1e-12 for a, b in zip(times, times[1:]))

    def test_empty_range_rejected(self):
        with pytest.raises(PhysicsError):
            diminishing_returns_sweep(default_vehicle(), default_pack(), [])

    def test_points_equal_single_sprints_in_any_order(self):
        v, pack = default_vehicle(), default_pack()
        curve = diminishing_returns_sweep(v, pack, DEFAULT_SWEEP_PARALLEL)
        for n_par, (cells, seconds) in zip(DEFAULT_SWEEP_PARALLEL, curve):
            single = replace(pack, n_parallel=n_par)
            assert cells == single.cell_count
            assert seconds == accel_time_0_100(v, single)
        backwards = diminishing_returns_sweep(v, pack, DEFAULT_SWEEP_PARALLEL[::-1])
        assert backwards == curve[::-1]

    def test_matches_plain_float_reference(self):
        # the reference RK4 is off the exact time by about 1.6e-8 relative
        v, pack = default_vehicle(), default_pack()
        curve = diminishing_returns_sweep(v, pack, DEFAULT_SWEEP_PARALLEL)
        for n_par, (_, seconds) in zip(DEFAULT_SWEEP_PARALLEL, curve):
            reference = _reference_sprint(v, replace(pack, n_parallel=n_par))
            assert seconds == pytest.approx(reference, rel=5e-8, abs=0)


class TestSynth:
    def test_deterministic_per_seed(self):
        sc = SynthConfig(n_samples=40, seed=9)
        a = synth_dataset(sc)
        b = synth_dataset(sc)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = synth_dataset(SynthConfig(n_samples=40, seed=10))
        assert not np.array_equal(a.features, c.features)

    def test_noiseless_determinism(self):
        sc = SynthConfig(n_samples=20, seed=3, noise_sd=0.0)
        assert np.array_equal(synth_dataset(sc).features, synth_dataset(sc).features)

    def test_labels_match_binning(self):
        from evperf.data import ACCEL_S

        records = synth_records(SynthConfig(n_samples=50, seed=4))
        ds = synth_dataset(SynthConfig(n_samples=50, seed=4))
        expected = [int(bin_acceleration(r.get(ACCEL_S))) for r in records]
        assert ds.labels.tolist() == expected

    @pytest.mark.parametrize("noise_sd", [0.03, 0.05])
    def test_default_ranges_cover_all_classes(self, noise_sd):
        ds = synth_dataset(SynthConfig(noise_sd=noise_sd))
        counts = np.bincount(ds.labels, minlength=3)
        assert ds.n_samples == 300
        assert counts.min() >= 10

    @pytest.mark.parametrize("field, value", [
        ("noise_sd", math.nan), ("noise_sd", math.inf), ("segment_jitter", math.nan),
        ("n_samples", math.nan),
    ])
    def test_non_finite_synth_config_rejected(self, field, value):
        with pytest.raises(PhysicsError, match="finite"):
            SynthConfig(**{field: value})

    def test_degenerate_range_rejected(self):
        with pytest.raises(PhysicsError, match="degenerate"):
            SynthConfig(n_parallel_range=(10, 10))

    @pytest.mark.parametrize("field, value, message", [
        ("consumption_range", (-1.7e308, 1.7e308), "range for consumption must be positive"),
        ("consumption_range", (-0.1, 0.19), "range for consumption must be positive"),
        ("cell_capacity_range", (-5.0, 5.6), "range for cell_capacity must be positive"),
        ("motor_torque_range", (0.0, 1100.0), "range for motor_torque must be positive"),
        ("n_samples", 2.5, "n_samples must be a finite integer of at least 1, got 2.5"),
        ("n_samples", True, "n_samples must be a finite integer of at least 1, got True"),
        ("n_samples", 2**32 + 1, "n_samples must be at most 4294967296"),
        ("seed", 1.5, "seed must be a finite integer of at least 0, got 1.5"),
        ("seed", -1, "seed must be a finite integer of at least 0, got -1"),
        ("n_series_range", (90.5, 180), "range for n_series must hold integers"),
        ("n_parallel_range", (0, 26), r"range for n_parallel must lie in \[1, 2147483648\]"),
        ("n_series_range", (90, 2**31 + 1), r"range for n_series must lie in \[1, 2147483648\]"),
        ("base_mass_range", (1350.0, math.inf), "degenerate sampling range for base_mass"),
        ("r_cell_range", (10**400, 10**401), "degenerate sampling range for r_cell"),
    ], ids=["width_overflows", "negative_consumption", "negative_capacity", "zero_torque",
            "fractional_n_samples", "bool_n_samples", "n_samples_beyond_one_key_word",
            "fractional_seed", "negative_seed",
            "fractional_series", "zero_parallel", "series_beyond_int32", "infinite_mass",
            "int_beyond_float"])
    def test_bad_setting_named(self, field, value, message):
        with pytest.raises(PhysicsError, match=message):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("ranges, column", [
        (dict(consumption_range=(1e-320, 2e-320)), "range_km"),
        (dict(cell_capacity_range=(1e300, 1.7e308)), "battery_capacity_kwh"),
        (dict(cell_capacity_range=(1e-320, 2e-320), consumption_range=(1e10, 2e10)), "range_km"),
    ], ids=["range_overflows", "capacity_overflows", "range_underflows"])
    def test_non_finite_or_zero_column_named(self, ranges, column):
        with pytest.raises(PhysicsError, match=f"drive {column} to 0 or infinity"):
            synth_records(SynthConfig(n_samples=5, **ranges))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", ["r_cell_range", "base_mass_range"])
    def test_overflowing_forces_named_without_warning(self, field):
        with pytest.raises(PhysicsError, match="cannot accelerate from standstill"):
            synth_records(SynthConfig(n_samples=20, **{field: (1e307, 1.7e308)}))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_torque_is_grip_capped_without_warning(self):
        records = synth_records(SynthConfig(n_samples=20, motor_torque_range=(1e307, 1.7e308)))
        assert all(0 < r.values[ACCEL_S] < MAX_SPRINT_TIME for r in records)

    def test_largest_fleet_constructs(self):
        # construction only: synthesizing this fleet would take tens of GiB
        assert SynthConfig(n_samples=2**32).n_samples == 2**32

    def test_numpy_integers_accepted(self):
        numpy = SynthConfig(n_samples=np.int32(7), seed=np.uint64(2**64 - 1),
                            n_series_range=(np.int64(90), np.uint16(180)))
        plain = SynthConfig(n_samples=7, seed=2**64 - 1)
        assert [r.values for r in synth_records(numpy)] == [r.values for r in synth_records(plain)]

    def test_synth_memory_stays_blocked(self):
        # numpy reports its buffers to tracemalloc, so the peak is deterministic.
        # The records take about 500 B a vehicle. A quadrature over the whole
        # fleet's (n, 48) nodes peaks near 2,200 B a vehicle, a blocked one
        # near 800.
        n = 3000
        tracemalloc.start()
        try:
            synth_records(SynthConfig(n_samples=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1200 * n

    def test_records_have_positive_finite_values(self):
        records = synth_records(SynthConfig(n_samples=30, seed=12))
        for r in records:
            for name, value in r.values.items():
                assert value is not None and math.isfinite(value) and value > 0


def _bits(records):
    """Each record's (column, value bits) pairs; every value must be a Python float."""
    assert all(type(v) is float for r in records for v in r.values.values())
    return [[(name, value.hex()) for name, value in r.values.items()] for r in records]


def _outcome(generate, sc):
    """The fleet's bits, or the type and text of the error generating it raised."""
    try:
        return _bits(generate(sc))
    except Exception as exc:  # whatever their type, the errors are part of the contract
        return type(exc), str(exc)


@st.composite
def _real_range(draw, lo, hi):
    """A range near (lo, hi), or one anywhere in the positive floats."""
    if draw(st.integers(0, 7)) == 0:
        ends = sorted(draw(st.lists(st.floats(5e-324, 1e308), min_size=2, max_size=2)))
        return tuple(ends)
    low = lo * draw(st.floats(0.05, 4.0))
    return low, low + (hi - lo) * draw(st.floats(1e-6, 4.0))


@st.composite
def _count_range(draw, lo, hi):
    """An integer range near (lo, hi), sometimes of numpy integers, or one up to 2**31."""
    if draw(st.integers(0, 7)) == 0:
        return tuple(sorted(draw(st.lists(st.integers(1, 2**31), min_size=2, max_size=2,
                                          unique=True))))
    low = draw(st.integers(1, 2 * lo))
    high = low + draw(st.integers(1, 2 * (hi - lo)))
    return (np.int64(low), np.int32(high)) if draw(st.booleans()) else (low, high)


_SEEDS = st.one_of(st.integers(0, 2**16), st.integers(2**63, 2**66))


@st.composite
def _synth_configs(draw):
    """Generated SynthConfigs: defaults, the saturation fleet, zero jitter or noise, or new ranges."""
    n, seed = draw(st.integers(1, 60)), draw(_SEEDS)
    kind = draw(st.sampled_from(["default", "saturation", "no_jitter", "no_noise", "ranges"]))
    if kind == "saturation":
        return saturation_synth_config(n, seed)
    sc = SynthConfig(n_samples=n, seed=seed)
    if kind == "no_jitter":
        return replace(sc, segment_jitter=0.0, noise_sd=0.2)
    if kind == "no_noise":
        return replace(sc, noise_sd=0.0)
    if kind == "default":
        return sc
    settings_ = dict(
        noise_sd=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.0, 1e3))),
        segment_jitter=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        n_series_range=draw(_count_range(*sc.n_series_range)),
        n_parallel_range=draw(_count_range(*sc.n_parallel_range)),
        r_cell_range=draw(_real_range(*sc.r_cell_range)),
        cell_capacity_range=draw(_real_range(*sc.cell_capacity_range)),
        base_mass_range=draw(_real_range(*sc.base_mass_range)),
        motor_torque_range=draw(_real_range(*sc.motor_torque_range)),
        consumption_range=draw(_real_range(*sc.consumption_range)),
    )
    try:
        return replace(sc, **settings_)
    except PhysicsError:  # a range too narrow for its floats: both generators refuse it alike
        reject()


class TestSynthMatchesOracle:
    """synth_records against the per-vehicle loop it replaced (tests/synth_oracle.py)."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @example(saturation_synth_config(60, 2**64 + 5))
    @example(SynthConfig(n_samples=33, seed=2**64 - 1, segment_jitter=0.0, noise_sd=0.0))
    @example(SynthConfig(n_samples=9, seed=4, motor_torque_range=(1e-3, 2e-3)))  # cannot move
    @example(SynthConfig(n_samples=9, seed=4, base_mass_range=(1e6, 2e6)))  # too slow
    @example(SynthConfig(n_samples=9, seed=4, noise_sd=800.0))  # noise overflows
    @example(SynthConfig(n_samples=9, seed=4, consumption_range=(1e-320, 2e-320)))  # range_km inf
    @example(SynthConfig(n_samples=9, seed=4, cell_capacity_range=(1e-320, 2e-320),
                         consumption_range=(1e10, 2e10)))  # range_km 0
    # int ends beyond 2**53: the torque's width is taken in ints, as Python does, and
    # consumption's in floats, as Generator.uniform does
    @example(SynthConfig(n_samples=9, seed=4, motor_torque_range=(2**53 + 1, 2**54),
                         consumption_range=(1, 2**53 + 1)))
    @given(sc=_synth_configs())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme ranges overflow the physics
    def test_bit_identical_to_oracle(self, sc):
        expected = _outcome(reference_synth_records, sc)
        if isinstance(expected, list) and not all(
                0 < float.fromhex(bits) < math.inf for row in expected for _, bits in row):
            # the oracle's silent 0 or infinite capacity or range is now an error
            kind, text = _outcome(synth_records, sc)
            assert kind is PhysicsError and "to 0 or infinity" in text
            return
        assert _outcome(synth_records, sc) == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, n=st.integers(2, 60), data=st.data())
    def test_prefix_is_the_smaller_fleet(self, seed, n, data):
        k = data.draw(st.integers(1, n - 1))
        sc = data.draw(st.sampled_from([SynthConfig(n_samples=n, seed=seed),
                                        saturation_synth_config(n, seed)]))
        assert _bits(synth_records(sc)[:k]) == _bits(synth_records(replace(sc, n_samples=k)))


class TestStreamSeeds:
    """_stream_words and _StreamSeed against numpy's own SeedSequence children."""

    # 1 to 7 uint32 words: seeds up to the pool's 4 words, and beyond it
    @settings(max_examples=150, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**16), st.integers(2**32 - 2**8, 2**32 + 2**8),
                          st.integers(2**63, 2**66), st.integers(2**127, 2**129),
                          st.integers(2**190, 2**200)),
           n=st.integers(1, 70))
    def test_words_and_states_equal_numpys(self, seed, n):
        children = np.random.SeedSequence(seed).spawn(n)
        words = _stream_words(seed, n)
        assert words.dtype == np.uint64 and words.shape == (n, 4)
        assert words.tolist() == [c.generate_state(4, np.uint64).tolist() for c in children]
        for row, child in zip(words, children):
            state = np.random.Generator(np.random.PCG64(_StreamSeed(row))).bit_generator.state
            assert state == np.random.default_rng(child).bit_generator.state

    @pytest.mark.parametrize("n_words, dtype", [
        (4, np.uint32), (8, np.uint32), (3, np.uint64), (5, np.uint64), (4, np.int64),
    ])
    def test_other_requests_refused(self, n_words, dtype):
        seed = _StreamSeed(_stream_words(0, 1)[0])
        with pytest.raises(ValueError, match="holds 4 uint64 words only"):
            seed.generate_state(n_words, dtype)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64,
                                               np.random.Philox])
    def test_other_bit_generators_refused(self, bit_generator):
        with pytest.raises(ValueError, match="holds 4 uint64 words only"):
            bit_generator(_StreamSeed(_stream_words(0, 1)[0]))


def test_perf_class_helper_consistency():
    assert bin_acceleration(3.0) is PerfClass.HIGH
    assert int(PerfClass.HIGH) == 2
