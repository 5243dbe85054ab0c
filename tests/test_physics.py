import math
from dataclasses import replace

import numpy as np
import pytest

from evperf.data import PerfClass, bin_acceleration
from evperf.physics import (
    DEFAULT_SWEEP_PARALLEL,
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
    synth_dataset,
    synth_records,
    terminal_voltage,
    total_mass,
    tractive_force,
)


def make_pack(**overrides):
    base = dict(
        n_series=96, n_parallel=4, r_cell=0.02, v_cell_nominal=3.7, v_cell_min=3.0,
        cell_mass=0.07, cell_capacity_ah=5.0,
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
        assert pack_max_power(p, at_cutoff=True) == pytest.approx(300e3)

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
        v_cell_min=3.0, cell_mass=1e-12, cell_capacity_ah=5.0,
    )
    return v, p


class TestSprintIntegration:
    def test_matches_constant_power_closed_form(self):
        v, p = _constant_power_setup()
        t = accel_time_0_100(v, p)
        closed = 2000.0 * TARGET_SPEED**2 / (2.0 * 300e3)
        assert abs(t - closed) / closed < 0.01

    def test_step_halving_converged(self):
        v, p = _constant_power_setup()
        t1 = accel_time_0_100(v, p, dt=1e-3)
        t2 = accel_time_0_100(v, p, dt=0.5e-3)
        assert abs(t1 - t2) / t1 < 1e-3

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


def _reference_sprint(v, p, dt=1e-3):
    """Plain-float RK4 sprint, kept as the reference for the batch integrator."""
    m = total_mass(v, p)
    force_cap = v.motor_torque_max * v.gear_ratio * v.driveline_efficiency / v.wheel_radius
    wheel_power = v.driveline_efficiency * pack_max_power(p)

    def dvdt(speed):
        drive = min(force_cap, wheel_power / max(speed, 0.1), m * v.traction_limit_accel)
        aero = 0.5 * v.air_density * v.c_d * v.frontal_area * speed * speed
        return (drive - (aero + v.c_rr * m * v.g)) / m

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
        # the batch integrator subtracts drag and rolling force one at a time
        # and interpolates the crossing as dt * fraction, so it may differ
        # from the reference by rounding only
        v, pack = default_vehicle(), default_pack()
        curve = diminishing_returns_sweep(v, pack, DEFAULT_SWEEP_PARALLEL)
        for n_par, (_, seconds) in zip(DEFAULT_SWEEP_PARALLEL, curve):
            reference = _reference_sprint(v, replace(pack, n_parallel=n_par))
            assert seconds == pytest.approx(reference, rel=1e-15, abs=0)


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

    def test_degenerate_range_rejected(self):
        with pytest.raises(PhysicsError, match="degenerate"):
            SynthConfig(n_parallel_range=(10, 10))

    def test_records_have_positive_finite_values(self):
        records = synth_records(SynthConfig(n_samples=30, seed=12))
        for r in records:
            for name, value in r.values.items():
                assert value is not None and math.isfinite(value) and value > 0


def test_perf_class_helper_consistency():
    assert bin_acceleration(3.0) is PerfClass.HIGH
    assert int(PerfClass.HIGH) == 2
