"""First-principles battery-pack and longitudinal-dynamics model.

Computes pack voltage/resistance/power from the series-parallel cell layout,
integrates the 0-100 km/h sprint, sweeps cell count to expose the
power-versus-mass trade-off, and generates labeled synthetic datasets.

There is one sprint integrator, a fixed-step RK4 over a batch of vehicles.
The cell-count sweep and the synthetic fleet are one batch each, and
accel_time_0_100 is a one-vehicle batch. The pack, mass and force helpers
work elementwise, so a pack or vehicle whose varying fields are numpy arrays
describes a whole fleet and every formula is written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import (
    ACCEL_S,
    CAPACITY_KWH,
    CELL_COUNT,
    DEFAULT_FEATURES,
    RANGE_KM,
    TORQUE_NM,
    WEIGHT_KG,
    Dataset,
    VehicleRecord,
    build_dataset,
)

TARGET_SPEED = 100.0 / 3.6  # 100 km/h in m/s
SPEED_EPS = 0.1             # m/s; guards the power-limited force at standstill
MAX_SPRINT_TIME = 120.0     # s; give up if 100 km/h is not reached by then

# Parallel-string counts swept by the default diminishing-returns curve.
DEFAULT_SWEEP_PARALLEL = range(6, 61, 2)


class PhysicsError(ValueError):
    """Inconsistent physical configuration or an unreachable target speed."""


@dataclass(frozen=True)
class PackConfig:
    """Battery pack architecture: cell layout plus per-cell electrical data.

    n_series cells in a string set the voltage; n_parallel strings divide the
    resistance and multiply current capability.

    n_series, n_parallel and r_cell may also be numpy arrays of one shape:
    a fleet of packs that share the other fields, which the physics helpers
    evaluate elementwise. Such an instance is not hashable or comparable.
    """

    n_series: int
    n_parallel: int
    r_cell: float               # ohm, per cell
    v_cell_nominal: float       # volt
    v_cell_min: float           # volt, safe discharge cutoff per cell
    cell_mass: float            # kg
    cell_capacity_ah: float     # amp-hour
    r_interconnects: float = 0.0           # ohm, busbars and welds
    pack_overhead_mass_fraction: float = 0.0  # housing/cooling mass per cell mass

    def __post_init__(self) -> None:
        if np.any(self.n_series < 1) or np.any(self.n_parallel < 1):
            raise PhysicsError("cell counts must be at least 1")
        if np.any(self.r_cell <= 0) or self.v_cell_nominal <= 0 or self.cell_mass <= 0:
            raise PhysicsError("r_cell, v_cell_nominal and cell_mass must be positive")
        if not 0 < self.v_cell_min < self.v_cell_nominal:
            raise PhysicsError("v_cell_min must lie in (0, v_cell_nominal)")
        if self.cell_capacity_ah <= 0:
            raise PhysicsError("cell_capacity_ah must be positive")
        if self.r_interconnects < 0 or self.pack_overhead_mass_fraction < 0:
            raise PhysicsError("r_interconnects and overhead fraction must be non-negative")

    @property
    def cell_count(self) -> int:
        return self.n_series * self.n_parallel


@dataclass(frozen=True)
class VehicleParams:
    """Chassis, motor and drivetrain constants (everything but the pack).

    base_mass and motor_torque_max may also be numpy arrays of one shape, a
    fleet of vehicles, as for PackConfig.
    """

    base_mass: float            # kg, vehicle without battery pack
    c_d: float                  # aerodynamic drag coefficient
    frontal_area: float         # m^2
    c_rr: float                 # rolling-resistance coefficient
    wheel_radius: float         # m
    gear_ratio: float
    driveline_efficiency: float  # (0, 1]
    motor_torque_max: float     # N*m
    traction_limit_accel: float  # m/s^2, tire grip cap
    air_density: float = 1.225  # kg/m^3
    g: float = 9.81             # m/s^2

    def __post_init__(self) -> None:
        fields = (
            self.base_mass, self.c_d, self.frontal_area, self.c_rr,
            self.wheel_radius, self.gear_ratio, self.driveline_efficiency,
            self.motor_torque_max, self.traction_limit_accel, self.air_density, self.g,
        )
        if any(np.any(v <= 0) for v in fields):
            raise PhysicsError("all vehicle parameters must be positive")
        if self.driveline_efficiency > 1:
            raise PhysicsError("driveline_efficiency cannot exceed 1")


def pack_voltage(p: PackConfig) -> float:
    """Nominal open-circuit pack voltage: series count times cell voltage."""
    return p.n_series * p.v_cell_nominal


def pack_min_voltage(p: PackConfig) -> float:
    """Pack-level safe cutoff voltage."""
    return p.n_series * p.v_cell_min


def pack_resistance(p: PackConfig) -> float:
    """Total pack resistance.

    Series cells add their resistance; parallel strings divide the string
    resistance; interconnect resistance adds on top. Strictly decreasing in
    n_parallel and increasing in n_series.
    """
    return p.n_series * p.r_cell / p.n_parallel + p.r_interconnects


def pack_max_power(p: PackConfig, at_cutoff: bool = False) -> float:
    """Peak electrical power the pack can deliver before hitting the cutoff.

    Estimated as V_ocv * (V_ocv - V_min) / R. With ``at_cutoff`` the leading
    factor is V_min instead: the power actually delivered at the sag limit,
    a slightly more conservative figure kept for sensitivity checks.
    """
    v_ocv = pack_voltage(p)
    v_min = pack_min_voltage(p)
    lead = v_min if at_cutoff else v_ocv
    return lead * (v_ocv - v_min) / pack_resistance(p)


def terminal_voltage(v_ocv: float, i: float, r: float) -> float:
    """Terminal voltage under load: open-circuit voltage minus the I*R sag."""
    return v_ocv - i * r


def ohmic_loss(i: float, r: float) -> float:
    """Resistive heating power I^2 * R in watts."""
    return i * i * r


def total_mass(v: VehicleParams, p: PackConfig) -> float:
    """Vehicle mass including all cells and proportional pack overhead."""
    return v.base_mass + p.cell_count * p.cell_mass * (1.0 + p.pack_overhead_mass_fraction)


class _ForceTerms(NamedTuple):
    """Speed-independent terms of the sprint ODE, scalars or per-vehicle arrays.

    dv/dt = (min(wheel_force_cap, wheel_power / max(v, SPEED_EPS),
    traction_force) - drag_coeff * v^2 - rolling_force) / mass.
    """

    wheel_force_cap: np.ndarray  # N, motor torque through the driveline
    wheel_power: np.ndarray      # W, peak pack power through the driveline
    traction_force: np.ndarray   # N, tire grip cap
    drag_coeff: float            # N per (m/s)^2
    rolling_force: np.ndarray    # N
    mass: np.ndarray             # kg


def _force_terms(v: VehicleParams, p: PackConfig) -> _ForceTerms:
    eta = v.driveline_efficiency
    mass = total_mass(v, p)
    return _ForceTerms(
        wheel_force_cap=v.motor_torque_max * v.gear_ratio * eta / v.wheel_radius,
        wheel_power=eta * pack_max_power(p),
        traction_force=mass * v.traction_limit_accel,
        drag_coeff=0.5 * v.air_density * v.c_d * v.frontal_area,
        rolling_force=v.c_rr * mass * v.g,
        mass=mass,
    )


def _drive_force(f: _ForceTerms, speed: np.ndarray) -> np.ndarray:
    return np.minimum(
        np.minimum(f.wheel_force_cap, f.wheel_power / np.maximum(speed, SPEED_EPS)),
        f.traction_force,
    )


def _drag_force(f: _ForceTerms, speed: np.ndarray) -> np.ndarray:
    return f.drag_coeff * speed * speed


def tractive_force(v: VehicleParams, p: PackConfig, speed: float) -> float:
    """Force at the wheels: the binding one of three limits.

    Torque-limited at low speed, battery-power-limited at high speed, and
    capped by tire grip throughout. Speed is floored at SPEED_EPS so the
    power limit stays finite at standstill.
    """
    return _drive_force(_force_terms(v, p), speed)


def resistive_forces(v: VehicleParams, p: PackConfig, speed: float) -> float:
    """Aerodynamic drag plus rolling resistance at the given speed."""
    f = _force_terms(v, p)
    return _drag_force(f, speed) + f.rolling_force


def _sprint_times(f: _ForceTerms, dt: float = 1e-3) -> np.ndarray:
    """Seconds from rest to 100 km/h for every vehicle the terms describe.

    Fixed-step RK4 on dv/dt, all vehicles stepped together from SPEED_EPS.
    A vehicle's final partial step is linearly interpolated to the target
    crossing; after that it keeps its pre-crossing speed, so it repeats the
    crossing step and never trips the stall check. Raises PhysicsError if a
    vehicle cannot move off the line, stops gaining speed, or has not reached
    the target within MAX_SPRINT_TIME.
    """

    def dvdt(speed: np.ndarray) -> np.ndarray:
        return (_drive_force(f, speed) - _drag_force(f, speed) - f.rolling_force) / f.mass

    # shape () when every term is a scalar (one vehicle): numpy then steps in
    # scalars, which is faster than a 1-element array
    speed = np.full(np.broadcast(*f).shape, SPEED_EPS)
    if (dvdt(speed) <= 0).any():
        raise PhysicsError("vehicle cannot accelerate from standstill")
    times = np.full(speed.shape, np.nan)
    running = np.ones(speed.shape, dtype=bool)
    t = 0.0
    while running.any():
        if t >= MAX_SPRINT_TIME:
            raise PhysicsError(
                f"target speed not reached within {MAX_SPRINT_TIME:.0f} s "
                f"(stuck near {speed[running].min():.1f} m/s)"
            )
        k1 = dvdt(speed)
        k2 = dvdt(speed + 0.5 * dt * k1)
        k3 = dvdt(speed + 0.5 * dt * k2)
        k4 = dvdt(speed + dt * k3)
        new_speed = speed + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        stalled = new_speed <= speed
        if stalled.any():
            raise PhysicsError(f"force balance stalls at {speed[stalled].min():.2f} m/s")
        crossed = running & (new_speed >= TARGET_SPEED)
        if crossed.any():
            frac = (TARGET_SPEED - speed[crossed]) / (new_speed[crossed] - speed[crossed])
            times[crossed] = t + dt * frac
            running &= ~crossed
        speed = np.where(running, new_speed, speed)
        t += dt
    return times


def accel_time_0_100(v: VehicleParams, p: PackConfig, dt: float = 1e-3) -> float:
    """Seconds to accelerate from rest to 100 km/h: a one-vehicle sprint.

    Fixed-step RK4 on dv/dt = (F_tractive - F_resistive) / m, starting at
    SPEED_EPS, with the final partial step interpolated to the crossing.
    Raises PhysicsError if the force balance prevents reaching the target
    within MAX_SPRINT_TIME.
    """
    return float(_sprint_times(_force_terms(v, p), dt))


def diminishing_returns_sweep(
    v: VehicleParams,
    template: PackConfig,
    n_parallel_values: list[int] | range,
) -> list[tuple[int, float]]:
    """Sprint time as a function of total cell count.

    One pack per parallel-string count, built from the template, all
    integrated in one batch; each time equals accel_time_0_100 on that pack.
    Returns (cell count, seconds) pairs in the order given.
    """
    n_parallel = np.array(n_parallel_values, dtype=np.int64)
    if n_parallel.size == 0:
        raise PhysicsError("n_parallel range is empty")
    packs = replace(template, n_parallel=n_parallel)
    times = _sprint_times(_force_terms(v, packs))
    return list(zip(packs.cell_count.tolist(), times.tolist()))


def default_vehicle() -> VehicleParams:
    """Mid-size EV chassis/motor constants used by the synthetic generator."""
    return VehicleParams(
        base_mass=1500.0,
        c_d=0.28,
        frontal_area=2.3,
        c_rr=0.010,
        wheel_radius=0.33,
        gear_ratio=9.0,
        driveline_efficiency=0.92,
        motor_torque_max=350.0,
        traction_limit_accel=9.5,
    )


def default_pack() -> PackConfig:
    """Cylindrical-cell pack template used by the synthetic generator."""
    return PackConfig(
        n_series=96,
        n_parallel=30,
        r_cell=0.02,
        v_cell_nominal=3.7,
        v_cell_min=3.0,
        cell_mass=0.07,
        cell_capacity_ah=5.0,
        r_interconnects=0.002,
        pack_overhead_mass_fraction=0.35,
    )


def _check_range(name: str, lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise PhysicsError(f"degenerate sampling range for {name}: ({lo}, {hi})")


@dataclass(frozen=True)
class SynthConfig:
    """Sampling ranges and noise settings for synthetic dataset generation.

    Ranges are uniform (integer-uniform for cell counts). Noise is Gaussian
    on the log of the sprint time, i.e. multiplicative log-normal.

    Motor torque and parallel-string count share a latent market-segment
    position within their ranges, blurred by ``segment_jitter``: performance
    vehicles pair big motors with big packs, commuters the opposite, just as
    real product tiers do. Jitter 0 ties them exactly; large jitter decouples
    them.
    """

    n_samples: int = 300
    seed: int = 0
    noise_sd: float = 0.03
    segment_jitter: float = 0.15
    n_series_range: tuple[int, int] = (90, 180)
    n_parallel_range: tuple[int, int] = (4, 26)
    r_cell_range: tuple[float, float] = (0.021, 0.026)
    cell_capacity_range: tuple[float, float] = (4.4, 5.6)  # Ah
    base_mass_range: tuple[float, float] = (1350.0, 2050.0)
    motor_torque_range: tuple[float, float] = (300.0, 1100.0)
    consumption_range: tuple[float, float] = (0.15, 0.19)  # kWh per km

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise PhysicsError("n_samples must be positive")
        if self.noise_sd < 0 or self.segment_jitter < 0:
            raise PhysicsError("noise_sd and segment_jitter must be non-negative")
        _check_range("n_series", *self.n_series_range)
        _check_range("n_parallel", *self.n_parallel_range)
        _check_range("r_cell", *self.r_cell_range)
        _check_range("cell_capacity", *self.cell_capacity_range)
        _check_range("base_mass", *self.base_mass_range)
        _check_range("motor_torque", *self.motor_torque_range)
        _check_range("consumption", *self.consumption_range)


def synth_records(
    sc: SynthConfig,
    v: VehicleParams | None = None,
    template: PackConfig | None = None,
) -> list[VehicleRecord]:
    """Sample vehicles, integrate their sprints, and emit canonical records.

    Each sample draws its parameters from an independent RNG stream derived
    from the seed, so the output is reproducible and order-independent.
    """
    v = v or default_vehicle()
    template = template or default_pack()
    streams = np.random.SeedSequence(sc.seed).spawn(sc.n_samples)

    n_series = np.empty(sc.n_samples, dtype=np.int64)
    n_parallel = np.empty(sc.n_samples, dtype=np.int64)
    r_cell = np.empty(sc.n_samples)
    cell_cap = np.empty(sc.n_samples)
    base_mass = np.empty(sc.n_samples)
    torque = np.empty(sc.n_samples)
    consumption = np.empty(sc.n_samples)
    noise = np.empty(sc.n_samples)
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        segment = rng.uniform()
        u_torque = min(max(segment + rng.normal(0.0, sc.segment_jitter), 0.0), 1.0)
        u_parallel = min(max(segment + rng.normal(0.0, sc.segment_jitter), 0.0), 1.0)
        lo_t, hi_t = sc.motor_torque_range
        torque[i] = lo_t + (hi_t - lo_t) * u_torque
        lo_p, hi_p = sc.n_parallel_range
        n_parallel[i] = round(lo_p + (hi_p - lo_p) * u_parallel)
        n_series[i] = rng.integers(sc.n_series_range[0], sc.n_series_range[1] + 1)
        r_cell[i] = rng.uniform(*sc.r_cell_range)
        cell_cap[i] = rng.uniform(*sc.cell_capacity_range)
        base_mass[i] = rng.uniform(*sc.base_mass_range)
        consumption[i] = rng.uniform(*sc.consumption_range)
        noise[i] = rng.normal(0.0, 1.0)

    pack = replace(template, n_series=n_series, n_parallel=n_parallel, r_cell=r_cell)
    forces = _force_terms(replace(v, base_mass=base_mass, motor_torque_max=torque), pack)
    times = _sprint_times(forces)
    noisy_times = times * np.exp(sc.noise_sd * noise)

    cells = pack.cell_count
    capacity = cells * template.v_cell_nominal * cell_cap / 1000.0
    range_km = capacity / consumption
    records = []
    for i in range(sc.n_samples):
        records.append(
            VehicleRecord(
                {
                    CAPACITY_KWH: float(capacity[i]),
                    CELL_COUNT: float(cells[i]),
                    WEIGHT_KG: float(forces.mass[i]),
                    TORQUE_NM: float(torque[i]),
                    RANGE_KM: float(range_km[i]),
                    ACCEL_S: float(noisy_times[i]),
                }
            )
        )
    return records


def synth_dataset(
    sc: SynthConfig,
    v: VehicleParams | None = None,
    template: PackConfig | None = None,
) -> Dataset:
    """Labeled synthetic dataset with the canonical feature columns."""
    return build_dataset(synth_records(sc, v, template), DEFAULT_FEATURES)


def saturation_synth_config(n_samples: int = 300, seed: int = 0) -> SynthConfig:
    """Generator settings that straddle the power-saturation knee.

    Packs start just power-starved and end deep in saturation, so the
    per-cell benefit is steep at the bottom of the cell-count range and
    fades at the top. Used by the dependence-curve analyses; the default
    config instead favors class separability.
    """
    return SynthConfig(
        n_samples=n_samples,
        seed=seed,
        noise_sd=0.03,
        n_parallel_range=(14, 32),
    )
