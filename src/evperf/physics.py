"""First-principles battery-pack and longitudinal-dynamics model.

Computes pack voltage/resistance/power from the series-parallel cell layout,
integrates the 0-100 km/h sprint, sweeps cell count to expose the
power-versus-mass trade-off, and generates labeled synthetic datasets.

The sprint ODE is separable, so each 0-100 km/h time is an integral over
speed: closed form while the drive force sits at its cap, Gauss-Legendre
quadrature once the pack's power limits it. One function computes it for a
batch of vehicles; synth_records and diminishing_returns_sweep pass one batch
each and accel_time_0_100 a batch of one. Every operation is elementwise per
vehicle, so a vehicle's time has the same bits in any batch. The quadrature
runs over blocks of vehicles whose node temporaries stay within 64 KiB, so
its memory does not grow with the batch. The pack, mass
and force helpers work elementwise too, so a pack or vehicle whose varying
fields are numpy arrays describes a whole fleet and every formula is written
once.
"""

from __future__ import annotations

import math
import numbers
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
AIR_DENSITY = 1.225         # kg/m^3
GRAVITY = 9.81              # m/s^2
SPEED_EPS = 0.1             # m/s; guards the power-limited force at standstill
MAX_SPRINT_TIME = 120.0     # s; give up if 100 km/h is not reached by then

# Parallel-string counts swept by the default diminishing-returns curve.
DEFAULT_SWEEP_PARALLEL = range(6, 61, 2)


class PhysicsError(ValueError):
    """Inconsistent physical configuration or an unreachable target speed."""


# Range checks that NaN fails: every value, scalar or array, must be finite
# and inside the range.
def _finite_above(lo: float, *values) -> bool:
    return all(np.all(np.isfinite(v) & (np.asarray(v) > lo)) for v in values)


def _finite_at_least(lo: float, *values) -> bool:
    return all(np.all(np.isfinite(v) & (np.asarray(v) >= lo)) for v in values)


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
    r_interconnects: float = 0.0           # ohm, busbars and welds
    pack_overhead_mass_fraction: float = 0.0  # housing/cooling mass per cell mass

    def __post_init__(self) -> None:
        if not _finite_at_least(1, self.n_series, self.n_parallel):
            raise PhysicsError("cell counts must be finite and at least 1")
        if not _finite_above(0, self.r_cell, self.v_cell_nominal, self.cell_mass):
            raise PhysicsError("r_cell, v_cell_nominal and cell_mass must be finite and positive")
        if not 0 < self.v_cell_min < self.v_cell_nominal:
            raise PhysicsError("v_cell_min must lie in (0, v_cell_nominal)")
        if not _finite_at_least(0, self.r_interconnects, self.pack_overhead_mass_fraction):
            raise PhysicsError("r_interconnects and overhead fraction must be finite and non-negative")

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

    def __post_init__(self) -> None:
        fields = (
            self.base_mass, self.c_d, self.frontal_area, self.c_rr,
            self.wheel_radius, self.gear_ratio, self.driveline_efficiency,
            self.motor_torque_max, self.traction_limit_accel,
        )
        if not _finite_above(0, *fields):
            raise PhysicsError("all vehicle parameters must be finite and positive")
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


def pack_max_power(p: PackConfig) -> float:
    """Peak electrical power the pack can deliver before hitting the cutoff.

    Estimated as V_ocv * (V_ocv - V_min) / R.
    """
    v_ocv = pack_voltage(p)
    return v_ocv * (v_ocv - pack_min_voltage(p)) / pack_resistance(p)


def total_mass(v: VehicleParams, p: PackConfig) -> float:
    """Vehicle mass including all cells and proportional pack overhead."""
    return v.base_mass + p.cell_count * p.cell_mass * (1.0 + p.pack_overhead_mass_fraction)


class _ForceTerms(NamedTuple):
    """Speed-independent terms of the sprint ODE, scalars or per-vehicle arrays.

    dv/dt = (min(force_cap, wheel_power / max(v, SPEED_EPS)) - drag_coeff * v^2
    - rolling_force) / mass.
    """

    force_cap: np.ndarray        # N, the lower of motor torque through the driveline and tire grip
    wheel_power: np.ndarray      # W, peak pack power through the driveline
    drag_coeff: float            # N per (m/s)^2
    rolling_force: np.ndarray    # N
    mass: np.ndarray             # kg


def _force_terms(v: VehicleParams, p: PackConfig) -> _ForceTerms:
    # extreme fleets overflow here; _sprint_times names whatever that breaks
    with np.errstate(over="ignore"):
        eta = v.driveline_efficiency
        mass = total_mass(v, p)
        return _ForceTerms(
            force_cap=np.minimum(v.motor_torque_max * v.gear_ratio * eta / v.wheel_radius,
                                 mass * v.traction_limit_accel),
            wheel_power=eta * pack_max_power(p),
            drag_coeff=0.5 * AIR_DENSITY * v.c_d * v.frontal_area,
            rolling_force=v.c_rr * mass * GRAVITY,
            mass=mass,
        )


def _drive_force(f: _ForceTerms, speed):
    """Force at the wheels: the torque or grip cap, or the power limit at speed.

    Speed is floored at SPEED_EPS so the power limit stays finite at standstill.
    """
    return np.minimum(f.force_cap, f.wheel_power / np.maximum(speed, SPEED_EPS))


def _drag_force(f: _ForceTerms, speed):
    return f.drag_coeff * speed * speed


def _net_force(f: _ForceTerms, speed):
    return _drive_force(f, speed) - _drag_force(f, speed) - f.rolling_force


# Gauss-Legendre nodes and weights on [-1, 1] for the power-limited phase, as
# numpy.polynomial.legendre.leggauss(48) gives them (tabulated so that no run
# imports numpy.polynomial); both are symmetric about 0, so the positive half
# is stored. 96 nodes change the synthetic fleets' times by under 3e-14 relative.
_HALF_NODES = np.array([
    0.03238017096286937, 0.0970046992094627, 0.1612223560688917, 0.22476379039468905,
    0.28736248735545555, 0.3487558862921607, 0.4086864819907167, 0.4669029047509584,
    0.523160974722233, 0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
    0.7240341309238146, 0.7671590325157404, 0.8070662040294426, 0.8435882616243935,
    0.8765720202742479, 0.9058791367155696, 0.9313866907065543, 0.9529877031604308,
    0.9705915925462473, 0.9841245837228269, 0.9935301722663508, 0.9987710072524261,
])
_HALF_WEIGHTS = np.array([
    0.06473769681268365, 0.06446616443594982, 0.06392423858464787, 0.06311419228625373,
    0.06203942315989242, 0.0607044391658936, 0.059114839698395344, 0.057277292100402916,
    0.05519950369998403, 0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
    0.04467456085669423, 0.04154508294346455, 0.0382413510658305, 0.034777222564770394,
    0.031167227832798097, 0.027426509708357034, 0.023570760839324047,
    0.019616160457356056, 0.015579315722943226, 0.011477234579234614,
    0.007327553901276135, 0.0031533460523098414,
])
_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])
# vehicles per quadrature block: each (block, 48) float64 temporary stays
# within 64 KiB, in cache and below glibc malloc's 128 KiB mmap threshold
_QUAD_BLOCK = 8192 // len(_NODES)


def _sprint_times(f: _ForceTerms) -> np.ndarray:
    """Seconds from SPEED_EPS to 100 km/h for every vehicle of the batch, as a flat array.

    The sprint ODE m dv/dt = min(F_cap, P/v) - F_r - c v^2 is separable, so
    each time is an integral over speed, split where the drive force turns
    from its constant cap to the power limit, at v* = P/F_cap clipped to
    [SPEED_EPS, 100 km/h]. Below v* the integral is closed form; above it,
    m v / (P - F_r v - c v^3) is summed by Gauss-Legendre quadrature, over
    ``_QUAD_BLOCK`` power-limited vehicles at a time, so that each
    (block, 48) temporary holds at most 8,192 values (64 KiB) however large
    the batch; the checks, the closed form and the time limit run over the
    whole batch. Every operation is elementwise per vehicle, and each row's
    weighted sum reduces on its own, so a vehicle's time has the same bits
    in any batch and any block. Both phases' net forces fall with speed, so
    a vehicle reaches 100 km/h iff its net force is positive there. Raises
    PhysicsError if a vehicle cannot move off the line, stalls below
    100 km/h, or needs more than MAX_SPRINT_TIME.
    """
    f = _ForceTerms(*(a.ravel() for a in np.broadcast_arrays(*f)))
    # a drag coefficient that underflowed to 0 would make the closed forms 0/0
    f = f._replace(drag_coeff=np.maximum(f.drag_coeff, np.finfo(float).tiny))
    if (_net_force(f, SPEED_EPS) <= 0).any():
        raise PhysicsError("vehicle cannot accelerate from standstill")
    stalled = _net_force(f, TARGET_SPEED) <= 0
    if stalled.any():
        raise _stall_error(_ForceTerms(*(a[stalled] for a in f)))

    # constant drive force from SPEED_EPS to v*
    cap, power, c, rolling, mass = f
    net = cap - rolling
    v_star = np.clip(power / cap, SPEED_EPS, TARGET_SPEED)
    k = np.sqrt(c / net)
    times = mass / np.sqrt(net * c) * (np.arctanh(v_star * k) - np.arctanh(SPEED_EPS * k))
    # power-limited from v* to 100 km/h, where v* is below it
    powered = (v_star < TARGET_SPEED).nonzero()[0]
    for lo in range(0, powered.size, _QUAD_BLOCK):
        i = powered[lo:lo + _QUAD_BLOCK]
        half = 0.5 * (TARGET_SPEED - v_star[i])
        v = (v_star[i] + half)[:, None] + half[:, None] * _NODES
        _, power, c, rolling, mass = (a[i, None] for a in f)
        g = mass * v / (power - rolling * v - c * v**3)
        times[i] += half * (g * _WEIGHTS).sum(axis=-1)
    late = ~(times <= MAX_SPRINT_TIME)  # a NaN time is reported, never returned
    if late.any():
        raise PhysicsError(f"target speed not reached within {MAX_SPRINT_TIME:.0f} s "
                           f"(takes {times[late].max():.1f} s)")
    return times


def _stall_error(f: _ForceTerms) -> PhysicsError:
    """Name the lowest speed at which a stalled vehicle's net force reaches zero.

    That is the lower root of the two phases' force balances: sqrt((F_cap -
    F_r) / c) and the real root of c v^3 + F_r v - P, in its sinh form.
    """
    cap, power, c, rolling, _ = f
    k = np.sqrt(rolling / (3 * c))
    power_root = 2 * k * np.sinh(np.arcsinh(1.5 * power / (rolling * k)) / 3)
    speed = np.minimum(np.sqrt((cap - rolling) / c), power_root).min()
    return PhysicsError(f"force balance stalls at {speed:.2f} m/s")


def accel_time_0_100(v: VehicleParams, p: PackConfig) -> float:
    """Seconds to accelerate from rest to 100 km/h: a one-vehicle sprint.

    The time from SPEED_EPS to 100 km/h of dv/dt = (F_tractive - F_resistive)
    / m, by the quadrature of _sprint_times. Raises PhysicsError if the force
    balance prevents reaching the target within MAX_SPRINT_TIME.
    """
    (time,) = _sprint_times(_force_terms(v, p))
    return float(time)


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
        r_interconnects=0.002,
        pack_overhead_mass_fraction=0.35,
    )


# The synthetic fleet's fixed sampling: uniform ranges (integer-uniform for the
# series count) and the sd of the jitter about each vehicle's market segment.
SEGMENT_JITTER = 0.15
N_SERIES_RANGE = (90, 180)
R_CELL_RANGE = (0.021, 0.026)            # ohm
CELL_CAPACITY_RANGE = (4.4, 5.6)         # Ah
BASE_MASS_RANGE = (1350.0, 2050.0)       # kg
MOTOR_TORQUE_RANGE = (300.0, 1100.0)     # N*m
CONSUMPTION_RANGE = (0.15, 0.19)         # kWh per km

# A cell-count range's upper bound: the product of two counts stays within int64.
_MAX_COUNT = 2**31
# The largest fleet: _stream_words takes each child index to be one uint32 word.
_MAX_FLEET = 2**32


def _finite(x) -> bool:
    """x is a real number, not a bool, that converts to a finite float."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_integer(name: str, value, lo: int) -> None:
    if not (_is_integer(value) and value >= lo):
        raise PhysicsError(f"{name} must be a finite integer of at least {lo}, got {value!r}")


def _check_range(name: str, bounds: tuple) -> None:
    """Reject a cell-count range that is not an integer pair with 1 <= low < high <= _MAX_COUNT."""
    lo, hi = bounds
    if not (_is_integer(lo) and _is_integer(hi)):
        raise PhysicsError(f"sampling range for {name} must hold integers, got ({lo!r}, {hi!r})")
    if not lo < hi:
        raise PhysicsError(f"degenerate sampling range for {name}: ({lo}, {hi})")
    if not 1 <= lo < hi <= _MAX_COUNT:
        raise PhysicsError(f"sampling range for {name} must lie in [1, {_MAX_COUNT}], "
                           f"got ({lo}, {hi})")


@dataclass(frozen=True)
class SynthConfig:
    """Fleet size, seed, noise and parallel-string range of a synthetic dataset.

    Noise is Gaussian on the log of the sprint time, i.e. multiplicative
    log-normal. The parallel-string count is integer-uniform on
    ``n_parallel_range``; the other parameters are sampled from this
    module's fixed ranges.

    Motor torque and parallel-string count share a latent market-segment
    position within their ranges, blurred by ``SEGMENT_JITTER``: performance
    vehicles pair big motors with big packs, commuters the opposite, just as
    real product tiers do.
    """

    n_samples: int = 300
    seed: int = 0
    noise_sd: float = 0.03
    n_parallel_range: tuple[int, int] = (4, 26)

    def __post_init__(self) -> None:
        _check_integer("n_samples", self.n_samples, 1)
        if self.n_samples > _MAX_FLEET:
            raise PhysicsError(f"n_samples must be at most {_MAX_FLEET} (each vehicle's "
                               f"stream key is one 32-bit word), got {self.n_samples}")
        _check_integer("seed", self.seed, 0)
        if not (_finite(self.noise_sd) and self.noise_sd >= 0):
            raise PhysicsError(f"noise_sd must be finite and non-negative, got {self.noise_sd!r}")
        _check_range("n_parallel", self.n_parallel_range)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), after O'Neill's
# seed_seq: a pool of 4 uint32 words, hash constants advanced by a multiply
# before each use, and a 16-bit xorshift after every multiply.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """numpy's hashmix: xor with the constant, multiply by it advanced, xorshift.

    Returns the hashed uint32 words and the advanced constant.
    """
    advanced = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(advanced)
    return value ^ (value >> 16), advanced


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def _stream_words(seed: int, n: int) -> np.ndarray:
    """The PCG64 seed of every child of ``SeedSequence(seed).spawn(n)``, as (n, 4) uint64.

    Row i is ``child_i.generate_state(4, np.uint64)``, all that PCG64 seeds
    from. A child's entropy is the seed's uint32 words, least significant
    first and padded with zeros to the pool size (numpy pads whenever a
    spawn key follows), then its spawn key, the one word i. The hash
    constants do not depend on the data and only that last word differs
    between children, so every step is one uint32 array operation over the
    fleet, which wraps as numpy's C arithmetic does. n must be at most
    2**32: numpy spells larger indices in two words.
    """
    seed = int(seed)
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))

    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)

    # generate_state(4, np.uint64): 8 uint32 words, cycling over the pool,
    # each consecutive pair joined little-endian into one uint64
    const = _INIT_B
    state = []
    for k in range(8):
        hashed, const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
        state.append(hashed.astype(np.uint64))
    return np.stack([low | high << np.uint64(32) for low, high in zip(state[::2], state[1::2])],
                    axis=1)


class _StreamSeed(np.random.bit_generator.ISeedSequence):
    """One row of _stream_words, served to PCG64 as its SeedSequence's state."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The four uint64 words PCG64 asks for; any other request raises ValueError.

        Another bit generator would ask for other words, which the row does
        not hold, so it fails here rather than take a wrong state.
        """
        if n_words != len(self._words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a stream seed holds {len(self._words)} uint64 words only, "
                             f"not {n_words} of {np.dtype(dtype)}")
        return self._words


def synth_records(sc: SynthConfig) -> list[VehicleRecord]:
    """Sample vehicles, integrate their sprints, and emit canonical records.

    Each vehicle draws from its own RNG stream, spawned from the seed, so the
    output is reproducible and the first k vehicles of any fleet are the
    k-vehicle fleet. Vehicle i's stream is numpy's
    ``default_rng(SeedSequence(seed).spawn(n)[i])`` bit for bit, without the
    per-vehicle SeedSequence objects: PCG64 seeds from nothing but the
    child's ``generate_state(4, np.uint64)``, which _stream_words computes
    for the whole fleet at once with numpy's own hash, and the draws are the
    Generator's own methods. For 900 vehicles the streams take 1.5 ms
    against 9.4 ms for ``spawn`` plus ``default_rng`` (min of 20, 2-core
    x86-64 VM, numpy 2.4.6), and the benchmark's ``synth_fleet`` call
    0.0200 s against 0.0304 s (medians of 10 pairs). A stream's draws, in
    order: the segment position (uniform on [0, 1)); the torque and
    parallel-count jitters (normal, sd ``SEGMENT_JITTER``); the series count
    (integer-uniform); four uniforms on [0, 1) for r_cell, cell capacity,
    base mass and consumption; the noise (standard normal). Each vehicle is default_vehicle() on
    default_pack() with its drawn counts, r_cell, base mass and torque.
    Only the draws are taken per vehicle; the clipping, rounding and mapping
    onto the ranges run once over the fleet, with the arithmetic of
    ``Generator.uniform`` (low + (high - low) * u).
    """
    n = sc.n_samples
    lo_s, hi_s = N_SERIES_RANGE
    segment = np.empty(n)
    jitter = np.empty((n, 2))
    n_series = np.empty(n, dtype=np.int64)
    u = np.empty((n, 4))
    noise = np.empty(n)
    for i, words in enumerate(_stream_words(sc.seed, n)):
        rng = np.random.Generator(np.random.PCG64(_StreamSeed(words)))
        segment[i] = rng.random()
        jitter[i] = rng.normal(0.0, SEGMENT_JITTER, 2)
        n_series[i] = rng.integers(lo_s, hi_s + 1)
        u[i] = rng.random(4)
        noise[i] = rng.normal(0.0, 1.0)

    u_torque, u_parallel = np.minimum(np.maximum(segment[:, None] + jitter, 0.0), 1.0).T
    lo_t, hi_t = MOTOR_TORQUE_RANGE
    torque = lo_t + (hi_t - lo_t) * u_torque
    lo_p, hi_p = sc.n_parallel_range
    n_parallel = np.rint(lo_p + (hi_p - lo_p) * u_parallel).astype(np.int64)
    bounds = np.array([R_CELL_RANGE, CELL_CAPACITY_RANGE, BASE_MASS_RANGE, CONSUMPTION_RANGE])
    r_cell, cell_cap, base_mass, consumption = (bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * u).T

    pack = replace(default_pack(), n_series=n_series, n_parallel=n_parallel, r_cell=r_cell)
    forces = _force_terms(replace(default_vehicle(), base_mass=base_mass, motor_torque_max=torque),
                          pack)
    times = _sprint_times(forces)
    with np.errstate(over="ignore"):
        noisy_times = times * np.exp(sc.noise_sd * noise)
    if not np.all(np.isfinite(noisy_times) & (noisy_times > 0)):
        raise PhysicsError(f"noise_sd={sc.noise_sd} drives acceleration times to 0 or infinity")

    cells = pack.cell_count
    # cells <= 180 * 2**31, so both columns are finite and positive
    capacity = cells * pack.v_cell_nominal * cell_cap / 1000.0
    range_km = capacity / consumption
    columns = (capacity, cells.astype(float), forces.mass, torque, range_km, noisy_times)
    return [
        VehicleRecord({CAPACITY_KWH: kwh, CELL_COUNT: count, WEIGHT_KG: kg, TORQUE_NM: nm,
                       RANGE_KM: km, ACCEL_S: seconds})
        for kwh, count, kg, nm, km, seconds in zip(*(c.tolist() for c in columns))
    ]


def synth_dataset(sc: SynthConfig) -> Dataset:
    """Labeled synthetic dataset with the canonical feature columns."""
    return build_dataset(synth_records(sc), DEFAULT_FEATURES)


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
