"""Reference fleet generator for ``evperf.physics.synth_records``: one vehicle at a time.

``reference_synth_records`` is the per-vehicle loop ``synth_records`` once
was, kept as an independent oracle: every parameter is drawn and mapped onto
its range inside the loop, with Python floats and the Generator's own
``uniform`` and ``normal``. The sprint physics after the loop is the
library's, so the oracle pins how draws become parameters, not the
integrator.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from evperf.data import (
    ACCEL_S,
    CAPACITY_KWH,
    CELL_COUNT,
    RANGE_KM,
    TORQUE_NM,
    WEIGHT_KG,
    VehicleRecord,
)
from evperf.physics import (
    BASE_MASS_RANGE,
    CELL_CAPACITY_RANGE,
    CONSUMPTION_RANGE,
    MOTOR_TORQUE_RANGE,
    N_SERIES_RANGE,
    R_CELL_RANGE,
    SEGMENT_JITTER,
    PhysicsError,
    SynthConfig,
    _force_terms,
    _sprint_times,
    default_pack,
    default_vehicle,
)


def reference_synth_records(sc: SynthConfig) -> list[VehicleRecord]:
    v = default_vehicle()
    template = default_pack()
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
        u_torque = min(max(segment + rng.normal(0.0, SEGMENT_JITTER), 0.0), 1.0)
        u_parallel = min(max(segment + rng.normal(0.0, SEGMENT_JITTER), 0.0), 1.0)
        lo_t, hi_t = MOTOR_TORQUE_RANGE
        torque[i] = lo_t + (hi_t - lo_t) * u_torque
        lo_p, hi_p = sc.n_parallel_range
        n_parallel[i] = round(lo_p + (hi_p - lo_p) * u_parallel)
        n_series[i] = rng.integers(N_SERIES_RANGE[0], N_SERIES_RANGE[1] + 1)
        r_cell[i] = rng.uniform(*R_CELL_RANGE)
        cell_cap[i] = rng.uniform(*CELL_CAPACITY_RANGE)
        base_mass[i] = rng.uniform(*BASE_MASS_RANGE)
        consumption[i] = rng.uniform(*CONSUMPTION_RANGE)
        noise[i] = rng.normal(0.0, 1.0)

    pack = replace(template, n_series=n_series, n_parallel=n_parallel, r_cell=r_cell)
    forces = _force_terms(replace(v, base_mass=base_mass, motor_torque_max=torque), pack)
    times = _sprint_times(forces)
    with np.errstate(over="ignore"):
        noisy_times = times * np.exp(sc.noise_sd * noise)
    if not np.all(np.isfinite(noisy_times) & (noisy_times > 0)):
        raise PhysicsError(f"noise_sd={sc.noise_sd} drives acceleration times to 0 or infinity")

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
