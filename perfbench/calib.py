"""Machine-speed calibration: a fixed kernel timed between the measured calls.

The benchmark's reference machine is a shared VM whose speed moves by up to
a factor of two within minutes. A run therefore times this kernel, which does
no evperf work and always the same amount of it, interleaved with the calls
it measures, and scales every time it reports by ``REFERENCE_S`` over the
kernel's median time in the same run. A reported time is thus the time the
call would take on the machine at the speed where one kernel pass takes
``REFERENCE_S`` seconds. The kernel imitates evperf's mix of work: Python
loops around small numpy sorts and cumulative sums, as in exact split search,
and scalar float arithmetic through function calls, as in the scalar RK4.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.05  # one kernel pass on the reference machine, unloaded
SHARE = 0.1         # kernel time spent per second of measured time

_RNG = np.random.default_rng(2603)
_COLS = [_RNG.random(n) for n in (300, 300, 300, 1200, 1200, 4000)]
_GRAD = [_RNG.normal(size=c.size) for c in _COLS]


def _split_search() -> float:
    best = 0.0
    for _ in range(40):
        for col, g in zip(_COLS, _GRAD):
            order = np.argsort(col, kind="stable")
            cg = np.cumsum(g[order])[:-1]
            gains = cg * cg / (np.arange(1, col.size) + 1.0)
            best += float(gains[int(np.argmax(gains))])
    return best


def _scalar_steps() -> float:
    def f(v: float) -> float:
        return (4000.0 - 0.3 * v * v - 120.0) / 1800.0

    v, dt = 0.1, 1e-3
    for _ in range(40000):
        k1 = f(v)
        k2 = f(v + 0.5 * dt * k1)
        k3 = f(v + 0.5 * dt * k2)
        k4 = f(v + dt * k3)
        v += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return v


def kernel_pass() -> float:
    """Seconds one pass of the kernel takes now."""
    start = time.perf_counter()
    _split_search()
    _scalar_steps()
    return time.perf_counter() - start


def kernel_passes(measured_s: float) -> list[float]:
    """Times of kernel passes run for about ``SHARE`` of ``measured_s``, at least one."""
    times: list[float] = []
    while not times or sum(times) < SHARE * measured_s:
        times.append(kernel_pass())
    return times
