"""Median gbdt.train and explain_matrix times at 300, 3,000 and 30,000 synthetic rows.

    PYTHONPATH=src python3 tools/size_sweep.py

For each size it synthesizes a fleet of that many vehicles (seed 0, default
``SynthConfig`` ranges), fits the default ``TrainConfig`` on it and explains
every row of the fleet with the fitted model, and prints the median wall time
of each over a few repeats, also per row. Synthesis, one warm-up fit and the
model's TreeSHAP path build are not timed. The per-row figures show where per-node
and per-call overhead gives way to element-wise work as n grows; the
benchmark's workloads fit 300-row fleets and 6,667-row folds. A run takes
about 20 s on a two-core x86_64 VM.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

from evperf import SynthConfig, TrainConfig, explain_matrix, synth_dataset, train

SIZES = (300, 3000, 30000)
REPEATS = 5


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def sweep(sizes=SIZES, repeats: int = REPEATS) -> list[tuple[int, float, float]]:
    """(rows, median train seconds, median explain seconds) for each size."""
    out = []
    for n in sizes:
        data = synth_dataset(SynthConfig(n_samples=n, seed=0))
        cfg = TrainConfig()
        model = train(data, cfg)
        explain_matrix(model, data.features[:1])  # builds the model's TreeSHAP paths once
        out.append((n, _median_seconds(lambda: train(data, cfg), repeats),
                    _median_seconds(lambda: explain_matrix(model, data.features), repeats)))
    return out


def main(sizes=SIZES, repeats: int = REPEATS) -> None:
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs, {platform.machine()}; median of {repeats}")
    print("   rows   train_s  train_us/row  explain_s  explain_us/row")
    for n, fit, explain in sweep(sizes, repeats):
        print(f"{n:7d}  {fit:8.4f}  {fit / n * 1e6:12.1f}  {explain:9.4f}  {explain / n * 1e6:14.1f}")


if __name__ == "__main__":
    main()
