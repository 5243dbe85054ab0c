"""Compare two benchmark trajectory points, workload by workload and metric by metric.

    python3 tools/compare_bench.py BENCH_pr24-parent.json BENCH_pr24.json

Reads the ``runs`` of two files that ``tools/record_bench.py`` wrote, the
parent's first, and the end-to-end metrics of ``BENCHMARK.json``. A pair is
the two sides' runs of one workload and seed. For each workload and metric it
prints the parent's median with its quartiles, the change's median, the pairs
the change won (ties count for neither side), the relative change of the
medians, and a verdict:

- ``gain``: the change won at least 9 of 10 pairs, and the medians differ by
  more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound, a share of the parent's median;
- ``unresolved``: neither, and the parent's interquartile range is wider
  than the bound allows;
- ``within bound``: anything else.

Each workload's line also gives both sides' share of failed operations.

When both files hold a ``traced`` run of a workload on the same seed, the
per-layer metrics of ``BENCHMARK.json`` follow, each side's traced value of
each metric that is not 0 on both sides, with each side's
``calib.kernel_s``. A traced run is one run per side, so a swing of the
machine's speed between the two shows in every raw time; each time in
seconds is therefore also printed scaled as ``perfbench/run.py`` scales
``wall_s``, by ``calib.REFERENCE_S`` over that run's ``calib.kernel_s``, and
the relative change is of the scaled times. The tool writes nothing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = "calib.kernel_s"


def reference_s() -> float:
    """``REFERENCE_S`` of this repository's ``perfbench/calib.py``."""
    spec = importlib.util.spec_from_file_location("calib", ROOT / "perfbench" / "calib.py")
    calib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calib)
    return calib.REFERENCE_S


def results(doc: dict) -> dict[tuple[str, int], dict]:
    """The result of each (workload, seed) run of a trajectory file."""
    return {(run["workload"], run["seed"]): run["result"] for run in doc["runs"]
            if run["result"] is not None}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as perfbench/spread.py takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], metric: dict) -> dict:
    """One metric's comparison over paired runs: parent[i] and change[i] share a seed."""
    sign = 1 if metric["better"] == "lower" else -1
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse_by = sign * (change_median - parent_median)
    scale = abs(parent_median)
    bound = metric["bound"] * scale
    if 10 * won >= 9 * len(parent) and -worse_by > q3 - q1:
        kind = "gain"
    elif worse_by > bound:
        kind = "regression"
    elif q3 - q1 > bound:
        kind = "unresolved"
    else:
        kind = "within bound"
    return {"parent": (q1, parent_median, q3), "change": change_median, "won": won,
            "pairs": len(parent),
            "relative": (change_median - parent_median) / scale if scale else None,
            "verdict": kind}


def compare(parent_doc: dict, change_doc: dict, metrics: list[dict]) -> dict[str, dict]:
    """Per workload: its failed shares and each metric's verdict, over the seeds both sides ran."""
    parent, change = results(parent_doc), results(change_doc)
    report: dict[str, dict] = {}
    for workload in dict.fromkeys(w for w, _ in parent):
        keys = sorted(k for k in parent if k[0] == workload and k in change)
        if not keys:
            continue
        failed = tuple(sum(side[k]["failed"] for k in keys) / sum(side[k]["attempted"] for k in keys)
                       for side in (parent, change))
        report[workload] = {"failed": failed, "metrics": {
            m["name"]: verdict([parent[k]["metrics"][m["name"]]["value"] for k in keys],
                               [change[k]["metrics"][m["name"]]["value"] for k in keys], m)
            for m in metrics}}
    return report


def traced(parent_doc: dict, change_doc: dict, metrics: list[dict],
           reference: float) -> dict[tuple[str, int], dict]:
    """Per (workload, seed) traced on both sides: each side's kernel time and metric values.

    A metric's ``scaled`` pair is its times scaled to the reference kernel
    time, or None for a metric not in seconds; ``relative`` compares the
    scaled times, or the raw values when there are none. Metrics that read 0
    on both sides are left out.
    """
    parent, change = ({(run["workload"], run["seed"]): run["result"]["metrics"]
                       for run in doc.get("traced", []) if run["result"] is not None}
                      for doc in (parent_doc, change_doc))
    report: dict[tuple[str, int], dict] = {}
    for key in (k for k in parent if k in change):
        sides = parent[key], change[key]
        kernel = tuple(side[KERNEL]["value"] for side in sides)
        rows = {}
        for m in metrics:
            if m["name"] == KERNEL:
                continue
            raw = tuple(side[m["name"]]["value"] for side in sides)
            if raw == (0, 0):
                continue
            scaled = (None if m["unit"] != "s" else
                      tuple(v * reference / k for v, k in zip(raw, kernel)))
            p, c = scaled or raw
            rows[m["name"]] = {"raw": raw, "scaled": scaled,
                               "relative": (c - p) / abs(p) if p else None}
        report[key] = {"kernel": kernel, "metrics": rows}
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="the parent's BENCH_*.json")
    parser.add_argument("change", type=Path, help="the change's BENCH_*.json")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in (args.parent, args.change)]
    for workload, row in compare(*docs, benchmark["end_to_end"]).items():
        print(f"{workload}: failed share {row['failed'][0]:.4g} -> {row['failed'][1]:.4g}")
        for name, v in row["metrics"].items():
            q1, median, q3 = v["parent"]
            relative = "n/a" if v["relative"] is None else f"{v['relative']:+.1%}"
            print(f"  {name:13s} {median:.5g} [{q1:.5g}, {q3:.5g}] -> {v['change']:.5g}  "
                  f"won {v['won']}/{v['pairs']}  {relative:>7s}  {v['verdict']}")
    reference = reference_s()
    for (workload, seed), row in traced(*docs, benchmark["per_layer"], reference).items():
        print(f"{workload} traced, seed {seed}: {KERNEL} {row['kernel'][0]:.5g} -> "
              f"{row['kernel'][1]:.5g}; seconds scaled to {reference:g} s")
        for name, v in row["metrics"].items():
            relative = "n/a" if v["relative"] is None else f"{v['relative']:+.1%}"
            scaled = ("" if v["scaled"] is None else
                      f"  scaled {v['scaled'][0]:.5g} -> {v['scaled'][1]:.5g}")
            print(f"  {name:36s} {v['raw'][0]:.5g} -> {v['raw'][1]:.5g}{scaled}  {relative:>7s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
