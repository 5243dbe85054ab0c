"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 0-9] [--workloads a,b] [--trace 0|1]

For every workload, runs ``BENCHMARK.json``'s command once per seed with its
``run_seconds`` and prints, per end-to-end metric, the median, the distance
between the first and third quartile as a share of the median, and that
share against the metric's bound. Also prints the failed share of operations.
Run from the root of the checkout; the runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        shares = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.append(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            shown = " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)
        print(f"{workload}: failed shares {sorted(set(shares))}")
        for m in metrics:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            if med <= 0:
                print(f"  {m['name']:36s} median {med:.6g} {m['unit']}")
                continue
            spread = (q3 - q1) / med
            bound = m.get("bound")
            note = f" bound {bound} ({spread / bound:.2f} of it)" if bound else ""
            print(f"  {m['name']:36s} median {med:.6g} {m['unit']:6s} spread {spread:.4f}{note}")
            if bound and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
    if not args.trace:
        print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
