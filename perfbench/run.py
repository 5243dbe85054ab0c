"""evperf benchmark: one workload per call, printing one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; evperf is imported from its ``src``.
The workload runs in a fresh process (``worker.py``). With ``--trace 0`` the
result holds the end-to-end metrics: the median wall time of the workload's
CLI call, the median set-up time over three or more fresh processes (both in
reference seconds, see ``calib.py``), the peak resident memory of the
measuring process and the cross-validation log loss.
With ``--trace 1`` a separate process wraps evperf's public functions and the
result holds the per-layer metrics instead. Scratch files go to
``perfbench/.work`` and are removed afterwards, except the span dumps.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REFERENCE_S
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("synth_fleet", "train_cv", "explain_fleet", "train_large_csv")
# Set-up time is sampled in fresh processes: at least MIN_SETUPS, and more,
# up to MAX_SETUPS, while the samples add up to less than SETUP_BUDGET seconds,
# so a set-up that takes a fraction of a second still gets a steady median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET = 3, 9, 3.0
CHILD_TIMEOUT = 170  # seconds


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: argparse.Namespace, work: Path, extra: list[str]) -> tuple[float, dict]:
    """Run worker.py to completion; returns its start time and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--dir", str(work), "--src", str(SRC)] + extra
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} worker timed out")
    result_path = work / "result.json"
    if code != 0 or not result_path.exists():
        raise SystemExit(f"perfbench: {args.workload} worker exited {code}")
    return started, json.loads(result_path.read_text(encoding="utf-8"))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "evperf" / "__init__.py").is_file():
        print(f"perfbench: no evperf sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.json"
            _, result = run_worker(args, run_dir / "traced", ["--trace", "--spans", str(spans)])
            for message in result["errors"]:
                print(f"perfbench: FAILED {message}", file=sys.stderr)
            metrics = {k: metric(result["layers"].get(k, 0.0), "s" if k.endswith(("_s", ".s")) else "count")
                       for k in LAYER_METRICS}
        else:
            started, result = run_worker(args, run_dir / "measured", [])
            for message in result["errors"]:
                print(f"perfbench: FAILED {message}", file=sys.stderr)
            # Set-up time is scaled by the kernel passes that each set-up-only
            # process makes right after its set-up.
            setups, setup_kernel = [result["ready"] - started], []
            while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS
                                               and sum(setups) < SETUP_BUDGET):
                t0, extra = run_worker(args, run_dir / f"setup{len(setups)}", ["--setup-only"])
                setups.append(extra["ready"] - t0)
                setup_kernel += extra["kernel"]
            if not result["losses"]:
                raise SystemExit(f"perfbench: {args.workload} produced no log loss")
            wall, kernel = result["call_s"], statistics.median(result["kernel"])
            setup, kernel_setup = statistics.median(setups), statistics.median(setup_kernel)
            print(f"perfbench: median call {wall:.4f} s with kernel pass {kernel:.4f} s; "
                  f"median set-up {setup:.4f} s with kernel pass {kernel_setup:.4f} s",
                  file=sys.stderr)
            metrics = {
                "wall_s": metric(wall * REFERENCE_S / kernel, "s"),
                "setup_s": metric(setup * REFERENCE_S / kernel_setup, "s"),
                "peak_rss_mib": metric(result["peak_rss_mib"], "MiB"),
                "cv_mlogloss": metric(statistics.fmean(result["losses"]), "nats"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if result["notes"]:
        print(f"perfbench: inputs {json.dumps(result['notes'])}")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(result['wall'])} timed calls, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    print(f"perfbench: call seconds {' '.join(f'{w:.3f}' for w in result['wall'])}",
          file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
