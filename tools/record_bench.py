"""Record perfbench results as a committed benchmark trajectory point.

    python3 tools/record_bench.py --workloads synth_fleet --seeds 0-9 \
        --checkout before=../evperf-before --checkout after=.

Runs each checkout's own, unchanged ``perfbench/run.py`` once per workload
and seed, and writes ``BENCH_<tag>.json`` at the root of this repository for
every ``--checkout TAG=DIR``. With several checkouts the runs are interleaved
in pairs: for each workload and seed every checkout runs once, and the order
is reversed on every other seed, so a drift of the machine's speed falls on
both sides alike. Each file holds the result lines together with the
checkout's git commit, the Python and numpy versions and the number of usable
CPUs. perfbench's own defaults govern everything but the workload and seed.
``--traced WORKLOADS`` adds one ``--trace 1`` run of each named workload per
checkout, on the first seed, for its per-layer metrics; those runs go under
the file's ``traced`` key, apart from the end-to-end ``runs``.
If any run exits non-zero or prints no result line, no file is written and
the exit code is 1, so a trajectory point only ever holds complete runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'0-3,7' -> [0, 1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_checkout(text: str) -> tuple[str, Path]:
    tag, sep, path = text.partition("=")
    if not sep or not tag or not path:
        raise argparse.ArgumentTypeError(f"expected TAG=DIR, got {text!r}")
    if not (Path(path) / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"no perfbench/run.py under {path}")
    return tag, Path(path).resolve()


def git_commit(checkout: Path) -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def machine() -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy_version, "nproc": cpus,
            "machine": platform.machine()}


def run_once(checkout: Path, workload: str, seed: int, trace: bool = False) -> dict:
    """One perfbench run; its JSON result line, or None with the exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "1"]
    started = time.time()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    result = None
    for line in reversed(done.stdout.splitlines()):
        if line.startswith("{"):
            result = json.loads(line)
            break
    return {"workload": workload, "seed": seed, "started": round(started, 1),
            "returncode": done.returncode, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--checkout", type=parse_checkout, action="append", required=True,
                        metavar="TAG=DIR", help="a source checkout to run, and its file tag")
    parser.add_argument("--workloads", default="synth_fleet",
                        help="comma-separated perfbench workloads (default: synth_fleet)")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"),
                        help="seeds such as 0-9 or 0,3,7 (default: 0-9)")
    parser.add_argument("--traced", default="", metavar="WORKLOADS",
                        help="comma-separated workloads to run once more per checkout, on the "
                             "first seed, with --trace 1 (default: none)")
    args = parser.parse_args(argv)
    tags = [tag for tag, _ in args.checkout]
    if len(set(tags)) != len(tags):
        parser.error("checkout tags must differ")

    host = machine()
    records = {
        tag: {"tag": tag, **git_commit(path), **host, "runs": []}
        for tag, path in args.checkout
    }
    if args.traced:
        for doc in records.values():
            doc["traced"] = []
    schedule = [(workload, seed, "runs") for workload in args.workloads.split(",")
                for seed in args.seeds]
    schedule += [(workload, args.seeds[0], "traced")
                 for workload in args.traced.split(",") if workload]
    failed = 0
    for n, (workload, seed, key) in enumerate(schedule):
        order = args.checkout if n % 2 == 0 else args.checkout[::-1]
        for tag, path in order:
            run = run_once(path, workload, seed, trace=key == "traced")
            records[tag][key].append(run)
            ok = run["returncode"] == 0 and run["result"] is not None
            failed += not ok
            status = "ok" if ok else f"FAILED (exit {run['returncode']})"
            print(f"{workload} seed {seed} {tag}{' traced' * (key == 'traced')}: {status}",
                  file=sys.stderr)

    if failed:
        print(f"{failed} run(s) failed; no BENCH file written", file=sys.stderr)
        return 1
    for tag, doc in records.items():
        out = ROOT / f"BENCH_{tag}.json"
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
