"""One workload in one process: make the inputs, time the CLI, check the outputs.

``run.py`` starts this file as a fresh interpreter with ``src`` on the path and
numpy's thread pools pinned to one thread. The process makes its inputs from
the seed (set-up), then runs whole rounds of ``evperf.cli.main(argv)`` calls
until ``--seconds`` have passed, then checks the artifacts against the
oracles in ``checks.py`` and writes ``result.json`` into ``--dir``. With
``--setup-only`` it stops where the first timed call would start and runs
the calibration kernel (``calib.py``) instead, for a tenth of its CPU time.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from calib import kernel_pass, kernel_passes
from tracing import Tracer, layer_metrics, setup_metrics

SCHEMA = checks.FEATURES + (checks.ACCEL,)
# Untimed cross-validation used to score a workload's own fleet where the
# timed command trains nothing: 5 folds of a 20-round model.
QUALITY_ARGS = ["--folds", "5", "--rounds", "20", "--no-svg"]

SYNTH_SAMPLES = 900        # synth_fleet: three default fleets
PREFIX_SAMPLES = 40        # synth_fleet: size of the order-independence fleet
CV_FLEETS = 4              # train_cv: default-size fleets per round
CV_ROUNDS = 30
FLEET = 300                # vehicles in the default fleet
EXPLAIN_ROWS = 20          # explain_fleet: held-out rows explained per call
SWARM_ROWS = 2             # explain_fleet: rows given interaction values
ORACLE_ROWS = 3            # explain_fleet: rows checked by coalition enumeration
LARGE_BASE = 1200          # train_large_csv: vehicles the big CSV is drawn from
LARGE_ROWS = 10000
LARGE_DEPTH = 6
LARGE_ROUNDS = 5
LARGE_FOLDS = 3


@dataclass
class Call:
    """One timed CLI invocation; ``--out-dir`` is appended per run."""

    key: str
    argv: list[str]
    check: Callable[[Path], dict | None]  # oracle check; may return metrics.json


@dataclass
class Plan:
    calls: list[Call]                        # one round
    finish: Callable[["Runner"], list[dict]]  # untimed checks; returns metrics.json docs
    notes: dict = field(default_factory=dict)


class Runner:
    """Runs CLI calls, keeps the first output of each input, compares the rest."""

    def __init__(self, cli_main, work: Path):
        self.cli_main = cli_main
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, tuple[Path, str]] = {}
        self.repeats: dict[str, int] = {}
        self._n = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def invoke(self, argv: list[str], tracer: Tracer | None = None) -> tuple[int, Path, float]:
        self._n += 1
        out = self.work / f"out{self._n}"
        full = argv + ["--out-dir", str(out)]
        self.attempted += 1
        start = time.perf_counter()
        if tracer is None:
            rc = self.cli_main(full)
        else:
            rc = tracer.call("cli", self.cli_main, full)
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.fail(f"evperf {' '.join(argv)} exited {rc}")
        return rc, out, elapsed

    def timed(self, call: Call, tracer: Tracer | None = None) -> float:
        rc, out, elapsed = self.invoke(call.argv, tracer)
        if rc == 0:
            digest = _dir_digest(out)
            if call.key not in self.first:
                self.first[call.key] = (out, digest)
                return elapsed
            self.repeats[call.key] = self.repeats.get(call.key, 0) + 1
            if digest != self.first[call.key][1]:
                self.fail(f"{call.key}: a repeated call wrote different artifacts")
        shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def calls_of(self, key: str) -> int:
        return 1 + self.repeats.get(key, 0) if key in self.first else 0

    def check_firsts(self, calls: list[Call]) -> list[dict]:
        reports = []
        for call in calls:
            if call.key not in self.first:
                continue
            try:
                report = call.check(self.first[call.key][0])
            except checks.CheckError as exc:
                self.fail(f"{call.key}: {exc}", self.calls_of(call.key))
                continue
            if report is not None:
                reports.append(report)
        return reports

    def untimed(self, argv: list[str], check: Callable[[Path], dict | None]) -> dict | None:
        rc, out, _ = self.invoke(argv)
        if rc != 0:
            return None
        try:
            return check(out)
        except checks.CheckError as exc:
            self.fail(f"evperf {' '.join(argv)}: {exc}")
            return None


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def write_fleet(path: Path, records) -> list[float]:
    """Canonical CSV of evperf records; returns the 0-100 times written."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCHEMA)
        writer.writerows([repr(float(r.get(c))) for c in SCHEMA] for r in records)
    return [float(r.get(checks.ACCEL)) for r in records]


def csv_times(path: Path) -> list[float]:
    header, rows = checks.read_csv(path)
    col = header.index(checks.ACCEL)
    return [float(r[col]) for r in rows]


# --- workloads ----------------------------------------------------------------


def synth_fleet(seed: int, work: Path) -> Plan:
    """``evperf synth`` on three default fleets: physics and CSV writing only."""

    def check(out: Path) -> None:
        checks.check_synthetic_csv(out, SYNTH_SAMPLES)
        checks.check_sweep(out)

    call = Call("fleet", ["synth", "--n-samples", str(SYNTH_SAMPLES), "--seed", str(seed)], check)

    def finish(runner: Runner) -> list[dict]:
        reports = runner.check_firsts([call])
        if "fleet" not in runner.first:
            return reports
        out = runner.first["fleet"][0]
        runner.untimed(["synth", "--n-samples", str(PREFIX_SAMPLES), "--seed", str(seed)],
                       lambda small: checks.check_prefix(out, small, PREFIX_SAMPLES))
        fleet = out / "synthetic.csv"
        report = runner.untimed(["train", "--input", str(fleet), "--seed", str(seed)] + QUALITY_ARGS,
                                lambda o: checks.check_train(o, csv_times(fleet)))
        return reports + ([report] if report is not None else [])

    return Plan([call], finish)


def train_cv(seed: int, work: Path) -> Plan:
    """Default-depth cross-validated training on four default-size fleets.

    Four fleets per round, because one 300-vehicle fleet's log loss and
    accuracy move a lot with the seed.
    """
    from evperf.physics import SynthConfig, synth_records

    n = FLEET
    records = synth_records(SynthConfig(n_samples=CV_FLEETS * n, seed=seed))
    calls = []
    for f in range(CV_FLEETS):
        path = work / f"fleet{f}.csv"
        times = write_fleet(path, records[f * n:(f + 1) * n])
        calls.append(Call(
            f"fleet{f}",
            ["train", "--input", str(path), "--rounds", str(CV_ROUNDS), "--seed", str(seed)],
            lambda out, times=times: checks.check_train(out, times),
        ))

    def finish(runner: Runner) -> list[dict]:
        reports = runner.check_firsts(calls)
        try:
            checks.check_floors(reports)
        except checks.CheckError as exc:
            runner.fail(f"train_cv: {exc}", sum(runner.calls_of(c.key) for c in calls))
        return reports

    return Plan(calls, finish)


def explain_fleet(seed: int, work: Path) -> Plan:
    """``evperf explain`` of held-out rows by the default model, fitted in set-up.

    The model is the one ``evperf train`` fits at its defaults (the default
    300-vehicle fleet of seed 0), whatever the workload seed: TreeSHAP's cost
    follows the trees' shape, and with one model per seed the total leaf
    depth ranged from 19,900 to 26,200 over seeds 0-9. The seed picks the explained rows: vehicles 300-319 of
    its fleet, which no default fleet contains. ``cv_mlogloss`` comes from an
    untimed cross-validation on the model's own training fleet, with the
    default seed's folds, so it does not depend on the workload seed.
    """
    from evperf.data import Dataset, apply_scaler, build_dataset, fit_scaler
    from evperf import gbdt
    from evperf.physics import SynthConfig, synth_records

    rows = synth_records(SynthConfig(n_samples=FLEET + EXPLAIN_ROWS, seed=seed))[FLEET:]
    fleet = synth_records(SynthConfig())
    dataset = build_dataset(fleet)
    scaler = fit_scaler(dataset.features)
    model = gbdt.train(
        Dataset(apply_scaler(dataset.features, scaler), dataset.labels,
                dataset.feature_names, scaler=scaler),
        gbdt.TrainConfig(),
    )
    model_path = work / "model.json"
    gbdt.save_model(model, model_path)
    rows_path, fleet_path = work / "explain.csv", work / "fleet.csv"
    write_fleet(rows_path, rows)
    fleet_times = write_fleet(fleet_path, fleet)
    raw = np.asarray([[r.get(c) for c in checks.FEATURES] for r in rows], dtype=float)

    def check(out: Path) -> None:
        checks.check_explain(out, model_path, raw, ORACLE_ROWS, SWARM_ROWS)

    call = Call(
        "explain",
        ["explain", "--input", str(rows_path), "--model", str(model_path),
         "--swarm-samples", str(SWARM_ROWS), "--seed", str(seed)],
        check,
    )

    def finish(runner: Runner) -> list[dict]:
        runner.check_firsts([call])
        report = runner.untimed(
            ["train", "--input", str(fleet_path), "--seed", "0"] + QUALITY_ARGS,
            lambda o: checks.check_train(o, fleet_times))
        return [] if report is None else [report]

    return Plan([call], finish)


ALIASES = {  # header written -> canonical name
    "Battery Capacity (kWh)": "battery_capacity_kwh",
    "Cells": "number_of_cells",
    "Curb Weight (kg)": "weight_kg",
    "0-100 km/h (s)": "acceleration_0_100_s",
}
BAD_TOKENS = ("n/a", "?", "1.2.3", "nan", "inf", "-", "abc")


def dirty_fleet(seed: int, work: Path) -> tuple[Path, Path, list[float], dict]:
    """A large CSV drawn from a seeded fleet, with known dirt.

    Rows resample a 1,200-vehicle fleet and jitter every value but the cell
    count by 1%. Drawn from a default-size fleet instead, the depth-6 trees
    isolate its 300 vehicles early, and the final fit's node count, which
    sets much of the call's time, ranged from 683 to 991 over seeds 0-9
    (1,089 to 1,263 from 1,200 vehicles). A seeded 5% of rows carry one
    defect each: a malformed cell, an empty cell, or a row cut short before
    its last column.
    """
    from evperf.physics import SynthConfig, synth_records

    base = synth_records(SynthConfig(n_samples=LARGE_BASE, seed=seed))
    values = np.asarray([[r.get(c) for c in SCHEMA] for r in base], dtype=float)
    rng = np.random.default_rng([seed, 2603])
    rows = values[rng.integers(0, LARGE_BASE, LARGE_ROWS)]
    jitter = np.exp(rng.normal(0.0, 0.01, rows.shape))
    jitter[:, SCHEMA.index("number_of_cells")] = 1.0
    rows = rows * jitter
    defect = rng.choice(4, size=LARGE_ROWS, p=[0.95, 0.02, 0.02, 0.01])

    reverse = {v: k for k, v in ALIASES.items()}
    header = ["vehicle_id"] + [reverse.get(c, c) for c in SCHEMA]
    counts = {"rows": LARGE_ROWS, "aliased_headers": len(ALIASES), "malformed_cells": 0,
              "empty_cells": 0, "short_rows": 0}
    clean_times = []
    path = work / "large.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, (row, kind) in enumerate(zip(rows, defect)):
            cells = [f"veh-{i:06d}"] + [repr(float(v)) for v in row]
            col = 1 + int(rng.integers(0, len(SCHEMA)))
            if kind == 1:
                cells[col] = BAD_TOKENS[int(rng.integers(0, len(BAD_TOKENS)))]
                counts["malformed_cells"] += 1
            elif kind == 2:
                cells[col] = ""
                counts["empty_cells"] += 1
            elif kind == 3:
                cells = cells[:int(rng.integers(2, len(cells)))]
                counts["short_rows"] += 1
            else:
                clean_times.append(float(row[-1]))
            writer.writerow(cells)
    alias_path = work / "aliases.txt"
    alias_path.write_text("".join(f"{k} = {v}\n" for k, v in ALIASES.items()), encoding="utf-8")
    counts["clean_rows"] = len(clean_times)
    return path, alias_path, clean_times, counts


def train_large_csv(seed: int, work: Path) -> Plan:
    """Deep trees, few rounds, long columns, and a dirty aliased CSV to ingest."""
    path, alias_path, clean_times, counts = dirty_fleet(seed, work)

    def check(out: Path) -> dict:
        checks.check_model_shape(out, LARGE_ROUNDS, LARGE_DEPTH)
        return checks.check_train(out, clean_times)

    call = Call(
        "large",
        ["train", "--input", str(path), "--aliases", str(alias_path), "--depth", str(LARGE_DEPTH),
         "--rounds", str(LARGE_ROUNDS), "--folds", str(LARGE_FOLDS), "--seed", str(seed)],
        check,
    )
    return Plan([call], lambda runner: runner.check_firsts([call]), notes={"csv": counts})


WORKLOADS = {
    "synth_fleet": synth_fleet,
    "train_cv": train_cv,
    "explain_fleet": explain_fleet,
    "train_large_csv": train_large_csv,
}


# --- the process ----------------------------------------------------------------


def per_call(times: list[float], inputs: int) -> float:
    """Mean over a round's inputs of each input's median call time.

    ``times`` lists whole rounds in call order. On ``train_cv`` the four
    fleets' calls differ in cost, so a plain median over one or two rounds
    would depend on which fleet lands in the middle.
    """
    return statistics.fmean(statistics.median(times[i::inputs]) for i in range(inputs))


def measure(plan: Plan, runner: Runner, seconds: float, tracer: Tracer | None) -> dict:
    """Whole rounds while the next one still fits in ``seconds``.

    An untimed call of the round's first input comes first, so that lazy
    imports and first-touch allocation in the process are not timed. Every
    timed, untraced call is followed by calibration kernel passes
    (``calib``). A traced run follows every untraced round with a traced one.
    """
    wall, traced_wall, layers, kernel = [], [], [], []
    start = time.perf_counter()
    runner.timed(plan.calls[0])
    kernel_pass()  # untimed, for the same reason
    warm = time.perf_counter() - start
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed + (elapsed - warm) / rounds > seconds:
            break
        rounds += 1
        for c in plan.calls:
            wall.append(runner.timed(c))
            kernel += kernel_passes(wall[-1])
        if tracer is None:
            continue
        first = len(tracer.spans)
        tracer.install()
        try:
            traced_wall.extend(runner.timed(c, tracer) for c in plan.calls)
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer.spans, first, len(plan.calls)))
        for span in tracer.spans[first:]:
            span.result = None
    n = len(plan.calls)
    out = {"wall": wall, "call_s": per_call(wall, n), "kernel": kernel}
    if tracer is not None:
        names = sorted({k for m in layers for k in m})
        out["layers"] = {k: statistics.median(m.get(k, 0.0) for m in layers) for k in names}
        out["layers"]["trace.wall_s"] = per_call(traced_wall, n)
        out["layers"]["trace.untraced_wall_s"] = out["call_s"]
        out["layers"]["calib.kernel_s"] = statistics.median(kernel)
        out["layers"]["trace.overhead_s"] = per_call(traced_wall, n) - out["call_s"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    import evperf
    from evperf import cli

    if Path(evperf.__file__).resolve().parent != (args.src / "evperf").resolve():
        raise SystemExit(f"imported evperf from {evperf.__file__}, not from {args.src}")
    args.dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        root = tracer.open("setup")
    plan = WORKLOADS[args.workload](args.seed, args.dir)
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
    ready = time.monotonic()
    result: dict = {"ready": ready, "notes": plan.notes}
    if args.setup_only:
        result["kernel"] = kernel_passes(time.process_time())
    else:
        runner = Runner(cli.main, args.dir)
        result.update(measure(plan, runner, args.seconds, tracer))
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["losses"] = [r["mlogloss"] for r in plan.finish(runner)]
        result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors)
        if tracer is not None:
            result["layers"].update(setup_metrics(tracer.spans))
            if args.spans is not None:
                tracer.dump(args.spans)
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
