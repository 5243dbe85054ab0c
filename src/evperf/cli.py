"""Command-line front end: train/cross-validate, explain, and synthesize.

Subcommands write CSV data files (always) and SVG figures (toggleable) under
--out-dir with fixed names. Exit codes: 0 success, 1 internal error, 2 user
or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import figures
from .data import (
    ACCEL_S,
    CELL_COUNT,
    CLASS_NAMES,
    NUM_CLASSES,
    DataError,
    Dataset,
    PerfClass,
    VehicleRecord,
    apply_scaler,
    build_dataset,
    drop_missing,
    fit_scaler,
    load_csv,
    read_alias_table,
)
from .gbdt import (
    Ensemble,
    TrainConfig,
    gain_importance,
    load_model,
    predict_margin_batch,
    save_model,
    train,
)
from .metrics import confusion_to_csv, cross_validate, report_to_json
from .physics import (
    DEFAULT_SWEEP_PARALLEL,
    PhysicsError,
    SynthConfig,
    default_pack,
    default_vehicle,
    diminishing_returns_sweep,
    synth_records,
)
from .treeshap import (
    dependence_data,
    explain_matrix,
    explanations_to_csv,
    force_plot_data,
    global_importance,
    interaction_values,
)

SEED_ENV_VAR = "EVPERF_SEED"


class CliError(ValueError):
    """Bad command line or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class FigureArtifact:
    """One emitted figure: its kind, the authoritative CSV, optional SVG."""

    kind: str  # confusion | gain_importance | shap_importance | shap_swarm | dependence | force
    csv_path: Path
    svg_path: Path | None


@dataclass
class RunConfig:
    command: str
    input: Path | None
    synth: bool
    out_dir: Path
    seed: int
    folds: int
    rounds: int
    depth: int
    eta: float
    reg_lambda: float
    reg_alpha: float
    gamma: float
    feature: str
    svg: bool
    n_samples: int
    noise_sd: float
    model: Path | None
    aliases: Path | None
    swarm_samples: int


_DEFAULTS = {
    "out_dir": "out",
    "folds": 5,
    "rounds": 200,
    "depth": 4,
    "eta": 0.1,
    "lambda": 1.0,
    "alpha": 0.0,
    "gamma": 0.0,
    "feature": CELL_COUNT,
    "svg": True,
    "n_samples": 300,
    "noise_sd": 0.03,
    "swarm_samples": 60,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evperf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="key=value config file with sections")
        p.add_argument("--out-dir", type=Path, help="output directory (default: out)")
        p.add_argument("--seed", type=int, help=f"RNG seed; falls back to ${SEED_ENV_VAR}, then 0")
        p.add_argument("--svg", action=argparse.BooleanOptionalAction, default=None,
                       help="also render SVG figures (default: yes)")

    def add_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", type=Path, help="CSV input file")
        p.add_argument("--synth", action="store_true", default=None,
                       help="use the synthetic physics dataset instead of a CSV")
        p.add_argument("--aliases", type=Path, help="header alias table for CSV input")
        p.add_argument("--n-samples", type=int, help="synthetic sample count")
        p.add_argument("--noise-sd", type=float, help="synthetic log-time noise")

    p_train = sub.add_parser("train", help="cross-validate, train a final model, emit metrics")
    add_common(p_train)
    add_source(p_train)
    p_train.add_argument("--folds", type=int, help="cross-validation folds (default: 5)")
    p_train.add_argument("--rounds", type=int, help="boosting rounds")
    p_train.add_argument("--depth", type=int, help="max tree depth")
    p_train.add_argument("--eta", type=float, help="learning rate")
    p_train.add_argument("--lambda", dest="lambda_", metavar="LAMBDA", type=float, help="L2 penalty")
    p_train.add_argument("--alpha", type=float, help="L1 penalty")
    p_train.add_argument("--gamma", type=float, help="min split gain")

    p_explain = sub.add_parser("explain", help="Shapley analyses and figures for a trained model")
    add_common(p_explain)
    add_source(p_explain)
    p_explain.add_argument("--model", type=Path, help="model JSON (default: <out-dir>/model.json)")
    p_explain.add_argument("--feature", help="dependence-plot feature (default: number_of_cells)")
    p_explain.add_argument("--swarm-samples", type=int,
                           help="samples to include in interaction swarm data")

    p_synth = sub.add_parser("synth", help="write the synthetic dataset and cell-count sweep")
    add_common(p_synth)
    p_synth.add_argument("--n-samples", type=int, help="synthetic sample count")
    p_synth.add_argument("--noise-sd", type=float, help="synthetic log-time noise")

    return parser


def _read_config_file(path: Path) -> dict[str, str]:
    """Flatten a sectioned key=value file; keys must be globally unique."""
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise CliError(f"cannot parse config file {path}: {exc}") from exc
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in flat:
                raise CliError(f"duplicate config key {key!r} in {path}")
            flat[key] = value
    return flat


def _coerce(key: str, raw: str, kind: type):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise CliError(f"config key {key!r}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise CliError(f"config key {key!r}: expected {kind.__name__}, got {raw!r}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(key: str, flag_value, kind: type, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return _coerce(key, file_cfg[key], kind)
        return default

    seed = getattr(args, "seed", None)
    if seed is None and "seed" in file_cfg:
        seed = _coerce("seed", file_cfg["seed"], int)
    if seed is None and os.environ.get(SEED_ENV_VAR):
        seed = _coerce(SEED_ENV_VAR, os.environ[SEED_ENV_VAR], int)
    if seed is None:
        seed = 0

    flag_input = getattr(args, "input", None)
    flag_synth = getattr(args, "synth", None)
    if flag_input is not None and flag_synth:
        raise CliError("choose exactly one data source: --input or --synth")
    if flag_input is not None or flag_synth:
        source_input, source_synth = flag_input, bool(flag_synth)
    else:
        source_input = Path(file_cfg["input"]) if "input" in file_cfg else None
        source_synth = _coerce("synth", file_cfg.get("synth", "false"), bool)
        if source_input is not None and source_synth:
            raise CliError("config selects both input and synth; choose one data source")
    if args.command in ("train", "explain") and source_input is None and not source_synth:
        raise CliError("no data source: pass --input FILE or --synth")

    model = getattr(args, "model", None)
    if model is None and "model" in file_cfg:
        model = Path(file_cfg["model"])
    aliases = getattr(args, "aliases", None)
    if aliases is None and "aliases" in file_cfg:
        aliases = Path(file_cfg["aliases"])

    return RunConfig(
        command=args.command,
        input=source_input,
        synth=source_synth,
        out_dir=Path(pick("out_dir", getattr(args, "out_dir", None), str, _DEFAULTS["out_dir"])),
        seed=seed,
        folds=pick("folds", getattr(args, "folds", None), int, _DEFAULTS["folds"]),
        rounds=pick("rounds", getattr(args, "rounds", None), int, _DEFAULTS["rounds"]),
        depth=pick("depth", getattr(args, "depth", None), int, _DEFAULTS["depth"]),
        eta=pick("eta", getattr(args, "eta", None), float, _DEFAULTS["eta"]),
        reg_lambda=pick("lambda", getattr(args, "lambda_", None), float, _DEFAULTS["lambda"]),
        reg_alpha=pick("alpha", getattr(args, "alpha", None), float, _DEFAULTS["alpha"]),
        gamma=pick("gamma", getattr(args, "gamma", None), float, _DEFAULTS["gamma"]),
        feature=pick("feature", getattr(args, "feature", None), str, _DEFAULTS["feature"]),
        svg=pick("svg", getattr(args, "svg", None), bool, _DEFAULTS["svg"]),
        n_samples=pick("n_samples", getattr(args, "n_samples", None), int, _DEFAULTS["n_samples"]),
        noise_sd=pick("noise_sd", getattr(args, "noise_sd", None), float, _DEFAULTS["noise_sd"]),
        model=model,
        aliases=aliases,
        swarm_samples=pick(
            "swarm_samples", getattr(args, "swarm_samples", None), int, _DEFAULTS["swarm_samples"]
        ),
    )


def _train_config(run: RunConfig) -> TrainConfig:
    return TrainConfig(
        n_rounds=run.rounds,
        learning_rate=run.eta,
        max_depth=run.depth,
        reg_lambda=run.reg_lambda,
        reg_alpha=run.reg_alpha,
        gamma=run.gamma,
        num_class=NUM_CLASSES,
        seed=run.seed,
    )


def _synth_config(run: RunConfig) -> SynthConfig:
    return SynthConfig(n_samples=run.n_samples, seed=run.seed, noise_sd=run.noise_sd)


def _load_records(run: RunConfig) -> list[VehicleRecord]:
    if run.synth:
        return synth_records(_synth_config(run))
    aliases = read_alias_table(run.aliases) if run.aliases else None
    records = load_csv(run.input, aliases=aliases)
    return drop_missing(records, [CELL_COUNT])


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v: float) -> str:
    return repr(float(v))


def _emit_figure(run: RunConfig, kind: str, write_csv, render_svg) -> FigureArtifact:
    """Write <kind>.csv always and <kind>.svg when enabled."""
    csv_path = run.out_dir / f"{kind}.csv"
    write_csv(csv_path)
    svg_path = None
    if run.svg:
        svg_path = run.out_dir / f"{kind}.svg"
        svg_path.write_text(render_svg(), encoding="utf-8")
    return FigureArtifact(kind=kind, csv_path=csv_path, svg_path=svg_path)


def cmd_train(run: RunConfig) -> FigureArtifact:
    run.out_dir.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset(_load_records(run))
    cfg = _train_config(run)
    report = cross_validate(dataset, cfg, k=run.folds, seed=run.seed)

    scaler = fit_scaler(dataset.features)
    final = train(
        Dataset(apply_scaler(dataset.features, scaler), dataset.labels,
                dataset.feature_names, scaler=scaler),
        cfg,
    )
    save_model(final, run.out_dir / "model.json")
    (run.out_dir / "metrics.json").write_text(report_to_json(report) + "\n", encoding="utf-8")

    def write_confusion(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            confusion_to_csv(report.confusion, fh, CLASS_NAMES)

    artifact = _emit_figure(
        run, "confusion", write_confusion,
        lambda: figures.heatmap(report.confusion.tolist(), CLASS_NAMES, CLASS_NAMES,
                                "Pooled cross-validation confusion matrix"),
    )
    print(f"samples: {dataset.n_samples}  folds: {run.folds}  rounds: {cfg.n_rounds}")
    print(
        f"pooled accuracy={report.accuracy:.4f}  auc={report.roc_auc_macro_ovr:.4f}  "
        f"mcc={report.mcc:.4f}  mlogloss={report.mlogloss:.4f}"
    )
    print(f"wrote model.json, metrics.json, confusion.csv to {run.out_dir}")
    return artifact


def _explain_features(run: RunConfig, model: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Raw and model-space feature matrices for the explain command."""
    if run.synth:
        records = _load_records(run)
    else:
        aliases = read_alias_table(run.aliases) if run.aliases else None
        records = load_csv(run.input, schema=model.feature_names, aliases=aliases)
    usable = drop_missing(records, model.feature_names)
    if not usable:
        raise DataError("no records with all model features present")
    raw = np.asarray([[r.get(c) for c in model.feature_names] for r in usable], dtype=float)
    x = apply_scaler(raw, model.scaler) if model.scaler is not None else raw
    return raw, x


def cmd_explain(run: RunConfig) -> list[FigureArtifact]:
    run.out_dir.mkdir(parents=True, exist_ok=True)
    model_path = run.model if run.model is not None else run.out_dir / "model.json"
    if not Path(model_path).exists():
        raise CliError(f"model file not found: {model_path}")
    model = load_model(model_path)
    if run.feature not in model.feature_names:
        raise CliError(f"dependence feature {run.feature!r} not in model features "
                       f"{list(model.feature_names)}")
    raw, x = _explain_features(run, model)
    explanations = explain_matrix(model, x, raw)
    high = int(PerfClass.HIGH)
    artifacts = []

    with open(run.out_dir / "shap_values.csv", "w", newline="", encoding="utf-8") as fh:
        explanations_to_csv(explanations, fh, class_names=CLASS_NAMES)

    gains = gain_importance(model)
    gain_order = sorted(range(len(gains)), key=lambda i: (-gains[i], i))
    artifacts.append(_emit_figure(
        run, "gain_importance",
        lambda p: _write_csv(p, ["feature", "total_gain"],
                             [[model.feature_names[i], _fmt(gains[i])] for i in gain_order]),
        lambda: figures.bar_chart([model.feature_names[i] for i in gain_order],
                                  [float(gains[i]) for i in gain_order],
                                  "Split-gain feature importance", xlabel="total gain"),
    ))

    ranking = global_importance(explanations)
    artifacts.append(_emit_figure(
        run, "shap_importance",
        lambda p: _write_csv(
            p, ["feature", "mean_abs_phi"] + [f"mean_abs_phi_{c}" for c in CLASS_NAMES],
            [[fi.name, _fmt(fi.overall)] + [_fmt(v) for v in fi.per_class] for fi in ranking]),
        lambda: figures.bar_chart([fi.name for fi in ranking], [fi.overall for fi in ranking],
                                  "Mean |phi| feature importance (margin space)",
                                  xlabel="mean |phi|"),
    ))

    feat_idx = model.feature_names.index(run.feature)
    dep = dependence_data(explanations, feat_idx, high)
    artifacts.append(_emit_figure(
        run, "dependence",
        lambda p: _write_csv(p, [run.feature, f"phi_{CLASS_NAMES[high]}"],
                             [[_fmt(v), _fmt(phi)] for v, phi in dep]),
        lambda: figures.scatter(
            [v for v, _ in dep], [phi for _, phi in dep],
            f"Attribution vs {run.feature} ({CLASS_NAMES[high]} class, margin space)",
            xlabel=run.feature, ylabel="phi"),
    ))

    n_swarm = min(run.swarm_samples, len(explanations))
    d = len(model.feature_names)
    swarm_rows = []
    pair_groups: dict[str, list[float]] = {}
    for s in range(n_swarm):
        inter = interaction_values(model, x[s])
        for i in range(d):
            for j in range(i + 1, d):
                value = float(inter.phi_ij[i, j, high])
                pair = f"{model.feature_names[i]} x {model.feature_names[j]}"
                swarm_rows.append([s, model.feature_names[i], model.feature_names[j],
                                   _fmt(raw[s, i]), _fmt(value)])
                pair_groups.setdefault(pair, []).append(value)
    artifacts.append(_emit_figure(
        run, "shap_swarm",
        lambda p: _write_csv(p, ["sample_id", "feature_i", "feature_j", "value_i", "interaction_phi"],
                             swarm_rows),
        lambda: figures.strip_plot(
            sorted(pair_groups.items()),
            f"Pairwise interaction values ({CLASS_NAMES[high]} class, margin space)",
            xlabel="interaction phi"),
    ))

    force_class = int(np.argmax(predict_margin_batch(model, x[:1])[0]))
    force = force_plot_data(explanations[0], force_class)
    force_rows = [["base", "", "", _fmt(force.base_value), ""]]
    for e in force.entries:
        force_rows.append(["contribution", e.name, _fmt(e.value), _fmt(e.phi), e.sign])
    force_rows.append(["margin", "", "", _fmt(force.margin), ""])
    artifacts.append(_emit_figure(
        run, "force",
        lambda p: _write_csv(p, ["kind", "feature", "value", "phi", "sign"], force_rows),
        lambda: figures.force_chart(
            [(e.name, e.value, e.phi) for e in force.entries],
            force.base_value, force.margin,
            f"Prediction decomposition, sample 0, class {CLASS_NAMES[force_class]}"),
    ))

    print(f"explained {len(explanations)} samples with {len(model.trees)} trees")
    print(f"wrote shap_values plus figures {', '.join(a.kind for a in artifacts)} "
          f"to {run.out_dir}")
    return artifacts


def cmd_synth(run: RunConfig) -> None:
    run.out_dir.mkdir(parents=True, exist_ok=True)
    records = synth_records(_synth_config(run))
    columns = list(records[0].values.keys())
    _write_csv(
        run.out_dir / "synthetic.csv",
        columns,
        [[_fmt(r.get(c)) for c in columns] for r in records],
    )
    sweep = diminishing_returns_sweep(default_vehicle(), default_pack(),
                                      DEFAULT_SWEEP_PARALLEL)
    _write_csv(
        run.out_dir / "sweep.csv",
        ["cell_count", ACCEL_S],
        [[n, _fmt(t)] for n, t in sweep],
    )
    print(f"wrote synthetic.csv ({len(records)} rows) and sweep.csv "
          f"({len(sweep)} points) to {run.out_dir}")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = resolve_config(args)
        if args.command == "train":
            cmd_train(run)
        elif args.command == "explain":
            cmd_explain(run)
        elif args.command == "synth":
            cmd_synth(run)
        return 0
    except (CliError, DataError, PhysicsError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
