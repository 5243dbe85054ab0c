"""Command-line front end: train/cross-validate, explain, and synthesize.

Subcommands write CSV data files (always) and SVG figures (toggleable) under
--out-dir with fixed names, each through ``atomic_open``, so a failed run
leaves no truncated file. Exit codes: 0 success, 1 internal error, 2 user or
configuration error, or a command that ran out of memory (a ``MemoryError``),
which names the sizes that bound a command's memory.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import keyword
import logging
import math
import os
import sys
from dataclasses import dataclass, make_dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import figures
from .data import (
    ACCEL_S,
    CELL_COUNT,
    CLASS_NAMES,
    DEFAULT_SCHEMA,
    NUM_CLASSES,
    DataError,
    Dataset,
    PerfClass,
    VehicleTable,
    apply_scaler,
    build_dataset,
    drop_missing,
    fit_scaler,
    load_csv,
    read_alias_table,
)
from .gbdt import (
    MAX_ROUNDS,
    Ensemble,
    TrainConfig,
    atomic_open,
    gain_importance,
    load_model,
    predict_margin_batch,
    save_model,
    train,
)
from .metrics import cross_validate, report_to_dict
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
    force_plot_data,
    global_importance,
    interaction_values,
)

SEED_ENV_VAR = "EVPERF_SEED"


class CliError(ValueError):
    """Bad command line or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class Option:
    """One setting: its config-file key, value type, default, subcommands and help.

    The flag is ``--`` plus the key with ``-`` for ``_``. A bool that defaults
    to True gets ``--key/--no-key``, one that defaults to False a bare ``--key``.
    ``minimum`` and ``maximum`` bound a number setting, and ``exclusive``
    rejects ``minimum`` itself; a float setting with a range must be finite.
    """

    key: str
    type: type
    default: object
    commands: tuple[str, ...]
    help: str
    minimum: float | None = None
    maximum: float | None = None
    exclusive: bool = False

    @property
    def dest(self) -> str:
        """argparse dest and RunConfig field: the key, with ``_`` after a Python keyword."""
        return self.key + "_" if keyword.iskeyword(self.key) else self.key

    def check_range(self, value) -> None:
        """Raise CliError if value is out of the row's range, or is a NaN or infinite float.

        The bounds are checked first, so an infinity beyond one reads as out
        of range; NaN, which every comparison passes, and an unbounded
        infinity read as not finite.
        """
        if self.minimum is None:
            return
        low = value <= self.minimum if self.exclusive else value < self.minimum
        if low or (self.maximum is not None and value > self.maximum):
            if self.maximum is None:
                bound = f"{'greater than' if self.exclusive else 'at least'} {self.minimum}"
            else:
                bound = f"in {'(' if self.exclusive else '['}{self.minimum}, {self.maximum}]"
            raise CliError(f"{self.key} must be {bound}, got {value}")
        if isinstance(value, float) and not math.isfinite(value):
            raise CliError(f"{self.key} must be finite, got {value}")


_COMMANDS = {
    "train": "cross-validate, train a final model, emit metrics",
    "explain": "Shapley analyses and figures for a trained model",
    "synth": "write the synthetic dataset and cell-count sweep",
}
_ALL = tuple(_COMMANDS)
_SOURCE = ("train", "explain")
OPTIONS = (
    Option("out_dir", Path, Path("out"), _ALL, "output directory"),
    Option("seed", int, 0, _ALL, f"RNG seed; falls back to ${SEED_ENV_VAR}", minimum=0),
    Option("svg", bool, True, _ALL, "also render SVG figures"),
    Option("input", Path, None, _SOURCE, "CSV input file"),
    Option("synth", bool, False, _SOURCE, "use the synthetic physics dataset instead of a CSV"),
    Option("aliases", Path, None, _SOURCE, "header alias table for CSV input"),
    Option("n_samples", int, SynthConfig.n_samples, _ALL, "synthetic sample count", minimum=1),
    Option("noise_sd", float, SynthConfig.noise_sd, _ALL, "synthetic log-time noise"),
    Option("folds", int, 5, ("train",), "cross-validation folds", minimum=2),
    Option("rounds", int, TrainConfig.n_rounds, ("train",), "boosting rounds", minimum=1,
           maximum=MAX_ROUNDS),
    Option("depth", int, TrainConfig.max_depth, ("train",), "max tree depth", minimum=1),
    Option("eta", float, TrainConfig.learning_rate, ("train",), "learning rate",
           minimum=0, maximum=1, exclusive=True),
    Option("lambda", float, TrainConfig.reg_lambda, ("train",), "L2 penalty", minimum=0),
    Option("alpha", float, TrainConfig.reg_alpha, ("train",), "L1 penalty", minimum=0),
    Option("gamma", float, TrainConfig.gamma, ("train",), "min split gain", minimum=0),
    Option("model", Path, None, ("explain",), "model JSON (default: <out-dir>/model.json)"),
    Option("feature", str, CELL_COUNT, ("explain",), "dependence-plot feature"),
    Option("swarm_samples", int, 60, ("explain",), "samples to include in interaction swarm data",
           minimum=0),
)

# the settings that bound a command's memory, beside the size of its input
_MEMORY_SIZES = ("n_samples", "swarm_samples", "rounds")

RunConfig = make_dataclass(
    "RunConfig", [("command", str)] + [(opt.dest, opt.type) for opt in OPTIONS],
    namespace={"__doc__": "A resolved run: the subcommand and one field per OPTIONS row.",
               "__module__": __name__},
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evperf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", type=Path, help="key = value config file with sections")
        for opt in OPTIONS:
            if command not in opt.commands:
                continue
            flag = "--" + opt.key.replace("_", "-")
            text = opt.help if opt.default is None else f"{opt.help} (default: {opt.default})"
            if opt.type is bool:
                action = argparse.BooleanOptionalAction if opt.default else "store_true"
                p.add_argument(flag, dest=opt.dest, action=action, default=None, help=text)
            else:
                p.add_argument(flag, dest=opt.dest, type=opt.type, metavar=opt.key.upper(),
                               help=text)
    return parser


def _read_config_file(path: Path) -> dict[str, str]:
    """Flatten a sectioned key = value file; keys must be known and globally unique.

    ``[DEFAULT]`` is an ordinary section: its keys are not copied into the others.
    Values are taken literally; ``%`` starts no interpolation.
    """
    parser = configparser.ConfigParser(default_section="\0", interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise CliError(f"cannot parse config file {path}: {exc}") from exc
    known = sorted(opt.key for opt in OPTIONS)
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key not in known:
                raise CliError(f"unknown config key {key!r} in {path}; "
                               f"known keys: {', '.join(known)}")
            if key in flat:
                raise CliError(f"duplicate config key {key!r} in {path}")
            flat[key] = value
    return flat


def _coerce(where: str, raw: str, kind: type):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise CliError(f"{where}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise CliError(f"{where}: expected {kind.__name__}, got {raw!r}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Resolve every OPTIONS row, then check what no single setting can.

    Each value comes from its flag, else the config file, else $EVPERF_SEED
    (seed only), else its default, and must lie in the row's range.
    """
    file_cfg = _read_config_file(args.config) if args.config else {}
    if getattr(args, "input", None) is not None or getattr(args, "synth", None):
        # a source flag replaces the file's data source instead of adding to it
        file_cfg.pop("input", None)
        file_cfg.pop("synth", None)
    values = {}
    for opt in OPTIONS:
        value = getattr(args, opt.dest, None)
        if value is not None and not isinstance(value, opt.type):  # argparse reads --key=-- as []
            raise CliError(f"--{opt.key.replace('_', '-')}: expected {opt.type.__name__}, "
                           f"got {value!r}")
        if value is None and opt.key in file_cfg:
            value = _coerce(f"config key {opt.key!r}", file_cfg[opt.key], opt.type)
        elif value is None and opt.key == "seed" and os.environ.get(SEED_ENV_VAR):
            value = _coerce(SEED_ENV_VAR, os.environ[SEED_ENV_VAR], int)
        value = opt.default if value is None else value
        opt.check_range(value)
        values[opt.dest] = value
    run = RunConfig(command=args.command, **values)

    if run.input is not None and run.synth:
        raise CliError("choose exactly one data source: --input or --synth")
    if run.command in _SOURCE and run.input is None and not run.synth:
        raise CliError("no data source: pass --input FILE or --synth")
    return run


def _train_config(run: RunConfig) -> TrainConfig:
    return TrainConfig(
        n_rounds=run.rounds,
        learning_rate=run.eta,
        max_depth=run.depth,
        reg_lambda=run.lambda_,
        reg_alpha=run.alpha,
        gamma=run.gamma,
        num_class=NUM_CLASSES,
    )


def _synth_config(run: RunConfig) -> SynthConfig:
    return SynthConfig(n_samples=run.n_samples, seed=run.seed, noise_sd=run.noise_sd)


def _load_table(run: RunConfig, schema: Sequence[str] = DEFAULT_SCHEMA) -> VehicleTable:
    """The ``schema`` columns of the run's synthetic fleet or of its CSV, which must have them."""
    if run.synth:
        return VehicleTable.from_records(synth_records(_synth_config(run)), schema)
    aliases = read_alias_table(run.aliases) if run.aliases else None
    return load_csv(run.input, schema=schema, aliases=aliases)


def _write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v: float) -> str:
    return repr(float(v))


def _emit_figure(run: RunConfig, kind: str, header: list[str], rows: Iterable[Iterable],
                 render_svg) -> None:
    """Write <kind>.csv always and <kind>.svg when enabled."""
    _write_csv(run.out_dir / f"{kind}.csv", header, rows)
    if run.svg:
        with atomic_open(run.out_dir / f"{kind}.svg") as fh:
            fh.write(render_svg())


def cmd_train(run: RunConfig) -> None:
    dataset = build_dataset(_load_table(run))
    run.out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _train_config(run)
    report = cross_validate(dataset, cfg, k=run.folds, seed=run.seed)

    scaler = fit_scaler(dataset.features)
    final = train(
        Dataset(apply_scaler(dataset.features, scaler), dataset.labels,
                dataset.feature_names, scaler=scaler),
        cfg,
    )
    save_model(final, run.out_dir / "model.json")
    with atomic_open(run.out_dir / "metrics.json") as fh:
        fh.write(json.dumps(report_to_dict(report), indent=1, sort_keys=True) + "\n")

    cm = report.confusion.tolist()
    _emit_figure(
        run, "confusion", ["true\\pred", *CLASS_NAMES],
        [[name, *row] for name, row in zip(CLASS_NAMES, cm)],
        lambda: figures.heatmap(cm, CLASS_NAMES, CLASS_NAMES,
                                "Pooled cross-validation confusion matrix"),
    )
    print(f"samples: {dataset.n_samples}  folds: {run.folds}  rounds: {cfg.n_rounds}")
    print(
        f"pooled accuracy={report.accuracy:.4f}  auc={report.roc_auc_macro_ovr:.4f}  "
        f"mcc={report.mcc:.4f}  mlogloss={report.mlogloss:.4f}"
    )
    print(f"wrote model.json, metrics.json, confusion.csv to {run.out_dir}")


def _explain_features(run: RunConfig, model: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Raw and model-space feature matrices for the explain command."""
    usable = drop_missing(_load_table(run, model.feature_names), model.feature_names)
    if not len(usable):
        raise DataError("no records with all model features present")
    raw = usable.matrix(model.feature_names)
    x = apply_scaler(raw, model.scaler) if model.scaler is not None else raw
    return raw, x


def cmd_explain(run: RunConfig) -> None:
    model_path = run.model if run.model is not None else run.out_dir / "model.json"
    if not Path(model_path).exists():
        raise CliError(f"model file not found: {model_path}")
    model = load_model(model_path)
    if model.num_class != NUM_CLASSES:
        raise CliError(f"model {model_path} has {model.num_class} classes; explain needs a "
                       f"model of the {NUM_CLASSES} classes {', '.join(CLASS_NAMES)}")
    if run.feature not in model.feature_names:
        raise CliError(f"dependence feature {run.feature!r} not in model features "
                       f"{list(model.feature_names)}")
    raw, x = _explain_features(run, model)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    explained = explain_matrix(model, x, raw)
    high = int(PerfClass.HIGH)

    # one row per sample x feature x class; csv writes each float by repr
    labels = [CLASS_NAMES[k] for k in range(explained.phi.shape[2])]
    _write_csv(
        run.out_dir / "shap_values.csv", ["sample_id", "feature", "class", "value", "phi"],
        ([sid, name, label, value, p]
         for sid, (values, phi) in enumerate(zip(explained.values.tolist(), explained.phi.tolist()))
         for name, value, per_class in zip(explained.feature_names, values, phi)
         for label, p in zip(labels, per_class)),
    )

    gains = gain_importance(model)
    gain_order = sorted(range(len(gains)), key=lambda i: (-gains[i], i))
    _emit_figure(
        run, "gain_importance", ["feature", "total_gain"],
        [[model.feature_names[i], _fmt(gains[i])] for i in gain_order],
        lambda: figures.bar_chart([model.feature_names[i] for i in gain_order],
                                  [float(gains[i]) for i in gain_order],
                                  "Split-gain feature importance", xlabel="total gain"),
    )

    ranking = global_importance(explained)
    _emit_figure(
        run, "shap_importance",
        ["feature", "mean_abs_phi"] + [f"mean_abs_phi_{c}" for c in CLASS_NAMES],
        [[fi.name, _fmt(fi.overall)] + [_fmt(v) for v in fi.per_class] for fi in ranking],
        lambda: figures.bar_chart([fi.name for fi in ranking], [fi.overall for fi in ranking],
                                  "Mean |phi| feature importance (margin space)",
                                  xlabel="mean |phi|"),
    )

    feat_idx = model.feature_names.index(run.feature)
    dep = dependence_data(explained, feat_idx, high)
    _emit_figure(
        run, "dependence", [run.feature, f"phi_{CLASS_NAMES[high]}"],
        [[_fmt(v), _fmt(phi)] for v, phi in dep],
        lambda: figures.scatter(
            [v for v, _ in dep], [phi for _, phi in dep],
            f"Attribution vs {run.feature} ({CLASS_NAMES[high]} class, margin space)",
            xlabel=run.feature, ylabel="phi"),
    )

    n_swarm = min(run.swarm_samples, len(explained))
    names = model.feature_names
    first, second = np.triu_indices(len(names), 1)
    inter = interaction_values(model, x[:n_swarm], explained.phi[:n_swarm])
    swarm_rows = []
    pair_groups: dict[str, list[float]] = {}
    for s, pairs in enumerate(inter[:, first, second, high].tolist()):
        for i, j, value in zip(first, second, pairs):
            swarm_rows.append([s, names[i], names[j], _fmt(raw[s, i]), _fmt(value)])
            pair_groups.setdefault(f"{names[i]} x {names[j]}", []).append(value)
    _emit_figure(
        run, "shap_swarm", ["sample_id", "feature_i", "feature_j", "value_i", "interaction_phi"],
        swarm_rows,
        lambda: figures.strip_plot(
            sorted(pair_groups.items()),
            f"Pairwise interaction values ({CLASS_NAMES[high]} class, margin space)",
            xlabel="interaction phi"),
    )

    force_class = int(np.argmax(predict_margin_batch(model, x[:1])[0]))
    force = force_plot_data(explained, 0, force_class)
    force_rows = [["base", "", "", _fmt(force.base_value), ""]]
    for e in force.entries:
        force_rows.append(["contribution", e.name, _fmt(e.value), _fmt(e.phi), e.sign])
    force_rows.append(["margin", "", "", _fmt(force.margin), ""])
    _emit_figure(
        run, "force", ["kind", "feature", "value", "phi", "sign"], force_rows,
        lambda: figures.force_chart(
            [(e.name, e.value, e.phi) for e in force.entries],
            force.base_value, force.margin,
            f"Prediction decomposition, sample 0, class {CLASS_NAMES[force_class]}"),
    )

    print(f"explained {len(explained)} samples with {len(model.trees.root)} trees")
    print("wrote shap_values plus figures gain_importance, shap_importance, dependence, "
          f"shap_swarm, force to {run.out_dir}")


def cmd_synth(run: RunConfig) -> None:
    run.out_dir.mkdir(parents=True, exist_ok=True)
    records = synth_records(_synth_config(run))
    sweep = diminishing_returns_sweep(default_vehicle(), default_pack(), DEFAULT_SWEEP_PARALLEL)
    # every record holds the same columns as Python floats, which csv writes by repr
    _write_csv(
        run.out_dir / "synthetic.csv",
        list(records[0].values),
        (r.values.values() for r in records),
    )
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
    except (CliError, DataError, PhysicsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        sizes = [f"--{opt.key.replace('_', '-')}" for opt in OPTIONS
                 if opt.key in _MEMORY_SIZES and args.command in opt.commands]
        smaller = ", or use a smaller --input" if args.command in _SOURCE else ""
        print(f"error: evperf {args.command} ran out of memory; lower {' or '.join(sizes)}"
              f"{smaller}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
