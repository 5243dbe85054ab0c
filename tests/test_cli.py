import argparse
import csv
import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from evperf.cli import (
    OPTIONS,
    CliError,
    _synth_config,
    _train_config,
    build_parser,
    cmd_explain,
    main,
    resolve_config,
)
from evperf.data import ACCEL_S, CELL_COUNT, TORQUE_NM, DataError
from evperf.physics import PhysicsError

FAST = ["--rounds", "8", "--depth", "3", "--n-samples", "60"]


def run(args):
    return main([str(a) for a in args])


class TestSynthCommand:
    def test_writes_dataset_and_sweep(self, tmp_path, capsys):
        assert run(["synth", "--out-dir", tmp_path, "--n-samples", "25"]) == 0
        rows = list(csv.reader(open(tmp_path / "synthetic.csv")))
        assert len(rows) == 26  # header + samples
        assert CELL_COUNT in rows[0]
        sweep = list(csv.reader(open(tmp_path / "sweep.csv")))
        assert sweep[0] == ["cell_count", "acceleration_0_100_s"]
        assert len(sweep) > 10

    def test_byte_identical_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--out-dir", a, "--seed", "5", "--n-samples", "30"]) == 0
        assert run(["synth", "--out-dir", b, "--seed", "5", "--n-samples", "30"]) == 0
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_seed_changes_dataset(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--out-dir", a, "--seed", "1", "--n-samples", "30"])
        run(["synth", "--out-dir", b, "--seed", "2", "--n-samples", "30"])
        assert (a / "synthetic.csv").read_bytes() != (b / "synthetic.csv").read_bytes()


class TestTrainCommand:
    def test_synth_smoke(self, tmp_path, capsys):
        code = run(["train", "--synth", "--out-dir", tmp_path, *FAST])
        assert code == 0
        for name in ("model.json", "metrics.json", "confusion.csv", "confusion.svg"):
            assert (tmp_path / name).exists(), name
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["format_version"] == 1
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) >= {"accuracy", "roc_auc_macro_ovr", "mcc", "mlogloss", "confusion", "folds"}
        assert len(metrics["folds"]) == 5
        out = capsys.readouterr().out
        assert "pooled accuracy" in out

    def test_model_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["train", "--synth", "--out-dir", a, "--seed", "3", *FAST]) == 0
        assert run(["train", "--synth", "--out-dir", b, "--seed", "3", *FAST]) == 0
        for name in ("model.json", "metrics.json", "confusion.csv", "confusion.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_csv_input_roundtrip(self, tmp_path):
        # floats survive the CSV via repr, so training from the emitted file
        # reproduces --synth training byte-for-byte
        data_dir = tmp_path / "data"
        assert run(["synth", "--out-dir", data_dir, "--seed", "4", "--n-samples", "80"]) == 0
        from_synth, from_csv = tmp_path / "a", tmp_path / "b"
        assert run(["train", "--synth", "--seed", "4", "--n-samples", "80",
                    "--out-dir", from_synth, "--rounds", "8", "--depth", "3"]) == 0
        assert run(["train", "--input", data_dir / "synthetic.csv", "--seed", "4",
                    "--out-dir", from_csv, "--rounds", "8", "--depth", "3"]) == 0
        assert (from_synth / "model.json").read_bytes() == (from_csv / "model.json").read_bytes()
        assert (from_synth / "metrics.json").read_bytes() == (from_csv / "metrics.json").read_bytes()

    def test_byte_order_mark_accepted(self, tmp_path):
        # spreadsheets save UTF-8 with a BOM; its first header must still match
        data_dir = tmp_path / "data"
        assert run(["synth", "--out-dir", data_dir, "--seed", "2", "--n-samples", "60"]) == 0
        plain = data_dir / "synthetic.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        common = ["--seed", "2", "--rounds", "8", "--depth", "3", "--no-svg"]
        assert run(["train", "--input", plain, "--out-dir", tmp_path / "a", *common]) == 0
        assert run(["train", "--input", bom, "--out-dir", tmp_path / "b", *common]) == 0
        assert ((tmp_path / "a" / "metrics.json").read_bytes()
                == (tmp_path / "b" / "metrics.json").read_bytes())

    def test_missing_required_column_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("battery_capacity_kwh,weight_kg,torque_nm,range_km,acceleration_0_100_s\n"
                       "50,1800,300,400,6.5\n")
        code = run(["train", "--input", bad, "--out-dir", tmp_path / "out", *FAST])
        assert code == 2
        assert CELL_COUNT in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = run(["train", "--input", tmp_path / "none.csv", "--out-dir", tmp_path, *FAST])
        assert code == 2

    def test_both_sources_rejected(self, tmp_path, capsys):
        code = run(["train", "--input", "x.csv", "--synth", "--out-dir", tmp_path, *FAST])
        assert code == 2
        assert "one data source" in capsys.readouterr().err

    def test_no_source_rejected(self, tmp_path, capsys):
        code = run(["train", "--out-dir", tmp_path, *FAST])
        assert code == 2


@pytest.mark.parametrize("argv, path", [
    (["train", "--input", "{dir}", "--out-dir", "{tmp}/out", *FAST], "{dir}"),
    (["explain", "--synth", "--model", "{dir}", "--out-dir", "{tmp}/out", "--n-samples", "10"],
     "{dir}"),
    (["synth", "--out-dir", "{file}/x", "--n-samples", "10"], "{file}/x"),
], ids=["train_input_dir", "explain_model_dir", "synth_out_dir_under_file"])
def test_directory_and_not_a_directory_paths_exit_2(tmp_path, capsys, argv, path):
    names = {"dir": tmp_path / "d", "file": tmp_path / "f", "tmp": tmp_path}
    names["dir"].mkdir()
    names["file"].write_text("")
    assert run([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert path.format(**names) in err


@pytest.mark.parametrize("argv", [
    ["train", "--input", "{dir}", "--out-dir", "{out}", *FAST],
    ["train", "--input", "{dir}/none.csv", "--out-dir", "{out}", *FAST],
    ["explain", "--synth", "--model", "{dir}", "--out-dir", "{out}", "--n-samples", "10"],
    ["explain", "--synth", "--model", "{dir}/none.json", "--out-dir", "{out}"],
    ["explain", "--synth", "--out-dir", "{out}"],
], ids=["train_input_dir", "train_missing_input", "explain_model_dir",
        "explain_missing_model", "explain_no_model_in_out_dir"])
def test_failed_input_leaves_no_out_dir(tmp_path, argv):
    names = {"dir": tmp_path / "d", "out": tmp_path / "out"}
    names["dir"].mkdir()
    assert run([a.format(**names) for a in argv]) == 2
    assert not names["out"].exists()


def _rightmost_leaf(node):
    while "right" in node:
        node = node["right"]
    return node


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run(["train", "--synth", "--out-dir", out, *FAST]) == 0
    return out


class TestExplainCommand:
    FIGURES = ("gain_importance", "shap_importance", "dependence", "shap_swarm", "force")

    def test_emits_all_artifacts(self, trained_dir, tmp_path):
        out = tmp_path / "explain"
        code = run([
            "explain", "--synth", "--model", trained_dir / "model.json",
            "--out-dir", out, "--n-samples", "40", "--swarm-samples", "10",
        ])
        assert code == 0
        assert (out / "shap_values.csv").exists()
        for name in self.FIGURES:
            assert (out / f"{name}.csv").exists(), name
            assert (out / f"{name}.svg").exists(), name

    def test_dependence_row_count_and_no_svg(self, trained_dir, tmp_path):
        out = tmp_path / "explain"
        code = run([
            "explain", "--synth", "--model", trained_dir / "model.json",
            "--out-dir", out, "--n-samples", "35", "--swarm-samples", "5", "--no-svg",
        ])
        assert code == 0
        rows = list(csv.reader(open(out / "dependence.csv")))
        assert len(rows) == 1 + 35
        assert rows[0][0] == CELL_COUNT
        assert not (out / "dependence.svg").exists()
        assert (out / "shap_values.csv").exists()

    @pytest.mark.parametrize("n_samples, swarm_samples, swarm_rows", [
        (10, 0, 0),   # an empty interaction batch still writes the header
        (3, 60, 3),   # fewer rows than swarm samples: every row is in the swarm
    ], ids=["no_swarm", "swarm_capped_by_rows"])
    def test_swarm_sizes_at_the_edges(self, trained_dir, tmp_path, n_samples, swarm_samples,
                                      swarm_rows):
        out = tmp_path / "explain"
        code = run([
            "explain", "--synth", "--model", trained_dir / "model.json", "--out-dir", out,
            "--n-samples", n_samples, "--swarm-samples", swarm_samples, "--no-svg",
        ])
        assert code == 0
        rows = list(csv.reader(open(out / "shap_swarm.csv")))
        assert rows[0] == ["sample_id", "feature_i", "feature_j", "value_i", "interaction_phi"]
        d = len(json.loads((trained_dir / "model.json").read_text())["feature_names"])
        assert len(rows) - 1 == swarm_rows * d * (d - 1) // 2
        assert sorted({int(r[0]) for r in rows[1:]}) == list(range(swarm_rows))

    def test_unknown_feature_exit_2(self, trained_dir, tmp_path, capsys):
        code = run([
            "explain", "--synth", "--model", trained_dir / "model.json",
            "--out-dir", tmp_path / "x", "--feature", "volume_l", "--n-samples", "10",
        ])
        assert code == 2
        assert "volume_l" in capsys.readouterr().err

    def test_missing_model_exit_2(self, tmp_path, capsys):
        code = run(["explain", "--synth", "--out-dir", tmp_path, "--n-samples", "10"])
        assert code == 2
        assert "model" in capsys.readouterr().err.lower()

    def test_zero_cover_model_exit_2(self, trained_dir, tmp_path, capsys):
        doc = json.loads((trained_dir / "model.json").read_text())
        root = next(t["root"] for t in doc["trees"] if "feature" in t["root"])
        root["cover"] = 0.0
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        code = run(["explain", "--synth", "--model", bad, "--out-dir", tmp_path / "x",
                    "--n-samples", "10", "--no-svg"])
        assert code == 2
        assert "cover" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc, tree: tree["root"].update(feature=7), None),
        (lambda doc, tree: tree["root"].update(feature=-2), None),
        (lambda doc, tree: tree["root"].pop("left"), None),
        (lambda doc, tree: tree.pop("round"), None),
        (lambda doc, tree: tree["root"].update(threshold=float("nan")),
         "at threshold nan; split features must lie in"),
        (lambda doc, tree: _rightmost_leaf(tree["root"]).update(weight=float("inf")),
         "model tree {index} has a leaf weight inf; split features must lie in"),
        (lambda doc, tree: doc.pop("trees"), "missing key 'trees'"),
        (lambda doc, tree: doc.pop("config"), "missing key 'config'"),
        (lambda doc, tree: doc["base_score"].pop(), "model base_score"),
        (lambda doc, tree: doc["scaler"].update(mean=[0.0], std=[1.0]), "model scaler"),
        (lambda doc, tree: doc["scaler"].update(mean=doc["scaler"]["mean"] + [0.0],
                                                std=doc["scaler"]["std"] + [1.0]), "model scaler"),
        (lambda doc, tree: doc["trees"].remove(tree), "n_rounds x num_class"),
        (lambda doc, tree: doc["config"].update(depth=3), "model config"),
        (lambda doc, tree: doc["base_score"].__setitem__(1, float("nan")), "model base_score"),
        (lambda doc, tree: doc["base_score"].__setitem__(0, float("-inf")), "model base_score"),
        (lambda doc, tree: tree["root"].update(cover=float("inf")), "node cover"),
        (lambda doc, tree: _rightmost_leaf(tree["root"]).update(cover=float("inf")), "node cover"),
        (lambda doc, tree: doc["feature_names"].__setitem__(1, doc["feature_names"][0]),
         "model feature_names"),
        (lambda doc, tree: _rightmost_leaf(tree["root"]).update(cover=-5.0), "node cover -5.0"),
        (lambda doc, tree: _rightmost_leaf(tree["root"]).update(cover=-0.0), "node cover -0.0"),
        (lambda doc, tree: doc["config"].update(num_class=4),
         "model num_class 3 differs from its config's num_class 4"),
        (lambda doc, tree: tree["root"].update(feature=tree["root"]["feature"] + 0.5),
         "tree {index} is malformed: feature must be an integer"),
        (lambda doc, tree: tree.update(round=tree["round"] + 0.9),
         "tree {index} is malformed: round must be an integer"),
        (lambda doc, tree: tree.update(class_index=tree["class_index"] + 0.5),
         "tree {index} is malformed: class_index must be an integer"),
        (lambda doc, tree: doc.update(num_class=str(doc["num_class"])),
         "model num_class must be an integer, got '3'"),
        (lambda doc, tree: doc.update(num_class=doc["num_class"] + 0.5),
         "model num_class must be an integer, got 3.5"),
        (lambda doc, tree: doc.update(trees=5), "model trees is int, expected a list"),
        (lambda doc, tree: doc.update(trees=None), "model trees is NoneType, expected a list"),
        (lambda doc, tree: doc.update(feature_names=5),
         "model feature_names is int, expected a list"),
        (lambda doc, tree: doc.update(feature_names=None),
         "model feature_names is NoneType, expected a list"),
        # both covers are finite, but their ratio overflows
        (lambda doc, tree: (tree["root"].update(cover=1e-300),
                            tree["root"]["left"].update(cover=1e300)),
         "tree {index} has a path whose zero fraction"),
        (lambda doc, tree: doc.update(scaler=[1]),
         "model scaler is list, expected an object or null"),
        (lambda doc, tree: doc.update(config=[1]), "model config is list, expected an object"),
        (lambda doc, tree: doc["config"].update(learning_rate=True),
         "model config learning_rate must be a number, got True"),
        (lambda doc, tree: doc["config"].update(learning_rate="0.1"),
         "model config learning_rate must be a number, got '0.1'"),
        (lambda doc, tree: doc["config"].update(n_rounds=float(doc["config"]["n_rounds"])),
         "model config n_rounds must be an integer, got 8.0"),
        (lambda doc, tree: doc["config"].update(max_depth=4.5),
         "model config max_depth must be an integer, got 4.5"),
        (lambda doc, tree: tree["root"].update(threshold="0.5"),
         "tree {index} is malformed: threshold must be a number, got '0.5'"),
        (lambda doc, tree: tree["root"].update(threshold=True),
         "tree {index} is malformed: threshold must be a number, got True"),
        (lambda doc, tree: tree["root"].update(cover="3.0"),
         "tree {index} is malformed: cover must be a number, got '3.0'"),
        (lambda doc, tree: tree["root"].update(gain="1"),
         "tree {index} is malformed: gain must be a number, got '1'"),
        (lambda doc, tree: _rightmost_leaf(tree["root"]).update(weight="0.25"),
         "tree {index} is malformed: weight must be a number, got '0.25'"),
        (lambda doc, tree: doc.update(base_score=["1.0", "2.0", "3.0"]),
         "model base_score must be a number, got '1.0'"),
        (lambda doc, tree: doc["scaler"]["mean"].__setitem__(0, "0.5"),
         "model scaler mean must be a number, got '0.5'"),
        (lambda doc, tree: doc["scaler"].update(std=[repr(v) for v in doc["scaler"]["std"]]),
         "model scaler std must be a number, got '"),
        (lambda doc, tree: tree["root"].update(threshold=10**400),
         "tree {index} is malformed: threshold must be a number within the float range, "
         "got an integer of 401 digits"),
        (lambda doc, tree: doc["config"].update(reg_lambda=-10**400),
         "model config reg_lambda must be a number within the float range"),
        (lambda doc, tree: doc["feature_names"].__setitem__(2, ["a"]),
         "model feature_names must be strings, got ['a']"),
        (lambda doc, tree: doc["feature_names"].__setitem__(0, 5),
         "model feature_names must be strings, got 5"),
        (lambda doc, tree: tree.update(round=999), "model tree {index} has round 999 outside [0, "),
        (lambda doc, tree: tree.update(round=-1), "model tree {index} has round -1 outside [0, "),
        (lambda doc, tree: tree["root"].update(feature=10**400),
         "model tree {index} is malformed: feature must be an integer"),
        (lambda doc, tree: tree["root"].update(feature=2**64),
         "model tree {index} is malformed: feature must be an integer"),
        (lambda doc, tree: tree.update(round=2**70),
         "model tree {index} is malformed: round must be an integer"),
        (lambda doc, tree: tree.update(class_index=2**70),
         "model tree {index} is malformed: class_index must be an integer"),
    ], ids=["feature_7", "feature_-2", "missing_left", "missing_round", "nan_threshold",
            "inf_leaf_weight", "missing_trees", "missing_config", "short_base_score",
            "short_scaler", "long_scaler", "dropped_tree", "unknown_config_key",
            "nan_base_score", "inf_base_score", "inf_root_cover", "inf_leaf_cover",
            "duplicate_feature_name", "negative_leaf_cover", "negative_zero_leaf_cover",
            "num_class_mismatch", "fractional_feature", "fractional_round",
            "fractional_class_index", "string_num_class", "fractional_num_class", "int_trees",
            "null_trees", "int_feature_names", "null_feature_names", "overflowing_zero_fraction",
            "list_scaler", "list_config", "bool_learning_rate", "string_learning_rate",
            "float_n_rounds", "fractional_max_depth", "string_threshold", "bool_threshold",
            "string_cover", "string_gain", "string_leaf_weight", "string_base_score",
            "string_scaler_mean", "string_scaler_std", "huge_integer_threshold",
            "huge_integer_reg_lambda", "list_feature_name", "int_feature_name", "round_999",
            "negative_round", "huge_integer_feature", "int64_overflow_feature",
            "huge_integer_round", "huge_integer_class_index"])
    def test_malformed_model_exit_2(self, trained_dir, tmp_path, capsys, edit, message):
        doc = json.loads((trained_dir / "model.json").read_text())
        assert len(doc["feature_names"]) < 7 and doc["scaler"] is not None
        tree = next(t for t in doc["trees"][1:] if "feature" in t["root"])
        index = doc["trees"].index(tree)
        edit(doc, tree)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        code = run(["explain", "--synth", "--model", bad, "--out-dir", tmp_path / "x",
                    "--n-samples", "10", "--no-svg"])
        assert code == 2
        assert (message or "tree {index}").format(index=index) in capsys.readouterr().err

    def test_model_document_not_an_object_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("[]")
        code = run(["explain", "--synth", "--model", bad, "--out-dir", tmp_path / "x",
                    "--n-samples", "10", "--no-svg"])
        assert code == 2
        assert "model document is list, expected an object" in capsys.readouterr().err

    def test_aliased_csv_without_acceleration(self, trained_dir, tmp_path):
        # explain needs only the model's features: a CSV with renamed headers,
        # no acceleration column and one incomplete row explains the same
        # rows as --synth does
        data = tmp_path / "data"
        assert run(["synth", "--out-dir", data, "--seed", "6", "--n-samples", "15"]) == 0
        rows = list(csv.reader(open(data / "synthetic.csv")))
        keep = [i for i, name in enumerate(rows[0]) if name != ACCEL_S]
        renamed = {CELL_COUNT: "Cells", TORQUE_NM: "Torque (Nm)"}
        table = [[rows[0][i] for i in keep]] + [[row[i] for i in keep] for row in rows[1:]]
        table[0] = [renamed.get(name, name) for name in table[0]]
        table.append(["" if name == "Torque (Nm)" else "1.0" for name in table[0]])
        source = tmp_path / "fleet.csv"
        with open(source, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
        aliases = tmp_path / "aliases.txt"
        aliases.write_text("".join(f"{src} = {dst}\n" for dst, src in renamed.items()))

        common = ["--model", trained_dir / "model.json", "--seed", "6", "--swarm-samples", "3",
                  "--no-svg"]
        assert run(["explain", "--synth", "--n-samples", "15", "--out-dir", tmp_path / "a",
                    *common]) == 0
        assert run(["explain", "--input", source, "--aliases", aliases, "--out-dir",
                    tmp_path / "b", *common]) == 0
        for name in ("shap_values", *self.FIGURES):
            assert ((tmp_path / "a" / f"{name}.csv").read_bytes()
                    == (tmp_path / "b" / f"{name}.csv").read_bytes()), name

    def test_artifact_list_contract(self, trained_dir, tmp_path):
        args = build_parser().parse_args([
            "explain", "--synth", "--model", str(trained_dir / "model.json"),
            "--out-dir", str(tmp_path / "art"), "--n-samples", "15",
            "--swarm-samples", "4", "--no-svg",
        ])
        cmd_explain(resolve_config(args))
        listing = sorted(p.name for p in (tmp_path / "art").iterdir())
        assert listing == sorted(["shap_values.csv", *(f"{k}.csv" for k in self.FIGURES)])
        assert not any(name.endswith(".svg") for name in listing)

    def test_force_csv_embeds_sum_check(self, trained_dir, tmp_path):
        out = tmp_path / "force"
        run([
            "explain", "--synth", "--model", trained_dir / "model.json",
            "--out-dir", out, "--n-samples", "12", "--swarm-samples", "3", "--no-svg",
        ])
        rows = list(csv.reader(open(out / "force.csv")))
        kinds = [r[0] for r in rows[1:]]
        assert kinds[0] == "base" and kinds[-1] == "margin"
        base = float(rows[1][3])
        margin = float(rows[-1][3])
        contributions = sum(float(r[3]) for r in rows[2:-1])
        assert abs(base + contributions - margin) < 1e-6


@pytest.mark.parametrize("argv, artifact", [
    (["train", "--synth", *FAST], "metrics.json"),
    (["explain", "--synth", "--n-samples", "20", "--swarm-samples", "2"], "shap_swarm.csv"),
], ids=["train_metrics", "explain_swarm_csv"])
def test_failed_replace_keeps_the_previous_artifact(trained_dir, tmp_path, capsys, monkeypatch,
                                                     argv, artifact):
    out = tmp_path / "out"
    out.mkdir()
    (out / artifact).write_bytes(b"previous run\r\n")
    model = ["--model", trained_dir / "model.json"] if argv[0] == "explain" else []
    replace = os.replace

    def fail_on_artifact(src, dst):
        if Path(dst).name == artifact:
            assert Path(src).stat().st_size > 0  # fully written
            raise OSError("disk gone")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_artifact)
    assert run([*argv, *model, "--out-dir", out]) == 2
    assert "disk gone" in capsys.readouterr().err
    assert (out / artifact).read_bytes() == b"previous run\r\n"
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.filterwarnings("error")
def test_default_pipeline_warns_nothing(tmp_path):
    assert run(["synth", "--out-dir", tmp_path, "--n-samples", "40"]) == 0
    assert run(["train", "--synth", "--out-dir", tmp_path, *FAST]) == 0
    assert run(["explain", "--synth", "--model", tmp_path / "model.json", "--out-dir", tmp_path,
                "--n-samples", "30", "--swarm-samples", "5"]) == 0


class TestConfigResolution:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nrounds = 6\ndepth = 2\nfolds = 4\n[data]\nsynth = true\nn_samples = 50\n")
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out-dir", out]) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["config"]["n_rounds"] == 6
        assert doc["config"]["max_depth"] == 2
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["folds"]) == 4

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nrounds = 6\n[data]\nsynth = true\nn_samples = 50\n")
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--rounds", "3", "--depth", "2", "--out-dir", out]) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["config"]["n_rounds"] == 3

    def test_duplicate_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[a]\nseed = 1\n[b]\nseed = 2\n")
        assert run(["train", "--synth", "--config", cfg, "--out-dir", tmp_path, *FAST]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_default_section_keys_count_once(self, tmp_path):
        # [DEFAULT] is an ordinary section, not copied into every other one
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\nseed = 1\n[a]\nrounds = 2\n[b]\nn_samples = 20\n")
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path / "a"]) == 0
        assert run(["synth", "--seed", "1", "--n-samples", "20", "--out-dir", tmp_path / "b"]) == 0
        assert ((tmp_path / "a" / "synthetic.csv").read_bytes()
                == (tmp_path / "b" / "synthetic.csv").read_bytes())

    def test_default_section_key_repeated_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\nseed = 1\n[a]\nseed = 2\n")
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path / "out"]) == 2
        assert "duplicate config key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVPERF_SEED", "7")
        a = tmp_path / "a"
        assert run(["synth", "--out-dir", a, "--n-samples", "20"]) == 0
        monkeypatch.delenv("EVPERF_SEED")
        b = tmp_path / "b"
        assert run(["synth", "--out-dir", b, "--seed", "7", "--n-samples", "20"]) == 0
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        # a directory cannot be opened as a config file; it is not skipped
        assert run(["train", "--synth", "--config", tmp_path, "--out-dir", tmp_path / "out",
                    *FAST]) == 2
        assert f"cannot read config file {tmp_path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nrounds = banana\n")
        assert run(["train", "--synth", "--config", cfg, "--out-dir", tmp_path]) == 2

    @pytest.mark.parametrize("argv, env_seed, message, artifact", [
        (["synth", "--noise-sd", "nan"], None, "noise_sd", "synthetic.csv"),
        (["synth", "--noise-sd", "800", "--n-samples", "5"], None, "noise_sd", "synthetic.csv"),
        (["train", "--synth", *FAST, "--lambda", "nan"], None, "lambda must be finite, got nan",
         "model.json"),
        (["train", "--synth", *FAST, "--lambda", "inf"], None, "lambda must be finite, got inf",
         "model.json"),
        (["train", "--synth", *FAST, "--alpha", "nan"], None, "alpha must be finite, got nan",
         "model.json"),
        (["train", "--synth", *FAST, "--gamma", "nan"], None, "gamma must be finite, got nan",
         "model.json"),
        (["explain", "--synth", "--n-samples", "10", "--no-svg", "--swarm-samples", "-3"], None,
         "swarm_samples", "shap_swarm.csv"),
        (["synth", "--seed", "-1", "--n-samples", "5"], None, "seed must be at least 0",
         "synthetic.csv"),
        (["train", "--synth", *FAST], "-2", "seed must be at least 0", "model.json"),
        (["synth", "--n-samples", "5"], "seven", "EVPERF_SEED", "synthetic.csv"),
        (["train", "--synth", *FAST, "--folds", "1"], None, "folds must be at least 2, got 1",
         "model.json"),
        (["train", "--synth", *FAST, "--rounds", "0"], None, "rounds must be at least 1, got 0",
         "model.json"),
        (["train", "--synth", *FAST, "--depth", "0"], None, "depth must be at least 1, got 0",
         "model.json"),
        (["synth", "--n-samples", "0"], None, "n_samples must be at least 1, got 0",
         "synthetic.csv"),
        (["synth", "--n-samples", "4294967297"], None, "n_samples must be at most 4294967296",
         "synthetic.csv"),
        (["train", "--synth", *FAST, "--eta", "0"], None, "eta must be in (0, 1], got 0.0",
         "model.json"),
        (["train", "--synth", *FAST, "--eta", "1.5"], None, "eta must be in (0, 1], got 1.5",
         "model.json"),
        (["train", "--synth", *FAST, "--eta=-inf"], None, "eta must be in (0, 1], got -inf",
         "model.json"),
        (["train", "--synth", *FAST, "--lambda", "-1"], None,
         "lambda must be at least 0, got -1.0", "model.json"),
        (["train", "--synth", *FAST, "--alpha", "-0.5"], None,
         "alpha must be at least 0, got -0.5", "model.json"),
        (["train", "--synth", *FAST, "--gamma", "-2"], None,
         "gamma must be at least 0, got -2.0", "model.json"),
        (["train", "--synth", *FAST, "--eta", "nan"], None, "eta must be finite, got nan",
         "model.json"),
    ], ids=["synth_noise_nan", "synth_noise_overflow", "train_lambda_nan", "train_lambda_inf",
            "train_alpha_nan", "train_gamma_nan", "explain_swarm_negative", "synth_seed_negative",
            "train_env_seed_negative", "synth_env_seed_not_int", "train_folds_1", "train_rounds_0",
            "train_depth_0", "synth_n_samples_0", "synth_n_samples_above_2_32", "train_eta_0",
            "train_eta_above_1", "train_eta_minus_inf", "train_lambda_negative",
            "train_alpha_negative", "train_gamma_negative", "train_eta_nan"])
    def test_out_of_range_value_exit_2(self, trained_dir, tmp_path, capsys, monkeypatch, argv,
                                       env_seed, message, artifact):
        monkeypatch.delenv("EVPERF_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("EVPERF_SEED", env_seed)
        out = tmp_path / "out"
        model = ["--model", trained_dir / "model.json"] if argv[0] == "explain" else []
        assert run([*argv, *model, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "config key" not in err
        assert not (out / artifact).exists()

    def test_negative_seed_in_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nseed = -4\n")
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path / "out"]) == 2
        assert "seed must be at least 0, got -4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_float_out_of_range_in_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\neta = 0\n")
        assert run(["train", "--synth", "--config", cfg, "--out-dir", tmp_path / "out"]) == 2
        assert "eta must be in (0, 1], got 0.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_float_in_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nlambda = inf\n")
        assert run(["train", "--synth", "--config", cfg, "--out-dir", tmp_path / "out"]) == 2
        assert "lambda must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, key", [("round = 3", "round"), ("out-dir = x", "out-dir")],
                             ids=["round", "out_dash_dir"])
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[train]\n{line}\n")
        out = tmp_path / "out"
        assert run(["train", "--synth", "--config", cfg, "--out-dir", out, *FAST]) == 2
        err = capsys.readouterr().err
        assert f"unknown config key {key!r}" in err
        assert "known keys: aliases, alpha, depth," in err and "out_dir" in err
        assert not out.exists()


def _subparsers():
    """{command: subparser} of the evperf parser."""
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _run_field(name):
    return lambda run: getattr(run, name)


def _train_field(name):
    return lambda run: getattr(_train_config(run), name)


# key, commands that take it, flag value, file value, parsed flag and file
# values, default, and how to read the resolved value
SETTINGS = [
    ("out_dir", ("train", "explain", "synth"), "flagdir", "filedir",
     Path("flagdir"), Path("filedir"), Path("out"), _run_field("out_dir")),
    ("folds", ("train",), "3", "4", 3, 4, 5, _run_field("folds")),
    ("rounds", ("train",), "7", "6", 7, 6, 30, _train_field("n_rounds")),
    ("depth", ("train",), "3", "2", 3, 2, 4, _train_field("max_depth")),
    ("eta", ("train",), "0.3", "0.2", 0.3, 0.2, 0.1, _train_field("learning_rate")),
    ("lambda", ("train",), "2.5", "1.5", 2.5, 1.5, 1.0, _train_field("reg_lambda")),
    ("alpha", ("train",), "0.5", "0.25", 0.5, 0.25, 0.0, _train_field("reg_alpha")),
    ("gamma", ("train",), "0.5", "0.25", 0.5, 0.25, 0.0, _train_field("gamma")),
    ("feature", ("explain",), "weight_kg", "torque_nm", "weight_kg", "torque_nm", CELL_COUNT,
     _run_field("feature")),
    ("n_samples", ("train", "explain", "synth"), "40", "50", 40, 50, 300,
     _run_field("n_samples")),
    ("noise_sd", ("train", "explain", "synth"), "0.05", "0.04", 0.05, 0.04, 0.03,
     _run_field("noise_sd")),
    ("model", ("explain",), "flag.json", "file.json", Path("flag.json"), Path("file.json"), None,
     _run_field("model")),
    ("aliases", ("train", "explain"), "flag.txt", "file.txt", Path("flag.txt"), Path("file.txt"),
     None, _run_field("aliases")),
    ("swarm_samples", ("explain",), "7", "8", 7, 8, 60, _run_field("swarm_samples")),
]
SETTING_CASES = [(command, *row) for row in SETTINGS for command in row[1]]


class TestPrecedence:
    """Flag, then config file, then EVPERF_SEED (seed only), then the default."""

    @pytest.fixture(autouse=True)
    def _no_env_seed(self, monkeypatch):
        monkeypatch.delenv("EVPERF_SEED", raising=False)

    @staticmethod
    def resolve(tmp_path, argv, file_text=None):
        if file_text is not None:
            cfg = tmp_path / "run.ini"
            cfg.write_text(file_text)
            argv = [*argv, "--config", str(cfg)]
        return resolve_config(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "command, key, commands, flag_raw, file_raw, flag_value, file_value, default, read",
        SETTING_CASES, ids=[f"{c[0]}-{c[1]}" for c in SETTING_CASES])
    def test_flag_beats_file_beats_default(self, tmp_path, command, key, commands, flag_raw,
                                          file_raw, flag_value, file_value, default, read):
        base = [command] + (["--synth"] if command != "synth" else [])
        flag = ["--" + key.replace("_", "-"), flag_raw]
        file_text = f"[section]\n{key} = {file_raw}\n"
        assert read(self.resolve(tmp_path, base)) == default
        assert read(self.resolve(tmp_path, base, file_text)) == file_value
        assert read(self.resolve(tmp_path, [*base, *flag], file_text)) == flag_value
        assert read(self.resolve(tmp_path, [*base, *flag])) == flag_value

    @pytest.mark.parametrize("command", ["train", "explain", "synth"])
    def test_seed_flag_file_env_default(self, tmp_path, monkeypatch, command):
        base = [command] + (["--synth"] if command != "synth" else [])
        file_text = "[run]\nseed = 8\n"
        assert self.resolve(tmp_path, base).seed == 0
        monkeypatch.setenv("EVPERF_SEED", "9")
        assert self.resolve(tmp_path, base).seed == 9
        assert self.resolve(tmp_path, base, file_text).seed == 8
        assert self.resolve(tmp_path, [*base, "--seed", "7"], file_text).seed == 7
        assert _train_config(self.resolve(tmp_path, base, file_text)).seed == 8

    @pytest.mark.parametrize("command", ["train", "explain", "synth"])
    def test_svg_flag_file_default(self, tmp_path, command):
        base = [command] + (["--synth"] if command != "synth" else [])
        assert self.resolve(tmp_path, base).svg is True
        assert self.resolve(tmp_path, base, "[out]\nsvg = false\n").svg is False
        assert self.resolve(tmp_path, base, "[out]\nsvg = yes\n").svg is True
        assert self.resolve(tmp_path, [*base, "--svg"], "[out]\nsvg = false\n").svg is True
        assert self.resolve(tmp_path, [*base, "--no-svg"], "[out]\nsvg = on\n").svg is False

    def test_svg_false_in_file_writes_no_svg(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[out]\nsvg = false\n")
        out = tmp_path / "out"
        assert run(["train", "--synth", "--config", cfg, "--out-dir", out, *FAST,
                    "--folds", "2"]) == 0
        assert (out / "confusion.csv").exists()
        assert not (out / "confusion.svg").exists()

    @pytest.mark.parametrize("command", ["train", "explain"])
    def test_source_from_file(self, tmp_path, command):
        run_cfg = self.resolve(tmp_path, [command], "[data]\ninput = fleet.csv\n")
        assert (run_cfg.input, run_cfg.synth) == (Path("fleet.csv"), False)
        run_cfg = self.resolve(tmp_path, [command], "[data]\nsynth = true\n")
        assert (run_cfg.input, run_cfg.synth) == (None, True)
        run_cfg = self.resolve(tmp_path, [command], "[data]\ninput = fleet.csv\nsynth = no\n")
        assert (run_cfg.input, run_cfg.synth) == (Path("fleet.csv"), False)

    @pytest.mark.parametrize("command", ["train", "explain"])
    def test_source_flag_overrides_file_source(self, tmp_path, command):
        run_cfg = self.resolve(tmp_path, [command, "--synth"], "[data]\ninput = fleet.csv\n")
        assert (run_cfg.input, run_cfg.synth) == (None, True)
        run_cfg = self.resolve(tmp_path, [command, "--input", "flag.csv"],
                               "[data]\nsynth = true\n")
        assert (run_cfg.input, run_cfg.synth) == (Path("flag.csv"), False)
        run_cfg = self.resolve(tmp_path, [command, "--input", "flag.csv"],
                               "[data]\ninput = fleet.csv\n")
        assert (run_cfg.input, run_cfg.synth) == (Path("flag.csv"), False)

    @pytest.mark.parametrize("command", ["train", "explain"])
    def test_file_with_both_sources_exit_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\ninput = fleet.csv\nsynth = true\n")
        assert run([command, "--config", cfg, "--out-dir", tmp_path / "out"]) == 2
        assert "one data source" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_keys_of_other_commands_accepted(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nrounds = 6\nfolds = 2\n[explain]\nswarm_samples = 3\n"
                       "feature = weight_kg\n[data]\nn_samples = 12\n")
        out = tmp_path / "out"
        assert run(["synth", "--config", cfg, "--out-dir", out]) == 0
        assert len((out / "synthetic.csv").read_text().splitlines()) == 1 + 12


class TestParserSurface:
    OPTION_STRINGS = {
        "train": {"-h", "--help", "--config", "--out-dir", "--seed", "--svg", "--no-svg",
                  "--input", "--synth", "--aliases", "--n-samples", "--noise-sd", "--folds",
                  "--rounds", "--depth", "--eta", "--lambda", "--alpha", "--gamma"},
        "explain": {"-h", "--help", "--config", "--out-dir", "--seed", "--svg", "--no-svg",
                    "--input", "--synth", "--aliases", "--n-samples", "--noise-sd", "--model",
                    "--feature", "--swarm-samples"},
        "synth": {"-h", "--help", "--config", "--out-dir", "--seed", "--svg", "--no-svg",
                  "--n-samples", "--noise-sd"},
    }

    def test_option_strings_per_command(self):
        subparsers = _subparsers()
        assert set(subparsers) == set(self.OPTION_STRINGS)
        for command, parser in subparsers.items():
            strings = {s for a in parser._actions for s in a.option_strings}
            assert strings == self.OPTION_STRINGS[command], command

    def test_readme_flags_paragraph_names_every_flag(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        paragraph = re.search(r"^Flags:.*?(?=\n\n)", readme, re.S | re.M).group(0)
        flags = {s for parser in _subparsers().values() for a in parser._actions
                 for s in a.option_strings if s not in ("-h", "--help")}
        missing = [f for f in sorted(flags) if not re.search(re.escape(f) + r"(?![\w-])", paragraph)]
        assert not missing, f"README Flags paragraph misses {missing}"


_OPTION = {opt.key: opt for opt in OPTIONS}
# mutated values: numbers at and past each range's edges, non-finite and huge ones,
# booleans, paths, config-file syntax and arbitrary short text
_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1", "2", "0.5", "-0.5", "1.5", "1e999", "-1e999", "nan", "inf",
                     "-inf", "1e308", "10" * 20, "-" + "9" * 30, "true", "no", "", " ", "x",
                     "%", "100%", "%(seed)s", "[run]", "a=b", ";", "-", "--", "1_0", "0x10"]),
    st.integers(-10**30, 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8),
)
# the flags each mutated run starts from, by the key they set; a mutated key's own flag is
# left out, since a flag would override its config-file entry
_BASE_FLAGS = {"n_samples": ["--n-samples", "5"], "svg": ["--no-svg"], "synth": ["--synth"]}


def _drives_main(opt, value: str) -> bool:
    """Whether `evperf synth` with this mutation is cheap and writes only under its out-dir."""
    if "synth" not in opt.commands or opt.key == "out_dir":
        return False
    if opt.key == "n_samples":
        try:
            return int(value) <= 50
        except ValueError:
            return True
    return True


class TestFuzzSettings:
    """Every OPTIONS row, mutated as a flag or a config-file entry: exit 0, or exit 2 naming it.

    `evperf synth` is run through `main` where it is cheap; other mutations
    stop after build_parser and resolve_config, plus building the run's
    SynthConfig and TrainConfig, and may only raise what `main` maps to exit 2.
    """

    @staticmethod
    def _names(opt, text: str) -> bool:
        return opt.key in text or "--" + opt.key.replace("_", "-") in text

    @settings(max_examples=120, deadline=None)
    @example(key="noise_sd", value="nan", in_file=False)
    @example(key="noise_sd", value="800", in_file=False)
    @example(key="lambda", value="nan", in_file=False)
    @example(key="lambda", value="inf", in_file=False)
    @example(key="lambda", value="inf", in_file=True)
    @example(key="alpha", value="nan", in_file=False)
    @example(key="gamma", value="nan", in_file=False)
    @example(key="swarm_samples", value="-3", in_file=False)
    @example(key="seed", value="-1", in_file=False)
    @example(key="seed", value="-4", in_file=True)
    @example(key="folds", value="1", in_file=False)
    @example(key="rounds", value="0", in_file=False)
    @example(key="depth", value="0", in_file=False)
    @example(key="n_samples", value="0", in_file=False)
    @example(key="n_samples", value="1" + "0" * 30, in_file=True)
    @example(key="eta", value="0", in_file=False)
    @example(key="eta", value="1.5", in_file=False)
    @example(key="eta", value="-inf", in_file=False)
    @example(key="eta", value="nan", in_file=False)
    @example(key="lambda", value="-1", in_file=False)
    @example(key="alpha", value="-0.5", in_file=False)
    @example(key="gamma", value="-2", in_file=False)
    @example(key="feature", value="100%", in_file=True)  # once a configparser traceback
    @example(key="seed", value="%(x)s", in_file=True)
    @example(key="alpha", value="--", in_file=False)  # argparse's [] once reached the range check
    @given(key=st.sampled_from(sorted(_OPTION)), value=_VALUES, in_file=st.booleans())
    def test_mutated_setting_exit_0_or_2(self, key, value, in_file):
        opt = _OPTION[key]
        command = "synth" if "synth" in opt.commands else opt.commands[0]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {}, clear=False), \
                redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
            os.environ.pop("EVPERF_SEED", None)
            if in_file:
                cfg = Path(tmp) / "run.ini"
                cfg.write_text(f"[{command}]\n{key} = {value}\n", encoding="utf-8")
                mutation = ["--config", str(cfg)]
            else:
                mutation = [f"--{key.replace('_', '-')}={value}"]
            base = [] if key == "out_dir" else ["--out-dir", str(Path(tmp) / "out")]
            if command == "synth" and _drives_main(opt, value):
                base = [a for k, flags in _BASE_FLAGS.items() if k not in ("synth", key)
                        for a in flags] + base
                try:
                    code = main(["synth"] + base + mutation)
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
                assert code in (0, 2), err.getvalue()
                if code == 2:
                    assert self._names(opt, err.getvalue()), err.getvalue()
                return
            if command != "synth" and key not in ("input", "synth"):
                base += _BASE_FLAGS["synth"]
            argv = [command] + base + mutation
            try:
                run = resolve_config(build_parser().parse_args(argv))
                _synth_config(run)
                _train_config(run)
            except SystemExit as exc:
                assert exc.code == 2 and self._names(opt, err.getvalue()), err.getvalue()
            except (CliError, DataError, PhysicsError, OSError, ValueError) as exc:
                assert self._names(opt, str(exc)), str(exc)
