import csv
import json

import pytest

from evperf.cli import build_parser, cmd_explain, main, resolve_config
from evperf.data import CELL_COUNT

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
        (lambda doc, tree: tree["root"].update(threshold=float("nan")), None),
        (lambda doc, tree: _rightmost_leaf(tree["root"]).update(weight=float("inf")), None),
        (lambda doc, tree: doc.pop("trees"), "missing key 'trees'"),
        (lambda doc, tree: doc.pop("config"), "missing key 'config'"),
        (lambda doc, tree: doc["base_score"].pop(), "model base_score"),
        (lambda doc, tree: doc["scaler"].update(mean=[0.0], std=[1.0]), "model scaler"),
        (lambda doc, tree: doc["scaler"].update(mean=doc["scaler"]["mean"] + [0.0],
                                                std=doc["scaler"]["std"] + [1.0]), "model scaler"),
        (lambda doc, tree: doc["trees"].remove(tree), "n_rounds x num_class"),
        (lambda doc, tree: doc["config"].update(depth=3), "model config"),
    ], ids=["feature_7", "feature_-2", "missing_left", "missing_round", "nan_threshold",
            "inf_leaf_weight", "missing_trees", "missing_config", "short_base_score",
            "short_scaler", "long_scaler", "dropped_tree", "unknown_config_key"])
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
        assert (message or f"tree {index}") in capsys.readouterr().err

    def test_artifact_list_contract(self, trained_dir, tmp_path):
        args = build_parser().parse_args([
            "explain", "--synth", "--model", str(trained_dir / "model.json"),
            "--out-dir", str(tmp_path / "art"), "--n-samples", "15",
            "--swarm-samples", "4", "--no-svg",
        ])
        artifacts = cmd_explain(resolve_config(args))
        assert [a.kind for a in artifacts] == list(self.FIGURES)
        for a in artifacts:
            assert a.csv_path.exists()
            assert a.svg_path is None

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

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVPERF_SEED", "7")
        a = tmp_path / "a"
        assert run(["synth", "--out-dir", a, "--n-samples", "20"]) == 0
        monkeypatch.delenv("EVPERF_SEED")
        b = tmp_path / "b"
        assert run(["synth", "--out-dir", b, "--seed", "7", "--n-samples", "20"]) == 0
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()

    def test_bad_config_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nrounds = banana\n")
        assert run(["train", "--synth", "--config", cfg, "--out-dir", tmp_path]) == 2

    @pytest.mark.parametrize("argv, message, artifact", [
        (["synth", "--noise-sd", "nan"], "noise_sd", "synthetic.csv"),
        (["synth", "--noise-sd", "800", "--n-samples", "5"], "noise_sd", "synthetic.csv"),
        (["train", "--synth", *FAST, "--lambda", "nan"], "regularization", "model.json"),
        (["train", "--synth", *FAST, "--lambda", "inf"], "regularization", "model.json"),
        (["train", "--synth", *FAST, "--alpha", "nan"], "regularization", "model.json"),
        (["train", "--synth", *FAST, "--gamma", "nan"], "regularization", "model.json"),
        (["explain", "--synth", "--n-samples", "10", "--no-svg", "--swarm-samples", "-3"],
         "swarm_samples", "shap_swarm.csv"),
    ], ids=["synth_noise_nan", "synth_noise_overflow", "train_lambda_nan", "train_lambda_inf",
            "train_alpha_nan", "train_gamma_nan", "explain_swarm_negative"])
    def test_out_of_range_value_exit_2(self, trained_dir, tmp_path, capsys, argv, message, artifact):
        out = tmp_path / "out"
        model = ["--model", trained_dir / "model.json"] if argv[0] == "explain" else []
        assert run([*argv, *model, "--out-dir", out]) == 2
        assert message in capsys.readouterr().err
        assert not (out / artifact).exists()
