"""Golden sha256 values of the CLI's deterministic artifacts.

A refactor that claims to keep outputs unchanged must keep these bytes. The
hashes were taken with numpy 2.x on x86-64 Linux; a numpy or libm build that
rounds ``exp``/``log`` differently may need them re-taken, which has to be
said wherever that is done.
"""

import hashlib

import pytest

from evperf.cli import main
from evperf.gbdt import load_model, save_model

SYNTHETIC_CSV_SHA256 = "d21e48515d40d7c6465a1920b752399b516dadcc038210439f8d93df0c4011e4"
SWEEP_CSV_SHA256 = "3fb5b1b2810f5b3dd71055130a93675ce3880c9417f12271f938a1abd7de850a"
MODEL_JSON_SHA256 = "743e176ac5730526d966ed9ad226d8a7ae75bf83eb37c2aab108d063b8fe64de"
METRICS_JSON_SHA256 = "599c6f85c64e147d46004967f6cb65806ba32f110b2613b03c5e5e3294eb9590"

# train --synth --seed 0 --rounds 5 --folds 2 --depth 6 --alpha 0.5 --gamma 0.1:
# the L1 soft-threshold, the gain penalty and depth-6 trees
REGULARIZED_SHA256 = {
    "model.json": "b7c5d4d3cac0cb6c8b5602f5512f9db8994d1361b71ba0cff0360898854c7c5f",
    "metrics.json": "24f81c42104d6ebe6be698df0a5ed30b13cfcc2897cf8b7d69ef60a6665d2fe9",
}

# explain --synth --seed 0 --no-svg --swarm-samples 2 on the golden model.json:
# attributions, interactions, gain importance and the loaded model's margins
EXPLAIN_SHA256 = {
    "shap_values.csv": "f96f43a3a252f91ff1e2692039a71e3569ed3abdfc4b12d56d6cf49fbe5ef5b9",
    "shap_swarm.csv": "e6972d8354880795c3474994d7213810fe0234ce446e6a70b42088ab7b7f8814",
    "gain_importance.csv": "30bd7715beae49501295bca7305774510f90da174c7fd6f48d08717ead1c4e2b",
    "force.csv": "f3acd80431d6902431ac74db421c20897e2ca52d8202f89ea9be4f9041bdc945",
}

# explain --synth --seed 0 --no-svg on the golden model.json at the default 60
# swarm rows, enough for the interaction batch to take the pattern table
EXPLAIN_DEFAULT_SWARM_SHA256 = {
    "shap_values.csv": "f96f43a3a252f91ff1e2692039a71e3569ed3abdfc4b12d56d6cf49fbe5ef5b9",
    "shap_swarm.csv": "d52839a5a338b9ee92010990659650bd30887061a2646749b4ab8918f6efe610",
    "gain_importance.csv": "30bd7715beae49501295bca7305774510f90da174c7fd6f48d08717ead1c4e2b",
    "force.csv": "f3acd80431d6902431ac74db421c20897e2ca52d8202f89ea9be4f9041bdc945",
    "shap_importance.csv": "43776e5935d4badc25b67f8da3e578cf9f6c0e9c634608efb68a7a920114431a",
    "dependence.csv": "09ea3da2e89658a6d84883d0e90c25f8ef1dfee802926ec3a7739ba7f3809d52",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    argv = ["train", "--synth", "--seed", "0", "--rounds", "20", "--folds", "2",
            "--out-dir", str(out)]
    assert main(argv) == 0
    return out


def test_synthetic_csv_golden_hash(tmp_path):
    assert main(["synth", "--seed", "0", "--n-samples", "300", "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "synthetic.csv") == SYNTHETIC_CSV_SHA256
    assert _sha256(tmp_path / "sweep.csv") == SWEEP_CSV_SHA256


def test_model_json_golden_hash(train_dir):
    assert _sha256(train_dir / "model.json") == MODEL_JSON_SHA256


def test_metrics_json_golden_hash(train_dir):
    assert _sha256(train_dir / "metrics.json") == METRICS_JSON_SHA256


def test_regularized_train_golden_hashes(tmp_path):
    argv = ["train", "--synth", "--seed", "0", "--rounds", "5", "--folds", "2", "--depth", "6",
            "--alpha", "0.5", "--gamma", "0.1", "--no-svg", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert {name: _sha256(tmp_path / name) for name in REGULARIZED_SHA256} == REGULARIZED_SHA256


def test_model_json_load_save_round_trip(train_dir, tmp_path):
    save_model(load_model(train_dir / "model.json"), tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == (train_dir / "model.json").read_bytes()


def test_explain_golden_hashes(train_dir, tmp_path):
    argv = ["explain", "--synth", "--seed", "0", "--model", str(train_dir / "model.json"),
            "--no-svg", "--swarm-samples", "2", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert {name: _sha256(tmp_path / name) for name in EXPLAIN_SHA256} == EXPLAIN_SHA256


def test_explain_default_swarm_golden_hashes(train_dir, tmp_path):
    argv = ["explain", "--synth", "--seed", "0", "--model", str(train_dir / "model.json"),
            "--no-svg", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert ({name: _sha256(tmp_path / name) for name in EXPLAIN_DEFAULT_SWARM_SHA256}
            == EXPLAIN_DEFAULT_SWARM_SHA256)
