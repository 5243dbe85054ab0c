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
MODEL_JSON_SHA256 = "014a4b165b42fe8f77fbd46646e0973ebb3e5609d8c3bec9e4e8a825049234ce"
METRICS_JSON_SHA256 = "aff3da2f04e1896f4071dc34c5f2633e1dbd50e79feb0fd568c63184730b0d44"

# train --synth --seed 0 --rounds 5 --folds 2 --depth 6 --alpha 0.5 --gamma 0.1:
# the L1 soft-threshold, the gain penalty and depth-6 trees
REGULARIZED_SHA256 = {
    "model.json": "f076ea8743051a28a314e6d81c4821429be97865e66c38dcd3e7b17dd798da6c",
    "metrics.json": "88f5043f1c54d698d7b475d48b6e2ce091658476c2a706742a100451be4a9a67",
}

# explain --synth --seed 0 --no-svg --swarm-samples 2 on the golden model.json:
# attributions, interactions, gain importance and the loaded model's margins
EXPLAIN_SHA256 = {
    "shap_values.csv": "e990baa1afc0c1e0c2a255d598e891c0dd0a57bb4d57a1a2e59984d5b856635c",
    "shap_swarm.csv": "02cebd82993945f25f2264723da1119f454d7b07256f7a8695aa674176ac2cf8",
    "gain_importance.csv": "2c4b355d672260b38ca6f6504cc6de6850614c89657cc18bdce575b85230cad2",
    "force.csv": "a69caa6ba48b29bcde4480346f57bfcd6e1355579a07ed61425c97590244de52",
}

# explain --synth --seed 0 --no-svg on the golden model.json at the default 60
# swarm rows, enough for the interaction batch to take the pattern table
EXPLAIN_DEFAULT_SWARM_SHA256 = {
    "shap_values.csv": "e990baa1afc0c1e0c2a255d598e891c0dd0a57bb4d57a1a2e59984d5b856635c",
    "shap_swarm.csv": "c9fc0f3f839d49d3d88e3ad7439b6de2924c03694334a930fcdc6f2163310be3",
    "gain_importance.csv": "2c4b355d672260b38ca6f6504cc6de6850614c89657cc18bdce575b85230cad2",
    "force.csv": "a69caa6ba48b29bcde4480346f57bfcd6e1355579a07ed61425c97590244de52",
    "shap_importance.csv": "9e7ff482d76283fac77f058d26a8e316baa86fcfff201f337ac75cd95d78d4e2",
    "dependence.csv": "bb6b7d8029a45b6c92b2ceb6fcfcf4e0a299fdf6b2c6584e1b6192ea37f578cb",
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
