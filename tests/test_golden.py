"""Golden sha256 values of the CLI's deterministic artifacts.

A refactor that claims to keep outputs unchanged must keep these bytes. The
hashes were taken with numpy 2.x on x86-64 Linux; a numpy or libm build that
rounds ``exp``/``log`` differently may need them re-taken, which has to be
said wherever that is done.
"""

import hashlib

from evperf.cli import main

SYNTHETIC_CSV_SHA256 = "ae65abc90f152119194651f09e885d749b9a18460095b078760c425157bd1180"
MODEL_JSON_SHA256 = "743e176ac5730526d966ed9ad226d8a7ae75bf83eb37c2aab108d063b8fe64de"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synthetic_csv_golden_hash(tmp_path):
    assert main(["synth", "--seed", "0", "--n-samples", "300", "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "synthetic.csv") == SYNTHETIC_CSV_SHA256


def test_model_json_golden_hash(tmp_path):
    argv = ["train", "--synth", "--seed", "0", "--rounds", "20", "--folds", "2",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert _sha256(tmp_path / "model.json") == MODEL_JSON_SHA256
