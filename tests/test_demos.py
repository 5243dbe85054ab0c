"""Smoke tests: every demo runs against the current API.

Each demo is copied under tmp_path/demos/ before it runs, so any
demo_output/ directory a demo writes next to its parent lands in tmp_path.
"""

import csv
import runpy
import shutil
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run_demo(name, tmp_path):
    (tmp_path / "demos").mkdir()
    script = tmp_path / "demos" / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    return tmp_path / "demo_output"


def test_battery_pack_basics(tmp_path, capsys):
    _run_demo("01_battery_pack_basics.py", tmp_path)
    assert "peak power" in capsys.readouterr().out


def test_sprint_and_sweep(tmp_path, capsys):
    out = _run_demo("02_sprint_and_sweep.py", tmp_path)
    assert "fastest configuration" in capsys.readouterr().out
    rows = list(csv.reader(open(out / "sweep.csv")))
    assert rows[0] == ["cell_count", "seconds_0_100"]
    assert len(rows) == 29
    assert (out / "sweep.svg").exists()


def test_train_and_evaluate(tmp_path, capsys):
    out = _run_demo("03_train_and_evaluate.py", tmp_path)
    assert "pooled validation metrics" in capsys.readouterr().out
    rows = list(csv.reader(open(out / "confusion.csv")))
    assert len(rows) == 1 + 3
    assert (out / "confusion.svg").exists()


def test_explain_model(tmp_path, capsys):
    out = _run_demo("04_explain_model.py", tmp_path)
    assert "cells x weight pair" in capsys.readouterr().out
    for name in ("shap_importance.svg", "dependence.svg", "force.svg"):
        assert (out / name).read_text().startswith("<svg"), name
