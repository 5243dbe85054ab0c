import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", TOOL)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)

TIME = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
SCORE = {"name": "score", "unit": "count", "better": "higher", "bound": 0.1}


def _doc(values, seeds=range(10), failed=0):
    """A trajectory file of one workload "w", whose run on seeds[i] reads values[i]."""
    return {"runs": [{"workload": "w", "seed": seed, "result": {
        "attempted": 100, "failed": failed,
        "metrics": {name: {"value": v} for name, v in value.items()}}}
        for seed, value in zip(seeds, values)]}


def _verdict(parent, change, metric=TIME):
    return compare_bench.verdict(parent, change, metric)


def test_gain_needs_nine_pairs_and_a_difference_beyond_the_iqr():
    parent = [1.0 + 0.01 * i for i in range(10)]
    v = _verdict(parent, [p - 0.1 for p in parent])
    assert (v["won"], v["pairs"], v["verdict"]) == (10, 10, "gain")
    # nine wins still make a gain, eight do not
    assert _verdict(parent, [p - 0.1 for p in parent[:9]] + [2.0])["verdict"] == "gain"
    assert _verdict(parent, [p - 0.1 for p in parent[:8]] + [2.0, 2.0])["verdict"] == "within bound"
    # every pair won, but the medians differ by less than the parent's IQR
    v = _verdict(parent, [p - 0.01 for p in parent])
    assert (v["won"], v["verdict"]) == (10, "within bound")


def test_ties_count_for_neither_side():
    v = _verdict([1.0] * 10, [1.0] * 10)
    assert (v["won"], v["relative"], v["verdict"]) == (0, 0.0, "within bound")


def test_regression_beyond_the_bound():
    parent = [1.0 + 0.01 * i for i in range(10)]
    # the parent's median is 1.045, so the bound allows up to 1.306
    assert _verdict(parent, [1.31] * 10)["verdict"] == "regression"
    assert _verdict(parent, [1.30] * 10)["verdict"] == "within bound"


def test_unresolved_when_the_parent_spreads_beyond_the_bound():
    parent = [0.5, 1.5] * 5
    v = _verdict(parent, parent[::-1])
    assert v["parent"] == (0.5, 1.0, 1.5)
    assert v["verdict"] == "unresolved"


def test_higher_is_better():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert _verdict(parent, [p + 2 for p in parent], SCORE)["verdict"] == "gain"
    assert _verdict(parent, [p - 2 for p in parent], SCORE)["verdict"] == "regression"


def test_pairs_match_by_seed_and_skip_unpaired_runs():
    parent = _doc([{"wall_s": 1.0 + 0.01 * s} for s in range(10)])
    # the change's runs come in reverse seed order, and it ran one more seed;
    # each is 0.005 s faster than the parent's run of its seed
    change = _doc([{"wall_s": 0.995 + 0.01 * s} for s in range(10, -1, -1)],
                  seeds=range(10, -1, -1))
    v = compare_bench.compare(parent, change, [TIME])["w"]["metrics"]["wall_s"]
    assert (v["won"], v["pairs"], v["verdict"]) == (10, 10, "within bound")
    assert v["relative"] == pytest.approx(-0.005 / 1.045)


def test_prints_every_workload_and_metric(tmp_path, capsys):
    values = [{m: 1.0 + 0.01 * s for m in ("wall_s", "setup_s", "peak_rss_mib", "cv_mlogloss")}
              for s in range(10)]
    paths = []
    for tag, failed in (("parent", 0), ("change", 2)):
        paths.append(tmp_path / f"BENCH_{tag}.json")
        paths[-1].write_text(json.dumps(_doc(values, failed=failed)))
    assert compare_bench.main([str(p) for p in paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "w: failed share 0 -> 0.02"
    assert [line.split()[0] for line in lines[1:]] == [
        "wall_s", "setup_s", "peak_rss_mib", "cv_mlogloss"]
    assert all(line.endswith("won 0/10    +0.0%  within bound") for line in lines[1:])


def _traced(seed, **values):
    return {"workload": "w", "seed": seed, "result": {
        "metrics": {name: {"value": v} for name, v in values.items()}}}


LAYERS = [{"name": "layer.s", "unit": "s", "better": "lower"},
          {"name": "layer.calls", "unit": "count", "better": "lower"},
          {"name": "idle.s", "unit": "s", "better": "lower"},
          {"name": "calib.kernel_s", "unit": "s", "better": "lower"}]


def test_traced_times_are_scaled_by_each_sides_kernel():
    # The change's machine ran its kernel 1.5x slower, so its raw layer time
    # reads 20% higher while the scaled time reads 20% lower.
    parent = {"traced": [_traced(0, **{"layer.s": 1.0, "layer.calls": 60, "idle.s": 0.0,
                                       "calib.kernel_s": 0.05})]}
    change = {"traced": [_traced(0, **{"layer.s": 1.2, "layer.calls": 60, "idle.s": 0.0,
                                       "calib.kernel_s": 0.075})]}
    report = compare_bench.traced(parent, change, LAYERS, 0.05)
    assert list(report) == [("w", 0)]
    row = report["w", 0]
    assert row["kernel"] == (0.05, 0.075)
    assert list(row["metrics"]) == ["layer.s", "layer.calls"]  # idle.s reads 0 on both sides
    layer = row["metrics"]["layer.s"]
    assert layer["raw"] == (1.0, 1.2)
    assert layer["scaled"] == pytest.approx((1.0, 0.8))
    assert layer["relative"] == pytest.approx(-0.2)
    assert row["metrics"]["layer.calls"] == {"raw": (60, 60), "scaled": None, "relative": 0.0}
    # a workload traced on one side only, or on another seed, is not compared
    assert compare_bench.traced(parent, {"traced": []}, LAYERS, 0.05) == {}
    assert compare_bench.traced({}, change, LAYERS, 0.05) == {}
    change["traced"][0]["seed"] = 1
    assert compare_bench.traced(parent, change, LAYERS, 0.05) == {}


def test_prints_traced_layers_with_both_kernels(tmp_path, capsys):
    values = [{m: 1.0 for m in ("wall_s", "setup_s", "peak_rss_mib", "cv_mlogloss")}]
    per_layer = json.loads((compare_bench.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    layers = {m["name"]: 0.0 for m in per_layer}  # every layer but one reads 0 on both sides
    paths = []
    for tag, build_s, kernel in (("parent", 0.5, 0.05), ("change", 0.6, 0.1)):
        doc = _doc(values, seeds=[0])
        doc["traced"] = [_traced(0, **{**layers, "gbdt.build_tree.s": build_s,
                                       "calib.kernel_s": kernel})]
        paths.append(tmp_path / f"BENCH_{tag}.json")
        paths[-1].write_text(json.dumps(doc))
    assert compare_bench.main([str(p) for p in paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    reference = compare_bench.reference_s()
    assert lines[-2] == (f"w traced, seed 0: calib.kernel_s 0.05 -> 0.1; "
                         f"seconds scaled to {reference:g} s")
    scaled = (0.5 * reference / 0.05, 0.6 * reference / 0.1)
    assert lines[-1].split() == ["gbdt.build_tree.s", "0.5", "->", "0.6", "scaled",
                                 f"{scaled[0]:.5g}", "->", f"{scaled[1]:.5g}", "-40.0%"]
