"""The contract between evperf and perfbench's tracer.

perfbench/tracing.py wraps evperf functions by replacing each name of its
``TRACED`` table, with ``getattr`` and ``setattr``, in the module where the
caller looks it up, and counts tree nodes by walking the ``TreeNode`` that
``build_tree`` returns. A renamed function would stop every traced benchmark
run at install time, another return type would break the node count, and a
command that reached a traced function by another name would leave its span
empty; these tests show each in the unit suite. They also pin how often a
command calls a traced function where a per-layer count depends on it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from evperf.cli import main
from evperf.data import Dataset
from evperf.gbdt import TrainConfig, train

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _lookup(module_name, attr):
    return getattr(importlib.import_module(module_name), attr)


def test_every_traced_name_resolves():
    for module_name, attr, _ in tracing.TRACED:
        assert callable(_lookup(module_name, attr)), f"{module_name}.{attr}"


def test_install_uninstall_round_trips():
    originals = [(m, a, _lookup(m, a)) for m, a, _ in tracing.TRACED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, attr, original in originals:
            wrapped = _lookup(module_name, attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for module_name, attr, original in originals:
        assert _lookup(module_name, attr) is original, f"{module_name}.{attr}"


def test_tree_nodes_counts_build_tree_results():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(60, 3)), np.arange(60) % 3, ("a", "b", "c"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = train(data, TrainConfig(n_rounds=3, max_depth=3, num_class=3))
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, 0, 1)
    assert layers["gbdt.build_tree.calls"] == 9
    assert layers["gbdt.tree_nodes"] == model.trees.feature.size
    assert model.trees.feature.size > 9  # some trees split


def test_traced_synth_books_its_physics(tmp_path):
    # evperf synth calls both traced physics functions through evperf.cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.call("cli", main, ["synth", "--n-samples", "20", "--out-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span.name for span in tracer.spans]
    assert names.count("physics.synth_records") == 1
    assert names.count("physics.diminishing_returns_sweep") == 1


def test_traced_explain_books_one_interactions_call(tmp_path):
    # evperf explain computes every swarm row's interactions in one batch call
    model = tmp_path / "model" / "model.json"
    assert main(["train", "--synth", "--n-samples", "60", "--rounds", "3", "--depth", "3",
                 "--folds", "2", "--no-svg", "--out-dir", str(model.parent)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.call("cli", main, ["explain", "--synth", "--n-samples", "20",
                                         "--swarm-samples", "2", "--model", str(model),
                                         "--out-dir", str(tmp_path / "explain")])
    finally:
        tracer.uninstall()
    assert code == 0
    layers = tracing.layer_metrics(tracer.spans, 0, 1)
    assert [span.name for span in tracer.spans].count("treeshap.interaction_values") == 1
    assert layers["treeshap.interaction_values.calls"] == 1
    assert layers["treeshap.explain_matrix.rows"] == 20
