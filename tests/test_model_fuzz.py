"""Fuzzing of model.json documents at the loader.

A mutation of a small trained document either loads, into the node table
that a recursive pre-order walk of its trees gives, or is refused with a
ValueError whose message starts with "model". A model that loads predicts
finite probabilities and explains a few rows with finite base values and
attributions, or refuses them with such a ValueError. No other exception
and no warning is allowed, and ``evperf explain`` exits 0 or 2 on a mutated
model, never 1.
"""

import copy
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evperf.cli import main
from evperf.data import Dataset, apply_scaler, fit_scaler
from evperf.gbdt import TrainConfig, model_from_dict, model_to_dict, predict_proba_batch, train
from evperf.physics import SynthConfig, synth_dataset
from evperf.treeshap import explain_matrix
from test_gbdt import _TABLE_FIELDS, _reference_table


def _trained():
    """model.json document of a 2-round, depth-3, 3-class model with a scaler, and 4 scaled rows."""
    ds = synth_dataset(SynthConfig(n_samples=60, seed=1))
    scaler = fit_scaler(ds.features)
    scaled = Dataset(apply_scaler(ds.features, scaler), ds.labels, ds.feature_names, scaler=scaler)
    return model_to_dict(train(scaled, TrainConfig(n_rounds=2, max_depth=3))), scaled.features[:4]


def _paths(value, path=()):
    """The path, as key and index steps, of every value inside a document."""
    for step, child in value.items() if isinstance(value, dict) else enumerate(value):
        yield (*path, step)
        if isinstance(child, (dict, list)):
            yield from _paths(child, (*path, step))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


DOC, ROWS = _trained()
PATHS = list(_paths(DOC))
NODES = [p for p in PATHS if p[-1] in ("root", "left", "right")]
# the tree test_cli.py's malformed-model table edits: the first split-rooted one after tree 0
ROOT = ("trees", next(i for i, t in enumerate(DOC["trees"]) if i and "feature" in t["root"]),
        "root")
LEAF = ROOT  # its rightmost leaf
while "right" in _at(DOC, LEAF):
    LEAF = (*LEAF, "right")
VALUES = ["x", "0.5", True, False, None, [], [1.0], {}, {"cover": 1.0, "weight": 0.5},
          10**400, -10**400, 2**63, 2**64, -0.0, 1e-320, math.nan, math.inf, -math.inf,
          0, -1, 7, 0.5, 1.7e308]


def _mutated(mutations):
    """A copy of DOC with each ("drop", path), ("set", path, value) or
    ("splice", path, node path of DOC) applied in turn; a mutation whose
    path an earlier one removed is skipped."""
    doc = copy.deepcopy(DOC)
    for op, path, *arg in mutations:
        try:
            parent = _at(doc, path[:-1])
            if op == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(_at(DOC, arg[0]) if op == "splice" else arg[0])
        except (KeyError, IndexError, TypeError):
            pass
    return doc


def _gains_defaulted(trees):
    """The trees with a gain of 0.0 on each split that has none, as the loader reads it."""
    trees = copy.deepcopy(trees)
    stack = [tree["root"] for tree in trees]
    while stack:
        node = stack.pop()
        if "feature" in node:
            node.setdefault("gain", 0.0)
            stack += node["left"], node["right"]
    return trees


def _set(path, value):
    return ("set", path, value)


def _drop(path):
    return ("drop", path)


# test_cli.py's malformed-model table, and the zero-cover model, as mutations
TABLE = [
    [_set((*ROOT, "feature"), 7)], [_set((*ROOT, "feature"), -2)], [_drop((*ROOT, "left"))],
    [_drop((*ROOT[:2], "round"))], [_set((*ROOT, "threshold"), math.nan)],
    [_set((*LEAF, "weight"), math.inf)], [_drop(("trees",))], [_drop(("config",))],
    [_drop(("base_score", 2))], [_set(("scaler", "mean"), [0.0]), _set(("scaler", "std"), [1.0])],
    [_set(("scaler", "mean"), [*DOC["scaler"]["mean"], 0.0]),
     _set(("scaler", "std"), [*DOC["scaler"]["std"], 1.0])],
    [_drop(ROOT[:2])], [_set(("config", "depth"), 3)], [_set(("base_score", 1), math.nan)],
    [_set(("base_score", 0), -math.inf)], [_set((*ROOT, "cover"), math.inf)],
    [_set((*LEAF, "cover"), math.inf)], [_set(("feature_names", 1), DOC["feature_names"][0])],
    [_set((*LEAF, "cover"), -5.0)], [_set((*LEAF, "cover"), -0.0)],
    [_set(("config", "num_class"), 4)], [_set((*ROOT, "feature"), 0.5)],
    [_set((*ROOT[:2], "round"), 0.9)], [_set((*ROOT[:2], "class_index"), 1.5)],
    [_set(("num_class",), "3")], [_set(("num_class",), 3.5)], [_set(("trees",), 5)],
    [_set(("trees",), None)], [_set(("feature_names",), 5)], [_set(("feature_names",), None)],
    [_set((*ROOT, "cover"), 1e-300), _set((*ROOT, "left", "cover"), 1e300)],
    [_set(("scaler",), [1])], [_set(("config",), [1])],
    [_set(("config", "learning_rate"), True)], [_set(("config", "learning_rate"), "0.1")],
    [_set(("config", "n_rounds"), 2.0)], [_set(("config", "max_depth"), 4.5)],
    [_set((*ROOT, "threshold"), "0.5")], [_set((*ROOT, "threshold"), True)],
    [_set((*ROOT, "cover"), "3.0")], [_set((*ROOT, "gain"), "1")],
    [_set((*LEAF, "weight"), "0.25")], [_set(("base_score",), ["1.0", "2.0", "3.0"])],
    [_set(("scaler", "mean", 0), "0.5")],
    [_set(("scaler", "std"), [repr(v) for v in DOC["scaler"]["std"]])],
    [_set((*ROOT, "threshold"), 10**400)], [_set(("config", "reg_lambda"), -10**400)],
    [_set(("feature_names", 2), ["a"])], [_set(("feature_names", 0), 5)],
    [_set((*ROOT[:2], "round"), 999)], [_set((*ROOT[:2], "round"), -1)],
    [_set((*ROOT, "feature"), 10**400)], [_set((*ROOT, "feature"), 2**64)],
    [_set((*ROOT[:2], "round"), 2**70)], [_set((*ROOT[:2], "class_index"), 2**70)],
    [_set((*ROOT, "cover"), 0.0)],
    [_set(("config", "learning_rate"), 1), _set((*LEAF, "weight"), 1.7e308)],
]

MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(PATHS)),
    st.tuples(st.just("set"), st.sampled_from(PATHS), st.sampled_from(VALUES)),
    st.tuples(st.just("splice"), st.sampled_from(NODES), st.sampled_from(NODES)),
)


def _seeded_by_table(test):
    for mutations in TABLE:
        test = example(mutations)(test)
    return test


@settings(max_examples=400, deadline=None)
@_seeded_by_table
# more digits than str() converts: the message counts them without it
@example([_set((*ROOT, "threshold"), 10**5000)])
# each zero fraction finite, their product along the path not
@example([_set((*ROOT, "cover"), 0.5), _set((*LEAF, "cover"), 1.7e308)])
@given(st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_model_loads_or_is_refused_by_name(mutations):
    doc = _mutated(mutations)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = model_from_dict(doc)
        except ValueError as exc:  # ModelInputError is one too
            assert str(exc).startswith("model"), exc
            return
        # the rows' columns cycled to the model's feature count; given as their own
        # raw values, as evperf explain gives its input rows, so no scaler unscales them
        x = ROWS[:, np.arange(len(model.feature_names)) % ROWS.shape[1]]
        assert np.isfinite(predict_proba_batch(model, x)).all()
        try:
            explained = explain_matrix(model, x, x)
        except ValueError as exc:
            assert str(exc).startswith("model"), exc
        else:
            assert np.isfinite(explained.base_value).all() and np.isfinite(explained.phi).all()
    expected = _reference_table(_gains_defaulted(doc["trees"]))
    for name in _TABLE_FIELDS:
        got, want = getattr(model.trees, name), expected[name]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


# test_cli.py runs explain on each row of its table; these are mutations it has none of
@pytest.mark.parametrize("mutations", [
    [("splice", ROOT, ("trees", 0, "root"))],
    [("splice", (*ROOT, "left"), NODES[-1]), _drop((*ROOT, "gain"))],
    [_set((*LEAF, "weight"), -0.0), _set((*ROOT, "threshold"), 1e-320)],
    [_set((*ROOT, "left", "cover"), 1e-320), _set(("base_score", 0), 2**63)],
    [_set(ROOT[:2], "x")], [_set((*ROOT, "left"), [1.0])], [_set(("scaler", "std", 0), -1.0)],
    [_set((*ROOT, "cover"), 0.5), _set((*LEAF, "cover"), 1.7e308)],
], ids=["spliced_root", "spliced_left_without_gain", "zero_and_subnormal", "tiny_cover",
        "string_tree", "list_node", "negative_scaler_std", "inflated_leaf_cover"])
def test_explain_exits_0_or_2(mutations, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_mutated(mutations)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["explain", "--synth", "--model", str(model), "--out-dir",
                     str(tmp_path / "x"), "--n-samples", "10", "--no-svg"])
    assert code in (0, 2), capsys.readouterr().err
