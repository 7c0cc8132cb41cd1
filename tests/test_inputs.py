"""Every public entry point that takes a feature matrix or a label vector
rejects the same malformed inputs with the documented ``IcsAdvError``
subclass (README, "Input contract"), never a builtin exception.

Each entry point is fed a valid input of its own shape, altered one way at
a time: a NaN, an infinity, a cell that is not a number, a 3-D array, one
feature too few; and, where it takes labels, a label of 0.5, 1.7, 2 or NaN.
Every entry point that seeds numpy from a caller's seed rejects -1, 2.5,
True and "7"; every real-valued setting rejects NaN, inf, -inf, True and
"1.2", naming the setting; a few other malformed arguments follow. Every
ranged setting rejects a value just outside its range and takes its closed
bounds, every setting with a fixed set of values rejects any other, and
the array constructors (``TreeModel``, ``MlpModel``,
``NormalizationParams``) reject what their documents may not hold, with
the document loaders keeping ``ParseError`` for the same faults; the
detector model constructors reject trees, params and seeds that are not a
model's, and a list setting rejects a value that is not a list.
"""
from __future__ import annotations

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from icsadv import dataset as ds
from icsadv import evaluation, jsma, mlp, pipeline, plantsim, trees
from icsadv.errors import (
    InputContractError,
    ParameterError,
    ParseError,
    ShapeError,
    read_json,
)

D = 3
_RNG = np.random.default_rng(4)
X = _RNG.random((40, D))
Y = (X[:, 0] > 0.5).astype(np.int64)
SCHEMA = ds.Schema(tuple(ds.Feature("F%d" % j, "sensor") for j in range(D)))
ORACLE = mlp.init([D, 4, 2], 0)
CART = trees.train_cart(X, Y, trees.CartParams(max_depth=3))
GBC = trees.train_gbc(X, Y, trees.GbcParams(n_stages=2))
FOREST = trees.train_forest(X, Y, trees.ForestParams(n_trees=2))
ATTACK = jsma.JsmaConfig(max_iterations=3)


def _nan(x):
    x = x.copy()
    x.flat[1] = np.nan
    return x


def _inf(x):
    x = x.copy()
    x.flat[1] = np.inf
    return x


def _text(x):
    cells = x.astype(object)
    cells.flat[1] = "abc"
    return cells.tolist()


def _three_d(x):
    return x[(None,) * (3 - x.ndim)]


def _narrow(x):
    return x[..., :-1]


MATRIX_CASES = {"nan": _nan, "inf": _inf, "text-cell": _text, "3-d": _three_d,
                "wrong-width": _narrow}
LABEL_CASES = {"label-0.5": 0.5, "label-1.7": 1.7, "label-2": 2, "label-nan": np.nan}

# documented class of each case, unless an entry point names its own
MATRIX_ERRORS = {"nan": InputContractError, "inf": InputContractError,
                 "text-cell": InputContractError, "3-d": ShapeError,
                 "wrong-width": ShapeError}
LABEL_ERRORS = {"label-0.5": ParameterError, "label-1.7": ParameterError,
                "label-2": ParameterError, "label-nan": InputContractError}
# a training matrix may have any width
ANY_WIDTH = {"wrong-width": None}


def _generate(x, y):
    """generate_set on a dataset whose rows or labels were replaced after
    it was built, as a caller holding a Dataset can do."""
    data = ds.Dataset(SCHEMA, X, np.ones(len(X), dtype=np.int64))
    data.X, data.y = np.asarray(x), np.asarray(y)
    return jsma.generate_set(ORACLE, data, [replace(ATTACK, epsilon=0.1)])


ONES = np.ones(len(X))

# name: (call(x, y), valid x, valid labels or None, classes it overrides;
# None marks a case that is valid input there)
ENTRY_POINTS = {
    "train_cart": (trees.train_cart, X, Y, ANY_WIDTH),
    "train_forest": (lambda x, y: trees.train_forest(
        x, y, trees.ForestParams(n_trees=2)), X, Y, ANY_WIDTH),
    "train_gbc": (lambda x, y: trees.train_gbc(
        x, y, trees.GbcParams(n_stages=2)), X, Y, ANY_WIDTH),
    "predict_classes": (lambda x, y: trees.predict_classes(CART, x), X, None, {}),
    "decision_scores": (lambda x, y: GBC.decision_scores(x), X, None, {}),
    "apply": (lambda x, y: CART.tree.apply(x), X, None, {}),
    "mlp.forward": (lambda x, y: mlp.forward(ORACLE, x), X[0], None, {}),
    "mlp.predict": (lambda x, y: mlp.predict(ORACLE, x), X[0], None, {}),
    "mlp.jacobian": (lambda x, y: mlp.jacobian(ORACLE, x), X[0], None, {}),
    "mlp.logits_and_jacobians": (
        lambda x, y: mlp.logits_and_jacobians(ORACLE, x), X, None, {}),
    "mlp.train": (lambda x, y: mlp.train(ORACLE, x, y, epochs=1), X, Y, {}),
    "saliency_map": (lambda x, y: jsma.saliency_map(ORACLE, x, 0), X[0], None, {}),
    "jsma_attack": (lambda x, y: jsma.jsma_attack(ORACLE, x, 0, ATTACK),
                    X[0], None, {}),
    # the labels of generation input must all be 1 (attack)
    "generate_set": (_generate, X, ONES,
                     dict.fromkeys(LABEL_CASES, InputContractError)),
    # predictions stand in for the features: one too few is a length mismatch
    "confusion": (evaluation.confusion, Y.astype(np.float64), Y, {}),
    "Dataset": (lambda x, y: ds.Dataset(SCHEMA, x, y), X, Y, {}),
}

MATRIX_PROBES = [(e, c) for e, spec in ENTRY_POINTS.items() for c in MATRIX_CASES
                 if spec[3].get(c, c) is not None]
LABEL_PROBES = [(e, c) for e, spec in ENTRY_POINTS.items() if spec[2] is not None
                for c in LABEL_CASES]


@pytest.mark.parametrize("entry, case", MATRIX_PROBES,
                         ids=["%s-%s" % p for p in MATRIX_PROBES])
def test_malformed_features(entry, case):
    call, x, y, errors = ENTRY_POINTS[entry]
    with pytest.raises(errors.get(case, MATRIX_ERRORS[case])):
        call(MATRIX_CASES[case](x), y)


@pytest.mark.parametrize("entry, case", LABEL_PROBES,
                         ids=["%s-%s" % p for p in LABEL_PROBES])
def test_malformed_labels(entry, case):
    call, x, y, errors = ENTRY_POINTS[entry]
    y = y.astype(np.float64)
    y[5] = LABEL_CASES[case]
    with pytest.raises(errors.get(case, LABEL_ERRORS[case])):
        call(x, y)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_valid_input_accepted(entry):
    """The unaltered inputs pass, so each rejection above is its case's;
    float labels that are whole numbers are labels."""
    call, x, y, _ = ENTRY_POINTS[entry]
    call(x, None if y is None else y.astype(np.float64))


# the seeded entry points, each called with a seed; every detector kind
# checks the seed, although only the forest uses it
SMALL = {trees.CART: {}, trees.FOREST: {"n_trees": 2}, trees.GBC: {"n_stages": 2}}
SEEDED = {
    "mlp.init": lambda s: mlp.init([D, 4, 2], s),
    "mlp.train": lambda s: mlp.train(ORACLE, X, Y, epochs=1, seed=s),
    "dataset.split": lambda s: ds.split(ds.Dataset(SCHEMA, X, Y), 0.5, s),
    "train_forest": lambda s: trees.train_forest(
        X, Y, trees.ForestParams(n_trees=2), seed=s),
    "ForestModel": lambda s: trees.ForestModel(FOREST.trees, FOREST.params, s),
    "simulate_normal": lambda s: plantsim.simulate_normal(
        plantsim.PlantConfig(steps=50), s),
    "simulate_with_attacks": lambda s: plantsim.simulate_with_attacks(
        plantsim.PlantConfig(steps=50), [], s),
    **{"train_detector-" + kind: (
        lambda s, kind=kind: pipeline.train_detector(
            kind, X, Y, dict(pipeline.default_config()[kind], **SMALL[kind]), s))
       for kind in SMALL},
}
BAD_SEEDS = {"-1": -1, "2.5": 2.5, "True": True, "'7'": "7"}
SEED_PROBES = [(e, c) for e in SEEDED for c in BAD_SEEDS]


@pytest.mark.parametrize("entry, case", SEED_PROBES,
                         ids=["%s-seed=%s" % p for p in SEED_PROBES])
def test_bad_seed(entry, case):
    with pytest.raises(ParameterError, match="seed"):
        SEEDED[entry](BAD_SEEDS[case])


@pytest.mark.parametrize("entry", list(SEEDED))
def test_valid_seed_accepted(entry):
    SEEDED[entry](np.int64(7))


# name: (call, documented class)
REJECTED = {
    "schema-empty-name": (lambda: ds.Schema((ds.Feature("", "sensor"),)),
                          ParameterError),
    "schema-index-of-unknown": (lambda: SCHEMA.index_of("F9"), ParameterError),
    "schema-kind-of-unknown": (lambda: SCHEMA.kind_of("F9"), ParameterError),
    "dataset-2-d-labels": (lambda: ds.Dataset(SCHEMA, X, Y[:, None]),
                           ShapeError),
    "minmax-max-below-min": (lambda: ds.NormalizationParams(
        ("F0",), np.array([1.0]), np.array([0.5])), ParameterError),
    "mlp-one-layer": (lambda: mlp.MlpModel([D], [], []), ParameterError),
    "mlp-size-0-layer": (lambda: mlp.MlpModel(
        [D, 0, 2], [np.zeros((0, D)), np.zeros((2, 0))], [np.zeros(0), np.zeros(2)]),
        ParameterError),
    "mlp-misshaped-weight": (lambda: mlp.MlpModel(
        [D, 2], [np.zeros((D, 2))], [np.zeros(2)]), ShapeError),
    "saliency-unknown-direction": (
        lambda: jsma.saliency_map(ORACLE, X[0], 0, "sideways"), ParameterError),
    "labels-not-an-array": (lambda: evaluation.confusion([0, 1], [[0], [0, 1]]),
                            InputContractError),
    "train-detector-unknown-kind": (
        lambda: pipeline.train_detector("xgb", X, Y, {}), ParameterError),
    "model-kind-unknown": (lambda: trees.model_kind(object()), ParameterError),
}
# the model and dataset constructors and the generation and report entry
# points take the objects a Python caller gives them, and a list setting
# must be a list; each probe names the part, the argument or the setting
MODEL_PARTS = {
    "CartModel-tree-None": (lambda: trees.CartModel(None, CART.params), "tree"),
    "CartModel-params-None": (lambda: trees.CartModel(CART.tree, None), "params"),
    "ForestModel-trees-3": (lambda: trees.ForestModel(3, FOREST.params, 0), "trees"),
    "ForestModel-trees-of-arrays": (lambda: trees.ForestModel(
        [t.arrays() for t in FOREST.trees], FOREST.params, 0), "trees"),
    "GbcModel-stages-None": (lambda: trees.GbcModel(0.0, None, GBC.params), "stages"),
    "GbcModel-forest-params": (
        lambda: trees.GbcModel(0.0, GBC.stages, FOREST.params), "params"),
    "variant_configs-epsilon_schedule-0.1": (
        lambda: jsma.variant_configs(ATTACK, 0.1, 1), "epsilon_schedule"),
    "mlp.init-layer_sizes-5": (lambda: mlp.init(5, 0), "layer_sizes"),
    "Schema-features-5": (lambda: ds.Schema(5), "schema features"),
    "Schema-feature-5": (lambda: ds.Schema((5,)), "schema feature"),
    "Dataset-schema-None": (lambda: ds.Dataset(None, X, Y), "schema"),
    "merge-5-6": (lambda: ds.merge(5, 6), "a must be a Dataset"),
    "merge-dataset-6": (lambda: ds.merge(ds.Dataset(SCHEMA, X, Y), 6),
                        "b must be a Dataset"),
    "MlpModel-layer_sizes-5": (lambda: mlp.MlpModel(5, [], []), "layer_sizes"),
    "MlpModel-weights-5": (lambda: mlp.MlpModel([D, 2], 5, [np.zeros(2)]), "weights"),
    "MlpModel-biases-5": (lambda: mlp.MlpModel([D, 2], [np.zeros((2, D))], 5), "biases"),
    "generate_set-configs-5": (lambda: jsma.generate_set(
        ORACLE, ds.Dataset(SCHEMA, X, ONES), 5), "configs"),
    "generate_set-config-5": (lambda: jsma.generate_set(
        ORACLE, ds.Dataset(SCHEMA, X, ONES), [5]), "attack config"),
    "generate_set-data-None": (lambda: jsma.generate_set(ORACLE, None, [ATTACK]), "data"),
    "build_report-detectors-5": (lambda: evaluation.build_report(5), "detectors"),
    "build_report-matrices-5": (lambda: evaluation.build_report({"cart": 5}), "matrices"),
    "build_report-matrix-5": (lambda: evaluation.build_report({"cart": [5]}),
                              "confusion matrix"),
}


PLANT_REALS = ("tank_capacity", "inflow_rate", "outflow_rate", "level_low",
               "level_high", "sensor_noise_std", "dt")
# every real-valued setting of the Python API, as "entry-setting": call(value)
REAL_SETTINGS = {
    **{"PlantConfig-" + f: (lambda v, f=f: plantsim.PlantConfig(**{f: v}))
       for f in PLANT_REALS},
    "AttackSpec-delta": lambda v: plantsim.AttackSpec(
        plantsim.SENSOR_BIAS, "LIT101", v, (0, 1)),
    "CartParams-min_impurity_decrease": lambda v: trees.CartParams(
        min_impurity_decrease=v),
    "ForestParams-min_impurity_decrease": lambda v: trees.ForestParams(
        min_impurity_decrease=v),
    "GbcParams-learning_rate": lambda v: trees.GbcParams(learning_rate=v),
    "JsmaConfig-epsilon": lambda v: jsma.JsmaConfig(epsilon=v),
    "JsmaConfig-theta_max_features": lambda v: jsma.JsmaConfig(theta_max_features=v),
    "variant_configs-epsilon_schedule": lambda v: jsma.variant_configs(ATTACK, [v], 1),
    "mlp.train-learning_rate": lambda v: mlp.train(
        ORACLE, X, Y, learning_rate=v, epochs=1),
    "mlp.train-l2_penalty": lambda v: mlp.train(ORACLE, X, Y, l2_penalty=v, epochs=1),
    "dataset.split-train_fraction": lambda v: ds.split(
        ds.Dataset(SCHEMA, X, Y), v, 0),
}
BAD_REALS = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
             "True": True, "'1.2'": "1.2"}
# the setting each probe below must name in its error
NAMED = {"decision-scores-n-stages-true": "n_stages"}
for _name, (_call, _named) in MODEL_PARTS.items():
    REJECTED[_name] = (_call, ParameterError)
    NAMED[_name] = _named
REJECTED["decision-scores-n-stages-true"] = (
    lambda: GBC.decision_scores(X, n_stages=True), ParameterError)
for _setting, _call in REAL_SETTINGS.items():
    for _case, _value in BAD_REALS.items():
        _name = "%s=%s" % (_setting, _case)
        REJECTED[_name] = (lambda c=_call, v=_value: c(v), ParameterError)
        NAMED[_name] = _setting.split("-", 1)[1]

# a JSMA target is a class index of the oracle, which has 2 classes
BAD_TARGETS = {"0.5": 0.5, "'0'": "0", "True": True, "-1": -1, "2": 2}
TARGETED = {
    "saliency_map": lambda t: jsma.saliency_map(ORACLE, X[0], t),
    "jsma_attack": lambda t: jsma.jsma_attack(ORACLE, X[0], t, ATTACK),
    "generate_set": lambda t: jsma.generate_set(
        ORACLE, ds.Dataset(SCHEMA, X, np.ones(len(X), dtype=np.int64)), [ATTACK], t),
}
for _entry, _call in TARGETED.items():
    for _case, _value in BAD_TARGETS.items():
        _name = "%s-target=%s" % (_entry, _case)
        REJECTED[_name] = (lambda c=_call, v=_value: c(v), ParameterError)
        NAMED[_name] = "target"

# select_feature takes one finite score vector and indices into it;
# feature_budget a feature count >= 1 and theta in (0, 1]
SELECTIONS = {
    "excluded=-1": ([1.0, 2.0, 3.0], [-1], ParameterError, "excluded feature"),
    "excluded=5": ([1.0, 2.0], [5], ParameterError, "excluded feature"),
    "excluded=1.5": ([1.0, 2.0], [1.5], ParameterError, "excluded feature"),
    "excluded=True": ([1.0, 2.0], [True], ParameterError, "excluded feature"),
    "2-d-scores": ([[1.0, 2.0]], [], ShapeError, None),
    "nan-score": ([np.nan, 2.0], [], InputContractError, None),
}
for _case, (_scores, _excluded, _error, _named) in SELECTIONS.items():
    _name = "select_feature-" + _case
    REJECTED[_name] = (
        lambda s=_scores, e=_excluded: jsma.select_feature(s, e), _error)
    NAMED[_name] = _named
BUDGETS = {"n_features=-5": (-5, 0.3), "n_features=2.5": (2.5, 0.3),
           "n_features=True": (True, 0.3), "theta_max_features=nan": (10, np.nan),
           "theta_max_features=0": (10, 0.0), "theta_max_features=1.5": (10, 1.5)}
for _case, _args in BUDGETS.items():
    _name = "feature_budget-" + _case
    REJECTED[_name] = (lambda a=_args: jsma.feature_budget(*a), ParameterError)
    NAMED[_name] = _case.split("=")[0]


# a stump on one feature, as the five arrays of a tree document, and each
# fault as the arrays that replace the stump's
STUMP = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
         "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, 0.25, 0.75]}
TREE_FAULTS = {
    "cycle": {"feature": [0, 0], "threshold": [0.5, 0.5], "left": [1, 0],
              "right": [1, 0], "value": [0.0, 0.0]},
    "right-child-5": {"right": [5, -1, -1]},
    "2-d-feature": {"feature": [[0, -1, -1]]},
    "feature-0.7": {"feature": [0.7, -1, -1]},
    "left-1.9": {"left": [1.9, -1, -1]},
    "bool-feature": {"feature": [True, False, False]},
    # numpy reads a bool beside integers as 1, and fails on a ragged list
    "bool-left": {"left": [True, -1, -1]},
    "bool-value": {"value": [0, True, 0.75]},
    "ragged-threshold": {"threshold": [0.5, 0, [0]]},
    "nan-threshold": {"threshold": [np.nan, 0.0, 0.0]},
    "inf-value": {"value": [0.0, np.inf, 0.75]},
}
# ORACLE's array and layer whose first entry each fault replaces
MLP_FAULTS = {"nan-weight": ("weights", 0, np.nan), "inf-weight": ("weights", 1, np.inf),
              "nan-bias": ("biases", 0, np.nan)}
MINMAX_FAULTS = {"nan-min": ("mins", np.nan), "inf-max": ("maxs", np.inf)}


def _tree_arrays(fault=None):
    return {**STUMP, **TREE_FAULTS.get(fault, {})}


def _mlp_arrays(fault=None):
    arrays = {"weights": [W.copy() for W in ORACLE.weights],
              "biases": [b.copy() for b in ORACLE.biases]}
    if fault:
        key, layer, bad = MLP_FAULTS[fault]
        arrays[key][layer].flat[0] = bad
    return {key: [a.tolist() for a in v] for key, v in arrays.items()}


def _minmax_arrays(fault=None):
    arrays = {"mins": [0.0] * D, "maxs": [1.0] * D}
    if fault:
        key, bad = MINMAX_FAULTS[fault]
        arrays[key] = [bad] + arrays[key][1:]
    return arrays


for _fault in TREE_FAULTS:
    REJECTED["TreeModel-" + _fault] = (
        lambda f=_fault: trees.TreeModel(**_tree_arrays(f), n_features=1), ParameterError)
for _fault in MLP_FAULTS:
    REJECTED["MlpModel-" + _fault] = (
        lambda f=_fault: mlp.MlpModel([D, 4, 2], **_mlp_arrays(f)), InputContractError)
for _fault in MINMAX_FAULTS:
    REJECTED["NormalizationParams-" + _fault] = (
        lambda f=_fault: ds.NormalizationParams(
            tuple(SCHEMA.feature_names),
            *(np.array(a) for a in _minmax_arrays(f).values())),
        InputContractError)


@pytest.mark.parametrize("name", list(REJECTED))
def test_malformed_argument(name):
    call, error = REJECTED[name]
    with pytest.raises(error, match=NAMED.get(name)):
        call()


# the smallest float beyond each bound: just outside a range
BELOW_ZERO = -5e-324
ABOVE_ONE = float(np.nextafter(1.0, 2.0))
# "entry-setting": (call(value), values just outside the setting's range,
# values on its closed bounds); GBC has 2 stages, ORACLE 2 classes
RANGED = {
    **{"PlantConfig-" + f: (lambda v, f=f: plantsim.PlantConfig(**{f: v}), [0.0], [])
       for f in ("inflow_rate", "outflow_rate", "dt")},
    "PlantConfig-sensor_noise_std": (
        lambda v: plantsim.PlantConfig(sensor_noise_std=v), [BELOW_ZERO], [0.0]),
    "PlantConfig-n_tanks": (lambda v: plantsim.PlantConfig(n_tanks=v), [0], [1]),
    "PlantConfig-steps": (lambda v: plantsim.PlantConfig(steps=v), [0], [1]),
    "CartParams-min_impurity_decrease": (
        lambda v: trees.CartParams(min_impurity_decrease=v), [BELOW_ZERO], [0.0]),
    "CartParams-max_depth": (lambda v: trees.CartParams(max_depth=v), [0], [1]),
    "CartParams-min_samples_split": (
        lambda v: trees.CartParams(min_samples_split=v), [1], [2]),
    "ForestParams-min_impurity_decrease": (
        lambda v: trees.ForestParams(min_impurity_decrease=v), [BELOW_ZERO], [0.0]),
    "ForestParams-n_trees": (lambda v: trees.ForestParams(n_trees=v), [0], [1]),
    "train_forest-features_per_split": (lambda v: trees.train_forest(
        X, Y, trees.ForestParams(n_trees=1, features_per_split=v)), [0, D + 1], [D]),
    "GbcParams-learning_rate": (lambda v: trees.GbcParams(learning_rate=v), [0.0], []),
    "GbcParams-n_stages": (lambda v: trees.GbcParams(n_stages=v), [0], [1]),
    "decision_scores-n_stages": (
        lambda v: GBC.decision_scores(X, n_stages=v), [-1, 3], [0, 2]),
    "JsmaConfig-epsilon": (
        lambda v: jsma.JsmaConfig(epsilon=v), [0.0, ABOVE_ONE], [1.0]),
    "JsmaConfig-theta_max_features": (
        lambda v: jsma.JsmaConfig(theta_max_features=v), [0.0, ABOVE_ONE], [1.0]),
    "JsmaConfig-max_iterations": (
        lambda v: jsma.JsmaConfig(max_iterations=v), [0], [1]),
    "feature_budget-theta_max_features": (
        lambda v: jsma.feature_budget(10, v), [0.0, ABOVE_ONE], [1.0]),
    "variant_configs-variants_per_row": (
        lambda v: jsma.variant_configs(ATTACK, [0.1], v), [0], [1]),
    "saliency_map-target": (lambda v: jsma.saliency_map(ORACLE, X[0], v), [-1, 2], [0, 1]),
    "select_feature-excluded feature": (
        lambda v: jsma.select_feature([1.0, 2.0, 3.0], [v]), [-1, 3], [0, 2]),
    "mlp.train-learning_rate": (
        lambda v: mlp.check_training_params(v, 1, 1, 0.0), [BELOW_ZERO], [0.0]),
    "mlp.train-l2_penalty": (
        lambda v: mlp.check_training_params(0.1, 1, 1, v), [BELOW_ZERO], [0.0]),
    "mlp.train-epochs": (lambda v: mlp.check_training_params(0.1, v, 1, 0.0), [0], [1]),
    "mlp.train-batch_size": (
        lambda v: mlp.check_training_params(0.1, 1, v, 0.0), [0], [1]),
    "dataset.split-train_fraction": (
        lambda v: ds.split(ds.Dataset(SCHEMA, X, Y), v, 0), [0.0, 1.0], []),
    "normalize_config-train_fraction": (
        lambda v: pipeline.normalize_config({"mlp": {"train_fraction": v}}),
        [0.0, ABOVE_ONE], [1.0]),
    "normalize_config-n_runs": (
        lambda v: pipeline.normalize_config({"n_runs": v}), [0], [1]),
}
OUTSIDE = [(s, v) for s, (_, out, _) in RANGED.items() for v in out]
ON_BOUND = [(s, v) for s, (_, _, bounds) in RANGED.items() for v in bounds]


@pytest.mark.parametrize("setting, value", OUTSIDE,
                         ids=["%s=%r" % p for p in OUTSIDE])
def test_value_outside_range(setting, value):
    """The error names the setting and the value it got."""
    with pytest.raises(ParameterError) as info:
        RANGED[setting][0](value)
    assert setting.split("-", 1)[1] in str(info.value)
    assert str(info.value).endswith("got %r" % value)


@pytest.mark.parametrize("setting, value", ON_BOUND,
                         ids=["%s=%r" % p for p in ON_BOUND])
def test_closed_bound_accepted(setting, value):
    RANGED[setting][0](value)


# "entry-setting": (call(value), its allowed values)
SMALL_BLOCKS = {kind: dict(pipeline.default_config()[kind], **SMALL[kind])
                for kind in SMALL}
CHOICES = {
    "JsmaConfig-direction": (lambda v: jsma.JsmaConfig(direction=v),
                             (jsma.INCREASE, jsma.SIGNED)),
    "saliency_map-direction": (lambda v: jsma.saliency_map(ORACLE, X[0], 0, v),
                               (jsma.INCREASE, jsma.SIGNED)),
    "AttackSpec-attack kind": (lambda v: plantsim.AttackSpec(v, "LIT101", 1.0, (0, 1)),
                               (plantsim.SENSOR_BIAS, plantsim.ACTUATOR_FLIP)),
    "Schema-'F0' kind": (lambda v: ds.Schema((ds.Feature("F0", v),)),
                         (ds.SENSOR, ds.ACTUATOR)),
    "train_detector-detector kind": (
        lambda v: pipeline.train_detector(v, X, Y, SMALL_BLOCKS.get(v, {})),
        tuple(trees.KINDS)),
}


@pytest.mark.parametrize("setting", list(CHOICES))
def test_value_outside_choices(setting):
    """Any other value raises an error naming the setting, the value and
    every allowed value; each allowed value passes."""
    call, allowed = CHOICES[setting]
    with pytest.raises(ParameterError) as info:
        call("sideways")
    message = str(info.value)
    assert setting.split("-", 1)[1] in message and "'sideways'" in message
    assert all(repr(v) in message for v in allowed)
    for v in allowed:
        call(v)


def test_stump_and_list_minmax_accepted():
    """The unaltered stump builds and routes, and min-max parameters may be
    lists."""
    tree = trees.TreeModel(**STUMP, n_features=1)
    assert tree.apply(np.array([[0.2], [0.9]])).tolist() == [0.25, 0.75]
    params = ds.NormalizationParams(tuple(SCHEMA.feature_names), [0.0] * D, [2.0] * D)
    assert ds.apply_minmax(ds.Dataset(SCHEMA, X, Y), params).X.max() <= 0.5


def _document(kind, fault=None):
    """The document of ``kind`` that holds ``fault``, or none."""
    if kind == "detector":
        return {"format": "detector", "version": 1, "kind": trees.CART,
                "params": asdict(trees.CartParams()),
                "tree": dict(_tree_arrays(fault), n_features=1)}
    if kind == "mlp":
        return {"format": "mlp", "version": 1, "layer_sizes": [D, 4, 2],
                **_mlp_arrays(fault)}
    return {"format": "minmax-params", "version": 1,
            "feature_names": SCHEMA.feature_names, **_minmax_arrays(fault)}


LOADERS = {"detector": trees.load_model, "mlp": mlp.load_model,
           "minmax": lambda p: read_json(p, ds.NormalizationParams.from_json)}
DOCUMENT_FAULTS = ([("detector", f) for f in TREE_FAULTS]
                   + [("mlp", f) for f in MLP_FAULTS]
                   + [("minmax", f) for f in MINMAX_FAULTS])


@pytest.mark.parametrize("kind, fault", DOCUMENT_FAULTS + [(k, None) for k in LOADERS],
                         ids=["%s-%s" % p for p in DOCUMENT_FAULTS]
                         + ["%s-valid" % k for k in LOADERS])
def test_document_fault_stays_a_parse_error(tmp_path, kind, fault):
    """A document holding a constructor's fault fails to load with
    ``ParseError``, as it did before the constructors checked it; without
    the fault it loads."""
    path = tmp_path / "doc.json"
    # json writes NaN and Infinity, and reads them back
    path.write_text(json.dumps(_document(kind, fault)))
    if fault is None:
        LOADERS[kind](path)
    else:
        with pytest.raises(ParseError):
            LOADERS[kind](path)
