"""Every public entry point that takes a feature matrix or a label vector
rejects the same malformed inputs with the documented ``IcsAdvError``
subclass (README, "Input contract"), never a builtin exception.

Each entry point is fed a valid input of its own shape, altered one way at
a time: a NaN, an infinity, a cell that is not a number, a 3-D array, one
feature too few; and, where it takes labels, a label of 0.5, 1.7, 2 or NaN.
"""
from __future__ import annotations

import numpy as np
import pytest

from icsadv import dataset as ds
from icsadv import evaluation, jsma, mlp, trees
from icsadv.errors import (
    InputContractError,
    LabelError,
    ParameterError,
    SchemaMismatchError,
    ShapeError,
)

D = 3
_RNG = np.random.default_rng(4)
X = _RNG.random((40, D))
Y = (X[:, 0] > 0.5).astype(np.int64)
SCHEMA = ds.Schema(tuple(ds.Feature("F%d" % j, "sensor") for j in range(D)))
ORACLE = mlp.init([D, 4, 2], 0)
CART = trees.train_cart(X, Y, trees.CartParams(max_depth=3))
GBC = trees.train_gbc(X, Y, trees.GbcParams(n_stages=2))
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
    return jsma.generate_set(ORACLE, data, ATTACK, [0.1], 1)


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
    # the dataset names the row and column of a bad cell, so its matrix
    # errors keep their own classes
    "Dataset": (lambda x, y: ds.Dataset(SCHEMA, x, y), X, Y, {
        "nan": ParameterError, "inf": ParameterError, "text-cell": ParameterError,
        "3-d": ParameterError, "wrong-width": SchemaMismatchError,
        **dict.fromkeys(LABEL_CASES, LabelError),
    }),
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
