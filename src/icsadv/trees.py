"""Decision-tree detectors: single CART, random forest, gradient boosting.

All three share one array-encoded binary tree (`TreeModel`) grown greedily
on top of the split kernels in :mod:`icsadv.kernels`. Conventions the
tests pin down:

* candidate thresholds are midpoints of consecutive distinct sorted values,
  rows with value <= threshold go left;
* a split is accepted only when its impurity decrease is strictly greater
  than ``min_impurity_decrease`` (so the default 0.0 demands positive gain);
* a node whose target takes one value over its rows is a leaf under either
  criterion: its true gain is 0, which SSE's float sums can overstate;
* gain ties break toward the lowest feature index, then lowest threshold;
* classification leaves store the class-1 fraction and predict 1 when the
  fraction reaches 0.5; forest votes break ties toward class 0; the boosted
  model predicts 1 when the sigmoid of its score reaches 0.5.

Every fit makes one ``_TreeBuilder``, which sorts each feature once and
grows every tree of the fit: a CART's one tree, a forest's trees, a boosted
model's stages. A CART is a forest tree with no bootstrap sample and every
feature, so no RNG draw touches it (the per-split feature draw is skipped
when the subset covers every feature); a stage is a CART of the stage depth
grown on SSE. Each split partitions the node's presorted slice stably in
place, and the trees come out exactly as if every node had been sorted
afresh. ``KINDS`` maps each detector kind, in report order, to its params
class, its fit and whether that fit reads a seed: only the forest's does,
so CART and boosting give one model whatever the seed.

A bootstrap tree keeps each drawn row once and weighs it by its draw count,
as in Breiman (2001, "Random Forests") and Louppe (2014, "Understanding
Random Forests", ch. 5); every other tree weighs each row 1. Node sizes,
class counts and leaf fractions are integer sums of these weights, exact in
float64, so each tree is bit for bit the one grown on the sample with every
row repeated as often as it was drawn.

Prediction scores every tree of a model in one pass over each chunk of
rows (``kernels.ensemble_apply``, QuickScorer); forest votes and boosted
stages are then summed per row as a tree-by-tree loop would, so every
prediction and score keeps its bits.

Training and prediction (``predict_classes``, ``predict_class``, which
takes one row, ``GbcModel.decision_scores``, ``TreeModel.apply``) take
their features and labels through the array rule
of :mod:`icsadv.errors`, every count and depth in the params through
``errors.integer`` and every rate through ``errors.real`` with its range;
``load_model`` turns any malformed document into ``ParseError``: a number
that is not a JSON number (``errors.finite_floats``), an index that is not
a JSON integer (``errors.json_integers``), arrays that are not one tree
(``_tree_fault``), or an ensemble whose tree count is not its params'
``n_trees`` or ``n_stages`` or whose trees differ in feature count.
With ``ParameterError``, ``TreeModel`` refuses arrays that are not one
tree, a ragged list and a list holding a bool; ``CartModel`` a tree that
is not a ``TreeModel``; ``ForestModel`` and ``GbcModel`` such an ensemble
or a value that is not a list of ``TreeModel``s; each model the params of
another kind; ``ForestModel`` a seed that ``errors.integer`` refuses; and
``GbcModel`` an ``initial_log_odds`` that ``errors.real`` refuses. Every
grown tree passes the same checks.
"""
from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .errors import (
    NON_NEGATIVE,
    POSITIVE,
    DegenerateTargetError,
    ParameterError,
    ParseError,
    finite_array,
    finite_floats,
    instance,
    integer,
    json_integers,
    parses,
    read_json,
    real,
    training_set,
)

CART = "cart"
FOREST = "rf"
GBC = "gbc"

_GINI = "gini"
_SSE = "sse"


@dataclass(frozen=True)
class CartParams:
    max_depth: int = 12
    min_samples_split: int = 2
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        integer(self.max_depth, "max_depth", 1)
        integer(self.min_samples_split, "min_samples_split", 2)
        real(self.min_impurity_decrease, "min_impurity_decrease", NON_NEGATIVE)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    features_per_split: int | None = None  # None -> ceil(sqrt(n_features))
    bootstrap: bool = True
    max_depth: int = 12
    min_samples_split: int = 2
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        integer(self.n_trees, "n_trees", 1)
        if self.features_per_split is not None:
            integer(self.features_per_split, "features_per_split", 1)
        if not isinstance(self.bootstrap, bool):
            raise ParameterError("bootstrap must be true or false, got %r"
                                 % (self.bootstrap,))
        # the growth fields are CART's, checked the same way
        CartParams.__post_init__(self)


@dataclass(frozen=True)
class GbcParams:
    n_stages: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3

    def __post_init__(self):
        integer(self.n_stages, "n_stages", 1)
        real(self.learning_rate, "learning_rate", POSITIVE)
        integer(self.max_depth, "max_depth", 1)


@dataclass(frozen=True)
class Kind:
    """One detector kind: its params class, its fit ``fit(X, y, params,
    seed)``, and whether that fit reads the seed. A fit that reads none
    gives one model for every seed, so a caller fits it once per training
    set."""
    params: type
    fit: Callable
    seeded: bool


# detector kind -> Kind, in report order; each fit calls its trainer through
# this module, so a trainer replaced on the module is the one that runs
KINDS = {
    CART: Kind(CartParams, lambda X, y, params, seed: train_cart(X, y, params),
               seeded=False),
    FOREST: Kind(ForestParams,
                 lambda X, y, params, seed: train_forest(X, y, params, seed),
                 seeded=True),
    GBC: Kind(GbcParams, lambda X, y, params, seed: train_gbc(X, y, params),
              seeded=False),
}


def _tree_fault(feature, threshold, left, right, value, n_features) -> str | None:
    """Why the five arrays cannot be one binary tree rooted at node 0 on
    ``n_features`` features, or None. They must be 1-D, non-empty and of
    one length; the index arrays (feature, left, right) of an integer dtype
    and the thresholds and values finite numbers; features lie in [-1,
    n_features); an internal node i has children i < left < right <
    n_nodes, a leaf has -1 for both; and every node but node 0 is the child
    of exactly one internal node. So every node is reachable and traversal
    ends at a leaf. Growth writes its nodes in pre-order, but any numbering
    that passes, breadth-first too, is a tree. ``TreeModel`` raises the
    message as ``ParameterError``, its loader as ``ParseError``."""
    n = feature.size
    arrays = (feature, threshold, left, right, value)
    if {a.shape for a in arrays} != {(n,)} or n == 0:
        return "tree arrays must be 1-D, non-empty, of one length"
    if any(a.dtype.kind not in "iu" for a in (feature, left, right)):
        return "tree feature and child indices must be integers"
    if any(a.dtype.kind not in "iuf" or not np.isfinite(a).all()
           for a in (threshold, value)):
        return "tree thresholds and values must be finite numbers"
    if feature.min() < -1 or feature.max() >= n_features:
        return "tree feature index outside [-1, %d)" % n_features
    inner = (np.arange(n) < left) & (left < right) & (right < n)
    leaf = (left == -1) & (right == -1)
    if not np.where(feature >= 0, inner, leaf).all():
        return ("tree children must satisfy i < left < right < n_nodes at "
                "internal nodes and be -1 at leaves")
    split = feature >= 0
    parents = np.bincount(np.concatenate((left[split], right[split])), minlength=n)
    if (parents[1:] != 1).any():
        return ("tree nodes other than node 0 must each be the child of exactly "
                "one internal node")
    return None


def _tree_array(values) -> np.ndarray:
    """``values`` as an array for ``_tree_fault``. A list numpy cannot make
    one array of (a ragged one) or a list holding a bool raises
    ``ParameterError``: ``np.asarray`` reads true as 1 beside numbers."""
    try:
        out = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise ParameterError("tree arrays must be arrays of numbers: %s" % exc) from None
    if isinstance(values, (list, tuple)) and {bool, np.bool_} & set(map(type, values)):
        raise ParameterError("tree arrays must hold numbers, not bools")
    return out


class TreeModel:
    """Flat binary tree; feature == -1 marks a leaf holding ``value``. The
    arrays must pass ``_tree_fault``, else ``ParameterError``."""

    def __init__(self, feature, threshold, left, right, value, n_features):
        self.n_features = integer(n_features, "n_features", 1)
        arrays = [_tree_array(a) for a in (feature, threshold, left, right, value)]
        fault = _tree_fault(*arrays, self.n_features)
        if fault:
            raise ParameterError(fault)
        feature, threshold, left, right, value = arrays
        self.feature = feature.astype(np.int64, copy=False)
        self.threshold = threshold.astype(np.float64, copy=False)
        self.left = left.astype(np.int64, copy=False)
        self.right = right.astype(np.int64, copy=False)
        self.value = value.astype(np.float64, copy=False)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def arrays(self) -> tuple:
        """(feature, threshold, left, right, value), as the kernels take them."""
        return self.feature, self.threshold, self.left, self.right, self.value

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for every row of X; a 1-D X is one row."""
        X = _check_matrix(X, self.n_features)
        out = np.empty(X.shape[0])
        for rows, values in kernels.ensemble_apply([self.arrays()], X):
            out[rows] = values[0]
        return out

    def to_json(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "n_features": self.n_features,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TreeModel":
        """The tree in ``obj``: feature and child indices must be JSON
        integers (0.7 and true are not read as 0 and 1), thresholds and
        values finite JSON numbers, and the arrays must pass
        ``_tree_fault``, whose message is raised as ``ValueError``."""
        arrays = (np.asarray(json_integers(obj["feature"], "tree feature")),
                  finite_floats(obj["threshold"], "tree threshold"),
                  np.asarray(json_integers(obj["left"], "tree left")),
                  np.asarray(json_integers(obj["right"], "tree right")),
                  finite_floats(obj["value"], "tree value"))
        n_features = integer(obj["n_features"], "n_features", 1)
        fault = _tree_fault(*arrays, n_features)
        if fault:
            raise ValueError(fault)
        return cls(*arrays, n_features)


class _TreeBuilder:
    """Greedy depth-first growth of every tree of one fit.

    The constructor sorts X once (SLIQ, Mehta et al. 1996): ``columns`` is
    X.T, C-contiguous, and ``presorted`` the (d + 1, n) row indices whose
    row j < d is stably sorted by X[:, j] and whose last row is 0..n-1, the
    rows in fit order. ``params`` gives the growth limits (``max_depth``,
    ``min_samples_split``, ``min_impurity_decrease``) and
    ``features_per_split`` the candidates drawn per split (None: every
    feature, no draw). A node is searched only while it is shallower than
    ``max_depth``, weighs at least ``min_samples_split`` and its target is
    not constant; a leaf draws no candidates, so no forest stream moves.

    Each ``grow`` fills its own buffer, ``order``, in that layout over the
    m rows it fits, each once and each of positive weight, and for Gini
    ``packed``, every row's integer weight (its draw count in a bootstrap
    sample, else 1) packed with its label (``kernels.pack_counts``), so a
    node takes its weight and class-1 weight from one sum and each split
    scan reads the same array. Every node owns the slice [start, end); a split partitions
    that slice stably so the left child takes its front and the right child
    its back. A stable partition keeps the tie order a fresh stable sort of
    the child's rows would give, so split scans see exactly what per-node
    sorting showed, and a leaf's slice of the fit-order row stays
    ascending.
    """

    def __init__(self, X, criterion, params, features_per_split=None):
        self.columns = np.ascontiguousarray(X.T)
        d, n = self.columns.shape
        self.presorted = np.empty((d + 1, n), dtype=np.int64)
        self.presorted[:-1] = np.argsort(self.columns, axis=1, kind="mergesort")
        self.presorted[-1] = np.arange(n)
        self.ones = np.ones(n, dtype=np.int64)
        self.goes_left = np.empty(n, dtype=bool)
        self.n_features = d
        self.all_features = np.arange(d, dtype=np.int64)
        self.criterion = criterion
        self.max_depth = params.max_depth
        self.min_samples_split = params.min_samples_split
        self.min_impurity_decrease = params.min_impurity_decrease
        self.features_per_split = features_per_split

    def _candidate_features(self) -> np.ndarray:
        k = self.features_per_split
        if k is None or k >= self.n_features:
            return self.all_features
        chosen = self.rng.choice(self.n_features, size=k, replace=False)
        chosen.sort()
        return chosen

    def _best_split(self, start, end, t, size, total):
        """The node's best split; ``size`` is its weight and ``total`` its
        weighted target sum, and ``t`` its SSE target in fit order (None
        under Gini, whose scan reads the packed counts by row)."""
        order = self.order[:-1, start:end]
        if self.criterion == _GINI:
            return kernels.gini_best_split(
                order, self.packed, self._candidate_features(), columns=self.columns,
                parent_sums=(size, total),
            )
        # parent sums accumulate in fit order; the saved trees keep these bits
        sums = (float(np.cumsum(t)[-1]), float(np.cumsum(t * t)[-1]))
        return kernels.sse_best_split(
            order, self.target, self._candidate_features(),
            columns=self.columns, parent_sums=sums,
        )

    def _partition(self, start, end, feat, thr) -> int:
        """Stable in-place partition of the buffer; returns the split point."""
        block = self.order[:, start:end]
        rows = block[-1]
        go = self.columns[feat].take(rows) <= thr
        self.goes_left[rows] = go
        mid = start + int(np.count_nonzero(go))
        # gather both halves before writing either
        mask = self.goes_left.take(block)
        d = block.shape[0]
        lo, hi = block[mask].reshape(d, -1), block[~mask].reshape(d, -1)
        block[:, :mid - start] = lo
        block[:, mid - start:] = hi
        return mid

    def _build(self, start, end, depth) -> int:
        """Grow the subtree over [start, end) and return its node index.
        A node is [feature, threshold, left, right, value], a leaf has
        feature, left and right -1; nodes are numbered in pre-order."""
        index = len(self.nodes)
        rows = self.order[-1, start:end]
        if self.criterion == _GINI:
            size, total = kernels.node_sums(self.packed, rows)
            varies = 0 < total < size
            t = None
        else:
            # SSE trees weigh every row 1
            t = self.target.take(rows)
            size, total = end - start, t.sum()
            varies = t.min() < t.max()
        node = [-1, 0.0, -1, -1, float(total / size)]
        self.nodes.append(node)
        feat = -1
        # a node whose target takes one value is a leaf: its true gain is 0
        # under both criteria, and SSE's float sums can compute one above 0
        if depth < self.max_depth and size >= self.min_samples_split and varies:
            feat, thr, gain = self._best_split(start, end, t, size, total)
        if feat < 0 or not gain > self.min_impurity_decrease:
            self.leaves.append((index, rows))
            return index
        mid = self._partition(start, end, feat, thr)
        # the left subtree is built, and numbered, before the right one
        node[:4] = (feat, thr, self._build(start, mid, depth + 1),
                    self._build(mid, end, depth + 1))
        return index

    def grow(self, target, rng=None, bootstrap=False):
        """One tree on ``target`` (indexed by row), and its leaves as
        (node, rows): ``rows`` is the leaf's rows in ascending order. A
        bootstrap tree draws its sample with ``rng``, which also draws the
        split candidates; any other tree fits every row with weight 1."""
        presorted = self.presorted
        if bootstrap:
            n = presorted.shape[1]
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            # the drawn rows, each once, keep every presort row sorted
            drawn = (counts > 0).take(presorted)
            self.order = presorted[drawn].reshape(presorted.shape[0], -1)
        else:
            counts, self.order = self.ones, presorted.copy()
        self.target, self.rng = target, rng
        if self.criterion == _GINI:
            self.packed = kernels.pack_counts(counts, target)
        self.nodes, self.leaves = [], []
        self._build(0, self.order.shape[1], 0)
        return TreeModel(*zip(*self.nodes), self.n_features), self.leaves


class CartModel:
    kind = CART

    def __init__(self, tree: TreeModel, params: CartParams):
        self.tree = instance(tree, "cart tree", TreeModel)
        self.params = instance(params, "cart params", CartParams)


def train_cart(X, y, params: CartParams = CartParams()) -> CartModel:
    """Greedy Gini CART; leaves store the class-1 fraction."""
    X, y = training_set(X, y, None, 2)
    return CartModel(_TreeBuilder(X, _GINI, params).grow(y)[0], params)


class ForestModel:
    kind = FOREST

    def __init__(self, trees: list[TreeModel], params: ForestParams, seed: int):
        self.params = instance(params, "rf params", ForestParams)
        fault = _ensemble_fault(trees, params.n_trees, "trees")
        if fault:
            raise ParameterError(fault)
        self.trees = trees
        self.seed = integer(seed, "seed", 0)


def train_forest(X, y, params: ForestParams = ForestParams(), seed: int = 0) -> ForestModel:
    """Bootstrap-aggregated CARTs with per-split feature subsampling."""
    X, y = training_set(X, y, None, 2)
    seed = integer(seed, "seed", 0)
    d = X.shape[1]
    k = params.features_per_split
    if k is None:
        k = math.ceil(math.sqrt(d))
    integer(k, "features_per_split", 1, d)
    builder = _TreeBuilder(X, _GINI, params, k)
    rngs = (np.random.default_rng(ss)
            for ss in np.random.SeedSequence(seed).spawn(params.n_trees))
    return ForestModel([builder.grow(y, rng, params.bootstrap)[0] for rng in rngs],
                       params, seed)


class GbcModel:
    kind = GBC

    def __init__(self, initial_log_odds: float, stages: list[TreeModel],
                 params: GbcParams):
        self.params = instance(params, "gbc params", GbcParams)
        fault = _ensemble_fault(stages, params.n_stages, "stages")
        if fault:
            raise ParameterError(fault)
        self.initial_log_odds = real(initial_log_odds, "initial_log_odds")
        self.stages = stages

    def decision_scores(self, X: np.ndarray, n_stages: int | None = None) -> np.ndarray:
        """Additive scores after the first ``n_stages`` stages (all by
        default) for every row of X; a 1-D X is one row."""
        X = _check_matrix(X, self.stages[0].n_features)
        if n_stages is None:
            n_stages = len(self.stages)
        else:
            n_stages = integer(n_stages, "n_stages", 0, len(self.stages))
        return self._scores(X, self.stages[:n_stages])

    def _scores(self, X, stages) -> np.ndarray:
        """Scores of checked rows: each row's stages add in stage order."""
        scores = np.full(X.shape[0], self.initial_log_odds)
        for rows, values in kernels.ensemble_apply([t.arrays() for t in stages], X):
            chunk = scores[rows]
            for step in self.params.learning_rate * values:
                chunk += step
        return scores


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_gbc(X, y, params: GbcParams = GbcParams()) -> GbcModel:
    """Boosted regression stumps/trees on the logistic loss.

    Stage trees fit the residual y - sigmoid(score) under SSE splits; leaf
    values take the damped Newton form sum(r) / sum(|r| (1 - |r|)) with a
    zero denominator mapping to a zero leaf.
    """
    X, y = training_set(X, y, None, 2)
    p = float(y.mean())
    if p == 0.0 or p == 1.0:
        raise DegenerateTargetError(
            "boosting needs both classes present, got a single class"
        )
    log_odds = math.log(p / (1.0 - p))
    yf = y.astype(np.float64)
    n = X.shape[0]
    scores = np.full(n, log_odds)
    stages = []
    # a stage tree is a CART of the stage depth grown on SSE
    builder = _TreeBuilder(X, _SSE, CartParams(max_depth=params.max_depth))
    step = np.empty(n)
    for _ in range(params.n_stages):
        resid = yf - _sigmoid(scores)
        tree, leaves = builder.grow(resid)
        leaf_values = np.zeros(tree.n_nodes)
        # a leaf's rows come in ascending row order, which fixes the order
        # of the sums below
        for leaf, leaf_rows in leaves:
            r = resid[leaf_rows]
            denom = float(np.sum(np.abs(r) * (1.0 - np.abs(r))))
            leaf_values[leaf] = float(r.sum()) / denom if denom > 0 else 0.0
            step[leaf_rows] = leaf_values[leaf]
        tree.value = leaf_values
        stages.append(tree)
        scores = scores + params.learning_rate * step
    return GbcModel(log_odds, stages, params)


# ---------------------------------------------------------------------------
# prediction + serialization over all three detector kinds
# ---------------------------------------------------------------------------


def _check_matrix(X, n_features: int) -> np.ndarray:
    """X as a C-contiguous (rows, n_features) matrix; a 1-D X is one row."""
    return np.ascontiguousarray(np.atleast_2d(finite_array(X, (1, 2), n_features)))


def model_kind(model) -> str:
    if not isinstance(model, (CartModel, ForestModel, GbcModel)):
        raise ParameterError("unknown detector model type %r" % type(model).__name__)
    return model.kind


def predict_classes(model, X) -> np.ndarray:
    """Batch 0/1 predictions for any detector kind."""
    kind = model_kind(model)
    # a CART is a forest of one tree
    ensemble = (model.stages if kind == GBC
                else model.trees if kind == FOREST else [model.tree])
    X = _check_matrix(X, ensemble[0].n_features)
    if kind == GBC:
        return (_sigmoid(model._scores(X, ensemble)) >= 0.5).astype(np.int64)
    votes = np.empty(X.shape[0], dtype=np.int64)
    for rows, values in kernels.ensemble_apply([t.arrays() for t in ensemble], X):
        votes[rows] = np.count_nonzero(values >= 0.5, axis=0)
    # strict majority; an even split falls back to class 0
    return (2 * votes > len(ensemble)).astype(np.int64)


def predict_class(model, x) -> int:
    """The 0/1 prediction for one row ``x``, a vector of the model's
    features; a matrix, even of one row, raises ``ShapeError``."""
    return int(predict_classes(model, finite_array(x, 1))[0])


def save_model(model, path) -> None:
    kind = model_kind(model)
    # asdict keeps the field order, which is the saved key order
    doc = {"format": "detector", "version": 1, "kind": kind,
           "params": asdict(model.params)}
    if kind == CART:
        doc["tree"] = model.tree.to_json()
    elif kind == FOREST:
        doc["seed"] = model.seed
        doc["trees"] = [t.to_json() for t in model.trees]
    else:
        doc["initial_log_odds"] = model.initial_log_odds
        doc["stages"] = [t.to_json() for t in model.stages]
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_model(path):
    return read_json(path, _model_from_json)


@parses("detector model", "detector")
def _model_from_json(doc: dict):
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError("unknown detector kind %r" % kind)
    params = KINDS[kind].params(**doc["params"])
    if kind == CART:
        return CartModel(TreeModel.from_json(doc["tree"]), params)
    if kind == FOREST:
        return ForestModel(
            _trees_from_json(doc["trees"], params.n_trees, "trees"),
            params,
            doc["seed"],
        )
    return GbcModel(
        float(finite_floats(doc["initial_log_odds"], "initial_log_odds")),
        _trees_from_json(doc["stages"], params.n_stages, "stages"),
        params,
    )


def _ensemble_fault(ensemble, count: int, what: str) -> str | None:
    """Why ``ensemble`` cannot be a model's ``what`` (trees or stages) under
    n_``what`` ``count``, or None: it must be a list (or tuple) of
    ``count`` ``TreeModel``s, all on one feature count. The constructors
    raise the message as ``ParameterError``, the loader as
    ``ParseError``."""
    if (not isinstance(ensemble, (list, tuple))
            or not all(isinstance(t, TreeModel) for t in ensemble)):
        return "%s must be a list of TreeModel" % what
    if len(ensemble) != count:
        return "%d %s under n_%s %d" % (len(ensemble), what, what, count)
    if len({t.n_features for t in ensemble}) != 1:
        return "ensemble trees disagree on n_features"
    return None


def _trees_from_json(docs, count: int, what: str) -> list[TreeModel]:
    """The ``count`` trees of an ensemble, all on one feature count."""
    ensemble = [TreeModel.from_json(t) for t in docs]
    fault = _ensemble_fault(ensemble, count, what)
    if fault:
        raise ValueError(fault)
    return ensemble
