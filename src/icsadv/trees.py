"""Decision-tree detectors: single CART, random forest, gradient boosting.

All three share one array-encoded binary tree (`TreeModel`) grown greedily
on top of the split kernels in :mod:`icsadv.kernels`. Conventions the
tests pin down:

* candidate thresholds are midpoints of consecutive distinct sorted values,
  rows with value <= threshold go left;
* a split is accepted only when its impurity decrease is strictly greater
  than ``min_impurity_decrease`` (so the default 0.0 demands positive gain);
* gain ties break toward the lowest feature index, then lowest threshold;
* classification leaves store the class-1 fraction and predict 1 when the
  fraction reaches 0.5; forest votes break ties toward class 0; the boosted
  model predicts 1 when the sigmoid of its score reaches 0.5.

A forest with one tree, no bootstrap and all features per split grows the
identical tree a plain CART would (the per-split feature draw is skipped
when the subset covers every feature, to keep the RNG stream out of it).

Growth sorts each feature once per fit, not once per node: CART sorts once,
a forest once for all its trees, boosting once for all its stages. Each
split then partitions the node's presorted slice stably in place (see
``_TreeBuilder``), and the trees come out exactly as if every node had been
sorted afresh.

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

Training and prediction (``predict_classes``, ``GbcModel.decision_scores``,
``TreeModel.apply``) take their features and labels through the array rule
of :mod:`icsadv.errors`, every count and depth in the params through
``errors.integer`` and every rate through ``errors.real``; ``load_model``
turns any malformed document into ``ParseError``.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .errors import (
    DegenerateTargetError,
    ParameterError,
    ParseError,
    finite_array,
    finite_floats,
    integer,
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
        if real(self.min_impurity_decrease, "min_impurity_decrease") < 0:
            raise ParameterError("min_impurity_decrease must be >= 0")


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
        integer(self.max_depth, "max_depth", 1)
        integer(self.min_samples_split, "min_samples_split", 2)
        if real(self.min_impurity_decrease, "min_impurity_decrease") < 0:
            raise ParameterError("min_impurity_decrease must be >= 0")


@dataclass(frozen=True)
class GbcParams:
    n_stages: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3

    def __post_init__(self):
        integer(self.n_stages, "n_stages", 1)
        if real(self.learning_rate, "learning_rate") <= 0:
            raise ParameterError("learning_rate must be positive")
        integer(self.max_depth, "max_depth", 1)


def _node_indices(values, what: str):
    """A tree document's ``what`` array, for ``TreeModel.from_json``: a
    list of integers, bools excluded."""
    bad = [v for v in values if type(v) is not int]
    if bad:
        raise ValueError("tree %s holds %r, not an integer index" % (what, bad[0]))
    return values


class TreeModel:
    """Flat binary tree; feature == -1 marks a leaf holding ``value``."""

    def __init__(self, feature, threshold, left, right, value, n_features):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self.n_features = integer(n_features, "n_features", 1)

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
        """The tree in ``obj``, checked to be one binary tree rooted at
        node 0: the five arrays are 1-D, non-empty and of one length;
        thresholds and values are finite; features lie in [-1,
        n_features); an internal node i has children i < left < right <
        n_nodes, a leaf has -1 for both; and every node but node 0 is the
        child of exactly one internal node. So every node is reachable and
        traversal ends at a leaf. Growth writes its nodes in pre-order, but
        any numbering that passes, breadth-first too, loads. Feature and
        child indices must be JSON integers: 0.7 and true are not read as 0
        and 1."""
        tree = cls(
            _node_indices(obj["feature"], "feature"),
            finite_floats(obj["threshold"], "tree threshold"),
            _node_indices(obj["left"], "left"),
            _node_indices(obj["right"], "right"),
            finite_floats(obj["value"], "tree value"),
            obj["n_features"],
        )
        n = tree.n_nodes
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        if {a.shape for a in arrays} != {(n,)} or n == 0:
            raise ValueError("tree arrays must be 1-D, non-empty, of one length")
        if tree.feature.min() < -1 or tree.feature.max() >= tree.n_features:
            raise ValueError("tree feature index outside [-1, %d)" % tree.n_features)
        left, right = tree.left, tree.right
        inner = (np.arange(n) < left) & (left < right) & (right < n)
        leaf = (left == -1) & (right == -1)
        if not np.where(tree.feature >= 0, inner, leaf).all():
            raise ValueError(
                "tree children must satisfy i < left < right < n_nodes at "
                "internal nodes and be -1 at leaves"
            )
        split = tree.feature >= 0
        parents = np.bincount(np.concatenate((left[split], right[split])), minlength=n)
        if (parents[1:] != 1).any():
            raise ValueError(
                "tree nodes other than node 0 must each be the child of exactly "
                "one internal node"
            )
        return tree


class _TreeBuilder:
    """Greedy depth-first growth over one row buffer, partitioned in place.

    ``columns`` is X.T, C-contiguous; ``counts`` is the integer weight of
    every row of X (its draw count in a bootstrap sample, else 1). ``order``
    is the caller's (d + 1, m) buffer over the m rows being fit, each once
    and each of positive weight, in ``_presort``'s layout: its row j < d
    holds them stably sorted by feature j, its last row holds them in fit
    order. The builder owns it from then on. Every node owns the slice
    [start, end); a split partitions that slice stably so the left child
    takes its front and the right child its back. A stable partition keeps
    the tie order a fresh stable sort of the child's rows would give, so
    split scans see exactly what per-node sorting showed.
    """

    def __init__(self, columns, target, criterion, max_depth, min_samples_split,
                 min_impurity_decrease, order, counts,
                 features_per_split=None, rng=None):
        self.columns = columns
        self.target = target
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.order = order
        self.counts = counts
        self.features_per_split = features_per_split
        self.rng = rng
        self.n_features = columns.shape[0]
        self.all_features = np.arange(self.n_features, dtype=np.int64)
        self.goes_left = np.empty(columns.shape[1], dtype=bool)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.leaves: list[tuple[int, int, int]] = []  # (node, start, end)

    def _candidate_features(self) -> np.ndarray:
        k = self.features_per_split
        if k is None or k >= self.n_features:
            return self.all_features
        chosen = self.rng.choice(self.n_features, size=k, replace=False)
        return np.sort(chosen).astype(np.int64)

    def _new_node(self) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return node

    def _best_split(self, start, end, t, size, total):
        """The node's best split; ``t`` is its target in fit order, ``size``
        its weight and ``total`` its weighted target sum."""
        order = self.order[:-1, start:end]
        if self.criterion == _GINI:
            n1 = int(total)
            if n1 == 0 or n1 == size:
                return -1, 0.0, -1.0
            return kernels.gini_best_split(
                order, self.target, self._candidate_features(),
                columns=self.columns, counts=self.counts, parent_sums=(size, n1),
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

    def build(self, start, end, depth) -> int:
        node = self._new_node()
        rows = self.order[-1, start:end]
        t = self.target.take(rows)
        weights = self.counts.take(rows)
        size = int(weights.sum())
        total = (weights * t).sum()
        self.value[node] = float(total / size)
        feat = -1
        if depth < self.max_depth and size >= self.min_samples_split:
            feat, thr, gain = self._best_split(start, end, t, size, total)
        if feat < 0 or not gain > self.min_impurity_decrease:
            self.leaves.append((node, start, end))
            return node
        mid = self._partition(start, end, feat, thr)
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self.build(start, mid, depth + 1)
        self.right[node] = self.build(mid, end, depth + 1)
        return node

    def grow(self) -> TreeModel:
        self.build(0, self.order.shape[1], 0)
        return TreeModel(
            self.feature, self.threshold, self.left, self.right, self.value,
            self.n_features,
        )


def _presort(X):
    """X.T as a C-contiguous (d, n) array, and the (d + 1, n) row indices
    whose row j < d is stably sorted by X[:, j] and whose last row is
    0..n-1, the rows in fit order."""
    columns = np.ascontiguousarray(X.T)
    order = np.empty((columns.shape[0] + 1, columns.shape[1]), dtype=np.int64)
    order[:-1] = np.argsort(columns, axis=1, kind="mergesort")
    order[-1] = np.arange(columns.shape[1])
    return columns, order


class CartModel:
    def __init__(self, tree: TreeModel, params: CartParams):
        self.tree = tree
        self.params = params


def train_cart(X, y, params: CartParams = CartParams()) -> CartModel:
    """Greedy Gini CART; leaves store the class-1 fraction."""
    X, y = training_set(X, y, None, 2)
    columns, presorted = _presort(X)
    builder = _TreeBuilder(
        columns, y, _GINI, params.max_depth, params.min_samples_split,
        params.min_impurity_decrease, presorted,
        np.ones(X.shape[0], dtype=np.int64),
    )
    return CartModel(builder.grow(), params)


class ForestModel:
    def __init__(self, trees: list[TreeModel], params: ForestParams, seed: int):
        self.trees = trees
        self.params = params
        self.seed = seed


def train_forest(X, y, params: ForestParams = ForestParams(), seed: int = 0) -> ForestModel:
    """Bootstrap-aggregated CARTs with per-split feature subsampling."""
    X, y = training_set(X, y, None, 2)
    seed = integer(seed, "seed", 0)
    n, d = X.shape
    k = params.features_per_split
    if k is None:
        k = math.ceil(math.sqrt(d))
    if k > d:
        raise ParameterError(
            "features_per_split %d exceeds feature count %d" % (k, d)
        )
    streams = np.random.SeedSequence(seed).spawn(params.n_trees)
    columns, presorted = _presort(X)
    ones = np.ones(n, dtype=np.int64)
    trees = []
    for ss in streams:
        rng = np.random.default_rng(ss)
        if params.bootstrap:
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            # the drawn rows, each once, keep every presort row sorted
            drawn = (counts > 0).take(presorted)
            order = presorted[drawn].reshape(presorted.shape[0], -1)
        else:
            counts, order = ones, presorted.copy()
        builder = _TreeBuilder(
            columns, y, _GINI, params.max_depth, params.min_samples_split,
            params.min_impurity_decrease, order, counts,
            features_per_split=k, rng=rng,
        )
        trees.append(builder.grow())
    return ForestModel(trees, params, seed)


class GbcModel:
    def __init__(self, initial_log_odds: float, stages: list[TreeModel],
                 params: GbcParams):
        self.initial_log_odds = float(initial_log_odds)
        self.stages = stages
        self.params = params

    def decision_scores(self, X: np.ndarray, n_stages: int | None = None) -> np.ndarray:
        """Additive scores after the first ``n_stages`` stages (all by
        default) for every row of X; a 1-D X is one row."""
        X = _check_matrix(X, self.stages[0].n_features)
        if n_stages is None:
            n_stages = len(self.stages)
        elif integer(n_stages, "n_stages", 0) > len(self.stages):
            raise ParameterError("n_stages must be <= %d, got %r"
                                 % (len(self.stages), n_stages))
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
    columns, presorted = _presort(X)
    ones = np.ones(n, dtype=np.int64)
    step = np.empty(n)
    for _ in range(params.n_stages):
        resid = yf - _sigmoid(scores)
        builder = _TreeBuilder(
            columns, resid, _SSE, params.max_depth, 2, 0.0, presorted.copy(), ones,
        )
        tree = builder.grow()
        leaf_values = np.zeros(tree.n_nodes)
        # a leaf's rows stay in ascending row order, which fixes the order
        # of the sums below
        for leaf, start, end in builder.leaves:
            leaf_rows = builder.order[-1, start:end]
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
    if isinstance(model, CartModel):
        return CART
    if isinstance(model, ForestModel):
        return FOREST
    if isinstance(model, GbcModel):
        return GBC
    raise ParameterError("unknown detector model type %r" % type(model).__name__)


def model_n_features(model) -> int:
    kind = model_kind(model)
    if kind == CART:
        return model.tree.n_features
    if kind == FOREST:
        return model.trees[0].n_features
    return model.stages[0].n_features


def predict_classes(model, X) -> np.ndarray:
    """Batch 0/1 predictions for any detector kind."""
    X = _check_matrix(X, model_n_features(model))
    kind = model_kind(model)
    if kind == GBC:
        return (_sigmoid(model._scores(X, model.stages)) >= 0.5).astype(np.int64)
    # a CART is a forest of one tree
    ensemble = model.trees if kind == FOREST else [model.tree]
    votes = np.empty(X.shape[0], dtype=np.int64)
    for rows, values in kernels.ensemble_apply([t.arrays() for t in ensemble], X):
        votes[rows] = np.count_nonzero(values >= 0.5, axis=0)
    # strict majority; an even split falls back to class 0
    return (2 * votes > len(ensemble)).astype(np.int64)


def predict_class(model, x) -> int:
    return int(predict_classes(model, x)[0])


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
    if kind == CART:
        return CartModel(
            TreeModel.from_json(doc["tree"]), CartParams(**doc["params"])
        )
    if kind == FOREST:
        return ForestModel(
            _trees_from_json(doc["trees"]),
            ForestParams(**doc["params"]),
            integer(doc["seed"], "seed", 0),
        )
    if kind == GBC:
        return GbcModel(
            finite_floats(float(doc["initial_log_odds"]), "initial_log_odds"),
            _trees_from_json(doc["stages"]),
            GbcParams(**doc["params"]),
        )
    raise ParseError("unknown detector kind %r" % kind)


def _trees_from_json(docs) -> list[TreeModel]:
    """The trees of an ensemble: at least one, all on one feature count."""
    ensemble = [TreeModel.from_json(t) for t in docs]
    if not ensemble:
        raise ValueError("ensemble has no trees")
    if len({t.n_features for t in ensemble}) != 1:
        raise ValueError("ensemble trees disagree on n_features")
    return ensemble
