"""Detector training: CART growth rules, forest voting, boosting math."""
from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from icsadv import trees
from icsadv.errors import (
    DegenerateTargetError,
    EmptyInputError,
    InputContractError,
    ParameterError,
    ParseError,
    ShapeError,
)


def tree_depth(tree: trees.TreeModel, node: int = 0) -> int:
    if tree.feature[node] < 0:
        return 0
    return 1 + max(
        tree_depth(tree, int(tree.left[node])),
        tree_depth(tree, int(tree.right[node])),
    )


def blob_data(n=120, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = (X[:, 0] + 0.25 * X[:, 1] > 0.6).astype(np.int64)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


def logistic_loss(scores, y):
    s = np.asarray(scores)
    return float(np.mean(np.logaddexp(0.0, s) - y * s))


class TestParams:
    def test_defaults(self):
        assert trees.CartParams().max_depth == 12
        assert trees.ForestParams().n_trees == 100
        assert trees.ForestParams().features_per_split is None
        assert trees.GbcParams().n_stages == 100
        assert trees.GbcParams().learning_rate == 0.1
        assert trees.GbcParams().max_depth == 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda: trees.CartParams(max_depth=0),
            lambda: trees.CartParams(min_samples_split=1),
            lambda: trees.CartParams(min_impurity_decrease=-0.1),
            lambda: trees.ForestParams(n_trees=0),
            lambda: trees.ForestParams(features_per_split=0),
            lambda: trees.GbcParams(n_stages=0),
            lambda: trees.GbcParams(learning_rate=0.0),
            # NaN compares false to everything: a plain < 0 check let it
            # through, and then no gain beat it, so every tree was one leaf
            lambda: trees.CartParams(min_impurity_decrease=float("nan")),
            lambda: trees.ForestParams(min_impurity_decrease=float("nan")),
            lambda: trees.GbcParams(learning_rate=float("nan")),
            lambda: trees.GbcParams(learning_rate=float("inf")),
        ],
    )
    def test_bad_values(self, make):
        with pytest.raises(ParameterError):
            make()


class TestCart:
    def test_textbook_stump(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        m = trees.train_cart(X, y)
        t = m.tree
        assert t.feature[0] == 0
        assert t.threshold[0] == 2.5
        # pure leaves: fractions 0 and 1
        assert t.value[t.left[0]] == 0.0
        assert t.value[t.right[0]] == 1.0
        assert trees.predict_classes(m, X).tolist() == [0, 0, 1, 1]

    def test_separable_data_fits_exactly(self):
        X, y = blob_data(seed=3)
        m = trees.train_cart(X, y)
        assert (trees.predict_classes(m, X) == y).all()

    def test_tie_breaks_to_lowest_feature(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        X = np.hstack([X, X])
        y = np.array([0, 0, 1, 1])
        m = trees.train_cart(X, y)
        assert m.tree.feature[0] == 0

    def test_tie_breaks_to_lowest_threshold(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 1, 1, 0])
        m = trees.train_cart(X, y)
        assert m.tree.threshold[0] == 1.5

    def test_max_depth_respected(self):
        X, y = blob_data(n=300, seed=1)
        for depth in (1, 2, 4):
            m = trees.train_cart(X, y, trees.CartParams(max_depth=depth))
            assert tree_depth(m.tree) <= depth

    def test_min_samples_split_stops_growth(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 1, 0, 1])
        m = trees.train_cart(X, y, trees.CartParams(min_samples_split=5))
        assert m.tree.n_nodes == 1  # root stays a leaf

    def test_min_impurity_decrease_prunes_weak_splits(self):
        X, y = blob_data(n=200, seed=2)
        strict = trees.train_cart(X, y, trees.CartParams(min_impurity_decrease=0.4))
        loose = trees.train_cart(X, y)
        assert strict.tree.n_nodes < loose.tree.n_nodes

    def test_zero_gain_split_rejected(self):
        # both candidate splits of symmetric XOR have exactly zero Gini gain,
        # and acceptance requires strictly positive improvement
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        m = trees.train_cart(X, y)
        assert m.tree.n_nodes == 1
        assert m.tree.value[0] == 0.5

    def test_unsplittable_leaf_keeps_class_fraction(self):
        X = np.full((4, 2), 3.0)  # constant features: no candidates
        y = np.array([0, 0, 1, 1])
        m = trees.train_cart(X, y)
        assert m.tree.n_nodes == 1
        assert m.tree.value[0] == 0.5
        # fraction exactly 0.5 predicts class 1
        assert trees.predict_class(m, X[0]) == 1

    def test_input_checks(self):
        with pytest.raises(EmptyInputError):
            trees.train_cart(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ShapeError):
            trees.train_cart(np.zeros((4, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ParameterError):
            trees.train_cart(np.zeros((4, 2)), np.array([0, 1, 2, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("train", [trees.train_cart, trees.train_forest,
                                       trees.train_gbc])
    def test_non_finite_features_rejected(self, train, bad):
        X, y = blob_data(n=30)
        X[4, 1] = bad
        with pytest.raises(InputContractError, match="NaN or infinite"):
            train(X, y)

    def test_non_finite_labels_rejected(self):
        X, y = blob_data(n=30)
        with pytest.raises(InputContractError):
            trees.train_cart(X, np.where(np.arange(30) == 3, np.nan, y))


class TestForest:
    def test_degenerate_forest_equals_cart(self):
        X, y = blob_data(n=150, seed=5)
        cart = trees.train_cart(X, y)
        forest = trees.train_forest(
            X,
            y,
            trees.ForestParams(n_trees=1, bootstrap=False, features_per_split=3),
            seed=99,
        )
        grid = np.random.default_rng(0).random((100, 3))
        assert np.array_equal(
            trees.predict_classes(cart, grid), trees.predict_classes(forest, grid)
        )

    @pytest.mark.parametrize("min_samples_split", [2, 9])
    def test_bootstrap_tree_equals_cart_on_drawn_rows(self, min_samples_split):
        """A tree grown on the distinct drawn rows weighted by their draw
        counts is the CART grown on every draw, repeats included."""
        X, y = blob_data(n=150, seed=5)
        X = np.round(X * 6) / 6  # ties inside and across the repeats
        forest = trees.train_forest(X, y, trees.ForestParams(
            n_trees=1, features_per_split=3, max_depth=6,
            min_samples_split=min_samples_split,
        ), seed=21)
        rng = np.random.default_rng(np.random.SeedSequence(21).spawn(1)[0])
        idx = rng.integers(0, 150, size=150)
        cart = trees.train_cart(X[idx], y[idx], trees.CartParams(
            max_depth=6, min_samples_split=min_samples_split,
        ))
        assert forest.trees[0].to_json() == cart.tree.to_json()

    def test_seeded_determinism(self, tmp_path):
        X, y = blob_data(n=100, seed=6)
        params = trees.ForestParams(n_trees=8)
        a = trees.train_forest(X, y, params, seed=3)
        b = trees.train_forest(X, y, params, seed=3)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        trees.save_model(a, pa)
        trees.save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        c = trees.train_forest(X, y, params, seed=4)
        grid = np.random.default_rng(1).random((200, 3))
        assert not np.array_equal(
            trees.predict_classes(a, grid), trees.predict_classes(c, grid)
        )

    def test_even_vote_split_predicts_normal(self):
        leaf = lambda v: trees.TreeModel([-1], [0.0], [-1], [-1], [v], 2)
        forest = trees.ForestModel(
            [leaf(1.0), leaf(0.0)], trees.ForestParams(n_trees=2), seed=0
        )
        assert trees.predict_class(forest, [0.5, 0.5]) == 0

    def test_majority_wins(self):
        leaf = lambda v: trees.TreeModel([-1], [0.0], [-1], [-1], [v], 2)
        forest = trees.ForestModel(
            [leaf(1.0), leaf(1.0), leaf(0.0)], trees.ForestParams(n_trees=3), seed=0
        )
        assert trees.predict_class(forest, [0.5, 0.5]) == 1

    def test_too_many_features_rejected(self):
        X, y = blob_data(n=40)
        with pytest.raises(ParameterError, match="features_per_split"):
            trees.train_forest(X, y, trees.ForestParams(features_per_split=10))

    def test_learns_blobs(self):
        X, y = blob_data(n=250, seed=8)
        m = trees.train_forest(X, y, trees.ForestParams(n_trees=15), seed=0)
        assert (trees.predict_classes(m, X) == y).mean() > 0.97


class TestGbc:
    def test_initial_log_odds(self):
        X = np.random.default_rng(0).random((8, 2))
        y = np.array([1, 1, 1, 1, 1, 1, 0, 0])  # p = 0.75
        m = trees.train_gbc(X, y, trees.GbcParams(n_stages=1))
        assert m.initial_log_odds == pytest.approx(np.log(0.75 / 0.25))

    def test_zero_stage_scores_predict_majority(self):
        X = np.random.default_rng(1).random((12, 2))
        y = np.array([1] * 9 + [0] * 3)
        m = trees.train_gbc(X, y, trees.GbcParams(n_stages=5))
        s0 = m.decision_scores(X, n_stages=0)
        assert (s0 == m.initial_log_odds).all()
        assert (trees._sigmoid(s0) >= 0.5).all()  # majority class is 1

    def test_xor_style_points_fit_with_shallow_stages(self):
        # the pattern is representable by a depth-2 tree: check that first
        # with a hand-built tree, then assert the boosted fit reaches it
        X = np.array([[0.1, 0.1], [0.1, 0.9], [0.9, 0.1], [0.95, 0.9]])
        y = np.array([0, 1, 1, 0])
        manual = trees.TreeModel(
            feature=[0, 1, 1, -1, -1, -1, -1],
            threshold=[0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            left=[1, 3, 5, -1, -1, -1, -1],
            right=[2, 4, 6, -1, -1, -1, -1],
            value=[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
            n_features=2,
        )
        assert tree_depth(manual) == 2
        assert manual.apply(X).tolist() == y.tolist()
        m = trees.train_gbc(X, y, trees.GbcParams(n_stages=10, max_depth=2))
        assert (trees.predict_classes(m, X) == y).all()

    def test_training_loss_non_increasing(self):
        X, y = blob_data(n=150, d=4, seed=9)
        params = trees.GbcParams(n_stages=40, learning_rate=0.3)
        m = trees.train_gbc(X, y, params)
        losses = [
            logistic_loss(m.decision_scores(X, n_stages=k), y) for k in range(41)
        ]
        diffs = np.diff(losses)
        assert (diffs <= 1e-12).all()

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).random((10, 2))
        with pytest.raises(DegenerateTargetError):
            trees.train_gbc(X, np.ones(10, dtype=np.int64))

    def test_sigmoid_midpoint_predicts_one(self):
        # score exactly 0 -> probability 0.5 -> class 1 by the >= rule
        leaf = trees.TreeModel([-1], [0.0], [-1], [-1], [0.0], 2)
        m = trees.GbcModel(0.0, [leaf], trees.GbcParams(n_stages=1))
        assert trees.predict_class(m, [0.3, 0.3]) == 1

    def test_deterministic(self, tmp_path):
        X, y = blob_data(n=100, seed=10)
        params = trees.GbcParams(n_stages=15)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        trees.save_model(trees.train_gbc(X, y, params), pa)
        trees.save_model(trees.train_gbc(X, y, params), pb)
        assert pa.read_bytes() == pb.read_bytes()


def _leaf(value, n_features=2):
    return trees.TreeModel([-1], [0.0], [-1], [-1], [value], n_features)


class TestEnsembleConstructors:
    """The Python API refuses, with ParameterError, an ensemble its own
    methods could not use or its loader would refuse."""

    @pytest.mark.parametrize("make, match", [
        (lambda: trees.ForestModel([], trees.ForestParams(n_trees=1), 0),
         "0 trees under n_trees 1"),
        (lambda: trees.ForestModel([_leaf(1.0)] * 2, trees.ForestParams(n_trees=3),
                                   seed=0),
         "2 trees under n_trees 3"),
        (lambda: trees.GbcModel(0.0, [], trees.GbcParams(n_stages=1)),
         "0 stages under n_stages 1"),
        (lambda: trees.GbcModel(0.0, [_leaf(0.0)] * 3, trees.GbcParams(n_stages=2)),
         "3 stages under n_stages 2"),
    ], ids=["forest-empty", "forest-short", "gbc-empty", "gbc-long"])
    def test_tree_count_must_match_params(self, make, match):
        with pytest.raises(ParameterError, match=match):
            make()

    def test_trees_share_one_feature_width(self):
        with pytest.raises(ParameterError, match="n_features"):
            trees.ForestModel([_leaf(1.0), _leaf(1.0, 3)],
                              trees.ForestParams(n_trees=2), 0)
        with pytest.raises(ParameterError, match="n_features"):
            trees.GbcModel(0.0, [_leaf(0.0, 3), _leaf(0.0)],
                           trees.GbcParams(n_stages=2))

    @pytest.mark.parametrize("value", [True, "0.5", None, float("nan")])
    def test_initial_log_odds_is_a_real(self, value):
        with pytest.raises(ParameterError, match="initial_log_odds"):
            trees.GbcModel(value, [_leaf(0.0)], trees.GbcParams(n_stages=1))


def _leaf_of(tree, x) -> int:
    """The leaf node row ``x`` reaches in ``tree``."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return int(node)


class TestTreeBuilder:
    """One ``_TreeBuilder`` per fit grows every tree of that fit."""

    @staticmethod
    def _tied_data():
        # one decimal: many tied values, so the tie order of the buffer
        # matters to SSE sums
        X, y = blob_data(n=150, d=4, seed=11)
        return np.round(X, 1), y

    def test_used_gini_builder_grows_a_bootstrap_tree_as_a_fresh_one(self):
        X, y = self._tied_data()
        params = trees.ForestParams(max_depth=6)
        used = trees._TreeBuilder(X, trees._GINI, params, 2)
        used.grow(y, np.random.default_rng(1), True)
        again, _ = used.grow(y, np.random.default_rng(2), True)
        fresh, _ = trees._TreeBuilder(X, trees._GINI, params, 2).grow(
            y, np.random.default_rng(2), True)
        assert again.n_nodes > 1
        assert again.to_json() == fresh.to_json()

    def test_used_sse_builder_grows_the_next_residual_as_a_fresh_one(self):
        X, _ = self._tied_data()
        rng = np.random.default_rng(5)
        first, second = rng.normal(size=(2, X.shape[0]))
        params = trees.CartParams(max_depth=3)
        used = trees._TreeBuilder(X, trees._SSE, params)
        used.grow(first)
        again, _ = used.grow(second)
        fresh, _ = trees._TreeBuilder(X, trees._SSE, params).grow(second)
        assert again.n_nodes > 1
        assert again.to_json() == fresh.to_json()

    @pytest.mark.parametrize("criterion, bootstrap", [
        (trees._GINI, False), (trees._GINI, True), (trees._SSE, False)])
    def test_leaves_partition_the_rows_in_ascending_order(self, criterion,
                                                          bootstrap):
        """Each leaf lists the rows that reach it, in ascending order, and
        the leaves together hold every row the tree was grown on once."""
        X, y = self._tied_data()
        n = X.shape[0]
        residual = np.random.default_rng(3).normal(size=n)
        target = y if criterion == trees._GINI else residual
        builder = trees._TreeBuilder(X, criterion, trees.CartParams(max_depth=5))
        tree, leaves = builder.grow(target, np.random.default_rng(4), bootstrap)
        drawn = np.random.default_rng(4).integers(0, n, size=n)
        grown = np.unique(drawn) if bootstrap else np.arange(n)
        assert sorted(node for node, _ in leaves) == np.flatnonzero(
            tree.feature == -1).tolist()
        for node, rows in leaves:
            assert (np.diff(rows) > 0).all()
            assert all(_leaf_of(tree, X[i]) == node for i in rows)
        assert np.array_equal(np.sort(np.concatenate([r for _, r in leaves])), grown)

    @pytest.mark.parametrize("c", [0.8059316569954867, 0.1, 1 / 3])
    def test_constant_sse_target_is_one_leaf(self, c):
        """Float sums of a constant target can score a cut above 0; the
        node is a leaf anyway, as its true gain is 0."""
        X = np.random.default_rng(0).random((200, 3))
        builder = trees._TreeBuilder(X, trees._SSE, trees.CartParams(max_depth=3))
        tree, leaves = builder.grow(np.full(200, c))
        assert tree.n_nodes == 1
        assert [node for node, _ in leaves] == [0]

    def test_separable_stages_split_once(self):
        """On data one threshold separates, every stage's residuals are
        constant on each side of it, so each stage is one split."""
        X = np.random.default_rng(0).random((200, 3))
        y = X[:, 0] > 0.5
        m = trees.train_gbc(X, y, trees.GbcParams(n_stages=30, max_depth=3))
        for stage in m.stages:
            assert stage.feature.tolist() == [0, -1, -1]
        assert sum(s.n_nodes for s in m.stages) == 90


class TestSerialization:
    @pytest.mark.parametrize("kind", ["cart", "rf", "gbc"])
    def test_round_trip_preserves_predictions(self, kind, tmp_path):
        X, y = blob_data(n=120, seed=11)
        if kind == "cart":
            m = trees.train_cart(X, y)
        elif kind == "rf":
            m = trees.train_forest(X, y, trees.ForestParams(n_trees=5), seed=1)
        else:
            m = trees.train_gbc(X, y, trees.GbcParams(n_stages=10))
        p = tmp_path / "m.json"
        trees.save_model(m, p)
        again = trees.load_model(p)
        assert trees.model_kind(again) == trees.model_kind(m)
        grid = np.random.default_rng(2).random((300, 3))
        assert np.array_equal(
            trees.predict_classes(m, grid), trees.predict_classes(again, grid)
        )
        if kind == "gbc":
            assert np.array_equal(
                m.decision_scores(grid), again.decision_scores(grid)
            )

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"format": "mlp"}')
        with pytest.raises(ParseError, match="detector"):
            trees.load_model(p)

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"format": "detector", "kind": "svm"}')
        with pytest.raises(ParseError, match="svm"):
            trees.load_model(p)

    @pytest.mark.parametrize("kind, path", [
        ("cart", ("params",)),
        ("cart", ("tree",)),
        ("cart", ("tree", "feature")),
        ("rf", ("trees",)),
        ("rf", ("trees", 0, "threshold")),
        ("gbc", ("initial_log_odds",)),
        ("gbc", ("stages", 1, "value")),
        ("rf", ("seed",)),  # the writer always writes it
    ])
    def test_missing_key_is_a_parse_error(self, kind, path, tmp_path):
        X, y = blob_data(n=60, seed=3)
        p = tmp_path / "m.json"
        trees.save_model(GOLDEN_TRAIN[kind](X, y), p)
        doc = json.loads(p.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=path[-1]):
            trees.load_model(p)

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        "{broken",
        '{"format": "detector", "kind": "cart", "params": {}, "tree": 5}',
        '{"format": "detector", "kind": "rf", "params": {}, "trees": []}',
        '{"format": "detector", "kind": "cart", "params": {}, "tree": '
        '{"feature": [0], "threshold": [], "left": [1], "right": [2], '
        '"value": [0.5], "n_features": 1}}',
    ])
    def test_malformed_documents_are_parse_errors(self, text, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises(ParseError):
            trees.load_model(p)


def _saved_doc(kind, tmp_path):
    X, y = blob_data(n=60, seed=3)
    p = tmp_path / "m.json"
    trees.save_model(GOLDEN_TRAIN[kind](X, y), p)
    return p, json.loads(p.read_text())


class TestTreeDocuments:
    """A loaded tree is one binary tree rooted at node 0: feature indices
    in range, children i < left < right < n_nodes below internal nodes, -1
    at leaves, every node but node 0 the child of exactly one internal node,
    and finite numbers; anything else is a ParseError before any
    traversal."""

    @pytest.mark.parametrize("key, node, value", [
        ("feature", 0, 99),
        ("feature", 0, 3),  # n_features is 3
        ("feature", 0, -2),
        ("left", 0, 0),  # node 0 its own child: traversal would never end
        ("right", 0, 0),
        ("left", 0, -1),
        ("right", 0, 1),  # right == left
        ("left", 0, 10**6),
        ("left", -1, 1),  # a leaf with a child
        ("right", -1, 0),
        ("threshold", 0, None),  # null loads as NaN
        ("threshold", 0, float("inf")),
        ("value", -1, None),
        ("value", -1, float("nan")),
        ("threshold", 0, "1.5"),  # numbers are JSON numbers, never text
        ("threshold", 0, True),
        ("value", -1, "0.5"),
        ("value", -1, False),
        ("feature", 0, 0.5),  # indices are integers, never truncated
        ("feature", 0, 0.0),
        ("left", 0, 1.0),
        ("right", 0, 2.5),
        ("feature", 0, True),
        ("left", 0, True),
        ("right", -1, False),
    ])
    def test_forged_cart_is_a_parse_error(self, key, node, value, tmp_path):
        p, doc = _saved_doc("cart", tmp_path)
        doc["tree"][key][node] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="tree"):
            trees.load_model(p)

    def test_back_edge_deeper_in_the_tree(self, tmp_path):
        p, doc = _saved_doc("cart", tmp_path)
        tree = doc["tree"]
        inner = [i for i, f in enumerate(tree["feature"]) if f >= 0]
        assert len(inner) > 1
        tree["right"][inner[-1]] = inner[0]
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="children"):
            trees.load_model(p)

    # nodes 1 and 2 share the children 3 and 4
    SHARED = {"feature": [0, 1, 2, -1, -1], "left": [1, 3, 3, -1, -1],
              "right": [2, 4, 4, -1, -1]}
    # node 3 is nobody's child
    ORPHAN = {"feature": [0, 1, -1, -1, -1, -1], "left": [1, 4, -1, -1, -1, -1],
              "right": [2, 5, -1, -1, -1, -1]}

    @pytest.mark.parametrize("arrays", [SHARED, ORPHAN], ids=["shared", "orphan"])
    def test_node_not_child_of_exactly_one_parent(self, arrays, tmp_path):
        p, doc = _saved_doc("cart", tmp_path)
        n = len(arrays["feature"])
        doc["tree"] = dict(arrays, threshold=[0.5] * n, value=[0.25] * n,
                           n_features=doc["tree"]["n_features"])
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="exactly one"):
            trees.load_model(p)

    def test_breadth_first_numbering_loads(self, tmp_path):
        p, doc = _saved_doc("cart", tmp_path)
        doc["tree"] = {
            "feature": [1, 0, 2, -1, -1, -1, -1],
            "threshold": [0.4, 0.6, 0.2, 0.0, 0.0, 0.0, 0.0],
            "left": [1, 3, 5, -1, -1, -1, -1],
            "right": [2, 4, 6, -1, -1, -1, -1],
            "value": [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
            "n_features": 3,
        }
        p.write_text(json.dumps(doc))
        m = trees.load_model(p)
        X = np.array([[0.5, 0.3, 0.0], [0.7, 0.3, 0.0], [0.5, 0.5, 0.1],
                      [0.5, 0.5, 0.3]])
        assert trees.predict_classes(m, X).tolist() == [0, 1, 1, 0]

    def test_saved_trees_of_every_kind_load(self, tmp_path):
        for kind in GOLDEN_TRAIN:
            p, _ = _saved_doc(kind, tmp_path)
            trees.load_model(p)

    @pytest.mark.parametrize("kind, key, count", [
        ("rf", "trees", "n_trees"), ("gbc", "stages", "n_stages")])
    def test_ensemble_size_matches_params(self, kind, key, count, tmp_path):
        """An ensemble holds the number of trees its params name: one
        dropped tree, or one more in the params, is a ParseError."""
        p, doc = _saved_doc(kind, tmp_path)
        n = doc["params"][count]
        doc[key].pop()
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError,
                           match="%d %s under %s %d" % (n - 1, key, count, n)):
            trees.load_model(p)
        doc["params"][count] = n + 1
        doc[key].append(doc[key][0])
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError,
                           match="%d %s under %s %d" % (n, key, count, n + 1)):
            trees.load_model(p)

    def test_ensemble_trees_share_feature_count(self, tmp_path):
        p, doc = _saved_doc("rf", tmp_path)
        doc["trees"][1]["n_features"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="n_features"):
            trees.load_model(p)

    @pytest.mark.parametrize("value", [None, float("nan"), float("-inf"), True, "0.5"])
    def test_non_finite_initial_log_odds(self, value, tmp_path):
        p, doc = _saved_doc("gbc", tmp_path)
        doc["initial_log_odds"] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            trees.load_model(p)

    # (kind, path to the setting, value); a learning rate keeps the id value
    BAD_SETTINGS = [
        ("gbc", ("params", "learning_rate"), float("nan")),
        ("gbc", ("params", "learning_rate"), float("inf")),
        *[("rf", ("seed",), v) for v in (2.5, True, -4, "7")],
        ("cart", ("tree", "n_features"), 3.7),
        ("rf", ("trees", 0, "n_features"), True),
    ]

    @pytest.mark.parametrize(
        "kind, path, value", BAD_SETTINGS,
        ids=["%s" % v if p[-1] == "learning_rate" else "%s-%s=%r" % (k, p[-1], v)
             for k, p, v in BAD_SETTINGS])
    def test_non_finite_learning_rate(self, kind, path, value, tmp_path):
        """A setting of a model document that is not a finite rate, or a
        forest seed or feature count that is not a whole number in range,
        is a ParameterError naming it: nothing is truncated."""
        p, doc = _saved_doc(kind, tmp_path)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match=path[-1]):
            trees.load_model(p)


class TestPredictionApi:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, bad):
        X, y = blob_data(n=50)
        m = trees.train_cart(X, y)
        with pytest.raises(InputContractError):
            trees.predict_classes(m, np.full((2, 3), bad))
        with pytest.raises(InputContractError):
            trees.predict_class(m, [0.5, bad, 0.5])

    def test_feature_count_checked(self):
        X, y = blob_data(n=50)
        m = trees.train_cart(X, y)
        with pytest.raises(ShapeError, match="features"):
            trees.predict_classes(m, np.zeros((5, 7)))

    def test_single_row_convenience(self):
        X, y = blob_data(n=50, seed=12)
        m = trees.train_cart(X, y)
        assert trees.predict_class(m, X[0]) == trees.predict_classes(m, X[:1])[0]

    @pytest.mark.parametrize("rows", [slice(0, 2), slice(0, 1), slice(0, 0)])
    def test_single_row_convenience_takes_one_row(self, rows):
        """A matrix is not one row, whatever its row count."""
        X, y = blob_data(n=50, seed=12)
        m = trees.train_cart(X, y)
        with pytest.raises(ShapeError):
            trees.predict_class(m, X[rows])
        with pytest.raises(ShapeError):
            trees.predict_class(m, X[0, :2])


def _scorers():
    """decision_scores of a boosted model and apply of its first stage,
    both on 3 features."""
    X, y = blob_data(n=80, seed=4)
    m = trees.train_gbc(X, y, trees.GbcParams(n_stages=4))
    return X, {"decision_scores": m.decision_scores, "apply": m.stages[0].apply}


class TestScoringInput:
    """GbcModel.decision_scores and TreeModel.apply check their rows as
    predict_classes does."""

    @pytest.mark.parametrize("name", ["decision_scores", "apply"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, name, bad):
        X, score = _scorers()
        X[3, 1] = bad
        with pytest.raises(InputContractError):
            score[name](X)

    @pytest.mark.parametrize("name", ["decision_scores", "apply"])
    def test_feature_count_checked(self, name):
        _, score = _scorers()
        with pytest.raises(ShapeError, match="features"):
            score[name](np.zeros((5, 7)))

    @pytest.mark.parametrize("name", ["decision_scores", "apply"])
    def test_one_row_is_a_matrix_of_one(self, name):
        X, score = _scorers()
        assert score[name](X[5]).tobytes() == score[name](X[5:6]).tobytes()
        with pytest.raises(ShapeError):
            score[name](X[None])

    @pytest.mark.parametrize("n_stages", [-1, 5, 99, 1.5])
    def test_stage_count_outside_model_rejected(self, n_stages):
        X, score = _scorers()
        with pytest.raises(ParameterError, match="n_stages"):
            score["decision_scores"](X, n_stages=n_stages)

    def test_every_stage_count_in_range_scores(self):
        X, score = _scorers()
        assert score["decision_scores"](X, n_stages=4).tobytes() == (
            score["decision_scores"](X).tobytes()
        )


def test_forest_prediction_memory_is_chunked():
    """Predicting 100k rows holds no (trees x rows) array: one such float64
    array would take 16 MB."""
    rng = np.random.default_rng(8)
    Xt = rng.random((2000, 10))
    yt = (Xt[:, 0] + 0.3 * rng.standard_normal(2000) > 0.5).astype(np.int64)
    forest = trees.train_forest(Xt, yt, trees.ForestParams(n_trees=20), seed=3)
    X = rng.random((100_000, 10))
    tracemalloc.start()
    try:
        trees.predict_classes(forest, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def golden_data():
    rng = np.random.default_rng(20240501)
    X = rng.random((400, 6))
    noise = 0.3 * rng.standard_normal(400)
    y = (X[:, 0] + 0.5 * X[:, 1] + noise > 0.8).astype(np.int64)
    return X, y


GOLDEN_TRAIN = {
    "cart": lambda X, y: trees.train_cart(X, y),
    # a coarse grid gives many tied values inside every bootstrap sample
    "rf": lambda X, y: trees.train_forest(
        np.round(X * 8) / 8, y, trees.ForestParams(n_trees=8, max_depth=8), seed=5
    ),
    # tied values make the SSE sums depend on the tie order in every node
    "gbc": lambda X, y: trees.train_gbc(
        np.round(X, 1), y, trees.GbcParams(n_stages=20)
    ),
}

# SHA-256 of the saved model JSON, as grown by per-node sorting
GOLDEN_SHA256 = {
    "cart": "1a45d174b02c2fdc3bcf24d1c9f9ee36a748ab0085ce45fe6de897d9c46cb72d",
    "rf": "39ac8afdb3edaa69773b285c91d7babdf34ad5ad70cd6125e66c9af48fc9a557",
    "gbc": "b57a46ba7f82deff9884918b1a4e68026df35818057b38c39cffdefac7dc0bb5",
}


class TestGoldenModels:
    """Presorted growth must reproduce per-node sorting byte for byte."""

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
    def test_saved_model_digest(self, kind, tmp_path):
        p = tmp_path / "m.json"
        trees.save_model(GOLDEN_TRAIN[kind](*golden_data()), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == GOLDEN_SHA256[kind]
