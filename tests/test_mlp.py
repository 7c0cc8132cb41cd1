"""Network oracle: init, forward pass, gradients, training, serialization."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsadv import mlp
from icsadv.errors import (
    EmptyInputError,
    InputContractError,
    ParameterError,
    ParseError,
    ShapeError,
)

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def blob_data(n=400, seed=0):
    """Two well-separated Gaussian blobs in 2-D."""
    rng = np.random.default_rng(seed)
    X0 = rng.normal([0.2, 0.2], 0.08, (n // 2, 2))
    X1 = rng.normal([0.8, 0.8], 0.08, (n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2), dtype=np.int64)
    return X, y


def fd_jacobian(model, x, step=1e-5):
    """Central finite differences on the logits."""
    d = x.shape[0]
    C = model.n_classes
    J = np.empty((C, d))
    for i in range(d):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        J[:, i] = (mlp.forward(model, hi)[0] - mlp.forward(model, lo)[0]) / (2 * step)
    return J


def min_preact_gap(model, x) -> float:
    """Distance of the closest hidden pre-activation to the ReLU kink."""
    a = np.asarray(x, dtype=np.float64)
    gap = np.inf
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = W @ a + b
        gap = min(gap, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return gap


class TestInit:
    def test_shapes_and_zero_biases(self):
        m = mlp.init([4, 8, 3], seed=0)
        assert [W.shape for W in m.weights] == [(8, 4), (3, 8)]
        assert all((b == 0.0).all() for b in m.biases)
        assert m.n_inputs == 4 and m.n_classes == 3

    def test_glorot_bounds(self):
        m = mlp.init([10, 20, 2], seed=1)
        for W, (fi, fo) in zip(m.weights, [(10, 20), (20, 2)]):
            bound = np.sqrt(6.0 / (fi + fo))
            assert np.abs(W).max() <= bound
            # uniform draws should get close to the bound
            assert np.abs(W).max() > 0.5 * bound

    def test_seeded_determinism(self):
        a = mlp.init([3, 5, 2], seed=7)
        b = mlp.init([3, 5, 2], seed=7)
        c = mlp.init([3, 5, 2], seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))

    def test_too_few_layers_rejected(self):
        with pytest.raises(ParameterError):
            mlp.init([4], seed=0)


class TestForward:
    def _linear_model(self, W):
        W = np.asarray(W, dtype=np.float64)
        return mlp.MlpModel([W.shape[1], W.shape[0]], [W], [np.zeros(W.shape[0])])

    def test_linear_logits_by_hand(self):
        m = self._linear_model([[1.0, -2.0], [-1.0, 2.0]])
        logits, probs = mlp.forward(m, [0.5, 0.25])
        assert np.allclose(logits, [0.0, 0.0])
        assert np.allclose(probs, [0.5, 0.5])

    def test_hidden_relu_path(self):
        # one hidden unit: h = max(2x - 1, 0), logits = (h, -h)
        m = mlp.MlpModel(
            [1, 1, 2],
            [np.array([[2.0]]), np.array([[1.0], [-1.0]])],
            [np.array([-1.0]), np.zeros(2)],
        )
        assert mlp.forward(m, [1.0])[0].tolist() == [1.0, -1.0]
        assert mlp.forward(m, [0.25])[0].tolist() == [0.0, 0.0]  # clipped

    def test_softmax_sums_to_one_and_survives_big_logits(self):
        m = self._linear_model([[1e4], [-1e4]])
        _, probs = mlp.forward(m, [1.0])
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0)

    def test_predict_tie_goes_to_class_zero(self):
        m = self._linear_model([[0.0, 0.0], [0.0, 0.0]])
        assert mlp.predict(m, [0.3, 0.7]) == 0

    def test_wrong_input_shape(self):
        m = mlp.init([3, 2], seed=0)
        with pytest.raises(ShapeError):
            mlp.forward(m, [1.0, 2.0])


class TestJacobian:
    def test_linear_model_jacobian_is_weight_matrix(self):
        W = np.array([[1.0, -2.0], [3.0, 0.5]])
        m = mlp.MlpModel([2, 2], [W], [np.zeros(2)])
        assert np.array_equal(mlp.jacobian(m, [0.1, 0.9]), W)

    def test_relu_kills_gradient_at_exact_zero(self):
        # pre-activation is exactly 0 at x=0.5: subgradient is defined as 0
        m = mlp.MlpModel(
            [1, 1, 2],
            [np.array([[2.0]]), np.array([[1.0], [-1.0]])],
            [np.array([-1.0]), np.zeros(2)],
        )
        assert np.array_equal(mlp.jacobian(m, [0.5]), np.zeros((2, 1)))
        # just above the kink the unit is live
        assert np.allclose(mlp.jacobian(m, [0.51]), [[2.0], [-2.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        m = mlp.init([4, 16, 16, 2], seed=3)
        checked = 0
        while checked < 10:
            x = rng.random(4)
            if min_preact_gap(m, x) < 1e-3:
                continue  # too close to a kink for central differences
            J = mlp.jacobian(m, x)
            Jfd = fd_jacobian(m, x)
            assert np.abs(J - Jfd).max() <= np.maximum(1e-4 * np.abs(J), 1e-6).max()
            checked += 1


class TestBatchWalk:
    """logits_and_jacobians gives every row the bits of its one-row walk."""

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4),
           n=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_rows_match_single_row_entry_points(self, sizes, n, seed):
        rng = np.random.default_rng(seed)
        m = mlp.init(sizes, seed=seed)
        m.biases = [rng.normal(size=b.shape) for b in m.biases]
        X = rng.random((n, sizes[0]))
        logits, J = mlp.logits_and_jacobians(m, X)
        assert logits.shape == (n, sizes[-1])
        assert J.shape == (n, sizes[-1], sizes[0])
        for i, x in enumerate(X):
            assert logits[i].tobytes() == mlp.forward(m, x)[0].tobytes()
            assert J[i].tobytes() == mlp.jacobian(m, x).tobytes()
            assert int(np.argmax(logits[i])) == mlp.predict(m, x)

    def test_rejects_bad_matrices(self):
        m = mlp.init([3, 4, 2], seed=0)
        with pytest.raises(ShapeError):
            mlp.logits_and_jacobians(m, np.zeros(3))
        with pytest.raises(ShapeError):
            mlp.logits_and_jacobians(m, np.zeros((2, 4)))

    @settings(max_examples=40, deadline=None)
    @given(row=st.integers(0, 4), col=st.integers(0, 2), bad=NON_FINITE)
    def test_rejects_non_finite(self, row, col, bad):
        X = np.random.default_rng(0).random((5, 3))
        X[row, col] = bad
        with pytest.raises(InputContractError, match="NaN or infinite"):
            mlp.logits_and_jacobians(mlp.init([3, 4, 2], seed=0), X)


class TestTrain:
    def test_learns_separable_blobs(self):
        X, y = blob_data()
        m0 = mlp.init([2, 16, 2], seed=0)
        m, history = mlp.train(m0, X, y, learning_rate=0.5, epochs=25, seed=0)
        preds = np.array([mlp.predict(m, x) for x in X])
        assert (preds == y).mean() > 0.95
        assert history[-1] < history[0]

    def test_zero_learning_rate_keeps_loss_constant(self):
        X, y = blob_data(n=100)
        m0 = mlp.init([2, 8, 2], seed=1)
        _, history = mlp.train(m0, X, y, learning_rate=0.0, epochs=5, seed=2)
        assert len(set(history)) == 1

    def test_input_model_is_not_mutated(self):
        X, y = blob_data(n=100)
        m0 = mlp.init([2, 8, 2], seed=1)
        before = [W.copy() for W in m0.weights]
        mlp.train(m0, X, y, epochs=2, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(m0.weights, before))

    def test_training_is_deterministic(self):
        X, y = blob_data(n=100)
        m0 = mlp.init([2, 8, 2], seed=1)
        a, ha = mlp.train(m0, X, y, epochs=3, seed=5)
        b, hb = mlp.train(m0, X, y, epochs=3, seed=5)
        assert ha == hb
        assert all(np.array_equal(x, y_) for x, y_ in zip(a.weights, b.weights))

    def test_l2_penalty_shrinks_weights(self):
        X, y = blob_data(n=200)
        m0 = mlp.init([2, 16, 2], seed=0)
        free, _ = mlp.train(m0, X, y, epochs=20, seed=0)
        reg, _ = mlp.train(m0, X, y, epochs=20, l2_penalty=0.05, seed=0)
        norm = lambda m: sum(float((W**2).sum()) for W in m.weights)
        assert norm(reg) < norm(free)

    def test_bad_inputs(self):
        m = mlp.init([2, 2], seed=0)
        X, y = blob_data(n=20)
        with pytest.raises(EmptyInputError):
            mlp.train(m, np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ShapeError):
            mlp.train(m, X[:, :1], y)
        with pytest.raises(ShapeError):
            mlp.train(m, X, y[:-1])
        with pytest.raises(ParameterError):
            mlp.train(m, X, y + 5)
        with pytest.raises(ParameterError):
            mlp.train(m, X, y, learning_rate=-1.0)
        with pytest.raises(ParameterError):
            mlp.train(m, X, y, epochs=0)


def reference_train(model, X, y, learning_rate, epochs, batch_size, l2_penalty,
                    seed):
    """The SGD loop written plainly, one new array per step: the reference
    that ``mlp.train`` must match bit for bit."""
    weights = [W.copy() for W in model.weights]
    biases = [b.copy() for b in model.biases]
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        losses = np.empty(n)
        for lo in range(0, n, batch_size):
            idx = perm[lo : lo + batch_size]
            xb = X[idx]
            yb = y[idx]
            nb = xb.shape[0]

            acts = [xb]
            pre_acts = []
            for W, b in zip(weights[:-1], biases[:-1]):
                Z = acts[-1] @ W.T + b
                pre_acts.append(Z)
                acts.append(np.maximum(Z, 0.0))
            logits = acts[-1] @ weights[-1].T + biases[-1]
            z = logits - logits.max(axis=-1, keepdims=True)
            e = np.exp(z)
            probs = e / e.sum(axis=-1, keepdims=True)
            p_true = probs[np.arange(nb), yb]
            losses[idx] = -np.log(np.maximum(p_true, 1e-300))

            delta = probs.copy()
            delta[np.arange(nb), yb] -= 1.0
            delta /= nb
            for k in range(len(weights) - 1, -1, -1):
                grad_W = delta.T @ acts[k] + l2_penalty * weights[k]
                grad_b = delta.sum(axis=0)
                if k > 0:
                    delta = (delta @ weights[k]) * (pre_acts[k - 1] > 0.0)
                weights[k] = weights[k] - learning_rate * grad_W
                biases[k] = biases[k] - learning_rate * grad_b
        history.append(float(losses.sum()) / n)
    return weights, biases, history


class TestTrainMatchesReference:
    """``mlp.train`` reuses its arrays; it must still compute every value
    the plain loop computes, bit for bit."""

    @pytest.mark.parametrize("sizes, n, kwargs", [
        ([2, 16, 2], 203, dict(batch_size=64)),  # short last batch
        ([2, 8, 2], 50, dict(batch_size=64)),  # one batch, smaller than its size
        ([2, 16, 2], 200, dict(batch_size=32, l2_penalty=0.01)),
        ([2, 12, 8, 6, 2], 150, dict(batch_size=16)),  # three hidden layers
        ([2, 8, 2], 100, dict(batch_size=32, learning_rate=0.0)),
    ], ids=["short-last-batch", "batch-over-n", "l2", "three-hidden", "lr-0"])
    def test_bit_identical(self, sizes, n, kwargs):
        X, y = blob_data(n=n + n % 2, seed=3)
        X, y = X[:n], y[:n]
        m0 = mlp.init(sizes, seed=4)
        args = dict(learning_rate=0.3, epochs=6, l2_penalty=0.0, seed=5)
        args.update(kwargs)
        m, history = mlp.train(m0, X, y, **args)
        weights, biases, want = reference_train(m0, X, y, **args)
        assert all(np.array_equal(a, b) for a, b in zip(m.weights, weights))
        assert all(np.array_equal(a, b) for a, b in zip(m.biases, biases))
        assert history == want


class TestNonFiniteInput:
    """A NaN or infinite feature anywhere is rejected, never scored."""

    @pytest.mark.parametrize("entry", [mlp.predict, mlp.jacobian, mlp.forward])
    @settings(max_examples=40, deadline=None)
    @given(x=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           pos=st.integers(0, 2), bad=NON_FINITE)
    def test_single_row_entry_points(self, entry, x, pos, bad):
        x[pos] = bad
        with pytest.raises(InputContractError, match="NaN or infinite"):
            entry(mlp.init([3, 4, 2], seed=0), x)

    @settings(max_examples=40, deadline=None)
    @given(row=st.integers(0, 19), col=st.integers(0, 2), bad=NON_FINITE)
    def test_train(self, row, col, bad):
        X = np.random.default_rng(0).random((20, 3))
        X[row, col] = bad
        y = np.arange(20) % 2
        with pytest.raises(InputContractError, match="NaN or infinite"):
            mlp.train(mlp.init([3, 4, 2], seed=0), X, y, epochs=1)


class TestNumericalInvariants:
    def test_softmax_shift_invariance(self):
        # adding a constant to every logit (here via output biases) must not
        # move the probabilities
        rng = np.random.default_rng(0)
        m = mlp.init([3, 8, 4], seed=2)
        shifted = m.copy()
        shifted.biases[-1] = shifted.biases[-1] + 123.456
        for _ in range(20):
            x = rng.random(3)
            _, p0 = mlp.forward(m, x)
            _, p1 = mlp.forward(shifted, x)
            assert np.abs(p0 - p1).max() < 1e-12

    def test_train_stays_finite_on_unit_box_data(self):
        rng = np.random.default_rng(3)
        X = rng.random((300, 5))
        y = (X[:, 0] > 0.5).astype(np.int64)
        m, history = mlp.train(
            mlp.init([5, 32, 2], seed=0), X, y, learning_rate=0.5, epochs=15, seed=0
        )
        assert all(np.isfinite(W).all() for W in m.weights)
        assert all(np.isfinite(b).all() for b in m.biases)
        assert np.isfinite(history).all()

    def test_predict_invariant_under_monotone_logit_rescaling(self):
        rng = np.random.default_rng(4)
        m = mlp.init([3, 8, 2], seed=5)
        scaled = m.copy()
        scaled.weights[-1] = scaled.weights[-1] * 3.0  # positive scale
        for _ in range(20):
            x = rng.random(3)
            assert mlp.predict(m, x) == mlp.predict(scaled, x)


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        X, y = blob_data(n=100)
        m, _ = mlp.train(mlp.init([2, 8, 2], seed=0), X, y, epochs=3, seed=0)
        p = tmp_path / "m.json"
        mlp.save_model(m, p)
        again = mlp.load_model(p)
        assert again.layer_sizes == m.layer_sizes
        assert all(np.array_equal(a, b) for a, b in zip(again.weights, m.weights))
        assert all(np.array_equal(a, b) for a, b in zip(again.biases, m.biases))

    def test_wrong_format_tag_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ParseError, match="mlp"):
            mlp.load_model(p)

    @pytest.mark.parametrize("key", ["layer_sizes", "weights", "biases"])
    def test_missing_key_is_a_parse_error(self, key, tmp_path):
        p = tmp_path / "m.json"
        mlp.save_model(mlp.init([2, 3, 2], seed=0), p)
        doc = json.loads(p.read_text())
        del doc[key]
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=key):
            mlp.load_model(p)

    @pytest.mark.parametrize("key, where", [
        ("weights", (0, 0, 1)), ("weights", (1, 1, 0)), ("biases", (0, 2)),
    ])
    @pytest.mark.parametrize("bad", [None, float("nan"), float("inf")])
    def test_non_finite_numbers_are_parse_errors(self, key, where, bad, tmp_path):
        # null loads as NaN, and a NaN weight would make predict fail open
        # to class 0
        p = tmp_path / "m.json"
        mlp.save_model(mlp.init([2, 3, 2], seed=0), p)
        doc = json.loads(p.read_text())
        node = doc[key]
        for i in where[:-1]:
            node = node[i]
        node[where[-1]] = bad
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="weight|bias"):
            mlp.load_model(p)

    @pytest.mark.parametrize("text", ["[]", "{broken",
                                      '{"format": "mlp", "layer_sizes": 3}'])
    def test_malformed_documents_are_parse_errors(self, text, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises(ParseError):
            mlp.load_model(p)
