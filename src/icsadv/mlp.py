"""Small fully-connected ReLU network trained with minibatch SGD.

This is the gradient oracle for adversarial generation, so exactness and
replayability come first. Training speed matters too: the oracle is the
longest serial stage of a pipeline run, so ``train`` updates its arrays in
place, with the same floating-point operations in the same order as the
plain loop (``tests/test_mlp.py`` keeps that loop as its reference):

* Glorot-uniform init, zero biases, seeded (identical seed, identical net);
* hidden ReLU with subgradient 0 at the kink, linear output layer;
* softmax with max subtraction, cross-entropy loss;
* ``jacobian`` returns the reverse-mode Jacobian of the *logits* (not the
  softmax output) with respect to the input vector; ``logits_and_jacobians``
  does the same for a batch of rows in one walk, with every row's ReLU mask
  stacked into the reverse pass, and ``jacobian`` is its one-row case;
* ``predict`` breaks logit ties toward the lowest class index, i.e. class 0;
* every entry point takes its rows and labels through the array rule of
  :mod:`icsadv.errors`, so NaN or infinite input raises
  ``InputContractError`` instead of returning a class or a gradient for it.

Weights serialize to JSON with full repr precision, so save/load round
trips are exact.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import (
    ParameterError,
    ShapeError,
    finite_array,
    finite_floats,
    integer,
    parses,
    read_json,
    real,
    training_set,
)


class MlpModel:
    """Weights/biases plus layer sizes; weights[k] has shape (out, in)."""

    def __init__(self, layer_sizes, weights, biases):
        self.layer_sizes = [integer(s, "layer size", 1) for s in layer_sizes]
        self.weights = [np.asarray(W, dtype=np.float64) for W in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(self.layer_sizes) < 2:
            raise ParameterError("need at least an input and an output layer")
        if len(self.weights) != len(self.layer_sizes) - 1 or len(self.biases) != len(
            self.weights
        ):
            raise ParameterError("weight/bias count does not match layer sizes")
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_sizes[k + 1], self.layer_sizes[k])
            if W.shape != want:
                raise ShapeError(
                    "weight %d has shape %r, expected %r" % (k, W.shape, want)
                )
            if b.shape != (want[0],):
                raise ShapeError(
                    "bias %d has shape %r, expected (%d,)" % (k, b.shape, want[0])
                )

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpModel":
        return MlpModel(
            list(self.layer_sizes),
            [W.copy() for W in self.weights],
            [b.copy() for b in self.biases],
        )


def init(layer_sizes, seed: int) -> MlpModel:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases;
    ``MlpModel`` checks that there are at least two layers."""
    sizes = [integer(s, "layer size", 1) for s in layer_sizes]
    rng = np.random.default_rng(integer(seed, "seed", 0))
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, weights, biases)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _walk(model: MlpModel, X: np.ndarray):
    """Forward pass over one input vector or a batch of rows: (input of each
    layer, logits). A hidden layer's output is > 0 exactly where its
    pre-activation is, so it also gives the layer's ReLU mask."""
    acts = [X]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        Z = acts[-1] @ W.T
        Z += b
        acts.append(np.maximum(Z, 0.0, out=Z))
    logits = acts[-1] @ model.weights[-1].T
    logits += model.biases[-1]
    return acts, logits


def forward(model: MlpModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Return (logits, softmax probabilities) for one input vector."""
    logits = _walk(model, finite_array(x, 1, model.n_inputs))[1]
    return logits, _softmax(logits)


def predict(model: MlpModel, x) -> int:
    """Class with the largest logit; ties go to the lowest index."""
    return int(np.argmax(_walk(model, finite_array(x, 1, model.n_inputs))[1]))


def _logits_and_jacobians(model: MlpModel, X: np.ndarray):
    """Unchecked batch walk: logits (n, c) and d logits / d x per row
    (n, c, d), reverse mode through each row's ReLU mask.

    The rows are walked as a stack of (1, d) vectors, so each layer is one
    vector-matrix product per row, the same product (and the same bits) as
    walking that row alone; a (n, d) matrix product sums in another order.
    """
    acts, logits = _walk(model, X[:, None, :])
    J = model.weights[-1]
    for W, a in zip(reversed(model.weights[:-1]), reversed(acts[1:])):
        J = (J * (a > 0.0)) @ W
    return logits[:, 0], np.broadcast_to(J, (X.shape[0],) + J.shape[-2:])


def logits_and_jacobians(model: MlpModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Logits (n, n_classes) and every row's logit Jacobian
    (n, n_classes, n_inputs) for a matrix of rows, from one forward pass."""
    return _logits_and_jacobians(model, finite_array(X, 2, model.n_inputs))


def jacobian(model: MlpModel, x) -> np.ndarray:
    """d logits / d x, shape (n_classes, n_inputs), reverse mode."""
    return _logits_and_jacobians(model, finite_array(x, 1, model.n_inputs)[None])[1][0]


def check_training_params(learning_rate, epochs, batch_size, l2_penalty) -> None:
    """The ranges ``train`` accepts for its hyperparameters."""
    if real(learning_rate, "learning_rate") < 0 or real(l2_penalty, "l2_penalty") < 0:
        raise ParameterError("learning_rate and l2_penalty must be >= 0")
    integer(epochs, "epochs", 1)
    integer(batch_size, "batch_size", 1)


def train(
    model: MlpModel,
    X,
    y,
    learning_rate: float = 0.05,
    epochs: int = 60,
    batch_size: int = 64,
    l2_penalty: float = 0.0,
    seed: int = 0,
) -> tuple[MlpModel, list[float]]:
    """Minibatch SGD on softmax cross-entropy.

    Returns a trained copy (the input model is untouched) and the per-epoch
    mean cross-entropy, measured on each batch before its update; with
    learning_rate 0 the history is therefore constant.
    """
    X, y = training_set(X, y, model.n_inputs, model.n_classes)
    check_training_params(learning_rate, epochs, batch_size, l2_penalty)

    m = model.copy()
    n = X.shape[0]
    rng = np.random.default_rng(integer(seed, "seed", 0))
    history = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        X_epoch, y_epoch = X[perm], y[perm]
        # each row's true-class probability, stored by original row so the
        # epoch's loss sums in a fixed order; batch order then cannot
        # perturb the value
        p_true = np.empty(n)
        for lo in range(0, n, batch_size):
            hi = lo + batch_size
            yb = y_epoch[lo:hi]
            nb = yb.shape[0]
            true_class = (np.arange(nb), yb)

            acts, delta = _walk(m, X_epoch[lo:hi])
            # softmax of the logits, then the output delta, in place
            delta -= delta.max(axis=1, keepdims=True)
            np.exp(delta, out=delta)
            delta /= delta.sum(axis=1, keepdims=True)
            p_true[perm[lo:hi]] = delta[true_class]
            delta[true_class] -= 1.0
            delta /= nb
            for k in range(len(m.weights) - 1, -1, -1):
                W = m.weights[k]
                # the l2 term stays at penalty 0: 0 * inf is NaN
                grad_W = delta.T @ acts[k]
                grad_W += l2_penalty * W
                grad_b = delta.sum(axis=0)
                if k > 0:
                    delta = delta @ W
                    delta *= acts[k] > 0.0
                W -= learning_rate * grad_W
                m.biases[k] -= learning_rate * grad_b
        losses = -np.log(np.maximum(p_true, 1e-300))
        history.append(float(losses.sum()) / n)
    return m, history


def save_model(model: MlpModel, path) -> None:
    doc = {
        "format": "mlp",
        "version": 1,
        "layer_sizes": model.layer_sizes,
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


@parses("mlp model", "mlp")
def _model_from_json(doc: dict) -> MlpModel:
    return MlpModel(
        doc["layer_sizes"],
        [finite_floats(W, "weight %d" % k) for k, W in enumerate(doc["weights"])],
        [finite_floats(b, "bias %d" % k) for k, b in enumerate(doc["biases"])],
    )


def load_model(path) -> MlpModel:
    return read_json(path, _model_from_json)
