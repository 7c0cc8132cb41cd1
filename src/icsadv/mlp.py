"""Small fully-connected ReLU network trained with minibatch SGD.

This is the gradient oracle for adversarial generation, so exactness and
replayability come first. Training speed matters too: the oracle is the
longest serial stage of a pipeline run, so ``train`` keeps every weight
matrix, then every bias vector, in one flat float64 buffer with a view per
layer, and the gradients in a twin buffer. Each batch's forward pass, ReLU
masks and deltas go into buffers kept per batch size, its softmax into an
epoch-sized probability buffer (one gather per epoch picks each row's
true-class probability), and the backward pass writes every layer's
gradient into its view. Once the pass is done, one l2 step over the weight
part and one ``grads *= learning_rate; params -= grads`` update every layer,
so each ``delta @ W`` reads W before its update. Every element sees the
same floating-point operations in the same order as the plain loop that
``tests/test_mlp.py`` keeps as its reference:

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
    NON_NEGATIVE,
    ParameterError,
    ShapeError,
    finite_array,
    finite_floats,
    integer,
    listed,
    parses,
    read_json,
    real,
    training_set,
)


class MlpModel:
    """Weights/biases plus layer sizes; weights[k] has shape (out, in)."""

    def __init__(self, layer_sizes, weights, biases):
        self.layer_sizes = [integer(s, "layer size", 1)
                            for s in listed(layer_sizes, "layer_sizes")]
        self.weights = [finite_array(W, 2, what="weights of layer %d" % k)
                        for k, W in enumerate(listed(weights, "weights"))]
        self.biases = [finite_array(b, 1, what="biases of layer %d" % k)
                       for k, b in enumerate(listed(biases, "biases"))]
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
    sizes = [integer(s, "layer size", 1) for s in listed(layer_sizes, "layer_sizes")]
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
    real(learning_rate, "learning_rate", NON_NEGATIVE)
    real(l2_penalty, "l2_penalty", NON_NEGATIVE)
    integer(epochs, "epochs", 1)
    integer(batch_size, "batch_size", 1)


def _layer_views(flat: np.ndarray, sizes) -> tuple[list, list]:
    """Per-layer (weights, biases) views into ``flat``, which holds every
    layer's weight matrix, row-major, then every layer's bias vector."""
    weights, biases = [], []
    w = 0
    b = sum(fan_in * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[w:w + fan_out * fan_in].reshape(fan_out, fan_in))
        biases.append(flat[b:b + fan_out])
        w += fan_out * fan_in
        b += fan_out
    return weights, biases


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

    sizes = model.layer_sizes
    n_layers = len(sizes) - 1
    params = np.concatenate([W.ravel() for W in model.weights] + model.biases)
    grads = np.empty_like(params)
    weights, biases = _layer_views(params, sizes)
    grad_W, grad_b = _layer_views(grads, sizes)
    # the weight matrices are the front of each buffer
    n_weights = sum(W.size for W in weights)
    param_weights, grad_weights = params[:n_weights], grads[:n_weights]
    l2_term = np.empty(n_weights)
    n, n_classes = X.shape[0], model.n_classes
    rng = np.random.default_rng(integer(seed, "seed", 0))
    one_hot = np.eye(n_classes)[y]
    # every row's softmax of the epoch, in epoch order
    probs = np.empty((n, n_classes))
    every_row = np.arange(n)
    p_true = np.empty(n)
    # per batch size: each hidden layer's output and ReLU mask, the delta
    # of each layer, and a column for the softmax's row max and row sum
    buffers = {}
    history = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        X_epoch, y_epoch = X.take(perm, axis=0), y.take(perm)
        hot_epoch = one_hot.take(perm, axis=0)
        for lo in range(0, n, batch_size):
            hi = lo + batch_size
            xb = X_epoch[lo:hi]
            nb = xb.shape[0]
            if nb not in buffers:
                buffers[nb] = ([np.empty((nb, s)) for s in sizes[1:-1]],
                               [np.empty((nb, s), dtype=bool) for s in sizes[1:-1]],
                               [np.empty((nb, s)) for s in sizes[1:]],
                               np.empty((nb, 1)))
            hidden, masks, deltas, row = buffers[nb]
            acts = [xb] + hidden
            for k in range(n_layers - 1):
                Z = hidden[k]
                np.matmul(acts[k], weights[k].T, out=Z)
                Z += biases[k]
                np.maximum(Z, 0.0, out=Z)
                np.greater(Z, 0.0, out=masks[k])
            # the logits, then their softmax, in place
            p = probs[lo:hi]
            np.matmul(acts[-1], weights[-1].T, out=p)
            p += biases[-1]
            p -= np.maximum.reduce(p, axis=1, keepdims=True, out=row)
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=1, keepdims=True, out=row)
            delta = np.subtract(p, hot_epoch[lo:hi], out=deltas[-1])
            delta /= nb
            for k in range(n_layers - 1, -1, -1):
                np.matmul(delta.T, acts[k], out=grad_W[k])
                delta.sum(axis=0, out=grad_b[k])
                if k > 0:
                    # reads W_k before its update below
                    delta = np.matmul(delta, weights[k], out=deltas[k - 1])
                    delta *= masks[k - 1]
            # the l2 term stays at penalty 0: 0 * inf is NaN
            grad_weights += np.multiply(l2_penalty, param_weights, out=l2_term)
            grads *= learning_rate
            params -= grads
        # each row's true-class probability, stored by original row so the
        # epoch's loss sums in a fixed order; batch order then cannot
        # perturb the value
        p_true[perm] = probs[every_row, y_epoch]
        losses = -np.log(np.maximum(p_true, 1e-300))
        history.append(float(losses.sum()) / n)
    # copied out of the buffers into a model of the input's shapes; the
    # MlpModel constructor would refuse a diverged fit's non-finite weights
    trained = model.copy()
    for dst, src in zip(trained.weights + trained.biases, weights + biases):
        dst[...] = src
    return trained, history


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
