"""Saliency-guided adversarial sample generation against the MLP oracle.

Generation works on normalized data in the unit box. For a target class t
the saliency of feature i combines the logit Jacobian rows: alpha_i is the
derivative of the target logit, beta_i the summed derivative of every other
logit. In the default ``increase`` direction a feature scores

    0                   if alpha_i < 0 or beta_i > 0
    alpha_i * |beta_i|  otherwise

and the attack adds +epsilon to the best-scoring feature, clamped to the
box. The ``signed`` direction instead steps by sign(alpha_i) * epsilon and
applies the same gating to |alpha| (a feature is useless when moving along
sign(alpha_i) would also raise the other logits, i.e. sign(alpha_i) *
beta_i > 0).

Features sitting at the bound they would be pushed into are retired from
selection; the distinct-feature budget is ceil(theta_max_features * d).
Ties between equal scores go to the lowest feature index.

All rows are attacked together, as in the batched JSMA of cleverhans and
the Adversarial Robustness Toolbox. The rows under attack (the live set,
at most MAX_LIVE_ROWS) form one (rows x d) matrix; each round walks them
through the oracle once (``mlp._logits_and_jacobians``, the unchecked walk
behind ``mlp.logits_and_jacobians``, since the rows were checked on entry:
logits for the success check and every row's logit Jacobian) and moves
each row by at most one feature step. The saturated and perturbed feature sets are
boolean (rows x d) masks. A row leaves the live set when it succeeds, has
no feature with positive saliency left, would need a new feature beyond
its budget, or has taken max_iterations steps, and a row not yet attacked
takes its place; ``AdversarialResult.stop_reason`` names why it left.
``jsma_attack`` is the one-row case of the same loop, and ``generate_set``
runs it once per config (one per epsilon of the schedule, see
``variant_configs``) over every row.

Everything is deterministic: same model, input and config give the same
sample, so repeated generation runs are byte-identical. A row's walk
gives the same bits whether it is attacked alone or in a batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import mlp
from .dataset import Dataset
from .errors import (FRACTION, InputContractError, ParameterError, choice,
                     finite_array, instance, integer, listed, real)

CLIP_MIN = 0.0
CLIP_MAX = 1.0

INCREASE = "increase"
SIGNED = "signed"
_DIRECTIONS = (INCREASE, SIGNED)

# most rows walked together in one round: the round's temporaries take a
# few kB per row, so the cap keeps them near 5 MB on large inputs
MAX_LIVE_ROWS = 1024


@dataclass(frozen=True)
class JsmaConfig:
    epsilon: float = 0.05
    theta_max_features: float = 0.3
    max_iterations: int = 200
    direction: str = INCREASE

    def __post_init__(self):
        real(self.epsilon, "epsilon", FRACTION)
        real(self.theta_max_features, "theta_max_features", FRACTION)
        integer(self.max_iterations, "max_iterations", 1)
        choice(self.direction, "direction", _DIRECTIONS)


# why an attack stopped; the attack loop records the index into this tuple
STOP_REASONS = ("success", "no_saliency", "budget", "max_iterations")
_SUCCESS, _NO_SALIENCY, _BUDGET, _MAX_ITERATIONS = range(len(STOP_REASONS))


@dataclass(frozen=True)
class AdversarialResult:
    sample: np.ndarray
    success: bool
    iterations: int
    features_perturbed: tuple[int, ...]
    stop_reason: str


def _saliency(J: np.ndarray, target: int, direction: str) -> np.ndarray:
    """Saliency (n, d) toward ``target`` from logit Jacobians (n, c, d)."""
    alpha = J[:, target]
    beta = J.sum(axis=1) - alpha
    if direction == INCREASE:
        blocked = (alpha < 0.0) | (beta > 0.0)
        scores = alpha * np.abs(beta)
    else:
        blocked = np.sign(alpha) * beta > 0.0
        scores = np.abs(alpha) * np.abs(beta)
    return np.where(blocked, 0.0, scores)


def saliency_map(
    model: mlp.MlpModel, x, target: int, direction: str = INCREASE
) -> np.ndarray:
    """Per-feature saliency scores toward ``target``; always >= 0."""
    target = _check_target(model, target)
    choice(direction, "direction", _DIRECTIONS)
    return _saliency(mlp.jacobian(model, x)[None], target, direction)[0]


def _select(scores: np.ndarray, excluded: np.ndarray) -> np.ndarray:
    """Per row of ``scores`` (n, d): the index of the largest strictly
    positive score outside the boolean mask ``excluded``, lowest index on
    ties, -1 when nothing qualifies."""
    masked = np.where(excluded | ~(scores > 0.0), 0.0, scores)
    pick = np.argmax(masked, axis=1)
    return np.where(masked[np.arange(len(pick)), pick] > 0.0, pick, -1)


def select_feature(scores: np.ndarray, excluded) -> int | None:
    """Index of the largest strictly positive score outside ``excluded``.

    ``scores`` is one finite vector and ``excluded`` holds integer indices
    into it. Ties break toward the lowest index; None when nothing
    qualifies.
    """
    scores = finite_array(scores, 1)
    mask = np.zeros(scores.shape, dtype=bool)
    for i in excluded:
        mask[integer(i, "excluded feature", 0, scores.shape[0] - 1)] = True
    pick = int(_select(scores[None], mask[None])[0])
    return None if pick < 0 else pick


def feature_budget(n_features: int, theta_max_features: float) -> int:
    """The distinct-feature budget ceil(theta * n_features), for at least
    one feature and theta in (0, 1]."""
    n_features = integer(n_features, "n_features", 1)
    theta_max_features = real(theta_max_features, "theta_max_features", FRACTION)
    return math.ceil(theta_max_features * n_features)


def _check_target(model: mlp.MlpModel, target) -> int:
    """``target`` as an int when it is a class index of ``model``."""
    return integer(target, "target", 0, model.n_classes - 1)


def _check_rows(model: mlp.MlpModel, X, target, ndim: int):
    """The rows X, finite and in the unit box, and the checked target."""
    X = finite_array(X, ndim, model.n_inputs)
    if np.any(X < CLIP_MIN) or np.any(X > CLIP_MAX):
        raise ParameterError(
            "input lies outside [%g, %g]; normalize before attacking"
            % (CLIP_MIN, CLIP_MAX)
        )
    return X, _check_target(model, target)


def _attack(model: mlp.MlpModel, X: np.ndarray, target: int, config: JsmaConfig):
    """The attack loop over the checked rows X (n, d), all at once.

    Each round walks every live row through the oracle once; rows join the
    live set in index order as others leave it. A row leaves when the
    oracle predicts ``target``, when it has taken max_iterations steps,
    when no feature outside its saturated set has positive saliency, or
    when its pick is a new feature beyond the budget. A pick pinned against
    the bound it is pushed into is marked saturated and costs no step; the
    row picks again next round.

    Returns the samples (n, d), steps taken (n,), perturbed features (n, d
    bool) and the index of each row's stop reason in STOP_REASONS (n,).
    """
    X = X.copy()
    n, d = X.shape
    budget = feature_budget(d, config.theta_max_features)
    saturated = np.zeros((n, d), dtype=bool)
    perturbed = np.zeros((n, d), dtype=bool)
    iterations = np.zeros(n, dtype=np.int64)
    stop = np.zeros(n, dtype=np.int64)
    live = np.arange(min(n, MAX_LIVE_ROWS))
    waiting = live.size
    while live.size:
        logits, J = mlp._logits_and_jacobians(model, X[live])
        pick = _select(_saliency(J, target, config.direction), saturated[live])
        reason = np.select(
            [np.argmax(logits, axis=1) == target,
             iterations[live] >= config.max_iterations,
             pick < 0],
            [_SUCCESS, _MAX_ITERATIONS, _NO_SALIENCY],
            -1,
        )
        # a stopped row's pick (-1 when it has none) is looked at but unused
        if config.direction == INCREASE:
            step = config.epsilon
        else:
            step = np.copysign(config.epsilon, J[np.arange(live.size), target, pick])
        old = X[live, pick]
        new = np.minimum(np.maximum(old + step, CLIP_MIN), CLIP_MAX)
        fresh = ~perturbed[live, pick]
        full = perturbed[live].sum(axis=1) >= budget
        over = (reason < 0) & (new != old) & fresh & full
        reason[over] = _BUDGET
        stop[live] = reason

        pinned = (reason < 0) & (new == old)
        saturated[live[pinned], pick[pinned]] = True
        moves = (reason < 0) & ~pinned
        rows, cols, new = live[moves], pick[moves], new[moves]
        perturbed[rows, cols] = True
        X[rows, cols] = new
        iterations[rows] += 1
        saturated[rows, cols] = (new == CLIP_MIN) | (new == CLIP_MAX)
        # rows that stopped make room for rows not yet attacked
        live = live[reason < 0]
        joining = np.arange(waiting, min(n, waiting + MAX_LIVE_ROWS - live.size))
        waiting += joining.size
        live = np.concatenate([live, joining])
    return X, iterations, perturbed, stop


def jsma_attack(
    model: mlp.MlpModel, x, target: int, config: JsmaConfig
) -> AdversarialResult:
    """Perturb x toward ``target`` one feature step at a time.

    Stops as soon as the model predicts the target (success), or when no
    eligible feature has positive saliency, the distinct-feature budget is
    exhausted, or max_iterations steps were taken (all failure). The
    returned sample always stays inside the unit box.
    """
    x, target = _check_rows(model, x, target, ndim=1)
    X, iterations, perturbed, stop = _attack(model, x[None], target, config)
    return AdversarialResult(
        X[0], bool(stop[0] == _SUCCESS), int(iterations[0]),
        tuple(np.flatnonzero(perturbed[0]).tolist()), STOP_REASONS[stop[0]],
    )


def variant_configs(
    config: JsmaConfig, epsilon_schedule, variants_per_row: int
) -> list[JsmaConfig]:
    """``config`` with each of the first ``variants_per_row`` epsilons of the
    schedule, which must have that many."""
    schedule = [real(e, "epsilon_schedule entry")
                for e in listed(epsilon_schedule, "epsilon_schedule")]
    integer(variants_per_row, "variants_per_row", 1)
    if len(schedule) < variants_per_row:
        raise ParameterError(
            "epsilon_schedule has %d entries, need at least variants_per_row=%d"
            % (len(schedule), variants_per_row)
        )
    return [replace(config, epsilon=e) for e in schedule[:variants_per_row]]


def generate_set(
    model: mlp.MlpModel,
    data: Dataset,
    configs: list[JsmaConfig],
    target: int = 0,
) -> tuple[Dataset, dict]:
    """Attack every row once per config of ``configs`` (see
    ``variant_configs``), and collect the successful samples (labeled
    attack).

    ``data`` must contain only attack rows in the unit box, and the configs,
    at least one, share one direction, which the report names. Each config
    runs the attack loop once over all rows; output order is (row index,
    config index), so repeated runs are byte-identical.
    """
    if instance(data, "data", Dataset).n_rows == 0:
        raise InputContractError("generation needs at least one attack row")
    if not np.all(data.y == 1):
        raise InputContractError(
            "generation input must contain only attack rows (label 1)"
        )
    if len({instance(c, "attack config", JsmaConfig).direction
            for c in listed(configs, "configs")}) != 1:
        raise ParameterError("generation needs at least one attack config, "
                             "all of one direction")
    X, target = _check_rows(model, data.X, target, ndim=2)

    # one attack loop per config, stacked on axis 1, so that selecting with a
    # (row, epsilon) mask yields the rows in (row, epsilon) order
    samples, iterations, perturbed, stop = (
        np.stack(arrays, axis=1)
        for arrays in zip(*(_attack(model, X, target, c) for c in configs))
    )
    won = stop == _SUCCESS
    successes = won.sum(axis=0)
    feat_counts = perturbed.sum(axis=2)[won]
    n_out = int(won.sum())

    out = Dataset(data.schema, samples[won], np.ones(n_out, dtype=np.int64))
    report = {
        "rows": data.n_rows,
        "variants_per_row": len(configs),
        "target": target,
        "direction": configs[0].direction,
        "per_epsilon": [
            {
                "epsilon": c.epsilon,
                "attempts": data.n_rows,
                "successes": int(n),
                "success_rate": int(n) / data.n_rows,
            }
            for c, n in zip(configs, successes)
        ],
        "emitted": n_out,
        "mean_features_perturbed": float(np.mean(feat_counts)) if n_out else 0.0,
        "max_features_perturbed": int(feat_counts.max()) if n_out else 0,
        "mean_iterations": float(np.mean(iterations[won])) if n_out else 0.0,
    }
    return out, report
