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
Everything is deterministic: same model, input and config give the same
sample, so repeated generation runs are byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import mlp
from .dataset import Dataset
from .errors import InputContractError, ParameterError

CLIP_MIN = 0.0
CLIP_MAX = 1.0

INCREASE = "increase"
SIGNED = "signed"


@dataclass(frozen=True)
class JsmaConfig:
    epsilon: float = 0.1
    theta_max_features: float = 0.3
    max_iterations: int = 200
    direction: str = INCREASE

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ParameterError("epsilon must be in (0, 1], got %r" % self.epsilon)
        if not 0.0 < self.theta_max_features <= 1.0:
            raise ParameterError(
                "theta_max_features must be in (0, 1], got %r"
                % self.theta_max_features
            )
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        if self.direction not in (INCREASE, SIGNED):
            raise ParameterError(
                "direction must be %r or %r, got %r"
                % (INCREASE, SIGNED, self.direction)
            )


@dataclass(frozen=True)
class AdversarialResult:
    sample: np.ndarray
    success: bool
    iterations: int
    features_perturbed: tuple[int, ...]


def _saliency_from_jacobian(J: np.ndarray, target: int, direction: str) -> np.ndarray:
    alpha = J[target]
    beta = J.sum(axis=0) - alpha
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
    if not 0 <= target < model.n_classes:
        raise ParameterError("target class %d out of range" % target)
    if direction not in (INCREASE, SIGNED):
        raise ParameterError("unknown direction %r" % direction)
    return _saliency_from_jacobian(mlp.jacobian(model, x), target, direction)


def select_feature(scores: np.ndarray, excluded) -> int | None:
    """Index of the largest strictly positive score outside ``excluded``.

    Ties break toward the lowest index; None when nothing qualifies.
    """
    best = None
    best_score = 0.0
    for i, s in enumerate(scores):
        if i in excluded:
            continue
        if s > best_score:
            best = i
            best_score = float(s)
    return best


def feature_budget(n_features: int, theta_max_features: float) -> int:
    return math.ceil(theta_max_features * n_features)


def jsma_attack(
    model: mlp.MlpModel, x, target: int, config: JsmaConfig
) -> AdversarialResult:
    """Perturb x toward ``target`` one feature step at a time.

    Stops as soon as the model predicts the target (success), or when no
    eligible feature has positive saliency, the distinct-feature budget is
    exhausted, or max_iterations steps were taken (all failure). The
    returned sample always stays inside the unit box.
    """
    x = mlp._check_input(model, x).copy()
    if np.any(x < CLIP_MIN) or np.any(x > CLIP_MAX):
        raise ParameterError(
            "input lies outside [%g, %g]; normalize before attacking"
            % (CLIP_MIN, CLIP_MAX)
        )
    if not 0 <= target < model.n_classes:
        raise ParameterError("target class %d out of range" % target)

    budget = feature_budget(x.shape[0], config.theta_max_features)
    perturbed: set[int] = set()
    saturated: set[int] = set()
    iterations = 0
    while True:
        if mlp.predict(model, x) == target:
            return AdversarialResult(x, True, iterations, tuple(sorted(perturbed)))
        if iterations >= config.max_iterations:
            return AdversarialResult(x, False, iterations, tuple(sorted(perturbed)))
        J = mlp.jacobian(model, x)
        scores = _saliency_from_jacobian(J, target, config.direction)
        pick = select_feature(scores, saturated)
        if pick is None:
            return AdversarialResult(x, False, iterations, tuple(sorted(perturbed)))
        if config.direction == INCREASE:
            step = config.epsilon
        else:
            step = math.copysign(config.epsilon, J[target, pick])
        new = min(max(x[pick] + step, CLIP_MIN), CLIP_MAX)
        if new == x[pick]:
            # already pinned against the bound this step pushes into
            saturated.add(pick)
            continue
        if pick not in perturbed:
            if len(perturbed) >= budget:
                return AdversarialResult(
                    x, False, iterations, tuple(sorted(perturbed))
                )
            perturbed.add(pick)
        x[pick] = new
        iterations += 1
        if new == CLIP_MIN or new == CLIP_MAX:
            saturated.add(pick)


def generate_set(
    model: mlp.MlpModel,
    data: Dataset,
    config: JsmaConfig,
    epsilon_schedule,
    variants_per_row: int,
    target: int = 0,
) -> tuple[Dataset, dict]:
    """Run jsma_attack on every row, variants_per_row times with different
    epsilons, and collect the successful samples (labeled attack).

    ``data`` must contain only attack rows in the unit box. Output order is
    (row index, epsilon index), so repeated runs are byte-identical.
    """
    if data.n_rows == 0:
        raise InputContractError("generation needs at least one attack row")
    if not np.all(data.y == 1):
        raise InputContractError(
            "generation input must contain only attack rows (label 1)"
        )
    schedule = [float(e) for e in epsilon_schedule]
    if variants_per_row < 1:
        raise ParameterError("variants_per_row must be >= 1")
    if len(schedule) < variants_per_row:
        raise ParameterError(
            "epsilon_schedule has %d entries, need at least variants_per_row=%d"
            % (len(schedule), variants_per_row)
        )
    configs = [replace(config, epsilon=e) for e in schedule[:variants_per_row]]

    samples = []
    attempts = [0] * variants_per_row
    successes = [0] * variants_per_row
    feat_counts = []
    iteration_counts = []
    for i in range(data.n_rows):
        row = data.X[i]
        for v, cfg in enumerate(configs):
            attempts[v] += 1
            res = jsma_attack(model, row, target, cfg)
            if res.success:
                successes[v] += 1
                samples.append(res.sample)
                feat_counts.append(len(res.features_perturbed))
                iteration_counts.append(res.iterations)

    if samples:
        X = np.vstack(samples)
        y = np.ones(len(samples), dtype=np.int64)
    else:
        X = np.empty((0, data.n_features))
        y = np.empty(0, dtype=np.int64)
    out = Dataset(data.schema, X, y)
    report = {
        "rows": data.n_rows,
        "variants_per_row": variants_per_row,
        "target": target,
        "direction": config.direction,
        "per_epsilon": [
            {
                "epsilon": configs[v].epsilon,
                "attempts": attempts[v],
                "successes": successes[v],
                "success_rate": successes[v] / attempts[v] if attempts[v] else 0.0,
            }
            for v in range(variants_per_row)
        ],
        "emitted": len(samples),
        "mean_features_perturbed": (
            float(np.mean(feat_counts)) if feat_counts else 0.0
        ),
        "max_features_perturbed": int(max(feat_counts)) if feat_counts else 0,
        "mean_iterations": float(np.mean(iteration_counts))
        if iteration_counts
        else 0.0,
    }
    return out, report
