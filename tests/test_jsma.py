"""Adversarial generation: saliency gating, stepping rules, budgets, batch API."""
from __future__ import annotations

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsadv import dataset as ds
from icsadv import jsma, mlp
from icsadv.errors import InputContractError, ParameterError, ShapeError


def linear_model(W, b=None):
    W = np.asarray(W, dtype=np.float64)
    b = np.zeros(W.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return mlp.MlpModel([W.shape[1], W.shape[0]], [W], [b])


def cfg(**kw):
    defaults = dict(epsilon=0.5, theta_max_features=1.0, max_iterations=50)
    defaults.update(kw)
    return jsma.JsmaConfig(**defaults)


def reference_walk(model, x):
    """Logits and logit Jacobian of one input vector, one layer at a time."""
    masks = []
    a = x
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ W.T + b
        masks.append(z > 0.0)
        a = np.maximum(z, 0.0)
    logits = a @ model.weights[-1].T + model.biases[-1]
    J = model.weights[-1]
    for W, mask in zip(reversed(model.weights[:-1]), reversed(masks)):
        J = (J * mask) @ W
    return logits, J


def reference_attack(model, x, target, config):
    """The attack one row at a time with feature sets, as a reference for
    the batched loop: (sample, success, iterations, features, stop reason)."""
    x = np.array(x, dtype=np.float64)
    budget = jsma.feature_budget(x.shape[0], config.theta_max_features)
    perturbed, saturated = set(), set()
    iterations = 0
    while True:
        logits, J = reference_walk(model, x)
        if int(np.argmax(logits)) == target:
            return x, True, iterations, tuple(sorted(perturbed)), "success"
        if iterations >= config.max_iterations:
            return x, False, iterations, tuple(sorted(perturbed)), "max_iterations"
        alpha = J[target]
        beta = J.sum(axis=0) - alpha
        if config.direction == jsma.INCREASE:
            blocked = (alpha < 0.0) | (beta > 0.0)
            scores = np.where(blocked, 0.0, alpha * np.abs(beta))
        else:
            blocked = np.sign(alpha) * beta > 0.0
            scores = np.where(blocked, 0.0, np.abs(alpha) * np.abs(beta))
        pick, best = None, 0.0
        for i, s in enumerate(scores):
            if i not in saturated and s > best:
                pick, best = i, float(s)
        if pick is None:
            return x, False, iterations, tuple(sorted(perturbed)), "no_saliency"
        step = config.epsilon
        if config.direction == jsma.SIGNED:
            step = math.copysign(config.epsilon, J[target, pick])
        new = min(max(x[pick] + step, jsma.CLIP_MIN), jsma.CLIP_MAX)
        if new == x[pick]:
            saturated.add(pick)
            continue
        if pick not in perturbed:
            if len(perturbed) >= budget:
                return x, False, iterations, tuple(sorted(perturbed)), "budget"
            perturbed.add(pick)
        x[pick] = new
        iterations += 1
        if new == jsma.CLIP_MIN or new == jsma.CLIP_MAX:
            saturated.add(pick)


class TestSaliency:
    def test_reference_fixture(self):
        # alpha = (1, -2), beta = (-1, 2): feature 0 helps the target and
        # hurts the rest, feature 1 is blocked on both gates
        m = linear_model([[1.0, -2.0], [-1.0, 2.0]])
        scores = jsma.saliency_map(m, [0.3, 0.3], target=0)
        assert scores.tolist() == [1.0, 0.0]
        assert jsma.select_feature(scores, excluded=()) == 0

    def test_zero_branch_alpha_negative(self):
        # flip the target: alpha = (-1, 2), beta = (1, -2)
        m = linear_model([[1.0, -2.0], [-1.0, 2.0]])
        scores = jsma.saliency_map(m, [0.3, 0.3], target=1)
        assert scores.tolist() == [0.0, 4.0]

    def test_zero_branch_beta_positive(self):
        # alpha = (1, 1) but beta = (1, -1): feature 0 raises the other
        # logit too, so it is gated off
        m = linear_model([[1.0, 1.0], [1.0, -1.0]])
        scores = jsma.saliency_map(m, [0.2, 0.2], target=0)
        assert scores.tolist() == [0.0, 1.0]

    def test_linear_model_saliency_independent_of_x(self):
        rng = np.random.default_rng(0)
        m = linear_model(rng.normal(size=(3, 4)))
        a = jsma.saliency_map(m, rng.random(4), target=2)
        b = jsma.saliency_map(m, rng.random(4), target=2)
        assert np.array_equal(a, b)

    def test_scores_never_negative(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            m = mlp.init([5, 8, 3], seed=seed)
            for direction in (jsma.INCREASE, jsma.SIGNED):
                s = jsma.saliency_map(m, rng.random(5), 0, direction)
                assert (s >= 0.0).all()

    def test_bad_target_rejected(self):
        m = linear_model([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ParameterError):
            jsma.saliency_map(m, [0.1, 0.1], target=5)


class TestSelectFeature:
    def test_picks_largest(self):
        assert jsma.select_feature(np.array([0.1, 3.0, 2.0]), ()) == 1

    def test_tie_breaks_low(self):
        assert jsma.select_feature(np.array([2.0, 2.0]), ()) == 0

    def test_respects_exclusion(self):
        assert jsma.select_feature(np.array([5.0, 1.0]), {0}) == 1

    def test_all_zero_returns_none(self):
        assert jsma.select_feature(np.zeros(4), ()) is None

    def test_everything_excluded_returns_none(self):
        assert jsma.select_feature(np.array([1.0, 2.0]), {0, 1}) is None


class TestBudget:
    def test_ceiling_rule(self):
        assert jsma.feature_budget(10, 0.3) == 3
        assert jsma.feature_budget(10, 0.25) == 3
        assert jsma.feature_budget(1, 0.3) == 1
        assert jsma.feature_budget(4, 1.0) == 4


class TestAttackWalks:
    def _two_feature_model(self):
        # logit0 = x0 + x1, logit1 = 2.5 - x0 - x1: class 0 needs x0+x1 > 1.25
        return linear_model([[1.0, 1.0], [-1.0, -1.0]], b=[0.0, 2.5])

    def test_immediate_success_costs_no_iterations(self):
        m = linear_model([[1.0, -2.0], [-1.0, 2.0]])
        res = jsma.jsma_attack(m, [0.0, 0.0], 0, cfg())  # logits tie, argmax 0
        assert res.success
        assert res.iterations == 0
        assert res.features_perturbed == ()
        assert np.array_equal(res.sample, [0.0, 0.0])

    def test_two_step_walk(self):
        m = linear_model([[1.0, -2.0], [-1.0, 2.0]])
        res = jsma.jsma_attack(m, [0.0, 0.3], 0, cfg(epsilon=0.5))
        assert res.success
        assert res.iterations == 2
        assert res.features_perturbed == (0,)
        assert np.allclose(res.sample, [1.0, 0.3])

    def test_needs_both_features(self):
        res = jsma.jsma_attack(self._two_feature_model(), [0.0, 0.0], 0, cfg())
        assert res.success
        assert res.iterations == 3  # 0 -> 0.5 -> 1.0 on f0, then 0.5 on f1
        assert res.features_perturbed == (0, 1)
        assert np.allclose(res.sample, [1.0, 0.5])

    def test_budget_stops_second_feature(self):
        res = jsma.jsma_attack(
            self._two_feature_model(), [0.0, 0.0], 0, cfg(theta_max_features=0.5)
        )
        assert not res.success
        assert res.features_perturbed == (0,)  # budget ceil(0.5*2) = 1
        assert res.iterations == 2

    def test_saturated_feature_retired_from_selection(self):
        # only f0 is useful; it clamps to the top after one step and the
        # attack must then give up instead of re-picking it forever
        m = linear_model([[1.0, -3.0], [-1.0, 3.0]])
        res = jsma.jsma_attack(m, [0.95, 0.5], 0, cfg(epsilon=0.1))
        assert not res.success
        assert res.iterations == 1
        assert res.features_perturbed == (0,)
        assert res.sample[0] == 1.0

    def test_pinned_feature_costs_no_iteration(self):
        # f0 starts at the upper bound: the clamp is a no-op, so the step is
        # not counted and selection moves on (here: nowhere, f1 is gated)
        m = linear_model([[2.0, 1.0], [-1.0, 2.0]], b=[0.0, 3.5])
        res = jsma.jsma_attack(m, [1.0, 0.0], 0, cfg(epsilon=0.5))
        assert not res.success
        assert res.iterations == 0
        assert res.features_perturbed == ()

    def test_signed_direction_steps_downward(self):
        # class 0 needs x0 small: increase mode is stuck, signed mode walks
        # x0 down to the bound and wins on the argmax tie
        m = linear_model([[-2.0, 0.0], [2.0, 0.0]])
        stuck = jsma.jsma_attack(m, [0.5, 0.5], 0, cfg(epsilon=0.125))
        assert not stuck.success and stuck.iterations == 0
        res = jsma.jsma_attack(
            m, [0.5, 0.5], 0, cfg(epsilon=0.125, direction=jsma.SIGNED)
        )
        assert res.success
        assert res.iterations == 4  # 0.125 is exact in binary: no residue
        assert res.sample[0] == 0.0
        assert res.sample[1] == 0.5

    @pytest.mark.parametrize("weights, bias, x, kw, reason", [
        ([[1.0, -2.0], [-1.0, 2.0]], None, [0.0, 0.3], {}, "success"),
        ([[1.0, -3.0], [-1.0, 3.0]], None, [0.95, 0.5], {"epsilon": 0.1},
         "no_saliency"),
        ([[2.0, 1.0], [-1.0, 2.0]], [0.0, 3.5], [1.0, 0.0], {}, "no_saliency"),
        ([[1.0, 1.0], [-1.0, -1.0]], [0.0, 2.5], [0.0, 0.0],
         {"theta_max_features": 0.5}, "budget"),
        ([[1.0, 1.0], [-1.0, -1.0]], [0.0, 2.5], [0.0, 0.0],
         {"max_iterations": 2}, "max_iterations"),
    ])
    def test_stop_reason(self, weights, bias, x, kw, reason):
        res = jsma.jsma_attack(linear_model(weights, bias), x, 0, cfg(**kw))
        assert res.stop_reason == reason
        assert res.success == (reason == "success")

    def test_sample_stays_in_unit_box(self):
        rng = np.random.default_rng(7)
        for seed in range(8):
            m = mlp.init([6, 12, 2], seed=seed)
            res = jsma.jsma_attack(m, rng.random(6), 0, cfg(epsilon=0.3))
            assert res.sample.min() >= 0.0
            assert res.sample.max() <= 1.0
            if res.success:
                assert mlp.predict(m, res.sample) == 0

    def test_more_iterations_never_hurt(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            m = mlp.init([5, 10, 2], seed=100 + seed)
            x = rng.random(5)
            results = [
                jsma.jsma_attack(m, x, 0, cfg(epsilon=0.2, max_iterations=k))
                for k in (1, 3, 10, 40)
            ]
            succ = [r.success for r in results]
            assert succ == sorted(succ)  # False may turn True, never back

    def test_deterministic(self):
        m = mlp.init([5, 10, 2], seed=0)
        x = np.full(5, 0.4)
        a = jsma.jsma_attack(m, x, 0, cfg(epsilon=0.2))
        b = jsma.jsma_attack(m, x, 0, cfg(epsilon=0.2))
        assert np.array_equal(a.sample, b.sample)
        assert (a.success, a.iterations, a.features_perturbed) == (
            b.success,
            b.iterations,
            b.features_perturbed,
        )

    def test_input_validation(self):
        m = linear_model([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ParameterError, match="outside"):
            jsma.jsma_attack(m, [1.5, 0.0], 0, cfg())
        with pytest.raises(ShapeError):
            jsma.jsma_attack(m, [0.5], 0, cfg())
        with pytest.raises(ParameterError, match="target"):
            jsma.jsma_attack(m, [0.5, 0.5], 3, cfg())

    @settings(max_examples=40, deadline=None)
    @given(x=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           pos=st.integers(0, 1), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_input_rejected(self, x, pos, bad):
        x[pos] = bad
        m = linear_model([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InputContractError, match="NaN or infinite"):
            jsma.jsma_attack(m, x, 0, cfg())

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            jsma.JsmaConfig(epsilon=0.0)
        with pytest.raises(ParameterError):
            jsma.JsmaConfig(epsilon=1.5)
        with pytest.raises(ParameterError):
            jsma.JsmaConfig(theta_max_features=0.0)
        with pytest.raises(ParameterError):
            jsma.JsmaConfig(max_iterations=0)
        with pytest.raises(ParameterError):
            jsma.JsmaConfig(direction="both")


class TestGenerateSet:
    def _schema(self):
        return ds.Schema((ds.Feature("A", "sensor"), ds.Feature("B", "sensor")))

    def _attack_rows(self, rows):
        X = np.asarray(rows, dtype=np.float64)
        return ds.Dataset(self._schema(), X, np.ones(X.shape[0], dtype=np.int64))

    def _model(self):
        return linear_model([[1.0, 1.0], [-1.0, -1.0]], b=[0.0, 2.5])

    def test_output_order_and_labels(self):
        data = self._attack_rows([[0.0, 0.0], [0.1, 0.2]])
        out, report = jsma.generate_set(
            self._model(), data, jsma.variant_configs(cfg(), [0.5, 0.25], 2)
        )
        # (row 0, eps 0.5), (row 0, eps 0.25), (row 1, ...), ...
        assert out.n_rows == report["emitted"] == 4
        assert (out.y == 1).all()
        assert np.allclose(out.X[0], [1.0, 0.5])
        assert np.allclose(out.X[1], [1.0, 0.25])
        assert report["per_epsilon"][0]["epsilon"] == 0.5
        assert report["per_epsilon"][1]["epsilon"] == 0.25
        assert all(e["attempts"] == 2 for e in report["per_epsilon"])
        assert all(e["success_rate"] == 1.0 for e in report["per_epsilon"])
        assert report["max_features_perturbed"] <= 2

    def test_only_successes_are_emitted(self):
        # starting at the top-right corner the model already says class 0,
        # success with zero iterations; starting pinned with gated features
        # can fail; mix both
        m = linear_model([[1.0, -3.0], [-1.0, 3.0]])
        data = self._attack_rows([[0.95, 0.5], [0.0, 0.3]])
        out, report = jsma.generate_set(m, data, [cfg(epsilon=0.1)])
        assert report["per_epsilon"][0]["attempts"] == 2
        assert report["per_epsilon"][0]["successes"] == 1
        assert out.n_rows == 1

    def test_repeated_runs_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        m = mlp.init([2, 8, 2], seed=4)
        data = self._attack_rows(rng.random((12, 2)))
        a, ra = jsma.generate_set(m, data, [cfg(epsilon=0.3)])
        b, rb = jsma.generate_set(m, data, [cfg(epsilon=0.3)])
        assert np.array_equal(a.X, b.X)
        assert ra == rb
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        ds.save_csv(a, pa)
        ds.save_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_rejects_normal_rows(self):
        X = np.array([[0.1, 0.1], [0.2, 0.2]])
        data = ds.Dataset(self._schema(), X, np.array([1, 0]))
        with pytest.raises(InputContractError, match="label 1"):
            jsma.generate_set(self._model(), data, [cfg()])

    def test_rejects_empty_input(self):
        data = ds.Dataset(
            self._schema(), np.empty((0, 2)), np.empty(0, dtype=np.int64)
        )
        with pytest.raises(InputContractError):
            jsma.generate_set(self._model(), data, [cfg()])

    def test_schedule_must_cover_variants(self):
        data = self._attack_rows([[0.0, 0.0]])
        with pytest.raises(ParameterError, match="schedule"):
            jsma.generate_set(self._model(), data,
                              jsma.variant_configs(cfg(), [0.5], variants_per_row=2))

    @pytest.mark.parametrize("configs", [
        [], [cfg(), cfg(direction=jsma.SIGNED)]], ids=["none", "two-directions"])
    def test_configs_share_one_direction(self, configs):
        """The report names one direction, so the configs need one."""
        data = self._attack_rows([[0.0, 0.0]])
        with pytest.raises(ParameterError, match="direction"):
            jsma.generate_set(self._model(), data, configs)


@st.composite
def attack_cases(draw):
    """A random small net, attack rows with some features on the box bounds,
    and a config whose epsilons, budget and step limit all bind sometimes."""
    d = draw(st.integers(1, 5))
    classes = draw(st.integers(2, 3))
    sizes = [d] + draw(st.lists(st.integers(1, 6), max_size=2)) + [classes]
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    model = mlp.init(sizes, seed=seed)
    model.biases = [rng.normal(scale=0.5, size=b.shape) for b in model.biases]
    X = rng.random((draw(st.integers(1, 8)), d))
    on_bound = rng.random(X.shape) < 0.3
    X[on_bound] = rng.integers(0, 2, size=int(on_bound.sum()))
    schedule = draw(st.lists(st.sampled_from([0.05, 0.125, 0.3, 0.5, 1.0]),
                             min_size=1, max_size=3))
    config = jsma.JsmaConfig(
        epsilon=schedule[0],
        theta_max_features=draw(st.sampled_from([0.1, 0.3, 0.5, 1.0])),
        max_iterations=draw(st.integers(1, 12)),
        direction=draw(st.sampled_from([jsma.INCREASE, jsma.SIGNED])),
    )
    return model, X, schedule, config, draw(st.integers(0, classes - 1))


class TestMatchesReference:
    """The batched loop gives, bit for bit, what attacking each row alone
    with the reference loop gives."""

    @settings(max_examples=150, deadline=None)
    @given(case=attack_cases(), max_live=st.integers(1, 9))
    def test_generate_set_matches_row_by_row(self, case, max_live):
        model, X, schedule, config, target = case
        schema = ds.Schema(tuple(ds.Feature("F%d" % i, "sensor")
                                 for i in range(X.shape[1])))
        data = ds.Dataset(schema, X, np.ones(X.shape[0], dtype=np.int64))
        # a small live-set cap makes rows join as others stop
        with patch.object(jsma, "MAX_LIVE_ROWS", max_live):
            out, report = jsma.generate_set(
                model, data, jsma.variant_configs(config, schedule, len(schedule)),
                target,
            )
            runs = [jsma._attack(model, X, target, replace(config, epsilon=e))
                    for e in schedule]
        # (row, epsilon) order
        expected = [
            reference_attack(model, x, target, replace(config, epsilon=e))
            for x in X for e in schedule
        ]
        wins = [r for r in expected if r[1]]
        assert out.X.tobytes() == np.array(
            [r[0] for r in wins], dtype=np.float64
        ).reshape(-1, X.shape[1]).tobytes()
        assert [e["successes"] for e in report["per_epsilon"]] == [
            sum(r[1] for r in expected[v::len(schedule)])
            for v in range(len(schedule))
        ]
        iterations = [r[2] for r in wins]
        assert report["mean_iterations"] == (
            float(np.mean(iterations)) if wins else 0.0
        )

        for v, (samples, steps, perturbed, stop) in enumerate(runs):
            cfg_v = replace(config, epsilon=schedule[v])
            for i, x in enumerate(X):
                sample, success, its, feats, reason = expected[i * len(schedule) + v]
                assert samples[i].tobytes() == sample.tobytes()
                assert (steps[i], tuple(np.flatnonzero(perturbed[i])),
                        jsma.STOP_REASONS[stop[i]]) == (its, feats, reason)
                res = jsma.jsma_attack(model, x, target, cfg_v)
                assert res.sample.tobytes() == sample.tobytes()
                assert (res.success, res.iterations, res.features_perturbed,
                        res.stop_reason) == (success, its, feats, reason)
