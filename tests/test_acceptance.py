"""Acceptance gate: the eight checks the package must pass, one visible
pass/fail line each.

Each criterion prints ``[PASS]``/``[FAIL]`` straight to the terminal so the
whole gate can be read off a plain pytest run. Oracles used here are
written independently of the implementation they check (finite differences
for the network Jacobian, brute-force search for the split scan).
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from icsadv import cli
from icsadv import dataset as ds
from icsadv import evaluation, jsma, mlp, pipeline, trees


@pytest.fixture
def criterion(announce):
    @contextmanager
    def _criterion(number: int, label: str):
        try:
            yield
        except BaseException:
            announce("[FAIL] criterion %d: %s" % (number, label))
            raise
        announce("[PASS] criterion %d: %s" % (number, label))

    return _criterion


# ---------------------------------------------------------------------------
# criterion 1: metric regression against the frozen full-scale matrices
# ---------------------------------------------------------------------------

# Reference confusion matrices from the full-scale evaluation, in
# (tp, fn, fp, tn) orientation with Normal as the positive class, paired
# with the two-decimal metric values they must reproduce within +-0.01:
# (accuracy, precision, recall, fpr, f1). The cart average column is
# excluded: its frozen matrix equals the worst one, but its rounded
# metric row does not, so no matrix can satisfy both.
REFERENCE_ROWS = {
    "cart_worst": ((395935, 84, 53854, 46), (0.88, 0.88, 0.99, 0.99, 0.94)),
    "cart_best": ((395954, 65, 21927, 31973), (0.95, 0.94, 0.99, 0.41, 0.97)),
    "rf_worst": ((396019, 0, 53900, 0), (0.88, 0.88, 1.0, 1.0, 0.94)),
    "rf_average": ((396019, 0, 53900, 0), (0.88, 0.88, 1.0, 1.0, 0.94)),
    "rf_best": ((396019, 0, 53900, 0), (0.88, 0.88, 1.0, 1.0, 0.94)),
    "gbc_worst": ((396019, 0, 20236, 33664), (0.95, 0.95, 1.0, 0.37, 0.97)),
    "gbc_average": ((396019, 0, 20178, 33722), (0.95, 0.95, 1.0, 0.37, 0.97)),
    "gbc_best": ((396019, 0, 19840, 34060), (0.95, 0.95, 1.0, 0.37, 0.97)),
}


def test_criterion_1_reference_metric_regression(criterion):
    with criterion(1, "frozen reference matrices reproduce the metric table"):
        for name, (counts, expected) in REFERENCE_ROWS.items():
            row = evaluation.metrics(evaluation.ConfusionMatrix(*counts))
            got = (row.accuracy, row.precision, row.recall, row.fpr, row.f1)
            for metric, g, e in zip(
                ("accuracy", "precision", "recall", "fpr", "f1"), got, expected
            ):
                assert abs(g - e) <= 0.01, (
                    "%s %s: got %.4f, expected %.2f" % (name, metric, g, e)
                )


# ---------------------------------------------------------------------------
# criterion 2: analytic Jacobian vs central finite differences
# ---------------------------------------------------------------------------


def fd_jacobian(model, x, step=1e-5):
    d = x.shape[0]
    J = np.empty((model.n_classes, d))
    for i in range(d):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        J[:, i] = (mlp.forward(model, hi)[0] - mlp.forward(model, lo)[0]) / (2 * step)
    return J


def min_preact_gap(model, x) -> float:
    a = np.asarray(x, dtype=np.float64)
    gap = np.inf
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = W @ a + b
        gap = min(gap, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return gap


def test_criterion_2_jacobian_matches_finite_differences(criterion):
    with criterion(2, "analytic Jacobian matches finite differences"):
        start = time.monotonic()
        for seed, d in ((0, 4), (1, 4), (2, 4), (3, 8), (4, 8)):
            model = mlp.init([d, 16, 16, 2], seed=seed)
            rng = np.random.default_rng(1000 + seed)
            checked = 0
            while checked < 20:
                x = rng.random(d)
                if min_preact_gap(model, x) < 1e-3:
                    continue  # finite differences straddle a ReLU kink here
                J = mlp.jacobian(model, x)
                Jfd = fd_jacobian(model, x)
                tol = np.maximum(1e-4 * np.abs(J), 1e-6)
                assert (np.abs(J - Jfd) <= tol).all()
                checked += 1
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# criterion 3: saliency fixture with both zero-branches
# ---------------------------------------------------------------------------


def test_criterion_3_saliency_fixture(criterion):
    with criterion(3, "saliency fixture scores [1, 0] with both zero-branches"):
        W = np.array([[1.0, -2.0], [-1.0, 2.0]])
        model = mlp.MlpModel([2, 2], [W], [np.zeros(2)])
        scores = jsma.saliency_map(model, [0.3, 0.3], target=0)
        assert scores.tolist() == [1.0, 0.0]
        assert jsma.select_feature(scores, excluded=()) == 0
        # alpha < 0 branch: same model toward the other class zeroes f0
        flipped = jsma.saliency_map(model, [0.3, 0.3], target=1)
        assert flipped[0] == 0.0 and flipped[1] == 4.0
        # beta > 0 branch: f0 helps the target but raises the rest too
        W2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        model2 = mlp.MlpModel([2, 2], [W2], [np.zeros(2)])
        assert jsma.saliency_map(model2, [0.3, 0.3], target=0).tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# criterion 4: generated-sample contracts
# ---------------------------------------------------------------------------


def test_criterion_4_jsma_contracts(criterion, tmp_path):
    with criterion(4, "generated samples honor box, budget, target, ordering"):
        schema = ds.Schema(tuple(ds.Feature("F%d" % i, "sensor") for i in range(6)))
        rng = np.random.default_rng(99)
        rows = ds.Dataset(schema, rng.random((40, 6)), np.ones(40, dtype=np.int64))
        model = mlp.init([6, 16, 16, 2], seed=12)
        config = jsma.JsmaConfig(
            epsilon=0.2, theta_max_features=0.3, max_iterations=50
        )
        budget = jsma.feature_budget(6, 0.3)
        successes = 0
        for i in range(rows.n_rows):
            res = jsma.jsma_attack(model, rows.X[i], 0, config)
            assert res.sample.min() >= 0.0 and res.sample.max() <= 1.0
            assert len(res.features_perturbed) <= budget
            if res.success:
                successes += 1
                assert mlp.predict(model, res.sample) == 0
        assert successes > 0  # the contract checks above must actually fire
        configs = jsma.variant_configs(config, [0.2, 0.1], 2)
        a, ra = jsma.generate_set(model, rows, configs)
        b, rb = jsma.generate_set(model, rows, configs)
        assert ra == rb
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        ds.save_csv(a, pa)
        ds.save_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        # output order is (row, epsilon), each sample as attacked alone
        alone = [jsma.jsma_attack(model, x, 0, replace(config, epsilon=e))
                 for x in rows.X for e in (0.2, 0.1)]
        assert a.X.tobytes() == np.array(
            [r.sample for r in alone if r.success]
        ).tobytes()
        # equal saliency on both features: the lower index goes first
        tied = mlp.MlpModel([2, 2], [np.array([[1.0, 1.0], [-1.0, -1.0]])],
                            [np.array([0.0, 2.5])])
        res = jsma.jsma_attack(tied, [0.0, 0.0], 0, replace(config, epsilon=0.5,
                                                             theta_max_features=1.0))
        assert res.success and res.sample.tolist() == [1.0, 0.5]


# ---------------------------------------------------------------------------
# criterion 5: tree training oracles
# ---------------------------------------------------------------------------


def exhaustive_best_split(X, y):
    """Brute-force (feature, midpoint) search under Gini, first max wins."""
    n, d = X.shape
    p = y.mean()
    parent = 1.0 - p * p - (1.0 - p) * (1.0 - p)
    best = (-1, 0.0)
    best_gain = 0.0
    for f in range(d):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            if not thr < b:
                continue
            mask = X[:, f] <= thr
            out = []
            for part in (y[mask], y[~mask]):
                q = part.mean()
                out.append((part.size / n) * (1.0 - q * q - (1.0 - q) * (1.0 - q)))
            gain = parent - out[0] - out[1]
            if gain > best_gain:
                best_gain = gain
                best = (f, thr)
    return best


def logistic_loss(scores, y):
    s = np.asarray(scores)
    return float(np.mean(np.logaddexp(0.0, s) - y * s))


def test_criterion_5_tree_oracles(criterion):
    with criterion(5, "tree detectors match their independent oracles"):
        start = time.monotonic()
        # root split equals exhaustive search on 20 seeded datasets
        for s in range(20):
            rng = np.random.default_rng(7000 + s)
            n = int(rng.integers(20, 201))
            X = np.round(rng.random((n, 8)), 2)  # duplicates force tie paths
            y = rng.integers(0, 2, n).astype(np.int64)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            model = trees.train_cart(X, y)
            feat, thr = exhaustive_best_split(X, y)
            assert int(model.tree.feature[0]) == feat
            if feat >= 0:
                assert model.tree.threshold[0] == thr

        # boosted training loss never increases across 100 stages
        rng = np.random.default_rng(4242)
        X = rng.random((300, 6))
        y = ((X[:, 0] + X[:, 1] * 0.5 + rng.normal(0, 0.1, 300)) > 0.75).astype(
            np.int64
        )
        gbc = trees.train_gbc(X, y, trees.GbcParams(n_stages=100, learning_rate=0.1))
        losses = [
            logistic_loss(gbc.decision_scores(X, n_stages=k), y) for k in range(101)
        ]
        assert (np.diff(losses) <= 1e-12).all()

        # one-tree forest without bootstrap or feature sampling is a cart
        rng = np.random.default_rng(77)
        Xc = rng.random((150, 4))
        yc = (Xc[:, 0] * Xc[:, 1] > 0.3).astype(np.int64)
        cart = trees.train_cart(Xc, yc)
        forest = trees.train_forest(
            Xc,
            yc,
            trees.ForestParams(n_trees=1, bootstrap=False, features_per_split=4),
            seed=5,
        )
        grid = np.random.default_rng(123).random((100, 4))
        assert np.array_equal(
            trees.predict_classes(cart, grid), trees.predict_classes(forest, grid)
        )
        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# criteria 6 + 7: bundled end-to-end run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    """Full pipeline on the bundled scenario with the default config."""
    out = tmp_path_factory.mktemp("bundled")
    start = time.monotonic()
    manifest = pipeline.run_pipeline(pipeline.default_config(), out)
    elapsed = time.monotonic() - start
    report = json.loads((out / "report.json").read_text())
    return out, manifest, report, elapsed


def test_criterion_6_end_to_end_detection_quality(criterion, bundled_run):
    with criterion(6, "bundled pipeline: gbc catches attacks and spares normal"):
        out, manifest, report, elapsed = bundled_run
        worst = report["detectors"]["gbc"]["worst"]
        assert worst["attack_recall"] >= 0.8, worst
        assert worst["recall"] >= 0.95, worst
        assert elapsed < 180.0


def test_criterion_7_provenance_invariant(criterion, bundled_run):
    with criterion(7, "evaluation data never appears in training inputs"):
        out, manifest, _, _ = bundled_run
        prov = manifest["provenance"]
        assert prov["evaluation_in_training_inputs"] is False
        eval_hash = prov["evaluation_sha256"]
        assert eval_hash not in prov["detector_training_inputs"].values()
        # the recorded hash is the real file hash, so the check is grounded
        assert eval_hash == pipeline.sha256_file(out / "attacked_norm.csv")


# every byte of the full default run: a change that alters outputs by
# design updates this pin and says why
BUNDLED_MANIFEST_SHA256 = (
    "6ef01693a8377e1612bbd1f88dcae6564640237e436dc25a60da9605fa404064"
)


def test_bundled_run_artifacts_are_pinned(bundled_run):
    """The default run's manifest has its pinned hash, and each artifact
    hash it records is its file's, so the pin covers every file."""
    out, manifest, _, _ = bundled_run
    assert pipeline.sha256_file(out / "run_manifest.json") == BUNDLED_MANIFEST_SHA256
    assert len(manifest["artifacts"]) == 21
    for name, digest in manifest["artifacts"].items():
        assert pipeline.sha256_file(out / name) == digest, name


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns through the CLI
# ---------------------------------------------------------------------------


def test_criterion_8_pipeline_determinism(criterion, tmp_path, tiny_scenario,
                                           tiny_config):
    with criterion(8, "pipeline rerun is byte-identical"):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(tiny_scenario))
        cfg = dict(tiny_config)
        cfg["scenario"] = str(scenario_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["pipeline", "--config", str(config_path),
                         "--out", str(out_a)]) == 0
        assert cli.main(["pipeline", "--config", str(config_path),
                         "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (
            out_b / "report.json"
        ).read_bytes()
        assert (out_a / "run_manifest.json").read_bytes() == (
            out_b / "run_manifest.json"
        ).read_bytes()
