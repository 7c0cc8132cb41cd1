"""Pipeline orchestration: config handling, artifacts, provenance, reruns."""
from __future__ import annotations

import errno
import hashlib
import inspect
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from icsadv import cli
from icsadv import dataset as ds
from icsadv import evaluation, jsma, mlp
from icsadv import pipeline as pl
from icsadv import plantsim
from icsadv import trees
from icsadv.errors import IcsAdvError, ParameterError, ParseError, read_json


class TestConfig:
    def test_default_config_is_normal_form(self):
        cfg = pl.default_config()
        assert pl.normalize_config(cfg) == pl.normalize_config(dict(cfg))
        assert cfg["format"] == "pipeline-config"
        assert set(cfg) >= {"seed", "n_runs", "mlp", "jsma", "cart", "rf", "gbc"}

    def test_partial_config_filled_with_defaults(self):
        out = pl.normalize_config({"seed": 123, "gbc": {"n_stages": 7}})
        assert out["seed"] == 123
        assert out["gbc"]["n_stages"] == 7
        assert out["gbc"]["learning_rate"] == pl.default_config()["gbc"]["learning_rate"]
        assert out["mlp"] == pl.default_config()["mlp"]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ParameterError, match="unknown config keys.*typo"):
            pl.normalize_config({"typo": 1})

    def test_unknown_block_key_rejected(self):
        with pytest.raises(ParameterError, match="jsma.*epsilonn"):
            pl.normalize_config({"jsma": {"epsilonn": 0.1}})

    def test_wrong_document_format_rejected(self):
        with pytest.raises(ParseError):
            pl.normalize_config({"format": "scenario"})

    def test_bad_n_runs_rejected(self):
        with pytest.raises(ParameterError, match="n_runs"):
            pl.normalize_config({"n_runs": 0})

    def test_parameter_defaults_match_bundled_documents(self):
        """The dataclass defaults and the shipped documents give the same
        values, so an API caller and a pipeline run agree."""
        cfg = pl.default_config()
        assert asdict(trees.CartParams()) == cfg["cart"]
        assert asdict(trees.ForestParams()) == cfg["rf"]
        assert asdict(trees.GbcParams()) == cfg["gbc"]
        assert asdict(plantsim.PlantConfig()) == plantsim.bundled_scenario()["plant"]
        train_defaults = {name: param.default for name, param
                          in inspect.signature(mlp.train).parameters.items()}
        _hidden, _fraction, train_args = pl._oracle_args(cfg["mlp"])
        assert train_args == {key: train_defaults[key] for key in train_args}
        assert pl._generation_args(cfg["jsma"])[0] == jsma.JsmaConfig()

    def test_bad_scenario_writes_nothing(self, tmp_path, tiny_scenario):
        tiny_scenario["normal_seed"] = -3
        with pytest.raises(ParameterError, match="normal_seed"):
            pl.run_pipeline(pl.default_config(), tmp_path, scenario=tiny_scenario)
        assert list(tmp_path.iterdir()) == []


class TestDirectoryLock:
    def test_exclusive(self, tmp_path):
        with pl.DirectoryLock(tmp_path):
            assert (tmp_path / ".icsadv.lock").exists()
            with pytest.raises(IcsAdvError, match="lock"):
                with pl.DirectoryLock(tmp_path):
                    pass
        assert not (tmp_path / ".icsadv.lock").exists()

    def test_released_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with pl.DirectoryLock(tmp_path):
                raise RuntimeError("boom")
        assert not (tmp_path / ".icsadv.lock").exists()


class TestSimulateToDir:
    def test_writes_expected_files(self, tmp_path, tiny_scenario):
        manifest = pl.simulate_to_dir(tiny_scenario, tmp_path)
        for name in ("scenario.json", "schema.json", "normal.csv", "attacked.csv",
                     "simulation_manifest.json"):
            assert (tmp_path / name).exists()
        assert manifest["normal_rows"] == manifest["attacked_rows"] == 1200
        assert manifest["attack_rows_labeled"] == 380
        assert len(manifest["windows"]) == 3


class TestTrainOracle:
    def _data(self):
        rng = np.random.default_rng(0)
        schema = ds.Schema((ds.Feature("A", "sensor"), ds.Feature("B", "sensor")))
        X = rng.random((50, 2))
        return ds.Dataset(schema, X, (X[:, 0] > 0.5).astype(np.int64))

    def _block(self, fraction):
        return dict(pl.default_config()["mlp"], hidden_layers=[4], epochs=2,
                    train_fraction=fraction)

    def test_fraction_one_trains_on_every_row(self):
        data = self._data()
        model, history = pl.train_oracle(data, self._block(1.0), 1, 2, 3)
        block = self._block(1.0)
        direct, direct_history = mlp.train(
            mlp.init([2, 4, 2], 2), data.X, data.y,
            learning_rate=block["learning_rate"], epochs=2,
            batch_size=block["batch_size"], l2_penalty=block["l2_penalty"], seed=3,
        )
        assert history == direct_history
        assert all(np.array_equal(a, b) for a, b in zip(model.weights, direct.weights))

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ParameterError, match="train_fraction"):
            pl.train_oracle(self._data(), self._block(fraction), 1, 2, 3)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, tiny_inputs):
    """One small end-to-end run shared by the assertions below."""
    out = tmp_path_factory.mktemp("pipe")
    scenario, cfg = tiny_inputs()
    manifest = pl.run_pipeline(cfg, out, scenario=scenario)
    return out, manifest, cfg


EXPECTED_FILES = [
    "scenario.json", "schema.json", "normal.csv", "attacked.csv",
    "minmax.json", "normal_norm.csv", "attacked_norm.csv", "mlp.json",
    "adversarial.csv", "generation_report.json", "report.json", "report.txt",
    "run_manifest.json",
]


LONG_LOG_STEPS = 20_000


def long_log_evaluations(out) -> dict:
    """Evaluate the run's saved models on a long attacked log: the run's
    scenario stretched to LONG_LOG_STEPS, its attack windows repeated once
    per whole period of the original that fits, scaled by the run's min-max
    parameters.
    Returns one evaluation document per kind, plus the boosted model's
    decision scores as hex under "gbc-scores"."""
    doc = json.loads((out / "scenario.json").read_text())
    period = doc["plant"]["steps"]
    doc["attacks"] = [
        dict(a, window=[w + offset for w in a["window"]])
        for offset in range(0, LONG_LOG_STEPS - period + 1, period)
        for a in doc["attacks"]
    ]
    doc["plant"]["steps"] = LONG_LOG_STEPS
    plant, attacks, _, attack_seed = plantsim.parse_scenario(doc)
    params = ds.NormalizationParams.from_json(
        json.loads((out / "minmax.json").read_text())
    )
    data = ds.apply_minmax(
        plantsim.simulate_with_attacks(plant, attacks, attack_seed + 1), params
    )
    models = {kind: trees.load_model(out / "models" / ("%s_run0.json" % kind))
              for kind in ("cart", "rf", "gbc")}
    docs = {kind: pl.evaluate_model(m, data) for kind, m in models.items()}
    docs["gbc-scores"] = models["gbc"].decision_scores(data.X).tobytes().hex()
    return docs


LONG_LOG_SHA256 = {
    "cart": "fe0e55df47bc4209f3c38dad14d7c119546e9230794fed448c28e907109c0c90",
    "rf": "7d8107d7c31deebc1c1c233bdeb706031db7fbcbb508c2995f7802ac78fdcba6",
    "gbc": "708a92d7f6a67ba282ccdce21a9916049adf7eee4aa65925e6107100a7dfe187",
    "gbc-scores": "2dbb47ff9638f12e9c70681f2c2902c8869b62480f055f54546992e49589fc76",
}


class TestRunPipeline:
    def test_all_artifacts_written(self, pipeline_run):
        out, manifest, cfg = pipeline_run
        for name in EXPECTED_FILES:
            assert (out / name).exists(), name
        for kind in ("cart", "rf", "gbc"):
            for r in range(cfg["n_runs"]):
                assert (out / ("models/%s_run%d.json" % (kind, r))).exists()

    def test_manifest_hashes_match_files(self, pipeline_run):
        out, manifest, _ = pipeline_run
        assert manifest["artifacts"]["report.json"] == pl.sha256_file(
            out / "report.json"
        )
        assert manifest["artifacts"]["models/cart_run0.json"] == pl.sha256_file(
            out / "models/cart_run0.json"
        )

    def test_provenance_disjoint(self, pipeline_run):
        _, manifest, _ = pipeline_run
        prov = manifest["provenance"]
        assert prov["evaluation_dataset"] == "attacked_norm.csv"
        assert prov["evaluation_in_training_inputs"] is False
        assert prov["evaluation_sha256"] not in prov[
            "detector_training_inputs"
        ].values()
        assert set(prov["detector_training_inputs"]) == {
            "normal_norm.csv", "adversarial.csv",
        }

    def test_report_covers_all_detectors_and_runs(self, pipeline_run):
        out, manifest, cfg = pipeline_run
        report = json.loads((out / "report.json").read_text())
        assert set(report["detectors"]) == {"cart", "rf", "gbc"}
        for block in report["detectors"].values():
            assert len(block["runs"]) == cfg["n_runs"]
            assert len(block["matrices"]) == cfg["n_runs"]

    def test_generation_emitted_matches_csv(self, pipeline_run):
        out, manifest, _ = pipeline_run
        schema = ds.Schema.from_json(json.loads((out / "schema.json").read_text()))
        adv = ds.load_csv(out / "adversarial.csv", schema)
        assert adv.n_rows == manifest["generation"]["emitted"]
        assert adv.n_rows > 0
        assert (adv.y == 1).all()
        assert adv.X.min() >= 0.0 and adv.X.max() <= 1.0

    def test_generation_artifacts_pinned(self, pipeline_run):
        # SHA-256 of the files the row-by-row attack loop wrote for this
        # config; the batched loop must keep every byte
        out, _, _ = pipeline_run
        assert pl.sha256_file(out / "adversarial.csv") == (
            "ea508106f47f93a4d51f9605ff53e140f0db62349a3db77b478264baa3e601dd"
        )
        assert pl.sha256_file(out / "generation_report.json") == (
            "07ce77fb1c210f9b39b77ac258715c4a203ecc45782614b497bd10c3de2a3ade"
        )

    def test_long_log_scores_pinned(self, pipeline_run):
        # SHA-256 of each saved model's evaluation document on a 20k-step
        # attacked log, and of the boosted model's raw scores, as the
        # one-tree-at-a-time traversal produced them
        out, _, _ = pipeline_run
        digests = {
            kind: hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
            for kind, doc in long_log_evaluations(out).items()
        }
        assert digests == LONG_LOG_SHA256

    def test_normalized_legs_in_unit_box(self, pipeline_run):
        out, _, _ = pipeline_run
        schema = ds.Schema.from_json(json.loads((out / "schema.json").read_text()))
        for name in ("normal_norm.csv", "attacked_norm.csv"):
            data = ds.load_csv(out / name, schema)
            assert data.X.min() >= 0.0
            assert data.X.max() <= 1.0

    def test_every_artifact_loads_through_its_loader(self, pipeline_run):
        """A run writes nothing its own loaders reject: each JSON artifact
        that has a public loader loads through it, the text report is the
        rendering of the JSON one, and every CSV loads under the schema."""
        out, _, cfg = pipeline_run
        loaders = {
            "mlp.json": mlp.load_model,
            "minmax.json": lambda p: read_json(p, ds.NormalizationParams.from_json),
            "schema.json": lambda p: read_json(p, ds.Schema.from_json),
            "scenario.json": plantsim.load_scenario,
            "report.json": lambda p: read_json(p, evaluation.render_text),
        }
        models = sorted((out / "models").glob("*.json"))
        assert len(models) == 3 * cfg["n_runs"]
        loaders.update((str(p.relative_to(out)), trees.load_model) for p in models)
        # the generation report and the manifest have no loader
        written = {str(p.relative_to(out)) for p in out.rglob("*.json")}
        assert written == set(loaders) | {"generation_report.json",
                                          "run_manifest.json"}
        loaded = {name: load(out / name) for name, load in loaders.items()}
        assert loaded["report.json"] == (out / "report.txt").read_text()
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 5
        for path in csvs:
            ds.load_csv(path, loaded["schema.json"])

    def test_saved_models_reproduce_report_matrices(self, pipeline_run):
        # any stage is re-runnable from the files alone: re-evaluating the
        # stored cart model must reproduce the report's first matrix
        out, _, _ = pipeline_run
        schema = ds.Schema.from_json(json.loads((out / "schema.json").read_text()))
        eval_data = ds.load_csv(out / "attacked_norm.csv", schema)
        model = trees.load_model(out / "models/cart_run0.json")
        doc = pl.evaluate_model(model, eval_data)
        report = json.loads((out / "report.json").read_text())
        assert doc["matrix"] == report["detectors"]["cart"]["matrices"][0]

    def test_rf_runs_differ_but_cart_runs_do_not(self, pipeline_run):
        # only the forest consumes the per-run seed
        out, _, _ = pipeline_run
        cart0 = (out / "models/cart_run0.json").read_bytes()
        cart1 = (out / "models/cart_run1.json").read_bytes()
        assert cart0 == cart1
        rf0 = (out / "models/rf_run0.json").read_bytes()
        rf1 = (out / "models/rf_run1.json").read_bytes()
        assert rf0 != rf1

    def test_seed_offsets_recorded(self, pipeline_run):
        _, manifest, cfg = pipeline_run
        seed = cfg["seed"]
        seeds = manifest["seeds"]
        assert seeds["split"] == seed + pl.SPLIT_SEED_OFFSET
        assert seeds["mlp_init"] == seed + pl.MLP_INIT_SEED_OFFSET
        assert seeds["mlp_train"] == seed + pl.MLP_TRAIN_SEED_OFFSET
        assert seeds["detector_runs"] == [
            seed + pl.DETECTOR_SEED_OFFSET + r for r in range(cfg["n_runs"])
        ]


def test_seed_free_detectors_train_once(tmp_path, tiny_scenario, tiny_config,
                                        monkeypatch):
    # the fits run in worker processes, so each call appends a line to a
    # file rather than bumping a counter in this process
    log = tmp_path / "calls.log"
    names = ("train_cart", "train_forest", "train_gbc", "predict_classes")
    for name in names:
        real = getattr(trees, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            with open(log, "a") as fh:
                fh.write(_name + "\n")
            return _real(*args, **kwargs)

        monkeypatch.setattr(trees, name, counted)
    n_runs = tiny_config["n_runs"] = 3
    out = tmp_path / "out"
    pl.run_pipeline(tiny_config, out, scenario=tiny_scenario)
    lines = log.read_text().split()
    calls = {name: lines.count(name) for name in names}
    assert calls == {"train_cart": 1, "train_forest": n_runs, "train_gbc": 1,
                     "predict_classes": 2 + n_runs}
    report = json.loads((out / "report.json").read_text())
    for kind in ("cart", "rf", "gbc"):
        assert len(report["detectors"][kind]["matrices"]) == n_runs
        docs = {(out / ("models/%s_run%d.json" % (kind, r))).read_bytes()
                for r in range(n_runs)}
        assert len(docs) == (n_runs if kind == "rf" else 1)


# SHA-256 of the tiny run's report and manifest (which lists every
# artifact's digest) as the serial detector stage wrote them
TINY_REPORT_SHA256 = "9c8ea544adea36145b19de4c8a90aa415c8eade23daba75a092ef94aa4511c45"
TINY_MANIFEST_SHA256 = "c10664a6aa99de04ef7f79636fe9b426fea08f4f4fac3ca7850ec7228bb2e4f4"


class TestDetectorWorkers:
    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, tiny_inputs,
                                                 monkeypatch):
        outs = {}
        for workers in (1, 2):
            monkeypatch.setattr(pl, "_worker_count", lambda n_jobs, w=workers: w)
            out = outs[workers] = tmp_path / ("w%d" % workers)
            scenario, cfg = tiny_inputs()
            pl.run_pipeline(cfg, out, scenario=scenario)
            assert pl.sha256_file(out / "report.json") == TINY_REPORT_SHA256
            assert pl.sha256_file(out / "run_manifest.json") == TINY_MANIFEST_SHA256
            assert pl.sha256_file(out / "adversarial.csv") == (
                "ea508106f47f93a4d51f9605ff53e140f0db62349a3db77b478264baa3e601dd"
            )
        names = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*"))
        assert names == sorted(p.relative_to(outs[2]) for p in outs[2].rglob("*"))
        for name in names:
            if (outs[1] / name).is_file():
                assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()

    def test_job_error_reraised_cleanly(self, tmp_path, tiny_scenario, tiny_config,
                                        monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise ParameterError("boom")

        # forked workers inherit the patched module
        monkeypatch.setattr(trees, "train_gbc", boom)
        with pytest.raises(ParameterError) as info:
            pl.run_pipeline(tiny_config, tmp_path / "api", scenario=tiny_scenario)
        assert type(info.value) is ParameterError
        assert str(info.value) == "boom"

        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(tiny_scenario))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(tiny_config, scenario=str(scenario))))
        out = tmp_path / "cli"
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: boom\n"
        for run in ("api", "cli"):
            left = [p.name for p in (tmp_path / run).rglob("*")]
            assert not [n for n in left if n.endswith(".tmp")], left
            assert ".icsadv.lock" not in left
            assert "report.json" not in left
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path, tiny_scenario,
                                                   tiny_config, monkeypatch):
        def die(*args, **kwargs):
            os._exit(3)

        def hung(signum, frame):
            raise TimeoutError("the detector stage hung after a worker died")

        monkeypatch.setattr(pl, "_worker_count", lambda n_jobs: 2)
        monkeypatch.setattr(trees, "train_cart", die)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                pl.run_pipeline(tiny_config, tmp_path, scenario=tiny_scenario)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []


LOGS = ("normal.csv", "attacked.csv", "normal_norm.csv", "attacked_norm.csv")


class TestLogWriter:
    """The parent writes the stage 1-2 logs while the oracle trains in the
    run's pool."""

    def test_failed_write_raises_before_the_oracle_is_saved(
            self, tmp_path, tiny_scenario, tiny_config, monkeypatch):
        real_write = pl.write_csv

        def full_disk(data, tmp):
            tmp.write_text("partial\n")
            raise OSError(errno.ENOSPC, "No space left on device")

        def write_csv(data, path):
            if path.name == "normal_norm.csv":
                pl._replace_into(full_disk, data, path)
            else:
                real_write(data, path)

        monkeypatch.setattr(pl, "write_csv", write_csv)
        with pytest.raises(OSError) as info:
            pl.run_pipeline(tiny_config, tmp_path, scenario=tiny_scenario)
        assert type(info.value) is OSError
        assert str(info.value) == "[Errno 28] No space left on device"
        left = sorted(p.name for p in tmp_path.iterdir())
        assert "mlp.json" not in left
        assert not [n for n in left if n.endswith(".tmp")], left
        assert multiprocessing.active_children() == []

    def test_dead_oracle_worker_raises_instead_of_hanging(
            self, tmp_path, tiny_scenario, tiny_config, monkeypatch):
        def die(*args, **kwargs):
            os._exit(3)

        def hung(signum, frame):
            raise TimeoutError("the pipeline hung after the oracle's worker died")

        # the pool is forked after this, so its workers inherit the patch
        monkeypatch.setattr(pl, "train_oracle", die)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                pl.run_pipeline(tiny_config, tmp_path, scenario=tiny_scenario)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not (tmp_path / "mlp.json").exists()
        _assert_logs_whole(tmp_path, tiny_scenario)
        assert multiprocessing.active_children() == []

    def test_logs_are_whole_when_the_oracle_raises(self, tmp_path, tiny_scenario,
                                                   tiny_config, monkeypatch):
        def boom(*args, **kwargs):
            raise ParameterError("oracle failed")

        monkeypatch.setattr(pl, "train_oracle", boom)
        with pytest.raises(ParameterError, match="oracle failed"):
            pl.run_pipeline(tiny_config, tmp_path, scenario=tiny_scenario)
        assert multiprocessing.active_children() == []
        _assert_logs_whole(tmp_path, tiny_scenario)
        assert not (tmp_path / "mlp.json").exists()


def _assert_logs_whole(out, scenario):
    """Every stage 1-2 log is in place, whole, with no temp file beside it."""
    schema = ds.Schema.from_json(json.loads((out / "schema.json").read_text()))
    for name in LOGS:
        assert ds.load_csv(out / name, schema).n_rows == scenario["plant"]["steps"]
    assert not list(out.glob("*.tmp"))


class TestRunPool:
    """Stages 3-5 run on one pool of workers forked after stage 2."""

    def test_one_pool_per_run(self, tmp_path, tiny_scenario, tiny_config,
                              monkeypatch):
        calls = []
        real_pool = pl._forked_pool

        def counted(*args):
            calls.append(args[0])
            return real_pool(*args)

        monkeypatch.setattr(pl, "_forked_pool", counted)
        pl.run_pipeline(tiny_config, tmp_path, scenario=tiny_scenario)
        assert len(calls) == 1
        assert multiprocessing.active_children() == []

    def test_oracle_trained_in_a_worker_matches_in_process(self, tiny_scenario,
                                                            tiny_config):
        config = pl.normalize_config(tiny_config)
        plant, attacks, normal_seed, attack_seed = plantsim.parse_scenario(
            tiny_scenario)
        normal = plantsim.simulate_normal(plant, normal_seed)
        attacked = plantsim.simulate_with_attacks(plant, attacks, attack_seed)
        params = ds.fit_minmax(attacked)
        normal_n = ds.apply_minmax(normal, params)
        attacked_n = ds.apply_minmax(attacked, params)
        seeds = (config["seed"] + pl.SPLIT_SEED_OFFSET,
                 config["seed"] + pl.MLP_INIT_SEED_OFFSET,
                 config["seed"] + pl.MLP_TRAIN_SEED_OFFSET)
        with pl._forked_pool(1, normal_n, attacked_n, config) as pool:
            job = pool.submit(pl._oracle_job, seeds)
            forked, forked_history = job.result(timeout=120)
        local, local_history = pl.train_oracle(attacked_n, config["mlp"], *seeds)
        assert forked.layer_sizes == local.layer_sizes
        for a, b in zip(forked.weights + forked.biases, local.weights + local.biases):
            assert np.array_equal(a, b)
        assert forked_history == local_history


def test_importing_the_package_loads_no_process_pool():
    """``multiprocessing`` and ``concurrent.futures`` cost about 40 ms to
    import, and only a pipeline run uses them, so the modules import them
    lazily."""
    code = ("import sys, icsadv.pipeline, icsadv.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(pl.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "[]\n"


class TestEvaluateModel:
    def test_flags_detector_that_never_alarms(self):
        rng = np.random.default_rng(0)
        X = rng.random((60, 3))
        m = trees.train_cart(X, np.zeros(60, dtype=np.int64))
        data = ds.Dataset(
            ds.Schema(tuple(ds.Feature("F%d" % i, "sensor") for i in range(3))),
            X,
            (rng.random(60) < 0.3).astype(np.int64),
        )
        doc = pl.evaluate_model(m, data)
        assert doc["predicts_no_attacks"] is True
        assert doc["matrix"]["tn"] == 0 and doc["matrix"]["fn"] == 0

    def test_normal_detector_not_flagged(self):
        rng = np.random.default_rng(1)
        X = rng.random((80, 3))
        y = (X[:, 0] > 0.5).astype(np.int64)
        m = trees.train_cart(X, y)
        data = ds.Dataset(
            ds.Schema(tuple(ds.Feature("F%d" % i, "sensor") for i in range(3))),
            X,
            y,
        )
        doc = pl.evaluate_model(m, data)
        assert doc["predicts_no_attacks"] is False
        assert doc["metrics"]["accuracy"] == 1.0
