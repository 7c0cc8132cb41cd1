"""CLI behavior: stage-by-stage walkthrough, exit codes, determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from icsadv import cli
from icsadv import dataset as ds
from icsadv import mlp, trees
from icsadv import pipeline as pl

SRC = Path(__file__).resolve().parents[1] / "src"


def write_scenario(tmp_path, tiny_scenario):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(tiny_scenario))
    return p


def write_blobs(tmp_path):
    """A small two-class, two-feature training file and its schema."""
    rng = np.random.default_rng(0)
    schema = ds.Schema((ds.Feature("A", "sensor"), ds.Feature("B", "sensor")))
    X = rng.random((80, 2))
    ds.save_csv(ds.Dataset(schema, X, (X[:, 0] > 0.5).astype(np.int64)),
                tmp_path / "train.csv")
    (tmp_path / "schema.json").write_text(json.dumps(schema.to_json()))
    return ["--train", str(tmp_path / "train.csv"),
            "--schema", str(tmp_path / "schema.json")]


def write_config(tmp_path, tiny_config, scenario_path):
    cfg = dict(tiny_config)
    cfg["scenario"] = str(scenario_path)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


class TestExitCodes:
    def test_missing_scenario_file(self, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--scenario", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "nope.json" in err

    def test_lock_conflict(self, tmp_path, tiny_scenario, capsys):
        scenario = write_scenario(tmp_path, tiny_scenario)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".icsadv.lock").write_text("123\n")
        rc = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert rc == 2
        assert "lock" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{broken")
        rc = cli.main(["pipeline", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "JSON" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"rf": {"trees": 5}}')
        rc = cli.main(["pipeline", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "trees" in capsys.readouterr().err

    def test_single_class_boosting_fails_cleanly(self, tmp_path, capsys):
        schema = ds.Schema((ds.Feature("A", "sensor"),))
        data = ds.Dataset(schema, np.random.default_rng(0).random((20, 1)),
                          np.zeros(20, dtype=np.int64))
        (tmp_path / "schema.json").write_text(json.dumps(schema.to_json()))
        ds.save_csv(data, tmp_path / "train.csv")
        rc = cli.main(
            ["train-detector", "--kind", "gbc",
             "--train", str(tmp_path / "train.csv"),
             "--schema", str(tmp_path / "schema.json"),
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "class" in capsys.readouterr().err

    def test_report_rejects_other_documents(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        p.write_text('{"format": "scenario"}')
        rc = cli.main(["report", "--input", str(p)])
        assert rc == 2


    @pytest.mark.parametrize("command", ["evaluate", "attack"])
    def test_model_with_missing_key(self, tmp_path, capsys, command):
        schema = ds.Schema((ds.Feature("A", "sensor"),))
        data = ds.Dataset(schema, np.random.default_rng(0).random((20, 1)),
                          (np.arange(20) % 2).astype(np.int64))
        (tmp_path / "schema.json").write_text(json.dumps(schema.to_json()))
        ds.save_csv(data, tmp_path / "data.csv")
        model = tmp_path / "model.json"
        if command == "evaluate":
            model.write_text('{"format": "detector", "kind": "cart", "params": {}}')
        else:
            model.write_text('{"format": "mlp", "layer_sizes": [1, 2]}')
        rc = cli.main(
            [command, "--model", str(model), "--data", str(tmp_path / "data.csv"),
             "--schema", str(tmp_path / "schema.json"),
             "--out", str(tmp_path / "out.json")]
        )
        assert rc == 2
        assert "model.json" in capsys.readouterr().err


    @pytest.mark.parametrize("fraction", ["1.5", "0"])
    def test_train_fraction_outside_unit_interval(self, tmp_path, capsys, fraction):
        rc = cli.main(["train-mlp", "--train-fraction", fraction, "--hidden", "4",
                       "--out", str(tmp_path / "m.json")] + write_blobs(tmp_path))
        assert rc == 2
        assert "train_fraction" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestAtomicWrites:
    @pytest.mark.parametrize("command, module", [
        (["train-mlp", "--hidden", "4", "--epochs", "1"], mlp),
        (["train-detector", "--kind", "cart"], trees),
    ])
    def test_failed_model_write_keeps_previous_file(self, tmp_path, capsys,
                                                    monkeypatch, command, module):
        out = tmp_path / "model.json"
        argv = command + write_blobs(tmp_path) + ["--out", str(out)]
        assert cli.main(argv) == 0
        before = out.read_bytes()

        def write_half_then_fail(model, path):
            with open(path, "w") as fh:
                fh.write('{"format": ')
            raise OSError("disk full")

        monkeypatch.setattr(module, "save_model", write_half_then_fail)
        assert cli.main(argv) == 2
        assert "disk full" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.json", "schema.json", "train.csv"]


class TestCliMatchesPipeline:
    def test_stage_commands_reproduce_pipeline_artifacts(
        self, tmp_path, tiny_scenario, tiny_config, capsys
    ):
        run = tmp_path / "run"
        manifest = pl.run_pipeline(tiny_config, run, scenario=tiny_scenario)
        config = manifest["config"]
        jb = config["jsma"]
        schema = ["--schema", str(run / "schema.json")]
        assert cli.main(
            ["attack", "--model", str(run / "mlp.json"),
             "--data", str(run / "attacked_norm.csv"),
             "--epsilons", ",".join(repr(e) for e in jb["epsilon_schedule"]),
             "--variants", str(jb["variants_per_row"]),
             "--theta", repr(jb["theta_max_features"]),
             "--max-iterations", str(jb["max_iterations"]),
             "--direction", jb["direction"],
             "--out", str(tmp_path / "adversarial.csv"),
             "--report", str(tmp_path / "generation_report.json")] + schema
        ) == 0
        for name in ("adversarial.csv", "generation_report.json"):
            assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), name

        parsed = ds.Schema.from_json(json.loads((run / "schema.json").read_text()))
        ds.save_csv(ds.merge(ds.load_csv(run / "normal_norm.csv", parsed),
                             ds.load_csv(tmp_path / "adversarial.csv", parsed)),
                    tmp_path / "train.csv")
        for kind, extra in (
            ("cart", []),
            ("rf", ["--seed", str(manifest["seeds"]["detector_runs"][0]),
                    "--n-trees", str(config["rf"]["n_trees"])]),
            ("gbc", ["--n-stages", str(config["gbc"]["n_stages"])]),
        ):
            out = tmp_path / ("%s.json" % kind)
            assert cli.main(["train-detector", "--kind", kind,
                             "--train", str(tmp_path / "train.csv"),
                             "--out", str(out)] + schema + extra) == 0
            assert out.read_bytes() == (
                run / "models" / ("%s_run0.json" % kind)
            ).read_bytes(), kind
        capsys.readouterr()

    def test_attack_without_tuning_flags_uses_config_block(
        self, tmp_path, tiny_scenario, tiny_config, capsys
    ):
        tiny_config["jsma"] = pl.default_config()["jsma"]
        run = tmp_path / "run"
        pl.run_pipeline(tiny_config, run, scenario=tiny_scenario)
        assert cli.main(
            ["attack", "--model", str(run / "mlp.json"),
             "--data", str(run / "attacked_norm.csv"),
             "--schema", str(run / "schema.json"),
             "--out", str(tmp_path / "adversarial.csv"),
             "--report", str(tmp_path / "generation_report.json")]
        ) == 0
        for name in ("adversarial.csv", "generation_report.json"):
            assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), name
        capsys.readouterr()

    def test_train_mlp_without_tuning_flags_uses_config_block(
        self, tmp_path, capsys
    ):
        assert cli.main(["train-mlp", "--out", str(tmp_path / "cli.json")]
                        + write_blobs(tmp_path)) == 0
        schema = ds.Schema.from_json(json.loads((tmp_path / "schema.json").read_text()))
        data = ds.load_csv(tmp_path / "train.csv", schema)
        model, _ = pl.train_oracle(data, pl.default_config()["mlp"], 0, 0, 0)
        pl.write_model(model, tmp_path / "direct.json")
        assert (tmp_path / "cli.json").read_bytes() == (
            tmp_path / "direct.json"
        ).read_bytes()
        capsys.readouterr()


class TestStageWalkthrough:
    def test_full_chain(self, tmp_path, tiny_scenario, capsys):
        scenario = write_scenario(tmp_path, tiny_scenario)
        sim = tmp_path / "sim"

        assert cli.main(["simulate", "--scenario", str(scenario),
                         "--out", str(sim)]) == 0
        assert "1200" in capsys.readouterr().out
        schema_path = sim / "schema.json"

        # scale the attacked leg, fit parameters on it, reuse them for the
        # normal leg (the same order the pipeline uses)
        assert cli.main(
            ["preprocess", "--input", str(sim / "attacked.csv"),
             "--schema", str(schema_path),
             "--out", str(tmp_path / "attacked_norm.csv"),
             "--fit-params-out", str(tmp_path / "minmax.json")]
        ) == 0
        assert cli.main(
            ["preprocess", "--input", str(sim / "normal.csv"),
             "--schema", str(schema_path),
             "--params", str(tmp_path / "minmax.json"),
             "--out", str(tmp_path / "normal_norm.csv")]
        ) == 0
        capsys.readouterr()

        assert cli.main(
            ["train-mlp", "--train", str(tmp_path / "attacked_norm.csv"),
             "--schema", str(schema_path),
             "--hidden", "16", "--epochs", "6",
             "--train-fraction", "0.8", "--split-seed", "1",
             "--out", str(tmp_path / "mlp.json")]
        ) == 0
        assert "final loss" in capsys.readouterr().out

        assert cli.main(
            ["attack", "--model", str(tmp_path / "mlp.json"),
             "--data", str(tmp_path / "attacked_norm.csv"),
             "--schema", str(schema_path),
             "--epsilons", "0.1,0.2", "--variants", "2",
             "--max-iterations", "40",
             "--out", str(tmp_path / "adversarial.csv"),
             "--report", str(tmp_path / "generation.json")]
        ) == 0
        gen = json.loads((tmp_path / "generation.json").read_text())
        assert gen["emitted"] > 0
        assert len(gen["per_epsilon"]) == 2

        # detectors train on normal + adversarial
        schema = ds.Schema.from_json(json.loads(schema_path.read_text()))
        merged = ds.merge(
            ds.load_csv(tmp_path / "normal_norm.csv", schema),
            ds.load_csv(tmp_path / "adversarial.csv", schema),
        )
        ds.save_csv(merged, tmp_path / "train.csv")

        for kind, extra in (
            ("cart", []),
            ("rf", ["--n-trees", "10", "--seed", "3"]),
            ("gbc", ["--n-stages", "15"]),
        ):
            assert cli.main(
                ["train-detector", "--kind", kind,
                 "--train", str(tmp_path / "train.csv"),
                 "--schema", str(schema_path),
                 "--out", str(tmp_path / ("%s.json" % kind))] + extra
            ) == 0
            assert cli.main(
                ["evaluate", "--model", str(tmp_path / ("%s.json" % kind)),
                 "--data", str(tmp_path / "attacked_norm.csv"),
                 "--schema", str(schema_path),
                 "--out", str(tmp_path / ("%s_eval.json" % kind))]
            ) == 0
            doc = json.loads((tmp_path / ("%s_eval.json" % kind)).read_text())
            cm = doc["matrix"]
            assert cm["tp"] + cm["fn"] + cm["fp"] + cm["tn"] == 1200
        capsys.readouterr()

    def test_gbc_depth_default_differs_from_cart(self, tmp_path):
        # --max-depth defaults per kind: 12 for cart/rf, 3 for gbc
        common = write_blobs(tmp_path)
        assert cli.main(["train-detector", "--kind", "cart",
                         "--out", str(tmp_path / "c.json")] + common) == 0
        assert cli.main(["train-detector", "--kind", "gbc", "--n-stages", "3",
                         "--out", str(tmp_path / "g.json")] + common) == 0
        cart_doc = json.loads((tmp_path / "c.json").read_text())
        gbc_doc = json.loads((tmp_path / "g.json").read_text())
        assert cart_doc["params"]["max_depth"] == 12
        assert gbc_doc["params"]["max_depth"] == 3


class TestPipelineCommand:
    def test_end_to_end_and_determinism(self, tmp_path, tiny_scenario, tiny_config,
                                         capsys):
        scenario = write_scenario(tmp_path, tiny_scenario)
        config = write_config(tmp_path, tiny_config, scenario)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["pipeline", "--config", str(config),
                         "--out", str(out_a)]) == 0
        assert cli.main(["pipeline", "--config", str(config),
                         "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert (out_a / "report.json").read_bytes() == (
            out_b / "report.json"
        ).read_bytes()
        assert (out_a / "run_manifest.json").read_bytes() == (
            out_b / "run_manifest.json"
        ).read_bytes()

        # the rendered table is derived from report.json
        assert cli.main(["report", "--input", str(out_a / "report.json")]) == 0
        text = capsys.readouterr().out
        assert "cart" in text and "rf" in text and "gbc" in text
        rendered = (out_a / "report.txt").read_text()
        assert text == rendered

    def test_report_to_file(self, tmp_path):
        rep = {
            "format": "assessment",
            "version": 1,
            "detectors": {"cart": {
                "runs": [], "matrices": [],
                "worst": _row(), "average": _row(), "best": _row(),
            }},
        }
        p = tmp_path / "r.json"
        p.write_text(json.dumps(rep))
        out = tmp_path / "r.txt"
        assert cli.main(["report", "--input", str(p), "--out", str(out)]) == 0
        assert "cart" in out.read_text()


def _row():
    return {
        "accuracy": 0.5, "precision": 0.5, "recall": 0.5, "fpr": 0.5,
        "f1": 0.5, "attack_precision": 0.5, "attack_recall": 0.5, "flags": [],
    }


class TestEntryPoint:
    def test_module_invocation(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "icsadv.cli", "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        for name in ("simulate", "preprocess", "train-mlp", "attack",
                     "train-detector", "evaluate", "pipeline", "report"):
            assert name in proc.stdout
