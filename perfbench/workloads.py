"""Workload inputs, set-up, timed operation and output checks.

Every input derives from the workload seed. Seed 7 (the default) gives the
bundled seeds: scenario 20210/20211 and pipeline seed 7.

The runs are shrunk from the bundled run (about 100 s on two cores) so that
one benchmark run measures several operations within its time budget:

* the scenario keeps the bundled plant and attack kinds, with the run
  length and every attack window divided by ``SHRINK``;
* the forest and the boosted model get ``1/SHRINK`` of their bundled trees;
  every other hyperparameter keeps its bundled value.

``smoke`` swaps in the one-tank desk scenario and reduced config of the test
suite, so every workload finishes in seconds.
"""
from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import numpy as np

from icsadv import dataset as ds
from icsadv import pipeline, plantsim, trees

SHRINK = 5
KINDS = (trees.CART, trees.FOREST, trees.GBC)

# score-long's attacked log
LONG_STEPS = 100_000
SMOKE_LONG_STEPS = 12_000
LONG_SEED_OFFSET = 10_000

TINY_SCENARIO = {
    "format": "scenario",
    "version": 1,
    "plant": {
        "n_tanks": 1,
        "tank_capacity": 100.0,
        "inflow_rate": 1.2,
        "outflow_rate": 0.8,
        "level_low": 40.0,
        "level_high": 60.0,
        "sensor_noise_std": 0.1,
        "dt": 1.0,
        "steps": 1200,
    },
    "attacks": [
        {"kind": "sensor-bias", "target_feature": "LIT101", "delta": -25.0,
         "window": [200, 320]},
        {"kind": "actuator-flip", "target_feature": "P101", "delta": 0.0,
         "window": [600, 760]},
        {"kind": "sensor-bias", "target_feature": "FIT102", "delta": -2.0,
         "window": [900, 1000]},
    ],
}


def scenario(seed: int, smoke: bool) -> dict:
    """Training scenario; seed 7 keeps the bundled (or desk) seeds."""
    if smoke:
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["normal_seed"], doc["attack_seed"] = 387 + 2 * seed, 388 + 2 * seed
        return doc
    doc = plantsim.bundled_scenario()
    doc["plant"]["steps"] //= SHRINK
    for attack in doc["attacks"]:
        attack["window"] = [w // SHRINK for w in attack["window"]]
    doc["normal_seed"], doc["attack_seed"] = 20196 + 2 * seed, 20197 + 2 * seed
    return doc


def long_scenario(seed: int, smoke: bool) -> dict:
    """score-long's attacked log: the unshrunk attack windows tiled over a
    long run, one tile per period of the original scenario."""
    base = copy.deepcopy(TINY_SCENARIO) if smoke else plantsim.bundled_scenario()
    period = base["plant"]["steps"]
    steps = SMOKE_LONG_STEPS if smoke else LONG_STEPS
    attacks = []
    for offset in range(0, steps, period):
        for attack in base["attacks"]:
            a = dict(attack)
            a["window"] = [w + offset for w in attack["window"]]
            attacks.append(a)
    base["plant"]["steps"] = steps
    base["attacks"] = attacks
    base["normal_seed"] = 0
    base["attack_seed"] = LONG_SEED_OFFSET + scenario(seed, smoke)["attack_seed"]
    return base


def config(workload: str, seed: int, smoke: bool) -> dict:
    cfg = pipeline.default_config()
    cfg["seed"] = seed
    if smoke:
        cfg["n_runs"] = 2
        cfg["mlp"].update({"epochs": 8, "batch_size": 32})
        cfg["jsma"].update(
            {"epsilon_schedule": [0.1], "variants_per_row": 1, "max_iterations": 60}
        )
        cfg["rf"]["n_trees"] = 10
        cfg["gbc"]["n_stages"] = 20
    else:
        cfg["rf"]["n_trees"] //= SHRINK
        cfg["gbc"]["n_stages"] //= SHRINK
    if workload == "attack-heavy":
        cfg["jsma"].update(
            {"epsilon_schedule": [0.02, 0.05, 0.1], "variants_per_row": 3}
        )
        cfg["n_runs"] = 1
        cfg["rf"]["n_trees"] = 5
        cfg["gbc"]["n_stages"] = 5
    elif workload == "score-long":
        cfg["n_runs"] = 1
    return cfg


def prepare(workload: str, seed: int, smoke: bool, work: Path) -> None:
    """Set-up: write and validate the inputs; score-long also trains its
    detectors (one of each kind) and keeps them in ``work/train``."""
    work.mkdir(parents=True, exist_ok=True)
    scen = scenario(seed, smoke)
    plantsim.parse_scenario(scen)
    pipeline.write_json(scen, work / "scenario.json")
    cfg = config(workload, seed, smoke)
    cfg["scenario"] = str((work / "scenario.json").resolve())
    pipeline.normalize_config(cfg)
    pipeline.write_json(cfg, work / "config.json")
    if workload == "score-long":
        long_doc = long_scenario(seed, smoke)
        plantsim.parse_scenario(long_doc)
        pipeline.write_json(long_doc, work / "long_scenario.json")
        run_pipeline(work, work / "train")


def run_pipeline(work: Path, out: Path) -> dict:
    """What ``icsadv pipeline --config work/config.json --out out`` does."""
    config = json.loads((work / "config.json").read_text())
    out.mkdir(parents=True, exist_ok=True)
    with pipeline.DirectoryLock(out):
        return pipeline.run_pipeline(config, out)


def score_long(work: Path, out: Path):
    """Simulate the long log, scale it, round-trip it through CSV, then load
    each detector and evaluate it on the log."""
    train = work / "train"
    doc = plantsim.load_scenario(work / "long_scenario.json")
    plant, attacks, _normal_seed, attack_seed = plantsim.parse_scenario(doc)
    raw = plantsim.simulate_with_attacks(plant, attacks, attack_seed)
    params = ds.NormalizationParams.from_json(
        json.loads((train / "minmax.json").read_text())
    )
    scaled = ds.apply_minmax(raw, params)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_csv(scaled, out / "long_norm.csv")
    schema = ds.Schema.from_json(json.loads((train / "schema.json").read_text()))
    data = ds.load_csv(out / "long_norm.csv", schema)
    evals = {
        kind: pipeline.evaluate_model(
            trees.load_model(train / "models" / ("%s_run0.json" % kind)), data
        )
        for kind in KINDS
    }
    return scaled, data, evals


def timed_op(workload: str, work: Path, out: Path):
    if workload == "score-long":
        return score_long(work, out)
    return run_pipeline(work, out)


# -- output checks -------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _generation_rate(out: Path) -> float:
    report = json.loads((out / "generation_report.json").read_text())
    attempts = sum(e["attempts"] for e in report["per_epsilon"])
    return report["emitted"] / attempts


def check_pipeline_run(manifest: dict, out: Path) -> dict:
    """Check one pipeline run's artifacts; return its digest and quality."""
    _require(
        manifest["provenance"]["evaluation_in_training_inputs"] is False,
        "provenance: evaluation set among detector training inputs",
    )
    schema = ds.Schema.from_json(json.loads((out / "schema.json").read_text()))
    adv = ds.load_csv(out / "adversarial.csv", schema)
    _require(adv.n_rows == manifest["generation"]["emitted"], "adversarial row count")
    _require(bool(np.all(adv.y == 1)), "adversarial rows must be labeled attack")
    _require(
        bool(np.all((adv.X >= 0.0) & (adv.X <= 1.0))),
        "adversarial rows must stay in the unit box",
    )
    n_eval = json.loads((out / "scenario.json").read_text())["plant"]["steps"]
    report = json.loads((out / "report.json").read_text())
    worst, average = [], []
    for kind in KINDS:
        block = report["detectors"][kind]
        _require(
            len(block["matrices"]) == manifest["config"]["n_runs"],
            "%s: one matrix per run" % kind,
        )
        for m in block["matrices"]:
            _require(sum(m.values()) == n_eval, "%s: matrix covers every row" % kind)
        worst.append(block["worst"]["attack_recall"])
        average.append(block["average"]["attack_recall"])
    return {
        "digest": _digest(manifest["artifacts"]),
        "report_sha256": manifest["artifacts"]["report.json"],
        "attack_recall_mean": sum(average) / len(average),
        "attack_recall_min": min(worst),
        "jsma_success_rate": _generation_rate(out),
    }


def check_score_long(result, work: Path) -> dict:
    scaled, data, evals = result
    _require(np.array_equal(scaled.X, data.X), "CSV round trip changed features")
    _require(np.array_equal(scaled.y, data.y), "CSV round trip changed labels")
    manifest = json.loads((work / "train" / "run_manifest.json").read_text())
    _require(
        manifest["provenance"]["evaluation_in_training_inputs"] is False,
        "provenance: evaluation set among detector training inputs",
    )
    recalls = []
    for kind, doc in evals.items():
        recalls.append(doc["metrics"]["attack_recall"])
        _require(
            sum(doc["matrix"].values()) == data.n_rows,
            "%s: matrix covers every row" % kind,
        )
    return {
        "digest": _digest(evals),
        "attack_recall_mean": sum(recalls) / len(recalls),
        "attack_recall_min": min(recalls),
        "jsma_success_rate": _generation_rate(work / "train"),
    }


def check(workload: str, result, work: Path, out: Path) -> dict:
    if workload == "score-long":
        return check_score_long(result, work)
    return check_pipeline_run(result, out)
