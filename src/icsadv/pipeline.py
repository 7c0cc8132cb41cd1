"""End-to-end orchestration: simulate, normalize, oracle, generate, train,
assess.

Every stage persists its artifact into the output directory before the
next stage starts, so any stage can be re-run standalone through the CLI
from the files alone. All randomness derives from the scenario seeds plus
the single pipeline seed via fixed offsets, and floats serialize via repr,
so two runs with the same config produce byte-identical artifacts.

The run manifest records a SHA-256 per artifact plus which files fed
detector training. The evaluation dataset's hash must never appear among
the detector training inputs; the pipeline asserts that invariant and
stores the outcome under ``provenance``.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluation, jsma, mlp, plantsim, trees
from .errors import IcsAdvError, ParameterError, ParseError

# fixed offsets applied to the pipeline seed, one per randomized stage
SPLIT_SEED_OFFSET = 101
MLP_INIT_SEED_OFFSET = 211
MLP_TRAIN_SEED_OFFSET = 223
DETECTOR_SEED_OFFSET = 503

DETECTOR_ORDER = (trees.CART, trees.FOREST, trees.GBC)


def default_config() -> dict:
    text = resources.files("icsadv.data").joinpath("default_pipeline.json").read_text()
    return json.loads(text)


def _merge_block(defaults: dict, user: dict | None, where: str) -> dict:
    if user is None:
        return dict(defaults)
    if not isinstance(user, dict):
        raise ParseError("%s must be an object" % where)
    unknown = set(user) - set(defaults)
    if unknown:
        raise ParameterError(
            "unknown keys in %s: %s" % (where, ", ".join(sorted(unknown)))
        )
    merged = dict(defaults)
    merged.update(user)
    return merged


def normalize_config(config: dict) -> dict:
    """Fill a user config with defaults and reject unknown keys."""
    base = default_config()
    if config.get("format", "pipeline-config") != "pipeline-config":
        raise ParseError("not a pipeline-config document")
    top_unknown = set(config) - set(base)
    if top_unknown:
        raise ParameterError(
            "unknown config keys: %s" % ", ".join(sorted(top_unknown))
        )
    out = {
        "format": "pipeline-config",
        "version": 1,
        "scenario": config.get("scenario"),
        "seed": int(config.get("seed", base["seed"])),
        "n_runs": int(config.get("n_runs", base["n_runs"])),
    }
    if out["n_runs"] < 1:
        raise ParameterError("n_runs must be >= 1")
    for block in ("mlp", "jsma", "cart", "rf", "gbc"):
        out[block] = _merge_block(base[block], config.get(block), block)
    return out


def write_json(obj: dict, path: Path, indent: int = 2) -> None:
    """Atomic JSON write: full temp file, then rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=indent)
        fh.write("\n")
    os.replace(tmp, path)


def write_csv(data: ds.Dataset, path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    ds.save_csv(data, tmp)
    os.replace(tmp, path)


def write_text(text: str, path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class DirectoryLock:
    """Single-instance guard for an output directory."""

    def __init__(self, out_dir: Path):
        self.path = Path(out_dir) / ".icsadv.lock"
        self._fd: int | None = None

    def __enter__(self):
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise IcsAdvError(
                "output directory is locked by another run "
                "(stale lock? remove %s)" % self.path
            ) from None
        os.write(self._fd, b"%d\n" % os.getpid())
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


def _mlp_params(block: dict):
    hidden = [int(h) for h in block["hidden_layers"]]
    if not hidden or any(h < 1 for h in hidden):
        raise ParameterError("mlp hidden_layers must be positive integers")
    frac = float(block["train_fraction"])
    return hidden, frac


def _detector_params(config: dict):
    cart_p = trees.CartParams(**config["cart"])
    rf_kwargs = dict(config["rf"])
    if rf_kwargs.get("features_per_split") is not None:
        rf_kwargs["features_per_split"] = int(rf_kwargs["features_per_split"])
    rf_p = trees.ForestParams(**rf_kwargs)
    gbc_p = trees.GbcParams(**config["gbc"])
    return cart_p, rf_p, gbc_p


def run_pipeline(config: dict, out_dir, scenario: dict | None = None) -> dict:
    """Execute every stage into ``out_dir`` and return the run manifest.

    ``scenario`` overrides the config's scenario path (used for the bundled
    default); otherwise the path in the config is loaded.
    """
    config = normalize_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    models_dir = out / "models"
    models_dir.mkdir(exist_ok=True)

    if scenario is None:
        if config["scenario"] is None:
            scenario = plantsim.bundled_scenario()
        else:
            scenario = plantsim.load_scenario(config["scenario"])
    else:
        plantsim.parse_scenario(scenario)

    seed = config["seed"]
    artifacts: dict[str, str] = {}

    def record(name: str, path: Path):
        artifacts[name] = sha256_file(path)

    # stage 1: simulate both legs of the scenario
    write_json(scenario, out / "scenario.json")
    record("scenario.json", out / "scenario.json")
    plant_cfg, _attacks, _ns, _as = plantsim.parse_scenario(scenario)
    schema = plantsim.schema_for(plant_cfg)
    write_json(schema.to_json(), out / "schema.json")
    record("schema.json", out / "schema.json")
    normal, attacked = plantsim.simulate_scenario(scenario)
    write_csv(normal, out / "normal.csv")
    record("normal.csv", out / "normal.csv")
    write_csv(attacked, out / "attacked.csv")
    record("attacked.csv", out / "attacked.csv")

    # stage 2: fit scaling on the attacked trace, normalize both legs
    params = ds.fit_minmax(attacked)
    write_json(params.to_json(), out / "minmax.json")
    record("minmax.json", out / "minmax.json")
    normal_n = ds.apply_minmax(normal, params)
    attacked_n = ds.apply_minmax(attacked, params)
    write_csv(normal_n, out / "normal_norm.csv")
    record("normal_norm.csv", out / "normal_norm.csv")
    write_csv(attacked_n, out / "attacked_norm.csv")
    record("attacked_norm.csv", out / "attacked_norm.csv")

    # stage 3: train the oracle on a split of the attacked trace
    hidden, train_fraction = _mlp_params(config["mlp"])
    train_part, _held = ds.split(
        attacked_n, train_fraction, seed + SPLIT_SEED_OFFSET
    )
    layer_sizes = [schema.n_features] + hidden + [2]
    oracle = mlp.init(layer_sizes, seed + MLP_INIT_SEED_OFFSET)
    oracle, history = mlp.train(
        oracle,
        train_part.X,
        train_part.y,
        learning_rate=float(config["mlp"]["learning_rate"]),
        epochs=int(config["mlp"]["epochs"]),
        batch_size=int(config["mlp"]["batch_size"]),
        l2_penalty=float(config["mlp"]["l2_penalty"]),
        seed=seed + MLP_TRAIN_SEED_OFFSET,
    )
    mlp.save_model(oracle, out / "mlp.json.tmp")
    os.replace(out / "mlp.json.tmp", out / "mlp.json")
    record("mlp.json", out / "mlp.json")

    # stage 4: adversarial generation from the attack rows
    attack_rows = ds.Dataset(
        schema, attacked_n.X[attacked_n.y == 1], attacked_n.y[attacked_n.y == 1]
    )
    jsma_block = config["jsma"]
    jcfg = jsma.JsmaConfig(
        epsilon=float(jsma_block["epsilon_schedule"][0]),
        theta_max_features=float(jsma_block["theta_max_features"]),
        max_iterations=int(jsma_block["max_iterations"]),
        direction=str(jsma_block["direction"]),
    )
    adversarial, gen_report = jsma.generate_set(
        oracle,
        attack_rows,
        jcfg,
        [float(e) for e in jsma_block["epsilon_schedule"]],
        int(jsma_block["variants_per_row"]),
        target=0,
    )
    write_csv(adversarial, out / "adversarial.csv")
    record("adversarial.csv", out / "adversarial.csv")
    write_json(gen_report, out / "generation_report.json")
    record("generation_report.json", out / "generation_report.json")

    # stage 5: detectors train on normal + adversarial only
    merged = ds.merge(normal_n, adversarial)
    cart_p, rf_p, gbc_p = _detector_params(config)
    run_seeds = [seed + DETECTOR_SEED_OFFSET + r for r in range(config["n_runs"])]
    matrices: dict[str, list[evaluation.ConfusionMatrix]] = {
        k: [] for k in DETECTOR_ORDER
    }
    X_eval, y_eval = attacked_n.X, attacked_n.y

    def scored(model):
        preds = trees.predict_classes(model, X_eval)
        return model, evaluation.confusion(preds, y_eval)

    # cart and gbc take no seed: one fit and one prediction serve every run
    cart = scored(trees.train_cart(merged.X, merged.y, cart_p))
    gbc = scored(trees.train_gbc(merged.X, merged.y, gbc_p))
    for r, run_seed in enumerate(run_seeds):
        rf = scored(trees.train_forest(merged.X, merged.y, rf_p, seed=run_seed))
        for kind, (model, matrix) in zip(DETECTOR_ORDER, (cart, rf, gbc)):
            name = "models/%s_run%d.json" % (kind, r)
            trees.save_model(model, out / (name + ".tmp"))
            os.replace(out / (name + ".tmp"), out / name)
            record(name, out / name)
            matrices[kind].append(matrix)

    # stage 6: assessment report over the full attacked trace
    report = evaluation.build_report(matrices)
    write_json(report, out / "report.json")
    record("report.json", out / "report.json")
    write_text(evaluation.render_text(report), out / "report.txt")
    record("report.txt", out / "report.txt")

    training_inputs = {
        "normal_norm.csv": artifacts["normal_norm.csv"],
        "adversarial.csv": artifacts["adversarial.csv"],
    }
    eval_hash = artifacts["attacked_norm.csv"]
    overlap = eval_hash in training_inputs.values()
    if overlap:
        raise IcsAdvError(
            "provenance violation: evaluation dataset appears in detector "
            "training inputs"
        )

    manifest = {
        "format": "run-manifest",
        "version": 1,
        "config": config,
        "seeds": {
            "scenario_normal": scenario["normal_seed"],
            "scenario_attack": scenario["attack_seed"],
            "split": seed + SPLIT_SEED_OFFSET,
            "mlp_init": seed + MLP_INIT_SEED_OFFSET,
            "mlp_train": seed + MLP_TRAIN_SEED_OFFSET,
            "detector_runs": run_seeds,
        },
        "mlp": {
            "layer_sizes": layer_sizes,
            "epochs": int(config["mlp"]["epochs"]),
            "final_loss": history[-1],
        },
        "generation": {
            "emitted": gen_report["emitted"],
            "per_epsilon": gen_report["per_epsilon"],
        },
        "artifacts": artifacts,
        "provenance": {
            "evaluation_dataset": "attacked_norm.csv",
            "evaluation_sha256": eval_hash,
            "detector_training_inputs": training_inputs,
            "evaluation_in_training_inputs": overlap,
        },
    }
    write_json(manifest, out / "run_manifest.json")
    return manifest


def evaluate_model(model, data: ds.Dataset) -> dict:
    """Single-model assessment document (one confusion matrix)."""
    preds = trees.predict_classes(model, data.X)
    cm = evaluation.confusion(preds, data.y)
    row = evaluation.metrics(cm)
    degenerate = cm.tn + cm.fn == 0
    return {
        "format": "evaluation",
        "version": 1,
        "matrix": cm.to_json(),
        "metrics": row.to_json(),
        "predicts_no_attacks": degenerate,
    }


def simulate_to_dir(scenario: dict, out_dir) -> dict:
    """The simulate stage standalone: two CSVs, schema, label manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config, attacks, normal_seed, attack_seed = plantsim.parse_scenario(scenario)
    schema = plantsim.schema_for(config)
    normal, attacked = plantsim.simulate_scenario(scenario)
    write_json(scenario, out / "scenario.json")
    write_json(schema.to_json(), out / "schema.json")
    write_csv(normal, out / "normal.csv")
    write_csv(attacked, out / "attacked.csv")
    manifest = {
        "format": "simulation-manifest",
        "version": 1,
        "normal_rows": normal.n_rows,
        "attacked_rows": attacked.n_rows,
        "attack_rows_labeled": int(attacked.y.sum()),
        "seeds": {"normal": normal_seed, "attack": attack_seed},
        "windows": [a.to_json() for a in attacks],
        "files": {
            "normal": "normal.csv",
            "attacked": "attacked.csv",
            "schema": "schema.json",
        },
    }
    write_json(manifest, out / "simulation_manifest.json")
    return manifest
