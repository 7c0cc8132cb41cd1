"""End-to-end orchestration: simulate, normalize, oracle, generate, train,
assess.

Every stage persists its artifacts into the output directory, so any stage
can be re-run standalone through the CLI from the files alone: stages 3-5
are ``train_oracle``, ``generate_adversarial`` and ``train_detector``, which
the ``train-mlp``, ``attack`` and ``train-detector`` subcommands call with
their flags as the config block. Every file is written by the parent, to a
temp file renamed into place, so an interrupted run leaves no truncated
artifact, and every file is in place before the run manifest is written.
All randomness derives from the scenario seeds plus the single pipeline
seed via fixed offsets, and floats serialize via repr, so two runs with the
same config produce byte-identical artifacts.

A run forks one pool of worker processes right after stage 2 (one per
usable core, at most one per detector fit) and keeps it to the end. The
workers inherit both normalized legs and the config. The pool's first job
trains the oracle while the parent writes the stage 1-2 files; the parent
then takes the oracle back, runs JSMA, and maps the detector fits over the
same pool: every forest run, the boosted model and the single tree are
independent fits, and each job gets the adversarial set with its arguments.
Each job sends back only its result, and the parent writes the results in
a fixed order, so the artifacts are the same bytes whatever the number of
workers.

The run manifest records a SHA-256 per artifact plus which files fed
detector training. The evaluation dataset's hash must never appear among
the detector training inputs; the pipeline asserts that invariant and
stores the outcome under ``provenance``.
"""
from __future__ import annotations

import hashlib
import json
import os
from importlib import resources
from pathlib import Path

from . import dataset as ds
from . import evaluation, jsma, mlp, plantsim, trees
from .errors import (IcsAdvError, ParameterError, ParseError, integer, known_keys,
                     parses, real)

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
    known_keys(user, defaults, where)
    merged = dict(defaults)
    merged.update(user)
    return merged


@parses("pipeline config")
def normalize_config(config: dict) -> dict:
    """Fill a user config with defaults, reject unknown keys, and check every
    value the stages read, so that a bad value fails before stage 1."""
    base = default_config()
    if config.get("format", "pipeline-config") != "pipeline-config":
        raise ParseError("not a pipeline-config document")
    top_unknown = set(config) - set(base)
    if top_unknown:
        raise ParameterError(
            "unknown config keys: %s" % ", ".join(sorted(top_unknown))
        )
    scenario = config.get("scenario")
    if scenario is not None and not isinstance(scenario, str):
        raise ParseError("config scenario must be a file path or null")
    out = {
        "format": "pipeline-config",
        "version": 1,
        "scenario": scenario,
        "seed": integer(config.get("seed", base["seed"]), "seed", 0),
        "n_runs": integer(config.get("n_runs", base["n_runs"]), "n_runs", 1),
    }
    for block in ("mlp", "jsma", "cart", "rf", "gbc"):
        out[block] = _merge_block(base[block], config.get(block), block)
    _oracle_args(out["mlp"])
    _generation_args(out["jsma"])
    for kind in DETECTOR_ORDER:
        _detector_params(kind, out[kind])
    return out


def _replace_into(save, obj, path) -> None:
    """Write ``obj`` through ``save(obj, tmp)`` into a temp file beside
    ``path``, then rename it over ``path``: readers see the old file or the
    whole new one, never a partial write."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        save(obj, tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_json(obj: dict, path: Path) -> None:
    _replace_into(_dump_json, obj, path)


def write_csv(data: ds.Dataset, path: Path) -> None:
    _replace_into(ds.save_csv, data, path)


def write_text(text: str, path: Path) -> None:
    _replace_into(lambda t, tmp: tmp.write_text(t), text, path)


def write_model(model, path: Path) -> None:
    """Save an MLP oracle or a tree detector."""
    save = mlp.save_model if isinstance(model, mlp.MlpModel) else trees.save_model
    _replace_into(save, model, path)


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


def _simulate(scenario: dict, emit):
    """Stage 1: simulate both legs of ``scenario``; the scenario and its
    schema go to ``emit(name, writer, obj)``, and the caller writes the logs.

    Returns (normal, attacked, parse_scenario's tuple)."""
    parsed = plantsim.parse_scenario(scenario)
    plant, attacks, normal_seed, attack_seed = parsed
    emit("scenario.json", write_json, scenario)
    emit("schema.json", write_json, plantsim.schema_for(plant).to_json())
    normal = plantsim.simulate_normal(plant, normal_seed)
    attacked = plantsim.simulate_with_attacks(plant, attacks, attack_seed)
    return normal, attacked, parsed


@parses("mlp block")
def _oracle_args(block: dict):
    """The mlp block as (hidden layer sizes, train fraction, ``mlp.train``
    keywords)."""
    hidden = [integer(h, "mlp hidden_layers", 1) for h in block["hidden_layers"]]
    if not hidden:
        raise ParameterError("mlp hidden_layers must not be empty")
    fraction = real(block["train_fraction"], "mlp train_fraction")
    if not 0.0 < fraction <= 1.0:
        raise ParameterError("mlp train_fraction must be in (0, 1], got %r" % fraction)
    train_args = {key: block[key]
                  for key in ("learning_rate", "epochs", "batch_size", "l2_penalty")}
    mlp.check_training_params(**train_args)
    return hidden, fraction, train_args


def train_oracle(data: ds.Dataset, mlp_block: dict, split_seed: int,
                 init_seed: int, train_seed: int):
    """Stage 3: train the MLP oracle on a seeded ``train_fraction`` of
    ``data``; a fraction of 1 trains on every row.

    Returns the trained model and its per-epoch loss history.
    """
    hidden, fraction, train_args = _oracle_args(mlp_block)
    if fraction < 1.0:
        data, _held = ds.split(data, fraction, split_seed)
    model = mlp.init([data.n_features] + hidden + [2], init_seed)
    return mlp.train(model, data.X, data.y, seed=train_seed, **train_args)


@parses("jsma block")
def _generation_args(block: dict):
    """The jsma block as (attack config, epsilon schedule, variants per row)."""
    config = jsma.JsmaConfig(
        theta_max_features=block["theta_max_features"],
        max_iterations=block["max_iterations"],
        direction=str(block["direction"]),
    )
    schedule, variants = block["epsilon_schedule"], block["variants_per_row"]
    # the attack config takes the schedule's first epsilon
    config = jsma.variant_configs(config, schedule, variants)[0]
    return config, schedule, variants


def generate_adversarial(oracle: mlp.MlpModel, data: ds.Dataset,
                         jsma_block: dict, target: int):
    """Stage 4: JSMA samples from the attack rows (label 1) of ``data``.

    Returns the adversarial dataset and the generation report.
    """
    attack_rows = ds.Dataset(data.schema, data.X[data.y == 1], data.y[data.y == 1])
    config, schedule, variants = _generation_args(jsma_block)
    return jsma.generate_set(
        oracle, attack_rows, config, schedule, variants, target=target
    )


_DETECTOR_PARAMS = {trees.CART: trees.CartParams, trees.FOREST: trees.ForestParams,
                    trees.GBC: trees.GbcParams}


@parses("detector block")
def _detector_params(kind: str, block: dict):
    """The config block of detector ``kind`` as its params dataclass."""
    if kind not in _DETECTOR_PARAMS:
        raise ParameterError("unknown detector kind %r" % kind)
    return _DETECTOR_PARAMS[kind](**block)


def train_detector(kind: str, X, y, block: dict, seed: int = 0):
    """Stage 5: fit one detector of ``kind`` with the parameters of its config
    block; only the forest uses ``seed``, but every kind checks it."""
    params = _detector_params(kind, block)
    seed = integer(seed, "seed", 0)
    if kind == trees.CART:
        return trees.train_cart(X, y, params)
    if kind == trees.GBC:
        return trees.train_gbc(X, y, params)
    return trees.train_forest(X, y, params, seed=seed)


# what a forked worker inherits from the parent: (normalized normal leg,
# normalized attacked leg, config)
_WORKER_INPUTS = None


def _init_worker(*inputs):
    global _WORKER_INPUTS
    _WORKER_INPUTS = inputs


def _forked_pool(n_workers: int, *inputs):
    """A ``ProcessPoolExecutor`` of ``n_workers`` forked processes that
    inherit ``inputs`` as ``_WORKER_INPUTS``.

    Only the jobs and the results are pickled. A job's exception is
    re-raised in the parent with its class and message; a worker that dies
    raises ``BrokenProcessPool``.
    """
    # imported here, not at the top: they add about 40 ms to every import
    # of the package, and only a pipeline run needs them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=inputs,
    )


def _oracle_job(seeds):
    """Stage 3 on the inherited attacked leg; ``seeds`` = (split, init,
    train). Returns (model, loss history)."""
    _normal_n, attacked_n, config = _WORKER_INPUTS
    return train_oracle(attacked_n, config["mlp"], *seeds)


def _fit_job(job):
    """Fit the detector ``job = (kind, run seed, adversarial set)`` on the
    inherited normal leg plus the adversarial set, and score it on the
    attacked leg; returns (model, confusion matrix)."""
    kind, run_seed, adversarial = job
    normal_n, attacked_n, config = _WORKER_INPUTS
    merged = ds.merge(normal_n, adversarial)
    model = train_detector(kind, merged.X, merged.y, config[kind], run_seed)
    preds = trees.predict_classes(model, attacked_n.X)
    return model, evaluation.confusion(preds, attacked_n.y)


def _worker_count(n_jobs: int) -> int:
    return min(len(os.sched_getaffinity(0)), n_jobs)


def run_pipeline(config: dict, out_dir, scenario: dict | None = None) -> dict:
    """Execute every stage into ``out_dir`` and return the run manifest.

    ``scenario``, a scenario document, overrides the config's ``scenario``;
    without it the config's scenario file is loaded, or the bundled scenario
    when the config's ``scenario`` is null.
    """
    config = normalize_config(config)
    if scenario is None:
        if config["scenario"] is None:
            scenario = plantsim.bundled_scenario()
        else:
            scenario = plantsim.load_scenario(config["scenario"])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    artifacts: dict[str, str] = {}

    def emit(name: str, writer, obj) -> None:
        writer(obj, out / name)
        artifacts[name] = sha256_file(out / name)

    normal, attacked, _parsed = _simulate(scenario, emit)
    seed = config["seed"]
    seeds = {
        "scenario_normal": scenario["normal_seed"],
        "scenario_attack": scenario["attack_seed"],
        "split": seed + SPLIT_SEED_OFFSET,
        "mlp_init": seed + MLP_INIT_SEED_OFFSET,
        "mlp_train": seed + MLP_TRAIN_SEED_OFFSET,
        "detector_runs": [seed + DETECTOR_SEED_OFFSET + r
                          for r in range(config["n_runs"])],
    }

    # stage 2: fit scaling on the attacked trace, normalize both legs
    params = ds.fit_minmax(attacked)
    normal_n = ds.apply_minmax(normal, params)
    attacked_n = ds.apply_minmax(attacked, params)

    # the forests, the longest fits, go first; cart and gbc take no seed, so
    # one fit and one prediction serve every run
    jobs = ([(trees.FOREST, s) for s in seeds["detector_runs"]]
            + [(trees.GBC, 0), (trees.CART, 0)])
    # stage 3 trains in the pool while the parent writes the stage 1-2
    # files; leaving the block joins every job, so a failed write raises
    # after the oracle is done and before any later artifact exists
    with _forked_pool(_worker_count(len(jobs)), normal_n, attacked_n, config) as pool:
        trained = pool.submit(_oracle_job, (seeds["split"], seeds["mlp_init"],
                                            seeds["mlp_train"]))
        emit("normal.csv", write_csv, normal)
        emit("attacked.csv", write_csv, attacked)
        emit("minmax.json", write_json, params.to_json())
        emit("normal_norm.csv", write_csv, normal_n)
        emit("attacked_norm.csv", write_csv, attacked_n)
        oracle, history = trained.result()
        emit("mlp.json", write_model, oracle)

        # the samples must pass the oracle as normal (class 0)
        adversarial, gen_report = generate_adversarial(
            oracle, attacked_n, config["jsma"], target=0
        )
        emit("adversarial.csv", write_csv, adversarial)
        emit("generation_report.json", write_json, gen_report)

        # detectors train on normal + adversarial only, and are scored on
        # the full attacked trace
        *forests, gbc, cart = pool.map(
            _fit_job, [(kind, s, adversarial) for kind, s in jobs])
    matrices: dict[str, list[evaluation.ConfusionMatrix]] = {
        k: [] for k in DETECTOR_ORDER
    }
    (out / "models").mkdir(exist_ok=True)
    for r, forest in enumerate(forests):
        for kind, (model, matrix) in zip(DETECTOR_ORDER, (cart, forest, gbc)):
            emit("models/%s_run%d.json" % (kind, r), write_model, model)
            matrices[kind].append(matrix)

    # stage 6: assessment report
    report = evaluation.build_report(matrices)
    emit("report.json", write_json, report)
    emit("report.txt", write_text, evaluation.render_text(report))

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
        "seeds": seeds,
        "mlp": {
            "layer_sizes": oracle.layer_sizes,
            "epochs": config["mlp"]["epochs"],
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
    normal, attacked, (_plant, attacks, normal_seed, attack_seed) = _simulate(
        scenario, lambda name, writer, obj: writer(obj, out / name)
    )
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
