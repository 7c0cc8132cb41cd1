"""Command-line interface.

Subcommands mirror the pipeline stages so any stage can be re-run from its
persisted inputs: simulate, preprocess, train-mlp, attack, train-detector,
evaluate, pipeline, report.

Exit codes: 0 success, 2 bad input, 1 unexpected internal failure. Bad
input is a missing or unreadable file, a malformed CSV, an out-of-range
parameter, or a malformed JSON document: the scenario, pipeline config,
schema, min-max parameters, MLP or detector model, or assessment report
(see ``errors.parses``).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dataset as ds
from . import evaluation, jsma, mlp, pipeline, plantsim, trees
from .errors import IcsAdvError, read_json


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _block(args, name: str) -> dict:
    """Config block ``name`` of default_pipeline.json with every flag that
    was given (not None) put over its default."""
    block = pipeline.default_config()[name]
    block.update((k, getattr(args, k)) for k in block if getattr(args, k) is not None)
    return block


def cmd_simulate(args) -> int:
    if args.scenario is None:
        scenario = plantsim.bundled_scenario()
    else:
        scenario = plantsim.load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with pipeline.DirectoryLock(out):
        manifest = pipeline.simulate_to_dir(scenario, out)
    print(
        "simulate: %d normal rows, %d attacked rows (%d labeled attack) -> %s"
        % (
            manifest["normal_rows"],
            manifest["attacked_rows"],
            manifest["attack_rows_labeled"],
            out,
        )
    )
    return 0


def cmd_preprocess(args) -> int:
    schema = read_json(args.schema, ds.Schema.from_json)
    data = ds.load_csv(args.input, schema)
    if args.params:
        params = read_json(args.params, ds.NormalizationParams.from_json)
    else:
        params = ds.fit_minmax(data)
        if args.fit_params_out:
            pipeline.write_json(params.to_json(), Path(args.fit_params_out))
    scaled = ds.apply_minmax(data, params)
    pipeline.write_csv(scaled, Path(args.out))
    print("preprocess: %d rows -> %s" % (scaled.n_rows, args.out))
    return 0


def cmd_train_mlp(args) -> int:
    data = ds.load_csv(args.train, read_json(args.schema, ds.Schema.from_json))
    block = _block(args, "mlp")
    model, history = pipeline.train_oracle(
        data, block, args.split_seed, args.seed, args.seed
    )
    pipeline.write_model(model, Path(args.out))
    print(
        "train-mlp: %g of %d rows, %d epochs, final loss %.6f -> %s"
        % (block["train_fraction"], data.n_rows, block["epochs"], history[-1],
           args.out)
    )
    return 0


def cmd_attack(args) -> int:
    schema = read_json(args.schema, ds.Schema.from_json)
    model = mlp.load_model(args.model)
    data = ds.load_csv(args.data, schema)
    adv, report = pipeline.generate_adversarial(
        model, data, _block(args, "jsma"), args.target
    )
    pipeline.write_csv(adv, Path(args.out))
    if args.report:
        pipeline.write_json(report, Path(args.report))
    print(
        "attack: %d rows x %d variants -> %d adversarial samples -> %s"
        % (report["rows"], report["variants_per_row"], report["emitted"], args.out)
    )
    return 0


def cmd_train_detector(args) -> int:
    data = ds.load_csv(args.train, read_json(args.schema, ds.Schema.from_json))
    model = pipeline.train_detector(
        args.kind, data.X, data.y, _block(args, args.kind), args.seed
    )
    pipeline.write_model(model, Path(args.out))
    print("train-detector: %s on %d rows -> %s" % (args.kind, data.n_rows, args.out))
    return 0


def cmd_evaluate(args) -> int:
    schema = read_json(args.schema, ds.Schema.from_json)
    model = trees.load_model(args.model)
    data = ds.load_csv(args.data, schema)
    doc = pipeline.evaluate_model(model, data)
    pipeline.write_json(doc, Path(args.out))
    row = doc["metrics"]
    print(
        "evaluate: accuracy %.4f, recall %.4f, fpr %.4f, f1 %.4f -> %s"
        % (row["accuracy"], row["recall"], row["fpr"], row["f1"], args.out)
    )
    if doc["predicts_no_attacks"]:
        print("warning: detector never predicts the attack class", file=sys.stderr)
    return 0


def cmd_pipeline(args) -> int:
    if args.config is None:
        config = pipeline.default_config()
    else:
        config = read_json(args.config, pipeline.normalize_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with pipeline.DirectoryLock(out):
        manifest = pipeline.run_pipeline(config, out)
    print("pipeline: wrote %d artifacts -> %s" % (len(manifest["artifacts"]), out))
    return 0


def cmd_report(args) -> int:
    text = read_json(args.input, evaluation.render_text)
    if args.out:
        pipeline.write_text(text, Path(args.out))
        print("report: -> %s" % args.out)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsadv",
        description="Adversarially trained anomaly detectors for water "
        "treatment telemetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario into normal/attacked CSVs")
    p.add_argument("--scenario", help="scenario JSON (default: bundled scenario)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("preprocess", help="min-max scale a dataset to [0, 1]")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--params", help="apply existing parameters instead of fitting")
    p.add_argument("--fit-params-out", help="where to save fitted parameters")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser(
        "train-mlp", help="train the MLP oracle",
        description="An unset flag takes its value from the mlp block in "
        "default_pipeline.json.",
    )
    p.add_argument("--train", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", dest="hidden_layers", type=_int_list,
                   help="hidden sizes, e.g. 64,64")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--l2-penalty", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float,
                   help="fraction in (0, 1] of the rows to train on, drawn "
                   "with --split-seed; 1 trains on every row")
    p.add_argument("--split-seed", type=int, default=0)
    p.set_defaults(func=cmd_train_mlp)

    p = sub.add_parser(
        "attack", help="generate adversarial samples",
        description="An unset flag takes its value from the jsma block in "
        "default_pipeline.json.",
    )
    p.add_argument("--model", required=True, help="mlp model JSON")
    p.add_argument("--data", required=True,
                   help="normalized CSV; only label-1 rows are used")
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True, help="adversarial CSV")
    p.add_argument("--report", help="generation report JSON")
    p.add_argument("--epsilons", dest="epsilon_schedule", type=_float_list)
    p.add_argument("--variants", dest="variants_per_row", type=int)
    p.add_argument("--theta", dest="theta_max_features", type=float)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--direction", choices=[jsma.INCREASE, jsma.SIGNED])
    p.add_argument("--target", type=int, default=0)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "train-detector", help="train cart, rf or gbc",
        description="An unset flag takes its value from the kind's block in "
        "default_pipeline.json; flags the kind has no parameter for are ignored.",
    )
    p.add_argument("--kind", required=True,
                   choices=list(trees.KINDS))
    p.add_argument("--train", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--min-samples-split", type=int)
    p.add_argument("--min-impurity-decrease", type=float)
    p.add_argument("--n-trees", type=int)
    p.add_argument("--features-per-split", type=int)
    p.add_argument("--no-bootstrap", dest="bootstrap", action="store_false",
                   default=None)
    p.add_argument("--n-stages", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--seed", type=int, default=0, help="forest seed")
    p.set_defaults(func=cmd_train_detector)

    p = sub.add_parser("evaluate", help="score a detector on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", help="pipeline config JSON (default: bundled)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("report", help="render a report JSON as text tables")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IcsAdvError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
