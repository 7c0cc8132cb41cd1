"""CLI behavior: stage-by-stage walkthrough, exit codes, determinism."""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsadv import cli
from icsadv import dataset as ds
from icsadv import evaluation, mlp, trees
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

    def test_non_utf8_input(self, tmp_path, capsys):
        schema = ds.Schema((ds.Feature("A", "sensor"),))
        (tmp_path / "schema.json").write_text(json.dumps(schema.to_json()))
        data = tmp_path / "data.csv"
        data.write_bytes(b"\xff\xfeA\x00")  # a UTF-16 byte order mark
        rc = cli.main(["preprocess", "--input", str(data),
                       "--schema", str(tmp_path / "schema.json"),
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data.csv" in err and "UTF-8" in err

    def test_report_rejects_other_documents(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        p.write_text('{"format": "scenario"}')
        rc = cli.main(["report", "--input", str(p)])
        assert rc == 2

    def test_evaluate_warns_when_no_row_is_flagged(self, tmp_path, capsys):
        schema = ds.Schema((ds.Feature("A", "sensor"),))
        X = np.random.default_rng(0).random((20, 1))
        (tmp_path / "schema.json").write_text(json.dumps(schema.to_json()))
        ds.save_csv(ds.Dataset(schema, X, (np.arange(20) % 2).astype(np.int64)),
                    tmp_path / "data.csv")
        # a tree trained on normal rows only predicts normal everywhere
        trees.save_model(trees.train_cart(X, np.zeros(20)), tmp_path / "m.json")
        rc = cli.main(
            ["evaluate", "--model", str(tmp_path / "m.json"),
             "--data", str(tmp_path / "data.csv"),
             "--schema", str(tmp_path / "schema.json"),
             "--out", str(tmp_path / "e.json")]
        )
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: detector never predicts the attack class\n")
        assert json.loads((tmp_path / "e.json").read_text())["predicts_no_attacks"]


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


def _run_cli(argv):
    """(exit code, stderr) of one in-process CLI call; an exception that
    escapes ``main`` (a traceback) fails the calling test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


def _assert_rejected(argv, names=None):
    """``argv`` exits 2 with one ``error:`` line, which holds the path
    ``names`` when given."""
    rc, err = _run_cli(argv)
    assert rc == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    if names is not None:
        assert str(names) in lines[0], err


@pytest.fixture(scope="module")
def doc_inputs(tmp_path_factory, tiny_inputs):
    """Valid input files for every subcommand, plus the documents behind the
    JSON ones: a two-feature labeled file in the unit box, its schema and
    min-max parameters, an MLP, one detector of each kind, a report, the
    desk scenario and the desk pipeline config pointing at it."""
    d = tmp_path_factory.mktemp("docs")
    rng = np.random.default_rng(0)
    schema = ds.Schema((ds.Feature("A", "sensor"), ds.Feature("B", "sensor")))
    X = rng.random((40, 2))
    data = ds.Dataset(schema, X, (X[:, 0] > 0.5).astype(np.int64))
    ds.save_csv(data, d / "data.csv")
    mlp.save_model(mlp.init([2, 3, 2], 0), d / "mlp.json")
    models = {
        "cart": trees.train_cart(data.X, data.y, trees.CartParams(max_depth=3)),
        "rf": trees.train_forest(data.X, data.y,
                                 trees.ForestParams(n_trees=2, max_depth=3)),
        "gbc": trees.train_gbc(data.X, data.y, trees.GbcParams(n_stages=2)),
    }
    for kind, model in models.items():
        trees.save_model(model, d / ("%s.json" % kind))
    cm = evaluation.confusion([0, 1, 0, 1], [0, 1, 1, 1])
    scenario, config = tiny_inputs()
    docs = {
        "schema": schema.to_json(),
        "params": ds.fit_minmax(data).to_json(),
        "mlp": json.loads((d / "mlp.json").read_text()),
        "detector": [json.loads((d / ("%s.json" % k)).read_text()) for k in models],
        "report": evaluation.build_report({"cart": [cm, cm], "rf": [cm]}),
        "scenario": scenario,
        "config": dict(config, scenario=str(d / "scenario.json")),
    }
    for name in ("schema", "params", "scenario", "config"):
        (d / ("%s.json" % name)).write_text(json.dumps(docs[name]))
    return d, docs


def _pipeline_probe(change):
    def probe(docs):
        config = copy.deepcopy(docs["config"])
        change(config)
        return config
    return probe


def _report_probe(change):
    def probe(docs):
        report = copy.deepcopy(docs["report"])
        change(report["detectors"]["cart"])
        return report
    return probe


def _detector_probe(index, change):
    """The detector document ``index`` of the valid ones (cart, rf, gbc),
    changed by ``change``."""
    def probe(docs):
        doc = copy.deepcopy(docs["detector"][index])
        change(doc)
        return doc
    return probe


def _set(block, key, value):
    return _pipeline_probe(lambda config: config[block].update({key: value}))


# (subcommand, the flag given the probe file, the probe document)
PROBES = {
    "scenario-list": ("simulate", "--scenario", lambda docs: []),
    "params-without-mins": ("preprocess", "--params", lambda docs: {
        k: v for k, v in docs["params"].items() if k != "mins"}),
    "params-list": ("preprocess", "--params", lambda docs: []),
    "report-without-worst": ("report", "--input", _report_probe(
        lambda block: block.pop("worst"))),
    "report-list": ("report", "--input", lambda docs: []),
    "config-list": ("pipeline", "--config", lambda docs: []),
    "seed-text": ("pipeline", "--config", _pipeline_probe(
        lambda config: config.update(seed="abc"))),
    "n-runs-null": ("pipeline", "--config", _pipeline_probe(
        lambda config: config.update(n_runs=None))),
    "hidden-layers-text": ("pipeline", "--config", _set("mlp", "hidden_layers", "ab")),
    "epsilon-schedule-number": ("pipeline", "--config",
                                _set("jsma", "epsilon_schedule", 5)),
    "features-per-split-text": ("pipeline", "--config",
                                _set("rf", "features_per_split", "x")),
    "max-depth-text": ("pipeline", "--config", _set("cart", "max_depth", "deep")),
    "negative-learning-rate": ("pipeline", "--config", _set("gbc", "learning_rate", -1)),
    "scenario-path-list": ("pipeline", "--config", _pipeline_probe(
        lambda config: config.update(scenario=[]))),
    # names are JSON strings: null is not the name "None"
    "params-feature-names-null": ("preprocess", "--params", lambda docs: dict(
        docs["params"], feature_names=[None] * len(docs["params"]["feature_names"]))),
    "direction-null": ("pipeline", "--config", _set("jsma", "direction", None)),
    "params-matrix": ("preprocess", "--params", lambda docs: dict(
        docs["params"], mins=[[0.0, 0.0]] * 2, maxs=[[1.0, 1.0]] * 2)),
    # json writes and reads infinity as Infinity; it fits no int and no
    # two-decimal rendering
    "seed-infinite": ("pipeline", "--config", _pipeline_probe(
        lambda config: config.update(seed=float("inf")))),
    "hidden-layers-empty": ("pipeline", "--config", _set("mlp", "hidden_layers", [])),
    "epsilon-schedule-empty": ("pipeline", "--config",
                               _set("jsma", "epsilon_schedule", [])),
    "rf-number": ("pipeline", "--config", _pipeline_probe(
        lambda config: config.update(rf=3))),
    "accuracy-infinite": ("report", "--input", _report_probe(
        lambda block: block["worst"].update(accuracy=float("inf")))),
    "mlp-without-weights": ("attack", "--model", lambda docs: {
        k: v for k, v in docs["mlp"].items() if k != "weights"}),
    "gbc-learning-rate-nan": ("evaluate", "--model", lambda docs: dict(
        docs["detector"][2], params=dict(docs["detector"][2]["params"],
                                         learning_rate=float("nan")))),
    # a document number is a JSON number: no text, no bools
    "cart-threshold-text": ("evaluate", "--model", _detector_probe(
        0, lambda doc: doc["tree"]["threshold"].__setitem__(0, "1.5"))),
    "gbc-initial-log-odds-true": ("evaluate", "--model", _detector_probe(
        2, lambda doc: doc.update(initial_log_odds=True))),
    "mlp-bias-true": ("attack", "--model", lambda docs: dict(
        docs["mlp"], biases=[[True] * len(b) for b in docs["mlp"]["biases"]])),
    "params-mins-text": ("preprocess", "--params", lambda docs: dict(
        docs["params"], mins=[str(v) for v in docs["params"]["mins"]])),
    # an ensemble holds as many trees as its params name
    "rf-fewer-trees": ("evaluate", "--model", _detector_probe(
        1, lambda doc: doc["params"].update(n_trees=3))),
    "gbc-more-stages": ("evaluate", "--model", _detector_probe(
        2, lambda doc: doc["stages"].append(doc["stages"][0]))),
}


def _argv(command, flag, case, d, out):
    """A call of ``command`` with ``case`` given to ``flag`` and every other
    input taken from the valid files in ``d``."""
    data = ["--data", d / "data.csv"]
    schema = ["--schema", d / "schema.json"]
    model = {"attack": ["--model", d / "mlp.json"],
             "evaluate": ["--model", d / "cart.json"]}.get(command, [])
    argv = {
        "simulate": ["--out", out],
        "preprocess": ["--input", d / "data.csv", "--out", out / "x.csv"] + schema,
        "train-mlp": ["--train", d / "data.csv", "--hidden", "2", "--epochs", "1",
                      "--out", out / "m.json"] + schema,
        "attack": data + schema + model + ["--max-iterations", "5",
                                           "--out", out / "adv.csv"],
        "train-detector": ["--kind", "cart", "--train", d / "data.csv",
                           "--out", out / "d.json"] + schema,
        "evaluate": data + schema + model + ["--out", out / "e.json"],
        "report": ["--out", out / "r.txt"],
        "pipeline": ["--out", out],
    }[command]
    # the later occurrence of a flag wins in argparse
    return [command] + argv + [flag, case]


class TestMalformedInput:
    """Every malformed document exits 2 with one error line naming its
    file; a bad config value fails before the pipeline writes anything."""

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_probe_exits_2(self, name, doc_inputs, tmp_path):
        d, docs = doc_inputs
        command, flag, build = PROBES[name]
        case = tmp_path / "case.json"
        case.write_text(json.dumps(build(docs)))
        out = tmp_path / "out"
        out.mkdir()
        _assert_rejected(_argv(command, flag, case, d, out), case)
        if command == "pipeline":
            assert list(out.iterdir()) == []


# every integer setting of a pipeline config, as (block, key); block None is
# the top level, and hidden_layers takes its bad value as a list entry
INTEGER_SETTINGS = [
    (None, "seed"), (None, "n_runs"), ("mlp", "hidden_layers"), ("mlp", "epochs"),
    ("mlp", "batch_size"), ("jsma", "max_iterations"),
    ("jsma", "variants_per_row"), ("cart", "max_depth"),
    ("cart", "min_samples_split"), ("rf", "n_trees"), ("rf", "features_per_split"),
    ("rf", "max_depth"), ("rf", "min_samples_split"), ("gbc", "n_stages"),
    ("gbc", "max_depth"),
]
NOT_INTEGERS = [
    (block, key, value) for block, key in INTEGER_SETTINGS
    for value in (2.5, "7", True)
] + [("rf", "bootstrap", "no"), ("rf", "bootstrap", 0)]
# every real-valued setting of a pipeline config; epsilon_schedule takes its
# bad value as a list entry
REAL_SETTINGS = [
    ("mlp", "learning_rate"), ("mlp", "l2_penalty"), ("mlp", "train_fraction"),
    ("jsma", "epsilon_schedule"), ("jsma", "theta_max_features"),
    ("cart", "min_impurity_decrease"), ("rf", "min_impurity_decrease"),
    ("gbc", "learning_rate"),
]
BAD_REALS = (float("nan"), float("inf"), float("-inf"), True, "1.2")
NOT_SETTINGS = NOT_INTEGERS + [
    (block, key, value) for block, key in REAL_SETTINGS for value in BAD_REALS
]


class TestConfigSettings:
    """A count, depth or seed must be an integer, a rate or fraction a finite
    real number and bootstrap a boolean: no value is truncated or read as
    text, and a bad one fails, naming the config file, before the pipeline
    writes anything."""

    @pytest.mark.parametrize(
        "block, key, value", NOT_SETTINGS,
        ids=["%s.%s=%r" % (b or "top", k, v) for b, k, v in NOT_SETTINGS])
    def test_bad_value_exits_2(self, block, key, value, doc_inputs, tmp_path):
        d, docs = doc_inputs
        config = copy.deepcopy(docs["config"])
        if key in ("hidden_layers", "epsilon_schedule"):
            value = [value]
        (config if block is None else config[block])[key] = value
        case = tmp_path / "case.json"
        case.write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        _assert_rejected(_argv("pipeline", "--config", case, d, out), case)
        assert list(out.iterdir()) == []


# every integer and every real of a scenario, as a path into the document
SCENARIO_INTEGERS = [
    ("plant", "n_tanks"), ("plant", "steps"), ("attacks", 0, "window", 0),
    ("attacks", 0, "window", 1), ("normal_seed",), ("attack_seed",),
]
SCENARIO_REALS = [
    ("plant", "tank_capacity"), ("plant", "inflow_rate"), ("plant", "outflow_rate"),
    ("plant", "level_low"), ("plant", "level_high"), ("plant", "sensor_noise_std"),
    ("plant", "dt"), ("attacks", 0, "delta"),
]
SCENARIO_NOT_INTEGERS = [
    (path, value) for path in SCENARIO_INTEGERS for value in (2.5, "7", True)
] + [(("normal_seed",), -3), (("attack_seed",), -3), (("attacks", 0, "window", 0), -1)
     ] + [(path, value) for path in SCENARIO_REALS for value in BAD_REALS] + [
    # a misspelt key is not ignored, and a window has exactly two bounds
    (("attacks", 0, "detla"), 5.0), (("plant", "stpes"), 100), (("comment",), "x"),
    (("attacks", 0, "window"), [200, 320, 99999]), (("attacks", 0, "window"), [200]),
]


class TestScenarioIntegers:
    """A scenario's tank count, step count, window bounds and seeds must be
    integers, the seeds and bounds >= 0, and its rates, levels, noise, time
    step and attack offsets finite real numbers; a bad one, an unknown key
    or a window that is not two bounds fails, naming the scenario file,
    before ``simulate`` or ``pipeline`` writes anything."""

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize(
        "path, value", SCENARIO_NOT_INTEGERS,
        ids=["%s=%r" % (".".join(map(str, p)), v) for p, v in SCENARIO_NOT_INTEGERS])
    def test_bad_value_exits_2(self, command, path, value, doc_inputs, tmp_path):
        d, docs = doc_inputs
        scenario = copy.deepcopy(docs["scenario"])
        _at(scenario, path[:-1])[path[-1]] = value
        case = tmp_path / "scenario.json"
        case.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        out.mkdir()
        if command == "pipeline":
            config = tmp_path / "config.json"
            config.write_text(json.dumps(dict(docs["config"], scenario=str(case))))
            _assert_rejected(_argv("pipeline", "--config", config, d, out), case)
        else:
            _assert_rejected(_argv("simulate", "--scenario", case, d, out), case)
        assert list(out.iterdir()) == []


# (command, flag, value); a -1 seed keeps the id (command, flag)
BAD_FLAGS = [
    ("train-mlp", "--seed", -1), ("train-mlp", "--split-seed", -1),
    ("train-detector", "--seed", -1),
    ("train-mlp", "--learning-rate", "nan"), ("train-mlp", "--learning-rate", "inf"),
    ("train-mlp", "--l2-penalty", "inf"), ("train-mlp", "--train-fraction", "nan"),
    ("attack", "--theta", "nan"), ("train-detector", "--learning-rate", "inf"),
    ("train-detector", "--min-impurity-decrease", "inf"),
]
# the detector kind that reads each train-detector flag
FLAG_KIND = {"--seed": "rf", "--learning-rate": "gbc", "--min-impurity-decrease": "cart"}


@pytest.mark.parametrize(
    "command, flag, value", BAD_FLAGS,
    ids=["%s-%s" % (c, f) + ("" if v == -1 else "=%s" % v) for c, f, v in BAD_FLAGS])
def test_negative_seed_flag_exits_2(command, flag, value, doc_inputs, tmp_path):
    """A negative seed, or a real-valued flag that is NaN or infinite, is one
    error line, and no model or sample file is written."""
    d, _ = doc_inputs
    out = tmp_path / "out"
    out.mkdir()
    argv = _argv(command, flag, value, d, out)
    if command == "train-detector":
        argv[argv.index("cart")] = FLAG_KIND[flag]
    _assert_rejected(argv)
    assert list(out.iterdir()) == []


# every subcommand flag that reads a JSON document, with the valid documents
# its cases are made from
SWEEP = {
    ("simulate", "--scenario"): "scenario",
    ("preprocess", "--schema"): "schema",
    ("train-mlp", "--schema"): "schema",
    ("attack", "--schema"): "schema",
    ("train-detector", "--schema"): "schema",
    ("evaluate", "--schema"): "schema",
    ("preprocess", "--params"): "params",
    ("attack", "--model"): "mlp",
    ("evaluate", "--model"): "detector",
    ("report", "--input"): "report",
    ("pipeline", "--config"): "config",
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)

# no digits, so that no case can ask for a huge simulation or network
REPLACEMENTS = (
    st.none()
    | st.text(string.ascii_letters, max_size=4)
    | st.lists(st.none() | st.text(string.ascii_letters, max_size=2), max_size=2)
    | st.dictionaries(st.text(string.ascii_letters, max_size=2), st.none(),
                      max_size=2)
)


def _paths(node, prefix=()):
    """The path of every key and list item inside ``node``."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    """``doc`` with one key or list item deleted or its value replaced."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(REPLACEMENTS)
    return doc


# the numeric arrays of each document kind a hole can hide in
NUMERIC_ARRAYS = {
    "mlp": ("weights", "biases"),
    "params": ("mins", "maxs"),
    "detector": ("threshold", "value"),
    # the metric columns render_text prints; it does not read "runs"
    "report": ("worst", "average", "best"),
}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _tree_docs(doc):
    return [doc["tree"]] if "tree" in doc else doc.get("trees") or doc["stages"]


def _breaks_tree(tree, key, i, v):
    """Whether ``tree[key][i] = v`` leaves the pre-order structure growth
    writes (features in [-1, n_features), i < left < right < n_nodes at
    internal nodes, -1 children at leaves) without a back edge. Back edges
    are left to the loader tests in test_trees.py: traversing one never
    ends, so here a loader that let it through would hang, not fail."""
    if key == "feature":
        return not -1 <= v < tree["n_features"]
    if tree["feature"][i] < 0:
        return v != -1
    # -1 wraps to the last node, a leaf in pre-order
    back_edge = v < -1 or 0 <= v <= i
    if key == "left":
        return not back_edge and not i < v < tree["right"][i]
    return not back_edge and not tree["left"][i] < v < len(tree["feature"])


@st.composite
def _holed(draw, doc, arrays):
    """``doc`` with one hole its loader must reject: a null, a bool or a
    string in one of its numeric ``arrays`` or, in a tree, a feature or
    child index that breaks the pre-order structure."""
    doc = copy.deepcopy(doc)
    if doc["format"] == "detector" and draw(st.booleans()):
        tree = draw(st.sampled_from(_tree_docs(doc)))
        n = len(tree["feature"])
        key = draw(st.sampled_from(["feature", "left", "right"]))
        i = draw(st.integers(0, n - 1))
        tree[key][i] = draw(st.integers(-3, n + 3).filter(
            lambda v: _breaks_tree(tree, key, i, v)))
        return doc
    path = draw(st.sampled_from([
        p for p in _paths(doc)
        if set(p) & set(arrays) and isinstance(_at(doc, p), float)
    ]))
    _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from([None, True, "0.5"]))
    return doc


@pytest.mark.parametrize("command, flag", sorted(SWEEP))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malformed_documents_exit_0_or_2(command, flag, data, doc_inputs):
    """Any mutated document exits 0 or 2 with no traceback; one with a hole
    in its numbers or its tree structure exits 2."""
    d, docs = doc_inputs
    kind = SWEEP[command, flag]
    valid = docs[kind] if isinstance(docs[kind], list) else [docs[kind]]
    holed = kind in NUMERIC_ARRAYS and data.draw(st.booleans())
    if holed:
        case = data.draw(st.sampled_from(valid).flatmap(
            lambda doc: _holed(doc, NUMERIC_ARRAYS[kind])))
    else:
        case = data.draw(JSON_VALUES | st.sampled_from(valid).flatmap(_mutated))
    if command == "pipeline" and isinstance(case, dict):
        case["scenario"] = docs["config"]["scenario"]
    # a case that passes validation runs with desk-size defaults, in about a
    # second, not with the bundled ones
    defaults = dict(docs["config"], scenario=None)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        pl, "default_config", lambda: copy.deepcopy(defaults)
    ):
        tmp = Path(tmp)
        (tmp / "case.json").write_text(json.dumps(case))
        (tmp / "out").mkdir()
        rc, err = _run_cli(_argv(command, flag, tmp / "case.json", d, tmp / "out"))
    assert rc in ((2,) if holed else (0, 2)), err
    assert "Traceback" not in err


# every subcommand flag that reads a CSV file
CSV_FLAGS = [
    ("preprocess", "--input"),
    ("train-mlp", "--train"),
    ("attack", "--data"),
    ("train-detector", "--train"),
    ("evaluate", "--data"),
]


@pytest.mark.parametrize("command, flag", CSV_FLAGS)
@settings(max_examples=10, deadline=None)
@given(at=st.floats(0.0, 1.0),
       bad=st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80"]))
def test_non_utf8_csv_exits_2(command, flag, at, bad, doc_inputs):
    """A CSV with bytes that are not UTF-8 anywhere in it exits 2."""
    d, _ = doc_inputs
    text = (d / "data.csv").read_bytes()
    cut = int(at * len(text))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "case.csv").write_bytes(text[:cut] + bad + text[cut:])
        (tmp / "out").mkdir()
        rc, err = _run_cli(_argv(command, flag, tmp / "case.csv", d, tmp / "out"))
    assert rc == 2, err
    assert "UTF-8" in err


@pytest.mark.parametrize("command, flag", CSV_FLAGS)
@pytest.mark.parametrize("where", ["header", "row"])
def test_csv_field_over_the_size_limit_exits_2(command, flag, where, doc_inputs,
                                               tmp_path):
    """A field longer than the csv module's limit (131,072 characters), in
    the header or in a row, exits 2 with one line naming the file."""
    d, _ = doc_inputs
    header, rest = (d / "data.csv").read_text().split("\n", 1)
    big = "9" * 200_000
    case = tmp_path / "case.csv"
    case.write_text(header + big + "\n" + rest if where == "header"
                    else header + "\n" + rest + big + ",0.5,Normal\r\n")
    (tmp_path / "out").mkdir()
    _assert_rejected(_argv(command, flag, case, d, tmp_path / "out"), names=case)


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
