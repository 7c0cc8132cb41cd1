"""Per-layer spans and counters, recorded from outside the package.

Inside ``with Tracer():`` the public functions of each icsadv module are
replaced by thin wrappers; leaving the block restores the originals. Every
wrapped call becomes a span (name, start, end, parent) kept in flat
in-memory arrays; a few wrappers also add counters read from the call's
arguments or result. Nothing inside the package changes: the package
reaches its layers through module attributes (``kernels.tree_apply``,
``mlp.jacobian``, ``ds.save_csv``), so the wrappers sit exactly on the
layer boundaries.

The layers are the package modules. Functions that the package calls once
per row or per attack step from inside their own module are left bare, so
tracing does not multiply their cost (see ``UNWRAPPED``).
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from array import array

from icsadv import dataset, evaluation, jsma, kernels, mlp, pipeline, plantsim, trees

LAYERS = {
    "plantsim": plantsim,
    "dataset": dataset,
    "mlp": mlp,
    "jsma": jsma,
    "trees": trees,
    "kernels": kernels,
    "evaluation": evaluation,
    "pipeline": pipeline,
}

# per-row or per-step helpers called from inside their own module
UNWRAPPED = {
    "dataset.label_encode",
    "dataset.label_decode",
    "jsma.select_feature",
    "jsma.feature_budget",
    "mlp.forward",
}

FITS = ("trees.train_cart", "trees.train_forest", "trees.train_gbc")
IO = {
    "pipeline.write_json",
    "pipeline.write_csv",
    "pipeline.write_text",
    "pipeline.sha256_file",
    "trees.save_model",
    "mlp.save_model",
}


def public_functions(module):
    """(name, function) for every public module-level function."""
    for name, value in sorted(vars(module).items()):
        if name.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        yield name, value


def _model_trees(model) -> list:
    kind = trees.model_kind(model)
    if kind == trees.CART:
        return [model.tree]
    return model.trees if kind == trees.FOREST else model.stages


def _model_digest(model) -> str:
    doc = [getattr(model, "initial_log_odds", None)]
    doc += [t.to_json() for t in _model_trees(model)]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.models: list = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        hook = _HOOKS.get(span_name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def __enter__(self):
        """Install the wrappers."""
        for layer, module in LAYERS.items():
            for name, fn in list(public_functions(module)):
                span_name = "%s.%s" % (layer, name)
                if span_name in UNWRAPPED:
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(span_name, fn))
        return self

    def __exit__(self, *exc):
        """Restore the original functions."""
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        doc = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [n, s, e, p]
                for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
            ],
            "counts": self.counts,
        }
        tmp = str(path) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)

    def totals(self) -> dict:
        """Raw sums over the spans: busy time per name group, self time per
        layer, call counts, plus the counters."""
        n = len(self.start)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name: list[list[int]] = [[] for _ in self.names]
        self_s = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            by_name[self.name_id[i]].append(i)
            self_s[layer_of[self.name_id[i]]] += dur[i] - child[i]
        calls = {name: len(by_name[k]) for k, name in enumerate(self.names)}

        def busy(pred) -> float:
            """Summed duration of matching spans with no matching ancestor."""
            hit = [pred(name) for name in self.names]
            total = 0.0
            for i in (i for k, h in enumerate(hit) if h for i in by_name[k]):
                p = self.parent[i]
                while p >= 0 and not hit[self.name_id[p]]:
                    p = self.parent[p]
                if p < 0:
                    total += dur[i]
            return total

        def named(*names):
            wanted = set(names)
            return busy(lambda s: s in wanted)

        out = {
            "plantsim.simulate_s": named(
                "plantsim.simulate_scenario",
                "plantsim.simulate_normal",
                "plantsim.simulate_with_attacks",
            ),
            "dataset.csv_write_s": named("dataset.save_csv"),
            "dataset.csv_read_s": named("dataset.load_csv"),
            "mlp.train_s": named("mlp.train"),
            "jsma.generate_s": named("jsma.generate_set"),
            "trees.fit_cart_s": named("trees.train_cart"),
            "trees.fit_rf_s": named("trees.train_forest"),
            "trees.fit_gbc_s": named("trees.train_gbc"),
            "trees.predict_s": named("trees.predict_classes", "trees.predict_class"),
            "kernels.gini_split_s": named("kernels.gini_best_split"),
            "kernels.sse_split_s": named("kernels.sse_best_split"),
            "kernels.tree_apply_s": named("kernels.tree_apply"),
            "evaluation.s": busy(lambda s: s.startswith("evaluation.")),
            "pipeline.io_s": busy(lambda s: s in IO),
            "mlp.predict_calls": calls.get("mlp.predict", 0),
            "mlp.jacobian_calls": calls.get("mlp.jacobian", 0),
            "kernels.gini_split_calls": calls.get("kernels.gini_best_split", 0),
            "kernels.sse_split_calls": calls.get("kernels.sse_best_split", 0),
            "kernels.tree_apply_calls": calls.get("kernels.tree_apply", 0),
            "trees.fits": sum(calls.get(k, 0) for k in FITS),
            "trace.spans": n,
        }
        for layer, v in self_s.items():
            out[layer + ".self_s"] = v
        for key, v in self.counts.items():
            out[key] = v
        out["trees.nodes"] = sum(t.n_nodes for m in self.models for t in _model_trees(m))
        out["_digests"] = {_model_digest(m) for m in self.models}
        return out


def combine(a: dict, b: dict) -> dict:
    """Sum two ``Tracer.totals`` results (set-up trace plus one op)."""
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, set()) | v if key == "_digests" else out.get(key, 0) + v
    return out


# Counters that need no per-call timing, keyed by span name; each runs after
# the span has closed.


def _on_fit(tracer, args, model):
    tracer.models.append(model)


def _on_gini(tracer, args, result):
    X, _y, feats = args
    tracer._count("kernels.gini_cells", X.shape[0] * len(feats))


def _on_sse(tracer, args, result):
    X, _r, feats = args
    tracer._count("kernels.sse_cells", X.shape[0] * len(feats))


def _on_predict(tracer, args, preds):
    tracer._count("trees.predict_row_trees", len(preds) * len(_model_trees(args[0])))


def _on_simulate(tracer, args, data):
    tracer._count("plantsim.rows", data.n_rows)


def _on_save_csv(tracer, args, result):
    tracer._count("dataset.csv_bytes", os.path.getsize(args[1]))


def _on_load_csv(tracer, args, result):
    tracer._count("dataset.csv_bytes", os.path.getsize(args[0]))


def _on_generate(tracer, args, result):
    _out, report = result
    tracer._count("jsma.rows_attacked", report["rows"])
    tracer._count("jsma.emitted", report["emitted"])
    tracer._count("jsma.attempts", sum(e["attempts"] for e in report["per_epsilon"]))


_HOOKS = {
    "trees.train_cart": _on_fit,
    "trees.train_forest": _on_fit,
    "trees.train_gbc": _on_fit,
    "kernels.gini_best_split": _on_gini,
    "kernels.sse_best_split": _on_sse,
    "trees.predict_classes": _on_predict,
    "plantsim.simulate_normal": _on_simulate,
    "plantsim.simulate_with_attacks": _on_simulate,
    "dataset.save_csv": _on_save_csv,
    "dataset.load_csv": _on_load_csv,
    "jsma.generate_set": _on_generate,
}

# every per-layer metric, with its unit
PER_LAYER = {
    "plantsim.simulate_s": "s",
    "plantsim.rows": "count",
    "dataset.csv_write_s": "s",
    "dataset.csv_read_s": "s",
    "dataset.csv_bytes": "bytes",
    "mlp.train_s": "s",
    "mlp.predict_calls": "count",
    "mlp.jacobian_calls": "count",
    "jsma.generate_s": "s",
    "jsma.rows_attacked": "count",
    "jsma.emitted": "count",
    "jsma.success_ratio": "ratio",
    "jsma.us_per_step": "us",
    "trees.fit_cart_s": "s",
    "trees.fit_rf_s": "s",
    "trees.fit_gbc_s": "s",
    "trees.fits": "count",
    "trees.nodes": "count",
    "trees.distinct_fit_ratio": "ratio",
    "trees.predict_s": "s",
    "trees.predict_row_trees": "count",
    "kernels.gini_split_s": "s",
    "kernels.gini_split_calls": "count",
    "kernels.gini_cells": "count",
    "kernels.sse_split_s": "s",
    "kernels.sse_split_calls": "count",
    "kernels.sse_cells": "count",
    "kernels.tree_apply_s": "s",
    "kernels.tree_apply_calls": "count",
    "evaluation.s": "s",
    "pipeline.io_s": "s",
    **{layer + ".self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(tot: dict) -> tuple[dict, dict]:
    """Per-layer metric values from raw totals, plus the bases of the
    ratios as printable strings."""
    out = {k: v for k, v in tot.items() if k in PER_LAYER}
    for key in PER_LAYER:
        out.setdefault(key, 0)
    attempts = tot.get("jsma.attempts", 0)
    emitted = tot.get("jsma.emitted", 0)
    fits = tot.get("trees.fits", 0)
    distinct = len(tot.get("_digests", ()))
    jac = tot.get("mlp.jacobian_calls", 0)
    out["jsma.success_ratio"] = emitted / attempts if attempts else 0.0
    out["trees.distinct_fit_ratio"] = distinct / fits if fits else 0.0
    out["jsma.us_per_step"] = 1e6 * tot.get("jsma.generate_s", 0.0) / jac if jac else 0.0
    bases = {
        "jsma.success_ratio": "%d/%d" % (emitted, attempts),
        "trees.distinct_fit_ratio": "%d/%d" % (distinct, fits),
        "jsma.us_per_step": "%.3fs/%d" % (tot.get("jsma.generate_s", 0.0), jac),
    }
    return out, bases
