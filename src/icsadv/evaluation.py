"""Detector assessment with the Normal class treated as positive.

The confusion matrix orientation here follows the operator's view of an
anomaly detector: tp counts Normal rows kept as Normal, fn Normal rows
flagged as Attack, fp Attack rows waved through as Normal, tn Attack rows
caught. Consequently ``fpr`` is the fraction of attack rows the detector
misses, which is the headline number for these detectors, and ``recall``
is the fraction of normal traffic that survives untouched.

Attack-side rates are kept alongside in full precision (attack_recall =
caught attacks, attack_precision = correctness of attack alarms) because
the positive-Normal convention makes those awkward to reconstruct.

Every 0/0 ratio collapses to 0.0 and leaves a flag naming the degenerate
metric, so downstream reports can distinguish a true zero from a
division-by-nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_DOWN, Decimal

import numpy as np

from .errors import EmptyInputError, ParameterError, class_labels, parses


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int  # true Normal, predicted Normal
    fn: int  # true Normal, predicted Attack
    fp: int  # true Attack, predicted Normal
    tn: int  # true Attack, predicted Attack

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ParameterError("confusion matrix counts must be >= 0")
        if self.total == 0:
            raise EmptyInputError("confusion matrix has no observations")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def to_json(self) -> dict:
        return {"tp": self.tp, "fn": self.fn, "fp": self.fp, "tn": self.tn}

    @classmethod
    def from_json(cls, obj: dict) -> "ConfusionMatrix":
        return cls(int(obj["tp"]), int(obj["fn"]), int(obj["fp"]), int(obj["tn"]))


def confusion(predictions, labels) -> ConfusionMatrix:
    """Count prediction outcomes; 0 = Normal (positive), 1 = Attack."""
    p = class_labels(predictions, None)
    l = class_labels(labels, p.shape[0])
    if p.size == 0:
        raise EmptyInputError("cannot build a confusion matrix from zero rows")
    return ConfusionMatrix(
        tp=int(((p == 0) & (l == 0)).sum()),
        fn=int(((p == 1) & (l == 0)).sum()),
        fp=int(((p == 0) & (l == 1)).sum()),
        tn=int(((p == 1) & (l == 1)).sum()),
    )


@dataclass(frozen=True)
class MetricsRow:
    accuracy: float
    precision: float
    recall: float
    fpr: float
    f1: float
    attack_precision: float
    attack_recall: float
    flags: tuple[str, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "fpr": self.fpr,
            "f1": self.f1,
            "attack_precision": self.attack_precision,
            "attack_recall": self.attack_recall,
            "flags": list(self.flags),
        }


def _ratio(num: int, den: int, name: str, flags: list[str]) -> float:
    if den == 0:
        flags.append("degenerate_" + name)
        return 0.0
    return num / den


def metrics(cm: ConfusionMatrix) -> MetricsRow:
    flags: list[str] = []
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = _ratio(cm.tp, cm.tp + cm.fp, "precision", flags)
    recall = _ratio(cm.tp, cm.tp + cm.fn, "recall", flags)
    fpr = _ratio(cm.fp, cm.fp + cm.tn, "fpr", flags)
    if precision + recall == 0.0:
        flags.append("degenerate_f1")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    attack_precision = _ratio(cm.tn, cm.tn + cm.fn, "attack_precision", flags)
    attack_recall = _ratio(cm.tn, cm.tn + cm.fp, "attack_recall", flags)
    return MetricsRow(
        accuracy, precision, recall, fpr, f1, attack_precision, attack_recall,
        tuple(flags),
    )


_FIELDS = (
    "accuracy", "precision", "recall", "fpr", "f1",
    "attack_precision", "attack_recall",
)


def aggregate(rows: list[MetricsRow]) -> dict[str, MetricsRow]:
    """Worst/average/best summary of per-run metrics.

    Worst and best are whole runs picked by accuracy (first on ties);
    average is the element-wise mean with the union of all flags.
    """
    if not rows:
        raise EmptyInputError("aggregate needs at least one run")
    acc = [r.accuracy for r in rows]
    worst = rows[int(np.argmin(acc))]
    best = rows[int(np.argmax(acc))]
    merged_flags = tuple(sorted({f for r in rows for f in r.flags}))
    means = {
        name: float(np.mean([getattr(r, name) for r in rows])) for name in _FIELDS
    }
    average = MetricsRow(flags=merged_flags, **means)
    return {"worst": worst, "average": average, "best": best}


def detector_block(matrices: list[ConfusionMatrix]) -> dict:
    """Per-detector report fragment: runs, matrices, aggregate columns."""
    rows = [metrics(cm) for cm in matrices]
    agg = aggregate(rows)
    return {
        "runs": [r.to_json() for r in rows],
        "matrices": [cm.to_json() for cm in matrices],
        "worst": agg["worst"].to_json(),
        "average": agg["average"].to_json(),
        "best": agg["best"].to_json(),
    }


def build_report(detectors: dict[str, list[ConfusionMatrix]]) -> dict:
    return {
        "format": "assessment",
        "version": 1,
        "detectors": {
            name: detector_block(mats) for name, mats in detectors.items()
        },
    }


def _trunc2(v: float) -> str:
    """Truncate toward zero at two decimals (0.9399.. -> '0.93')."""
    return str(Decimal(repr(float(v))).quantize(Decimal("0.01"), rounding=ROUND_DOWN))


@parses("assessment report", "assessment")
def render_text(report: dict) -> str:
    """Aligned text tables; metric values truncated to two decimals."""
    lines = []
    header = ["detector", "column"] + list(_FIELDS)
    rows = [header]
    for name, block in report["detectors"].items():
        shown = name if name else "(unnamed)"
        for col in ("worst", "average", "best"):
            row = block[col]
            rows.append(
                [shown, col] + [_trunc2(row[f]) for f in _FIELDS]
            )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    lines.append("")
    lines.append("confusion matrices (tp=normal kept, fn=normal flagged, "
                 "fp=attack missed, tn=attack caught)")
    mat_rows = [["detector", "run", "tp", "fn", "fp", "tn"]]
    for name, block in report["detectors"].items():
        shown = name if name else "(unnamed)"
        for i, m in enumerate(block["matrices"]):
            mat_rows.append(
                [shown, str(i)] + [str(m[k]) for k in ("tp", "fn", "fp", "tn")]
            )
    widths = [max(len(r[i]) for r in mat_rows) for i in range(6)]
    for r in mat_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"
