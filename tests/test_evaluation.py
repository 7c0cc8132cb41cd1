"""Metrics with Normal as the positive class, aggregation, text rendering."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icsadv import evaluation as ev
from icsadv.errors import EmptyInputError, ParameterError, ParseError, ShapeError


class TestConfusion:
    def test_orientation(self):
        # labels:      N N N A A
        # predictions: N A N N A
        cm = ev.confusion([0, 1, 0, 0, 1], [0, 0, 0, 1, 1])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 1, 1, 1)

    def test_all_normal_predictor(self):
        # a detector that never raises an alarm: every attack row becomes
        # a false positive under the Normal-as-positive convention
        labels = np.array([0] * 7 + [1] * 3)
        cm = ev.confusion(np.zeros(10, dtype=int), labels)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (7, 0, 3, 0)

    def test_validation(self):
        with pytest.raises(ShapeError):
            ev.confusion([0, 1], [0, 1, 0])
        with pytest.raises(EmptyInputError):
            ev.confusion([], [])
        with pytest.raises(ParameterError):
            ev.confusion([0, 2], [0, 1])

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            ev.ConfusionMatrix(-1, 0, 0, 5)

    @pytest.mark.parametrize("field", ["tp", "fn", "fp", "tn"])
    @pytest.mark.parametrize("bad", [float("nan"), 1.5, 2.0, True, "3", None])
    def test_counts_must_be_integers(self, field, bad):
        counts = dict(tp=1, fn=1, fp=1, tn=1)
        counts[field] = bad
        with pytest.raises(ParameterError, match=field):
            ev.ConfusionMatrix(**counts)

    def test_numpy_integer_counts_accepted(self):
        cm = ev.ConfusionMatrix(np.int64(2), 0, 0, np.int32(1))
        assert cm.total == 3

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyInputError):
            ev.ConfusionMatrix(0, 0, 0, 0)


class TestMetrics:
    def test_hand_computed_row(self):
        m = ev.metrics(ev.ConfusionMatrix(tp=90, fn=10, fp=30, tn=70))
        assert m.accuracy == pytest.approx(0.8)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.9)
        assert m.fpr == pytest.approx(0.3)
        assert m.f1 == pytest.approx(2 * 0.75 * 0.9 / 1.65)
        assert m.attack_precision == pytest.approx(70 / 80)
        assert m.attack_recall == pytest.approx(0.7)
        assert m.flags == ()

    def test_never_alarms_detector(self):
        # the degenerate detector shape: everything predicted Normal
        m = ev.metrics(ev.ConfusionMatrix(tp=396_019, fn=0, fp=53_900, tn=0))
        assert m.recall == 1.0
        assert m.fpr == 1.0
        assert m.attack_recall == 0.0
        assert m.accuracy == pytest.approx(396_019 / 449_919)
        assert m.precision == pytest.approx(396_019 / 449_919)
        # no attack predictions at all: attack precision is 0/0
        assert m.flags == ("degenerate_attack_precision",)
        assert m.attack_precision == 0.0

    def test_all_attack_predictions_flag_recall_side(self):
        m = ev.metrics(ev.ConfusionMatrix(tp=0, fn=0, fp=5, tn=5))
        # no normal rows: recall is 0/0; precision is a true 0/5
        assert "degenerate_recall" in m.flags
        assert "degenerate_f1" in m.flags
        assert m.recall == 0.0
        assert m.precision == 0.0
        assert "degenerate_precision" not in m.flags

    @given(
        st.tuples(
            st.integers(0, 1000),
            st.integers(0, 1000),
            st.integers(0, 1000),
            st.integers(0, 1000),
        ).filter(lambda t: sum(t) > 0)
    )
    def test_all_metrics_bounded(self, counts):
        m = ev.metrics(ev.ConfusionMatrix(*counts))
        for name in ev._FIELDS:
            v = getattr(m, name)
            assert 0.0 <= v <= 1.0
        tp, fn, fp, tn = counts
        assert ("degenerate_precision" in m.flags) == (tp + fp == 0)
        assert ("degenerate_recall" in m.flags) == (tp + fn == 0)
        assert ("degenerate_fpr" in m.flags) == (fp + tn == 0)


class TestAggregate:
    def _rows(self, accs):
        return [
            ev.metrics(
                ev.ConfusionMatrix(tp=int(a * 100), fn=100 - int(a * 100), fp=0, tn=100)
            )
            for a in accs
        ]

    def test_worst_average_best(self):
        rows = [
            ev.metrics(ev.ConfusionMatrix(80, 20, 0, 100)),
            ev.metrics(ev.ConfusionMatrix(90, 10, 0, 100)),
        ]
        agg = ev.aggregate(rows)
        assert agg["worst"] is rows[0]
        assert agg["best"] is rows[1]
        assert agg["average"].accuracy == pytest.approx(
            (rows[0].accuracy + rows[1].accuracy) / 2
        )
        assert agg["average"].recall == pytest.approx(
            (rows[0].recall + rows[1].recall) / 2
        )

    def test_single_run_collapses(self):
        rows = [ev.metrics(ev.ConfusionMatrix(50, 0, 0, 50))]
        agg = ev.aggregate(rows)
        assert agg["worst"] == agg["best"]
        assert agg["average"].accuracy == rows[0].accuracy

    def test_ties_pick_first(self):
        a = ev.metrics(ev.ConfusionMatrix(80, 20, 10, 90))
        b = ev.metrics(ev.ConfusionMatrix(85, 15, 15, 85))  # same accuracy
        agg = ev.aggregate([a, b])
        assert agg["worst"] is a
        assert agg["best"] is a

    def test_average_unions_flags(self):
        a = ev.metrics(ev.ConfusionMatrix(10, 0, 5, 0))  # degenerate attack side
        b = ev.metrics(ev.ConfusionMatrix(8, 2, 3, 2))  # clean
        agg = ev.aggregate([a, b])
        assert "degenerate_attack_precision" in agg["average"].flags

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            ev.aggregate([])


class TestTruncation:
    @pytest.mark.parametrize(
        "value,text",
        [
            (0.9399999999, "0.93"),
            (0.94, "0.94"),
            (1.0, "1.00"),
            (0.0, "0.00"),
            (0.40681, "0.40"),
            (0.999999, "0.99"),
            (0.1, "0.10"),
        ],
    )
    def test_two_decimal_floor(self, value, text):
        assert ev._trunc2(value) == text


class TestRenderText:
    def _report(self):
        return ev.build_report(
            {
                "cart": [ev.ConfusionMatrix(90, 10, 5, 95), ev.ConfusionMatrix(80, 20, 10, 90)],
                "": [ev.ConfusionMatrix(50, 50, 50, 50)],
            }
        )

    def test_report_document_shape(self):
        rep = self._report()
        assert rep["format"] == "assessment"
        block = rep["detectors"]["cart"]
        assert len(block["runs"]) == len(block["matrices"]) == 2
        assert set(block) >= {"worst", "average", "best"}
        assert block["matrices"][0]["tp"] == 90

    def test_render_contains_truncated_columns(self):
        text = ev.render_text(self._report())
        assert "worst" in text and "average" in text and "best" in text
        assert "(unnamed)" in text
        # cart run accuracies 0.925 and 0.85 -> truncated forms
        assert "0.92" in text
        assert "0.85" in text

    def test_render_includes_matrices(self):
        text = ev.render_text(self._report())
        assert "confusion matrices" in text
        assert "90" in text

    def test_render_rejects_other_documents(self):
        with pytest.raises(ParseError):
            ev.render_text({"format": "scenario"})

    @pytest.mark.parametrize("column", ["worst", "average", "best"])
    @pytest.mark.parametrize("value", ["0.93", True, None, [0.5], float("nan")])
    def test_metric_values_must_be_finite_numbers(self, column, value):
        """"0.93" is not rendered as 0.93, nor true as 1.00."""
        rep = self._report()
        rep["detectors"]["cart"][column]["f1"] = value
        with pytest.raises(ParseError, match="assessment report"):
            ev.render_text(rep)

    @pytest.mark.parametrize("key", ["tp", "fn", "fp", "tn"])
    @pytest.mark.parametrize("value", ["oops", True, None, [1], -1, 2.0])
    def test_matrix_counts_must_be_integers(self, key, value):
        rep = self._report()
        rep["detectors"]["cart"]["matrices"][1][key] = value
        with pytest.raises(ParseError, match="matrix count"):
            ev.render_text(rep)
