from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hwr.metrics import REPORT_HEADER, confusion, render_report, report, round_half_up

# Published per-class tables: (precision, recall, f1, support) per label 1..14.
NEURAL_NET_TABLE = [
    (0.75, 1.00, 0.86, 6),
    (0.80, 0.92, 0.86, 13),
    (0.88, 0.88, 0.88, 8),
    (1.00, 0.92, 0.96, 13),
    (1.00, 0.93, 0.96, 14),
    (1.00, 0.92, 0.96, 12),
    (0.91, 0.83, 0.87, 12),
    (1.00, 1.00, 1.00, 7),
    (0.92, 0.86, 0.89, 14),
    (0.90, 1.00, 0.95, 9),
    (0.91, 1.00, 0.95, 10),
    (0.90, 1.00, 0.95, 9),
    (1.00, 0.88, 0.93, 8),
    (0.83, 0.77, 0.80, 13),
]
NEURAL_NET_AVG = (0.92, 0.91, 0.91, 148)

SVM_TABLE = [
    (0.86, 1.00, 0.92, 6),
    (1.00, 1.00, 1.00, 13),
    (1.00, 1.00, 1.00, 8),
    (1.00, 0.92, 0.96, 13),
    (1.00, 1.00, 1.00, 14),
    (0.92, 0.92, 0.92, 12),
    (1.00, 1.00, 1.00, 12),
    (1.00, 1.00, 1.00, 7),
    (1.00, 0.93, 0.96, 14),
    (0.90, 1.00, 0.95, 9),
    (0.91, 1.00, 0.95, 10),
    (1.00, 1.00, 1.00, 9),
    (1.00, 0.88, 0.93, 8),
    (0.92, 0.92, 0.92, 13),
]
SVM_AVG = (0.97, 0.97, 0.97, 148)


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        y = [1, 5, 9, 14, 5]
        cm = confusion(y, y)
        assert cm.sum() == 5
        assert np.array_equal(cm, np.diag(np.diag(cm)))

    def test_single_sample(self):
        cm = confusion([3], [5])
        assert cm[2, 4] == 1
        assert cm.sum() == 1

    def test_total_equals_sample_count(self):
        gen = np.random.default_rng(0)
        y_true = gen.integers(1, 15, size=100)
        y_pred = gen.integers(1, 15, size=100)
        assert confusion(y_true, y_pred).sum() == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion([1, 2], [1])
        with pytest.raises(ValueError):
            confusion([0], [1])
        with pytest.raises(ValueError):
            confusion([1], [15])


class TestReport:
    def test_f1_paper_row_1(self):
        # P=0.75, R=1.00 -> f1 0.857..., rendered 0.86
        assert round_half_up(_f1(0.75, 1.00)) == 0.86

    def test_f1_paper_svm_row_14(self):
        assert round_half_up(_f1(0.92, 0.92)) == 0.92

    def test_all_correct(self):
        y = list(range(1, 15))
        rep = report(confusion(y, y))
        assert rep.accuracy == 1.0
        assert (rep.precision == 1.0).all()
        assert (rep.recall == 1.0).all()
        assert (rep.f1 == 1.0).all()

    def test_zero_division_yields_zero(self):
        cm = confusion([1, 1, 2], [2, 2, 2])
        rep = report(cm)
        assert rep.precision[0] == 0.0 and rep.recall[0] == 0.0 and rep.f1[0] == 0.0

    def test_accuracy_equals_weighted_recall(self):
        gen = np.random.default_rng(1)
        y_true = gen.integers(1, 15, size=200)
        y_pred = np.where(gen.random(200) < 0.7, y_true, gen.integers(1, 15, size=200))
        rep = report(confusion(y_true, y_pred))
        assert rep.accuracy == pytest.approx(rep.avg_recall, abs=1e-12)

    def test_f1_identity_and_zero_condition(self):
        gen = np.random.default_rng(2)
        y_true = gen.integers(1, 15, size=150)
        y_pred = gen.integers(1, 15, size=150)
        rep = report(confusion(y_true, y_pred))
        for p, r, f in zip(rep.precision, rep.recall, rep.f1):
            assert f == pytest.approx(_f1(p, r), abs=1e-12)
            assert (f == 0.0) == (p == 0.0 or r == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.int64, (14, 14), elements=st.integers(0, 40)), st.permutations(range(14)))
    def test_averages_keep_their_bits_when_classes_are_relabelled(self, cm, perm):
        # a relabelling permutes the confusion matrix's rows and columns alike; the
        # support-weighted averages are exactly rounded sums, so their bits stay
        assume(cm.sum() > 0)
        before, after = report(cm), report(cm[np.ix_(perm, perm)])
        for name in ("avg_precision", "avg_recall", "avg_f1", "accuracy"):
            assert getattr(after, name).hex() == getattr(before, name).hex(), name

    def test_weighted_average_reproduces_nn_table_avg_row(self):
        # support-weighted averages of the printed rows land on 0.92/0.91/0.91
        p = np.array([row[0] for row in NEURAL_NET_TABLE])
        r = np.array([row[1] for row in NEURAL_NET_TABLE])
        f = np.array([row[2] for row in NEURAL_NET_TABLE])
        s = np.array([row[3] for row in NEURAL_NET_TABLE], dtype=float)
        w = s / s.sum()
        assert round_half_up(float(w @ p)) == NEURAL_NET_AVG[0]
        assert round_half_up(float(w @ r)) == NEURAL_NET_AVG[1]
        assert round_half_up(float(w @ f)) == NEURAL_NET_AVG[2]


class TestPublishedTablesRoundingAwareAudit:
    """Diagnostic audit with input rounding propagated.

    Printed P and R carry their own half-unit rounding (up to 0.005 each),
    which propagates into the recomputed f1 with derivative at most 1; the
    printed f1 adds another 0.005.  A 0.01 budget therefore bounds the
    achievable discrepancy, and all 28 rows satisfy it.  The stricter
    point-evaluation audit at 0.005 lives in the acceptance suite.
    """

    @pytest.mark.parametrize("table", [NEURAL_NET_TABLE, SVM_TABLE])
    def test_f1_consistent_within_propagated_rounding(self, table):
        for p, r, f1_printed, _ in table:
            assert abs(_f1(p, r) - f1_printed) <= 0.01

    @pytest.mark.parametrize("table, avg", [(NEURAL_NET_TABLE, NEURAL_NET_AVG),
                                            (SVM_TABLE, SVM_AVG)])
    def test_supports_sum_to_148(self, table, avg):
        assert sum(row[3] for row in table) == avg[3] == 148


class TestRenderReport:
    def _sample_report(self):
        gen = np.random.default_rng(3)
        y_true = gen.integers(1, 15, size=148)
        y_pred = np.where(gen.random(148) < 0.8, y_true, gen.integers(1, 15, size=148))
        return report(confusion(y_true, y_pred))

    def test_header_row(self):
        text = render_report(self._sample_report())
        assert text.splitlines()[0] == REPORT_HEADER
        assert REPORT_HEADER == "Label  Precision  Recall  f1-score  Support"

    def test_footer_support_148(self):
        text = render_report(self._sample_report())
        avg_line = [line for line in text.splitlines() if line.startswith("avg / total")][0]
        assert avg_line.split()[-1] == "148"

    def test_empty_class_renders_zeros(self):
        cm = confusion([1, 2], [1, 2])  # classes 3..14 have no support
        text = render_report(report(cm))
        row3 = text.splitlines()[3].split()
        assert row3 == ["3", "0.00", "0.00", "0.00", "0"]

    def test_byte_stable(self):
        rep = self._sample_report()
        assert render_report(rep) == render_report(rep)

    def test_accuracy_line(self):
        text = render_report(self._sample_report())
        assert text.rstrip().splitlines()[-1].startswith("accuracy: ")

    def test_json_twin_full_precision(self):
        rep = self._sample_report()
        doc = json.loads(rep.to_json())
        assert doc["accuracy"] == rep.accuracy
        assert doc["labels"] == list(range(1, 15))
        assert len(doc["precision"]) == 14


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.865) == 0.87
        assert round_half_up(0.864999) == 0.86
        assert round_half_up(0.5, 0) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1))
    def test_within_half_ulp(self, x):
        assert abs(round_half_up(x) - x) <= 0.005 + 1e-12
