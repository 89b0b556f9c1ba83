"""Confusion matrix, per-class precision/recall/f1, and text reports.

Reports mirror the classic per-class layout: one row per label with metrics
to 2 decimals (half-up), a support-weighted "avg / total" row, and an
accuracy line.  The support-weighted average is the only one: it is the
"avg / total" row of scikit-learn's classification report, the one the
paper prints.  Zero denominators yield metric 0 rather than NaN so reports
on degenerate folds stay renderable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .labels import N_CLASSES, class_ids

REPORT_HEADER = "Label  Precision  Recall  f1-score  Support"


def confusion(y_true, y_pred) -> np.ndarray:
    """Counts[t-1][p-1] over 1-based class ids; rows true, columns predicted."""
    t = class_ids(y_true, np.size(y_true))
    p = class_ids(y_pred, t.size)
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (t - 1, p - 1), 1)
    return cm


@dataclass
class ClassReport:
    precision: np.ndarray  # (n_classes,)
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray     # (n_classes,) int
    accuracy: float
    avg_precision: float
    avg_recall: float
    avg_f1: float

    def to_dict(self) -> dict:
        return {
            "labels": list(range(1, len(self.support) + 1)),
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
            "f1": self.f1.tolist(),
            "support": [int(s) for s in self.support],
            "accuracy": self.accuracy,
            "avg_precision": self.avg_precision,
            "avg_recall": self.avg_recall,
            "avg_f1": self.avg_f1,
            "average": "weighted",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num, dtype=np.float64), where=den > 0)


def report(cm: np.ndarray) -> ClassReport:
    cm = np.asarray(cm, dtype=np.int64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got shape {cm.shape}")
    total = int(cm.sum())
    if total < 1:
        raise ValueError("confusion matrix is empty")
    diag = np.diag(cm).astype(np.float64)
    precision = _safe_div(diag, cm.sum(axis=0).astype(np.float64))
    recall = _safe_div(diag, cm.sum(axis=1).astype(np.float64))
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    support = cm.sum(axis=1)
    weights = support / total
    # exactly rounded, so the bits depend on no BLAS kernel and no class order
    avg_p, avg_r, avg_f = (math.fsum(weights * m) for m in (precision, recall, f1))
    return ClassReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=support,
        accuracy=float(diag.sum() / total),
        avg_precision=avg_p,
        avg_recall=avg_r,
        avg_f1=avg_f,
    )


def round_half_up(value: float, places: int = 2) -> float:
    """Decimal rounding with ties away from zero, e.g. 0.865 -> 0.87."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(float(value))).quantize(q, rounding=ROUND_HALF_UP))


def render_report(r: ClassReport) -> str:
    """Fixed-column text table; byte-stable for identical inputs."""
    lines = [REPORT_HEADER]
    for i in range(len(r.support)):
        lines.append(
            f"{i + 1:<5}  {round_half_up(r.precision[i]):>9.2f}  "
            f"{round_half_up(r.recall[i]):>6.2f}  {round_half_up(r.f1[i]):>8.2f}  "
            f"{int(r.support[i]):>7}"
        )
    lines.append(
        f"avg / total  {round_half_up(r.avg_precision):>9.2f}  "
        f"{round_half_up(r.avg_recall):>6.2f}  {round_half_up(r.avg_f1):>8.2f}  "
        f"{int(r.support.sum()):>7}"
    )
    lines.append("")
    lines.append(f"accuracy: {round_half_up(r.accuracy, 4):.4f}")
    return "\n".join(lines) + "\n"
