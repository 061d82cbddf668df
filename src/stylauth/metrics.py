"""Classification metrics over hard and soft contingency tables.

F1 = 2*TP / (2*TP + FP + FN). When that denominator is zero (no positive
examples and no positive predictions) F1 is defined as 1.0: a verifier
that correctly predicts the total absence of positives is not penalized.
The soft variant fills the table with posterior probability mass instead
of counts: a positive example with positive-class posterior p contributes
p to TP and 1-p to FN; a negative example contributes p to FP and 1-p to
TN. Soft F1 therefore equals hard F1 whenever every posterior is 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import EvaluationError


@dataclass(frozen=True)
class ContingencyTable:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise EvaluationError("contingency counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @classmethod
    def from_predictions(
        cls, y_true: Sequence[int], y_pred: Sequence[int]
    ) -> "ContingencyTable":
        if len(y_true) != len(y_pred):
            raise EvaluationError("y_true and y_pred lengths differ")
        tp = fp = fn = tn = 0
        for t, p in zip(y_true, y_pred):
            if t and p:
                tp += 1
            elif t and not p:
                fn += 1
            elif not t and p:
                fp += 1
            else:
                tn += 1
        return cls(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass(frozen=True)
class SoftContingencyTable:
    """Contingency cells holding posterior probability mass."""

    tp: float
    fp: float
    fn: float
    tn: float

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise EvaluationError("soft contingency masses must be nonnegative")

    @classmethod
    def from_posteriors(
        cls, y_true: Sequence[int], positive_posteriors: Sequence[float]
    ) -> "SoftContingencyTable":
        if len(y_true) != len(positive_posteriors):
            raise EvaluationError("labels and posteriors lengths differ")
        tp = fp = fn = tn = 0.0
        for t, p in zip(y_true, positive_posteriors):
            p = float(p)
            if not (0.0 <= p <= 1.0):
                raise EvaluationError(f"posterior {p} outside [0, 1]")
            if t:
                tp += p
                fn += 1.0 - p
            else:
                fp += p
                tn += 1.0 - p
        return cls(tp=tp, fp=fp, fn=fn, tn=tn)


def f1(table: ContingencyTable | SoftContingencyTable) -> float:
    """Harmonic mean of precision and recall; 1.0 on the empty-positive case."""
    denom = 2.0 * table.tp + table.fp + table.fn
    if denom == 0:
        return 1.0
    return 2.0 * table.tp / denom


def soft_f1(y_true: Sequence[int], positive_posteriors: Sequence[float]) -> float:
    """F1 over probability masses instead of hard counts."""
    return f1(SoftContingencyTable.from_posteriors(y_true, positive_posteriors))


def vanilla_accuracy(table: ContingencyTable | SoftContingencyTable) -> float:
    """Fraction of all decisions that are correct."""
    total = table.tp + table.fp + table.fn + table.tn
    if total == 0:
        raise EvaluationError("cannot compute accuracy over an empty table")
    return (table.tp + table.tn) / total


def macro_f1(tables: Iterable[ContingencyTable]) -> float:
    """Unweighted mean of per-class one-vs-rest F1 scores."""
    scores = [f1(t) for t in tables]
    if not scores:
        raise EvaluationError("macro F1 needs at least one class table")
    return float(np.mean(scores))


def per_class_tables(
    y_true: Sequence[Hashable], y_pred: Sequence[Hashable], classes: Iterable[Hashable]
) -> list[ContingencyTable]:
    """One one-vs-rest table per class, in the given class order."""
    if len(y_true) != len(y_pred):
        raise EvaluationError("y_true and y_pred lengths differ")
    tables = []
    for cls in classes:
        t = [1 if y == cls else 0 for y in y_true]
        p = [1 if y == cls else 0 for y in y_pred]
        tables.append(ContingencyTable.from_predictions(t, p))
    return tables
