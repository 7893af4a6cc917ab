"""Driver-level evaluation against ground truth.

Abnormal is the positive class. Metrics follow the usual confusion
arithmetic with explicit zero-division conventions: precision is 0
when nothing was predicted positive, recall is 0 when nothing is
positive in truth, F1 is 0 when precision + recall is 0.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

from .ingest import read_csv


class DriverSetMismatch(ValueError):
    """Predictions and truth cover different driver sets."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float


def confusion(predicted: Mapping[int, bool], truth: Mapping[int, bool]) -> ConfusionCounts:
    """Count the 2x2 confusion table over drivers (True = abnormal).

    Raises:
        DriverSetMismatch: the two mappings cover different drivers.
    """
    missing_pred = sorted(set(truth) - set(predicted))
    missing_truth = sorted(set(predicted) - set(truth))
    if missing_pred or missing_truth:
        raise DriverSetMismatch(
            f"driver sets differ: missing from predictions {missing_pred}, "
            f"missing from truth {missing_truth}"
        )
    if not predicted:
        raise ValueError("no drivers to evaluate")
    tp = tn = fp = fn = 0
    for driver_id, pred in predicted.items():
        actual = truth[driver_id]
        if pred and actual:
            tp += 1
        elif not pred and not actual:
            tn += 1
        elif pred and not actual:
            fp += 1
        else:
            fn += 1
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics(counts: ConfusionCounts) -> Metrics:
    """Accuracy, precision, recall, F1 from confusion counts."""
    if counts.total == 0:
        raise ValueError("empty confusion table")
    accuracy = (counts.tp + counts.tn) / counts.total
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp > 0 else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return Metrics(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def read_truth(path: str | Path) -> dict[int, bool]:
    """Driver id -> abnormal flag from a truth CSV (driver_id,label)."""
    return read_driver_labels(path, "label")


def read_driver_labels(path: str | Path, column: str) -> dict[int, bool]:
    """Driver id -> abnormal flag, from a CSV with driver_id and a normal/abnormal column."""
    out: dict[int, bool] = {}
    with read_csv(path, ["driver_id", column]) as (header, records):
        id_col, label_col = header.index("driver_id"), header.index(column)
        for lineno, row in records:
            try:
                driver_id = int(row[id_col])
            except ValueError:
                raise ValueError(f"{path}: malformed row at line {lineno}") from None
            label = row[label_col].strip()
            if label not in ("normal", "abnormal"):
                raise ValueError(f"{path}: unknown {column} {label!r} at line {lineno}")
            if driver_id in out:
                raise ValueError(f"{path}: duplicate driver id {driver_id} at line {lineno}")
            out[driver_id] = label == "abnormal"
    return out


def write_metrics_json(m: Metrics, counts: ConfusionCounts, path: str | Path) -> None:
    """Full-precision metrics plus the raw confusion counts."""
    doc = {**asdict(m), "confusion": asdict(counts)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
