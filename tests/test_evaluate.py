"""Confusion arithmetic and the driver-set contract.

The two fixture tables correspond to 18 drivers with 3 abnormal under
the 10% and 20% flagging rules; expected values were worked out by
hand and frozen.
"""

import json

import pytest

from tripsift.evaluate import (
    ConfusionCounts,
    DriverSetMismatch,
    Metrics,
    confusion,
    metrics,
    read_truth,
    write_metrics_json,
)


def test_metrics_fixture_top10():
    m = metrics(ConfusionCounts(tp=1, tn=14, fp=1, fn=2))
    assert m.accuracy == pytest.approx(15 / 18, abs=1e-12)
    assert m.precision == pytest.approx(0.5, abs=1e-12)
    assert m.recall == pytest.approx(1 / 3, abs=1e-12)
    assert m.f1 == pytest.approx(0.4, abs=1e-12)


def test_metrics_fixture_top20():
    m = metrics(ConfusionCounts(tp=2, tn=12, fp=3, fn=1))
    assert m.accuracy == pytest.approx(14 / 18, abs=1e-12)
    assert m.precision == pytest.approx(0.4, abs=1e-12)
    assert m.recall == pytest.approx(2 / 3, abs=1e-12)
    assert m.f1 == pytest.approx(0.5, abs=1e-12)


def test_metrics_zero_conventions():
    # nothing predicted positive
    m = metrics(ConfusionCounts(tp=0, tn=5, fp=0, fn=2))
    assert m.precision == 0.0 and m.f1 == 0.0
    # nothing positive in truth
    m = metrics(ConfusionCounts(tp=0, tn=5, fp=2, fn=0))
    assert m.recall == 0.0 and m.f1 == 0.0
    # perfect prediction
    m = metrics(ConfusionCounts(tp=3, tn=15, fp=0, fn=0))
    assert m == Metrics(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="empty"):
        metrics(ConfusionCounts(0, 0, 0, 0))


def test_confusion_counts():
    predicted = {1: True, 2: True, 3: False, 4: False}
    truth = {1: True, 2: False, 3: True, 4: False}
    counts = confusion(predicted, truth)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
    assert counts.total == 4


def test_confusion_mismatch_raises():
    with pytest.raises(DriverSetMismatch, match=r"missing from predictions \[3\]"):
        confusion({1: True, 2: False}, {1: True, 2: False, 3: True})
    with pytest.raises(DriverSetMismatch, match=r"missing from truth \[2\]"):
        confusion({1: True, 2: False}, {1: True})
    # the mismatch is a ValueError so generic handlers still catch it
    assert issubclass(DriverSetMismatch, ValueError)
    with pytest.raises(ValueError, match="no drivers"):
        confusion({}, {})


def test_read_truth(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("driver_id,label\n1,normal\n2,abnormal\n")
    assert read_truth(path) == {1: False, 2: True}

    path.write_text("driver_id,label\n1,bogus\n")
    with pytest.raises(ValueError, match="unknown label"):
        read_truth(path)

    path.write_text("driver_id,label\n1,normal\n1,normal\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_truth(path)

    path.write_text("label\nnormal\n")
    with pytest.raises(ValueError, match=r"missing columns \['driver_id'\]"):
        read_truth(path)


def test_write_metrics_json(tmp_path):
    counts = ConfusionCounts(tp=2, tn=12, fp=3, fn=1)
    path = tmp_path / "metrics.json"
    write_metrics_json(metrics(counts), counts, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["accuracy", "precision", "recall", "f1", "confusion"]
    assert list(doc["confusion"]) == ["tp", "tn", "fp", "fn"]
    assert doc["f1"] == pytest.approx(0.5, abs=1e-12)
    assert doc["accuracy"] == pytest.approx(14 / 18, abs=1e-12)
    assert doc["confusion"] == {"tp": 2, "tn": 12, "fp": 3, "fn": 1}
