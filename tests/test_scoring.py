"""Trip scoring, driver ranking, and report CSV layout."""

import csv
from unittest import mock

import numpy as np
import pytest

from tripsift.features import FEATURE_GROUPS, FeatureTable
from tripsift.iforest import score_vectors
from tripsift.model import AnalysisConfig
from tripsift.scoring import (
    DRIVER_CSV_COLUMNS,
    TRIP_CSV_COLUMNS,
    DriverReport,
    TripScore,
    aggregate_drivers,
    read_driver_classifications,
    score_trips,
    write_driver_report,
    write_trip_scores,
)


def make_table(n_drivers=6, trips_each=4, seed=0, outlier_driver=None):
    """Small synthetic table; one driver's vectors can be shifted far out."""
    rng = np.random.default_rng(seed)
    keys, vectors = [], []
    for d in range(1, n_drivers + 1):
        for t in range(1, trips_each + 1):
            vec = rng.uniform(0.0, 1.0, size=10)
            if d == outlier_driver:
                vec = vec + 25.0
            keys.append((d, t))
            vectors.append(vec)
    return FeatureTable(keys=keys, matrix=np.array(vectors))


CONFIG = AnalysisConfig(alpha=0.0, n_trees=50, subsample_size=64)


def test_score_trips_order_and_model():
    table = make_table()
    scores, model = score_trips(table, CONFIG)
    assert [(s.driver_id, s.trip_id) for s in scores] == table.keys
    assert model.n_features == 10
    expected = score_vectors(model, table.matrix)
    assert [s.score for s in scores] == list(expected)
    for s in scores:
        assert s.abnormal == (s.score >= CONFIG.trip_score_threshold)
        assert s.category_scores is None


def test_category_forests_draw_their_own_subsamples():
    drawn = []

    class Recording(np.random.Generator):
        def choice(self, *args, **kwargs):
            sample = super().choice(*args, **kwargs)
            drawn.append(frozenset(sample.tolist()))
            return sample

    config = AnalysisConfig(alpha=0.0, n_trees=8, subsample_size=16)
    with mock.patch("numpy.random.Generator", Recording):
        score_trips(make_table(n_drivers=10, trips_each=6), config, per_category=True)
    main, categories = drawn[:8], drawn[8:]
    assert len(categories) == 8 * len(FEATURE_GROUPS)
    assert not set(main) & set(categories)


def test_score_trips_requires_two():
    table = make_table(n_drivers=1, trips_each=1)
    with pytest.raises(ValueError, match="at least 2"):
        score_trips(table, CONFIG)


def test_score_trips_outlier_driver_scores_highest():
    table = make_table(outlier_driver=3)
    scores, _ = score_trips(table, CONFIG)
    by_driver = {}
    for s in scores:
        by_driver.setdefault(s.driver_id, []).append(s.score)
    means = {d: np.mean(v) for d, v in by_driver.items()}
    assert max(means, key=means.get) == 3


def test_score_trips_per_category():
    table = make_table(outlier_driver=2)
    scores, _ = score_trips(table, CONFIG, per_category=True)
    for s in scores:
        assert set(s.category_scores) == set(FEATURE_GROUPS)
        for v in s.category_scores.values():
            assert 0.0 < v < 1.0
    # category forests see different dimensions, so scores differ
    firsts = scores[0]
    assert len({round(v, 9) for v in firsts.category_scores.values()}) > 1


def test_per_category_deterministic():
    table = make_table()
    s1, _ = score_trips(table, CONFIG, per_category=True)
    s2, _ = score_trips(table, CONFIG, per_category=True)
    assert all(a.category_scores == b.category_scores for a, b in zip(s1, s2))


def ts(driver, trip, score, abnormal=False):
    return TripScore(driver_id=driver, trip_id=trip, score=score, abnormal=abnormal)


def test_aggregate_drivers_ranking_and_topk():
    trip_scores = [
        ts(1, 1, 0.40), ts(1, 2, 0.50),      # mean 0.45
        ts(2, 1, 0.80, True), ts(2, 2, 0.70, True),  # mean 0.75
        ts(3, 1, 0.60), ts(3, 2, 0.60),      # mean 0.60
        ts(4, 1, 0.10), ts(4, 2, 0.20),      # mean 0.15
        ts(5, 1, 0.30), ts(5, 2, 0.30),      # mean 0.30
    ]
    reports = aggregate_drivers(trip_scores, AnalysisConfig(alpha=0.0, top_fraction=0.2))
    assert [r.driver_id for r in reports] == [2, 3, 1, 5, 4]
    assert [r.rank for r in reports] == [1, 2, 3, 4, 5]
    # ceil(0.2 * 5) = 1 driver flagged
    assert [r.abnormal for r in reports] == [True, False, False, False, False]
    assert reports[0].mean_score == pytest.approx(0.75)
    assert reports[0].n_abnormal_trips == 2
    assert reports[0].n_trips == 2


def test_aggregate_drivers_tie_breaks_by_id():
    trip_scores = [ts(9, 1, 0.5), ts(2, 1, 0.5), ts(5, 1, 0.5)]
    reports = aggregate_drivers(trip_scores, AnalysisConfig(alpha=0.0, top_fraction=0.34))
    assert [r.driver_id for r in reports] == [2, 5, 9]
    # ceil(0.34 * 3) = 2 flagged despite equal means
    assert [r.abnormal for r in reports] == [True, True, False]


def test_aggregate_drivers_top_fraction_ceil():
    trip_scores = [ts(d, 1, d / 10.0) for d in range(1, 19)]
    reports = aggregate_drivers(trip_scores, AnalysisConfig(alpha=0.0, top_fraction=0.2))
    assert sum(r.abnormal for r in reports) == 4    # ceil(0.2 * 18)
    reports = aggregate_drivers(trip_scores, AnalysisConfig(alpha=0.0, top_fraction=0.1))
    assert sum(r.abnormal for r in reports) == 2    # ceil(0.1 * 18)


def test_aggregate_drivers_empty_raises():
    with pytest.raises(ValueError, match="no trip scores"):
        aggregate_drivers([], CONFIG)


def test_write_trip_scores_layout(tmp_path):
    path = tmp_path / "trips.csv"
    write_trip_scores([ts(1, 1, 0.123456789, False), ts(1, 2, 0.87654321, True)], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRIP_CSV_COLUMNS
    assert rows[1] == ["1", "1", "0.123457", "normal"]
    assert rows[2] == ["1", "2", "0.876543", "abnormal"]


def test_write_trip_scores_with_categories(tmp_path):
    cats = {g: 0.25 for g in FEATURE_GROUPS}
    score = TripScore(1, 1, 0.5, False, category_scores=cats)
    path = tmp_path / "trips.csv"
    write_trip_scores([score], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRIP_CSV_COLUMNS + ["dir_score", "brake_score", "accel_score", "speed_score"]
    assert rows[1][4:] == ["0.250000"] * 4


def test_write_driver_report_and_read_back(tmp_path):
    reports = [
        DriverReport(4, 0.81234567, 10, 3, 1, True),
        DriverReport(2, 0.41234567, 10, 0, 2, False),
    ]
    path = tmp_path / "drivers.csv"
    write_driver_report(reports, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == DRIVER_CSV_COLUMNS
    assert rows[1] == ["4", "0.812346", "10", "3", "1", "abnormal"]
    assert read_driver_classifications(path) == {4: True, 2: False}


def test_read_classifications_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("driver_id,mean_score\n1,0.5\n")
    with pytest.raises(ValueError, match=r"missing columns \['classification'\]"):
        read_driver_classifications(path)
    path.write_text("driver_id,classification\n1,weird\n")
    with pytest.raises(ValueError, match="unknown classification"):
        read_driver_classifications(path)
    path.write_text("driver_id,classification\n1,normal\n1,abnormal\n")
    with pytest.raises(ValueError, match="duplicate driver id"):
        read_driver_classifications(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_driver_classifications(path)
