"""Trip scoring and driver-level aggregation.

One forest is fitted on all trips' feature vectors; a trip is labeled
abnormal when its score reaches the fixed threshold. Optionally one
extra forest per feature group gives per-category diagnostic scores.
Drivers are ranked by mean trip score and the top fraction classified
abnormal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .evaluate import read_driver_labels
from .features import FEATURE_GROUPS, FeatureTable
from .iforest import IForestModel, fit, score_vectors
from .ingest import write_csv
from .model import AnalysisConfig

CATEGORY_COLUMNS = {
    "direction": "dir_score",
    "braking": "brake_score",
    "acceleration": "accel_score",
    "speed": "speed_score",
}

TRIP_CSV_COLUMNS = ["driver_id", "trip_id", "score", "label"]
DRIVER_CSV_COLUMNS = ["driver_id", "mean_score", "n_trips", "n_abnormal_trips", "rank", "classification"]


@dataclass
class TripScore:
    driver_id: int
    trip_id: int
    score: float
    abnormal: bool
    category_scores: Optional[dict[str, float]] = None


@dataclass
class DriverReport:
    driver_id: int
    mean_score: float
    n_trips: int
    n_abnormal_trips: int
    rank: int
    abnormal: bool
    category_means: Optional[dict[str, float]] = None


def score_trips(
    table: FeatureTable, config: AnalysisConfig, per_category: bool = False,
    model: Optional[IForestModel] = None,
) -> tuple[list[TripScore], IForestModel]:
    """Score every trip in the table with one forest over all vectors.

    The forest is fitted on the table unless a fitted `model` is given.
    A trip is abnormal iff score >= config.trip_score_threshold. With
    per_category, one additional forest is fitted per feature group on
    that group's dimensions, with the same rng_seed and forest index
    group index + 1 (the main forest's is 0), so no two forests share a
    tree's stream.

    Returns:
        (scores in table order, the full-feature model)

    Raises:
        ValueError: fewer than 2 trips.
    """
    if len(table) < 2:
        raise ValueError("insufficient trips: need at least 2 to score")
    X = table.matrix
    if model is None:
        model = fit(X, n_trees=config.n_trees, subsample_size=config.subsample_size,
                    rng_seed=config.rng_seed)
    scores = score_vectors(model, X)

    category_scores: dict[str, list[float]] = {}
    if per_category:
        for group_index, (group, dims) in enumerate(FEATURE_GROUPS.items()):
            sub_model = fit(X[:, dims], n_trees=config.n_trees,
                            subsample_size=config.subsample_size,
                            rng_seed=config.rng_seed, forest=group_index + 1)
            category_scores[group] = list(score_vectors(sub_model, X[:, dims]))

    out = []
    for i, (driver_id, trip_id) in enumerate(table.keys):
        cats = {g: category_scores[g][i] for g in category_scores} if per_category else None
        out.append(TripScore(
            driver_id=driver_id,
            trip_id=trip_id,
            score=float(scores[i]),
            abnormal=scores[i] >= config.trip_score_threshold,
            category_scores=cats,
        ))
    return out, model


def aggregate_drivers(trip_scores: Sequence[TripScore], config: AnalysisConfig) -> list[DriverReport]:
    """Rank drivers by mean trip score; classify the top fraction abnormal.

    Drivers are sorted by descending mean score with ties broken by
    ascending driver id; the first ceil(top_fraction * n_drivers) are
    classified abnormal. Ranks are 1-based in that order.
    """
    if not trip_scores:
        raise ValueError("no trip scores to aggregate")
    by_driver: dict[int, list[TripScore]] = {}
    for ts in trip_scores:
        by_driver.setdefault(ts.driver_id, []).append(ts)

    rows = []
    for driver_id, scores in by_driver.items():
        cats = None
        if scores[0].category_scores is not None:
            cats = {
                g: sum(s.category_scores[g] for s in scores) / len(scores)
                for g in scores[0].category_scores
            }
        rows.append(DriverReport(
            driver_id=driver_id,
            mean_score=sum(s.score for s in scores) / len(scores),
            n_trips=len(scores),
            n_abnormal_trips=sum(1 for s in scores if s.abnormal),
            rank=0,
            abnormal=False,
            category_means=cats,
        ))

    rows.sort(key=lambda r: (-r.mean_score, r.driver_id))
    k = math.ceil(config.top_fraction * len(rows))
    for i, row in enumerate(rows):
        row.rank = i + 1
        row.abnormal = i < k
    return rows


def _label(abnormal: bool) -> str:
    return "abnormal" if abnormal else "normal"


def write_trip_scores(trip_scores: Sequence[TripScore], path: str | Path) -> None:
    """Trip-level CSV; category columns appear when per-category scores exist."""
    with_cats = bool(trip_scores) and trip_scores[0].category_scores is not None
    header = TRIP_CSV_COLUMNS + ([CATEGORY_COLUMNS[g] for g in FEATURE_GROUPS] if with_cats else [])
    write_csv(path, header, (
        [ts.driver_id, ts.trip_id, f"{ts.score:.6f}", _label(ts.abnormal)]
        + ([f"{ts.category_scores[g]:.6f}" for g in FEATURE_GROUPS] if with_cats else [])
        for ts in trip_scores))


def write_driver_report(reports: Sequence[DriverReport], path: str | Path) -> None:
    """Driver-level CSV in rank order."""
    with_cats = bool(reports) and reports[0].category_means is not None
    header = DRIVER_CSV_COLUMNS + ([CATEGORY_COLUMNS[g] for g in FEATURE_GROUPS] if with_cats else [])
    write_csv(path, header, (
        [r.driver_id, f"{r.mean_score:.6f}", r.n_trips, r.n_abnormal_trips, r.rank,
         _label(r.abnormal)]
        + ([f"{r.category_means[g]:.6f}" for g in FEATURE_GROUPS] if with_cats else [])
        for r in reports))


def read_driver_classifications(path: str | Path) -> dict[int, bool]:
    """Driver id -> abnormal flag, from a driver report CSV."""
    return read_driver_labels(path, "classification")
