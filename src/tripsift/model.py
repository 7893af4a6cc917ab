"""Shared domain types: columnar trips, the road network, run config."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .matching import SegmentGrid


# the per-point columns of a Trip, and those of them that hold floats (the rest hold int64)
TRIP_COLUMNS = ("timestamp", "lat", "lon", "speed_mps", "cog_deg", "hard_accel", "hard_brake")
FLOAT_COLUMNS = ("lat", "lon", "speed_mps", "cog_deg")


@dataclass(eq=False)
class Trip:
    """One (driver, trip) key's GPS fixes as equal-length columns, in
    strictly increasing timestamp order.

    Timestamps are integer epoch seconds and courses over ground lie in
    [0, 360). The FLOAT_COLUMNS are float64 and the rest int64. A point
    has no id: its place in the columns is all that names it.
    """

    driver_id: int
    trip_id: int
    timestamp: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    speed_mps: np.ndarray
    cog_deg: np.ndarray
    hard_accel: np.ndarray
    hard_brake: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.timestamp)
        if any(len(getattr(self, name)) != n for name in TRIP_COLUMNS):
            raise ValueError(f"trip ({self.driver_id},{self.trip_id}) columns differ in length")
        if n < 2:
            raise ValueError(f"trip ({self.driver_id},{self.trip_id}) has fewer than 2 points")
        # compared, not differenced: a difference of two int64 stamps can wrap
        if not (self.timestamp[1:] > self.timestamp[:-1]).all():
            raise ValueError(
                f"trip ({self.driver_id},{self.trip_id}) timestamps not strictly increasing"
            )

    def __len__(self) -> int:
        return len(self.timestamp)


@dataclass(frozen=True)
class RoadNode:
    node_id: int
    lat: float
    lon: float


@dataclass(frozen=True)
class RoadSegment:
    """Straight road segment between two nodes; length_m > 0."""

    segment_id: int
    from_node: int
    to_node: int
    length_m: float


@dataclass
class RoadNetwork:
    """Validated road network plus its spatial index. Treated as immutable once built."""

    nodes: dict[int, RoadNode]
    segments: dict[int, RoadSegment]
    index: Optional["SegmentGrid"] = None

    def segment_endpoints(self, segment_id: int) -> tuple[RoadNode, RoadNode]:
        seg = self.segments[segment_id]
        return self.nodes[seg.from_node], self.nodes[seg.to_node]


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunables for the end-to-end pipeline. All lengths meters, speeds m/s."""

    alpha: float = 0.0                        # min trip length; trips kept iff length > alpha
    rng_seed: int = 0
    trip_score_threshold: float = 0.6         # trip labeled abnormal iff score >= this
    top_fraction: float = 0.2                 # fraction of drivers classified abnormal
    n_trees: int = 100
    subsample_size: int = 256                 # clamped to dataset size at fit time
    max_snap_distance_m: float = 50.0
    min_matched_fraction: float = 0.8
    hard_event_accel_threshold: float = 3.0   # m/s^2; symmetric for brakes

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be a finite number >= 0 meters")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        if not 0.0 <= self.trip_score_threshold <= 1.0:
            raise ValueError("trip_score_threshold must lie in [0, 1]")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must lie in (0, 1]")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.subsample_size < 2:
            raise ValueError("subsample_size must be >= 2")
        if not (math.isfinite(self.max_snap_distance_m) and self.max_snap_distance_m > 0.0):
            raise ValueError("max_snap_distance_m must be a finite positive number")
        if not 0.0 < self.min_matched_fraction <= 1.0:
            raise ValueError("min_matched_fraction must lie in (0, 1]")
        if not (math.isfinite(self.hard_event_accel_threshold)
                and self.hard_event_accel_threshold > 0.0):
            raise ValueError("hard_event_accel_threshold must be a finite positive number")
