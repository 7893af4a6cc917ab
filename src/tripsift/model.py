"""Shared domain types: trajectory points, trips, the road network, run config."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .matching import SegmentGrid


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """One GPS fix. Timestamps are integer epoch seconds; course over ground in [0, 360)."""

    driver_id: int
    trip_id: int
    point_id: int
    timestamp: int
    lat: float
    lon: float
    speed_mps: float
    cog_deg: float
    hard_accel: int = 0
    hard_brake: int = 0


@dataclass
class Trip:
    """A time-ordered sequence of points for one (driver, trip) key."""

    driver_id: int
    trip_id: int
    points: list[TrajectoryPoint]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError(f"trip ({self.driver_id},{self.trip_id}) has fewer than 2 points")
        for a, b in zip(self.points, self.points[1:]):
            if b.timestamp <= a.timestamp:
                raise ValueError(
                    f"trip ({self.driver_id},{self.trip_id}) timestamps not strictly increasing"
                )


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
    contamination: float = 0.2                # diagnostic score-threshold quantile
    top_fraction: float = 0.2                 # fraction of drivers classified abnormal
    n_trees: int = 100
    subsample_size: int = 256                 # clamped to dataset size at fit time
    max_snap_distance_m: float = 50.0
    min_matched_fraction: float = 0.8
    hard_event_accel_threshold: float = 3.0   # m/s^2; symmetric for brakes

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0 meters")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        if not 0.0 <= self.trip_score_threshold <= 1.0:
            raise ValueError("trip_score_threshold must lie in [0, 1]")
        if not 0.0 < self.contamination < 1.0:
            raise ValueError("contamination must lie in (0, 1)")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must lie in (0, 1]")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.subsample_size < 2:
            raise ValueError("subsample_size must be >= 2")
        if self.max_snap_distance_m <= 0.0:
            raise ValueError("max_snap_distance_m must be positive")
        if not 0.0 < self.min_matched_fraction <= 1.0:
            raise ValueError("min_matched_fraction must lie in (0, 1]")
        if self.hard_event_accel_threshold <= 0.0:
            raise ValueError("hard_event_accel_threshold must be positive")
