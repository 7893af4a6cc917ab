"""Per-trip feature vectors for anomaly scoring.

Ten dimensions in a fixed order; no standardization anywhere. The
direction group captures route shape (loops, detours, erratic
heading), the braking/acceleration groups capture hard events, and
mean speed stands alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .geo import circular_diff_deg
from .tripgraph import TripGraph

# dimension indices (0-based) per group; order matters for seeding
FEATURE_GROUPS: dict[str, tuple[int, ...]] = {
    "direction": (0, 1, 2, 3, 4),
    "braking": (5, 6),
    "acceleration": (7, 8),
    "speed": (9,),
}

FEATURE_TABLE_COLUMNS = ["driver_id", "trip_id"] + [f"f{i}" for i in range(1, 11)]


@dataclass(frozen=True)
class FeatureVector:
    displacement_ratio: float           # f1: net displacement / trip length, in [0, 1]
    repetition_ratio: float             # f2: traversals per distinct directed edge, >= 1
    revisited_edge_fraction: float      # f3: fraction of edges traversed more than once
    turn_density: float                 # f4: summed course change (deg) per km
    direction_circular_variance: float  # f5: 1 - resultant length of point courses
    brakes_per_km: float                # f6
    max_edge_brakes: float              # f7
    accels_per_km: float                # f8
    max_edge_accels: float              # f9
    mean_speed: float                   # f10: point-weighted, m/s

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float)

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "FeatureVector":
        if len(values) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} values, got {len(values)}")
        return cls(*[float(v) for v in values])


FEATURE_NAMES = [f.name for f in fields(FeatureVector)]


@dataclass
class FeatureTable:
    """Feature vectors keyed by (driver_id, trip_id), sorted by key."""

    keys: list[tuple[int, int]]
    vectors: list[FeatureVector]

    def __len__(self) -> int:
        return len(self.keys)

    def to_matrix(self) -> np.ndarray:
        return np.array([v.to_array() for v in self.vectors], dtype=float)


def extract_features(graph: TripGraph) -> FeatureVector:
    """Compute the 10-dimensional feature vector of one trip graph.

    Raises:
        ValueError: degenerate trip (non-positive length).
    """
    if graph.trip_length_m <= 0.0:
        raise ValueError(f"degenerate trip ({graph.driver_id},{graph.trip_id}): non-positive length")
    rows = graph.rows
    km = graph.trip_length_m / 1000.0

    turn_sum = 0.0
    seq = graph.traversal_sequence
    for a, b in zip(seq, seq[1:]):
        turn_sum += circular_diff_deg(rows[a].avg_direction_deg, rows[b].avg_direction_deg)

    n_points = sum(r.n_points for r in rows)
    return FeatureVector(
        displacement_ratio=min(1.0, graph.net_displacement_m / graph.trip_length_m),
        repetition_ratio=sum(r.n_traversals for r in rows) / len(rows),
        revisited_edge_fraction=sum(1 for r in rows if r.n_traversals >= 2) / len(rows),
        turn_density=turn_sum / km,
        direction_circular_variance=1.0 - graph.cog_resultant,
        brakes_per_km=sum(r.n_hard_brakes for r in rows) / km,
        max_edge_brakes=float(max(r.n_hard_brakes for r in rows)),
        accels_per_km=sum(r.n_hard_accels for r in rows) / km,
        max_edge_accels=float(max(r.n_hard_accels for r in rows)),
        mean_speed=sum(r.avg_speed_mps * r.n_points for r in rows) / n_points,
    )


def extract_feature_table(graphs: Sequence[TripGraph]) -> FeatureTable:
    """Feature vectors for many trips, sorted by (driver_id, trip_id)."""
    seen: set[tuple[int, int]] = set()
    for g in graphs:
        key = (g.driver_id, g.trip_id)
        if key in seen:
            raise ValueError(f"duplicate trip key {key}")
        seen.add(key)
    ordered = sorted(graphs, key=lambda g: (g.driver_id, g.trip_id))
    return FeatureTable(
        keys=[(g.driver_id, g.trip_id) for g in ordered],
        vectors=[extract_features(g) for g in ordered],
    )


def write_feature_table(table: FeatureTable, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURE_TABLE_COLUMNS)
        for (driver_id, trip_id), vec in zip(table.keys, table.vectors):
            writer.writerow([driver_id, trip_id] + [repr(float(v)) for v in vec.to_array()])


def read_feature_table(path: str | Path) -> FeatureTable:
    """Read a feature table CSV; rows are re-sorted by (driver_id, trip_id)."""
    entries: dict[tuple[int, int], FeatureVector] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != FEATURE_TABLE_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(FEATURE_TABLE_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(FEATURE_TABLE_COLUMNS):
                raise ValueError(f"{path}: malformed row at line {lineno}")
            try:
                key = (int(row[0]), int(row[1]))
                vec = FeatureVector.from_array([float(v) for v in row[2:]])
            except ValueError:
                raise ValueError(f"{path}: non-numeric field at line {lineno}") from None
            if key in entries:
                raise ValueError(f"{path}: duplicate trip key {key} at line {lineno}")
            entries[key] = vec
    keys = sorted(entries)
    return FeatureTable(keys=keys, vectors=[entries[k] for k in keys])
