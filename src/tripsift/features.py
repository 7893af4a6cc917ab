"""Per-trip feature vectors for anomaly scoring.

Ten dimensions in a fixed order; no standardization anywhere. The
direction group captures route shape (loops, detours, erratic
heading), the braking/acceleration groups capture hard events, and
mean speed stands alone. A FeatureTable holds the vectors of many
trips as one (N, 10) matrix, the form the forest reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .geo import circular_diff_deg
from .ingest import read_csv, write_csv
from .tripgraph import TripGraph

# dimension indices (0-based) per group; order matters for seeding
FEATURE_GROUPS: dict[str, tuple[int, ...]] = {
    "direction": (0, 1, 2, 3, 4),
    "braking": (5, 6),
    "acceleration": (7, 8),
    "speed": (9,),
}

FEATURE_TABLE_COLUMNS = ["driver_id", "trip_id"] + [f"f{i}" for i in range(1, 11)]


class FeatureVector(NamedTuple):
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


FEATURE_NAMES = list(FeatureVector._fields)


@dataclass
class FeatureTable:
    """Feature vectors keyed by (driver_id, trip_id), sorted by key."""

    keys: list[tuple[int, int]]
    matrix: np.ndarray                  # (len(keys), 10) floats, row i is the vector of keys[i]

    def __len__(self) -> int:
        return len(self.keys)


def extract_features(graph: TripGraph) -> FeatureVector:
    """Compute the 10-dimensional feature vector of one trip graph.

    Raises:
        ValueError: degenerate trip (non-positive length).
    """
    if graph.trip_length_m <= 0.0:
        raise ValueError(f"degenerate trip ({graph.driver_id},{graph.trip_id}): non-positive length")
    km = graph.trip_length_m / 1000.0

    turn_sum = 0.0
    directions = graph.avg_direction_deg
    seq = graph.traversal_sequence
    for a, b in zip(seq, seq[1:]):
        turn_sum += circular_diff_deg(directions[a], directions[b])

    n_rows = len(graph.segment_id)
    return FeatureVector(
        displacement_ratio=min(1.0, graph.net_displacement_m / graph.trip_length_m),
        repetition_ratio=sum(graph.n_traversals) / n_rows,
        revisited_edge_fraction=sum(1 for n in graph.n_traversals if n >= 2) / n_rows,
        turn_density=turn_sum / km,
        direction_circular_variance=1.0 - graph.cog_resultant,
        brakes_per_km=sum(graph.n_hard_brakes) / km,
        max_edge_brakes=float(max(graph.n_hard_brakes)),
        accels_per_km=sum(graph.n_hard_accels) / km,
        max_edge_accels=float(max(graph.n_hard_accels)),
        mean_speed=(sum(s * n for s, n in zip(graph.avg_speed_mps, graph.n_points))
                    / sum(graph.n_points)),
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
        matrix=np.array([extract_features(g) for g in ordered], dtype=float).reshape(-1, 10),
    )


def write_feature_table(table: FeatureTable, path: str | Path) -> None:
    write_csv(path, FEATURE_TABLE_COLUMNS,
              ([driver_id, trip_id] + [repr(v) for v in values]
               for (driver_id, trip_id), values in zip(table.keys, table.matrix.tolist())))


def read_feature_table(path: str | Path) -> FeatureTable:
    """Read a feature table CSV; rows are re-sorted by (driver_id, trip_id)."""
    entries: dict[tuple[int, int], list[float]] = {}
    with read_csv(path, []) as (header, records):
        if header != FEATURE_TABLE_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(FEATURE_TABLE_COLUMNS)}")
        for lineno, row in records:
            if len(row) != len(FEATURE_TABLE_COLUMNS):
                raise ValueError(f"{path}: malformed row at line {lineno}")
            try:
                key = (int(row[0]), int(row[1]))
                values = [float(v) for v in row[2:]]
            except ValueError:
                raise ValueError(f"{path}: non-numeric field at line {lineno}") from None
            if key in entries:
                raise ValueError(f"{path}: duplicate trip key {key} at line {lineno}")
            entries[key] = values
    keys = sorted(entries)
    matrix = np.array([entries[k] for k in keys], dtype=float).reshape(-1, 10)
    return FeatureTable(keys=keys, matrix=matrix)
