"""Per-trip feature vectors for anomaly scoring.

Ten dimensions in a fixed order; no standardization anywhere. The
direction group captures route shape (loops, detours, erratic
heading), the braking/acceleration groups capture hard events, and
mean speed stands alone. The features of a run of trips are computed
from the row and traversal arrays of its TripGraph in a few array
passes, as one FeatureVector of per-trip arrays; a FeatureTable holds
them as one (N, 10) matrix, the form the forest reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
    """The ten features, each an array with one entry per trip."""

    displacement_ratio: np.ndarray           # f1: net displacement / trip length, in [0, 1]
    repetition_ratio: np.ndarray             # f2: traversals per distinct directed edge, >= 1
    revisited_edge_fraction: np.ndarray      # f3: fraction of edges traversed more than once
    turn_density: np.ndarray                 # f4: summed course change (deg) per km
    direction_circular_variance: np.ndarray  # f5: 1 - resultant length of point courses
    brakes_per_km: np.ndarray                # f6
    max_edge_brakes: np.ndarray              # f7
    accels_per_km: np.ndarray                # f8
    max_edge_accels: np.ndarray              # f9
    mean_speed: np.ndarray                   # f10: point-weighted, m/s


FEATURE_NAMES = list(FeatureVector._fields)


@dataclass
class FeatureTable:
    """Feature vectors keyed by (driver_id, trip_id), sorted by key."""

    keys: list[tuple[int, int]]
    matrix: np.ndarray                  # (len(keys), 10) floats, row i is the vector of keys[i]

    def __len__(self) -> int:
        return len(self.keys)


def extract_features(graph: TripGraph) -> FeatureVector:
    """The 10 features of each trip of the graph, entry i for its trip i.

    Float sums add in row or traversal order (np.bincount), as a loop
    over one trip's rows does.

    Raises:
        ValueError: degenerate trip (non-positive length).
    """
    g, n = graph, len(graph.driver_id)
    bad = np.flatnonzero(g.trip_length_m <= 0.0)
    if len(bad):
        key = g.driver_id[bad[0]], g.trip_id[bad[0]]
        raise ValueError(f"degenerate trip ({key[0]},{key[1]}): non-positive length")
    first_row = np.cumsum(g.n_rows) - g.n_rows
    row_trip = np.repeat(np.arange(n), g.n_rows)
    run_trip = np.repeat(np.arange(n), g.n_runs)
    run_direction = g.avg_direction_deg[g.traversal_sequence + first_row[run_trip]]
    # the turn between each two consecutive traversals of one trip
    turn = np.fmod(np.abs(run_direction[:-1] - run_direction[1:]), 360.0)
    turn = np.where(turn > 180.0, 360.0 - turn, turn)
    same_trip = run_trip[1:] == run_trip[:-1]
    turn_sum = np.bincount(run_trip[1:][same_trip], weights=turn[same_trip], minlength=n)

    def per_trip(values):
        return np.bincount(row_trip, weights=values, minlength=n)

    km = g.trip_length_m / 1000.0
    displacement = g.net_displacement_m / g.trip_length_m
    return FeatureVector(
        np.where(displacement < 1.0, displacement, 1.0),
        per_trip(g.n_traversals) / g.n_rows,
        per_trip(g.n_traversals >= 2) / g.n_rows,
        turn_sum / km,
        1.0 - g.cog_resultant,
        np.add.reduceat(g.n_hard_brakes, first_row) / km,
        np.maximum.reduceat(g.n_hard_brakes, first_row).astype(float),
        np.add.reduceat(g.n_hard_accels, first_row) / km,
        np.maximum.reduceat(g.n_hard_accels, first_row).astype(float),
        per_trip(g.avg_speed_mps * g.n_points) / per_trip(g.n_points),
    )


def extract_feature_table(graph: TripGraph) -> FeatureTable:
    """The feature vectors of the graph's trips, sorted by (driver_id, trip_id)."""
    order = np.lexsort((graph.trip_id, graph.driver_id))
    keys = np.column_stack((graph.driver_id, graph.trip_id))[order].tolist()
    for a, b in zip(keys, keys[1:]):
        if a == b:
            raise ValueError(f"duplicate trip key {tuple(a)}")
    return FeatureTable(keys=list(map(tuple, keys)),
                        matrix=np.column_stack(extract_features(graph))[order])


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
