"""Edge-attributed trip matrices.

A matched trip becomes its Edge-Attributed Matrix, a TripGraph: one
row per (segment_id, direction) key in order of first traversal,
carrying averaged speed and direction, the segment length, hard-event
totals, and traversal counts, plus the trip's length, net displacement,
course resultant and traversal sequence. The matrix is held as columns,
one list per attribute with one entry per row. A traversal is a maximal
consecutive run of points on the same directed edge; the sequence
lists the row index of each traversal in time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .geo import circular_mean_deg, haversine_m, mean_resultant_length
from .ingest import write_csv
from .matching import MatchedTrip

MATRIX_CSV_COLUMNS = [
    "segment_id", "direction", "avg_speed_mps", "avg_dir_deg",
    "length_m", "n_brakes", "n_accels", "n_traversals", "n_points",
]


@dataclass
class TripGraph:
    """One trip's Edge-Attributed Matrix, column by column, and its trip-wide statistics.

    The matrix columns are the lists from segment_id to n_points, one entry
    per row, rows in order of first traversal.
    """

    driver_id: int
    trip_id: int
    segment_id: list[int]
    direction: list[int]
    avg_speed_mps: list[float]
    avg_direction_deg: list[float]
    length_m: list[float]
    n_hard_brakes: list[int]
    n_hard_accels: list[int]
    n_traversals: list[int]
    n_points: list[int]
    trip_length_m: float
    net_displacement_m: float
    traversal_sequence: list[int]       # row index of each maximal run, in time order
    cog_resultant: float                # mean resultant length of all point courses


def detect_events(
    timestamp: np.ndarray, speed_mps: np.ndarray, accel_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Derive hard-event flags from speed differences, as (hard_accel, hard_brake).

    Only for inputs whose file lacked event columns: the acceleration
    over each consecutive pair is (v2 - v1) / (t2 - t1); the later
    point is flagged hard_accel when it reaches +accel_threshold and
    hard_brake when it reaches -accel_threshold. The first point gets
    zeros, and pairs with zero time delta are skipped. The time delta is
    the exact integer difference, rounded once to float, as in Python.
    """
    timestamp = np.asarray(timestamp, dtype=np.int64)
    n = len(timestamp)
    if n < 2:
        raise ValueError("need at least 2 points to derive events")
    dt = np.diff(timestamp)
    seconds = dt.astype(float)
    # the int64 difference wraps around where the true one leaves the int64 range
    wrapped = np.flatnonzero((dt < 0) != (timestamp[1:] < timestamp[:-1]))
    for i in wrapped.tolist():
        seconds[i] = float(int(timestamp[i + 1]) - int(timestamp[i]))
    with np.errstate(divide="ignore", invalid="ignore"):
        accel = np.diff(np.asarray(speed_mps, dtype=float)) / seconds
    moving = dt != 0
    hard_accel = np.zeros(n, np.int64)
    hard_brake = np.zeros(n, np.int64)
    hard_accel[1:] = moving & (accel >= accel_threshold)
    hard_brake[1:] = moving & (accel <= -accel_threshold)
    return hard_accel, hard_brake


def build_trip_graph(matched: MatchedTrip, network) -> TripGraph:
    """Aggregate a matched trip into its edge-attributed matrix.

    Rows appear in order of first traversal. Trip length sums the full
    segment length once per traversal; net displacement is the
    great-circle distance between the first and last snapped points.
    The matched points are walked one by one over plain lists of their
    columns: on trips of a few dozen points that costs less than the
    fixed cost of the numpy calls a vectorised form needs.
    """
    trip, kept = matched.trip, matched.kept
    if not len(kept):
        raise ValueError(f"trip ({trip.driver_id},{trip.trip_id}) has no matched points")

    point_cogs = trip.cog_deg[kept].tolist()
    index: dict[tuple[int, int], int] = {}
    speed_sums: list[float] = []
    cogs: list[list[float]] = []
    brakes: list[int] = []
    accels: list[int] = []
    sequence: list[int] = []
    for key, speed, cog, brake, accel in zip(
            zip(matched.segment_id.tolist(), matched.direction.tolist()),
            trip.speed_mps[kept].tolist(), point_cogs,
            trip.hard_brake[kept].tolist(), trip.hard_accel[kept].tolist()):
        i = index.setdefault(key, len(index))
        if i == len(cogs):
            speed_sums.append(0.0)
            cogs.append([])
            brakes.append(0)
            accels.append(0)
        speed_sums[i] += speed
        cogs[i].append(cog)
        brakes[i] += brake
        accels[i] += accel
        if not sequence or sequence[-1] != i:
            sequence.append(i)

    length_m = [network.segments[segment].length_m for segment, _ in index]
    n_traversals = [0] * len(index)
    trip_length = 0.0
    for i in sequence:
        n_traversals[i] += 1
        trip_length += length_m[i]

    n_points = [len(row_cogs) for row_cogs in cogs]
    first = matched.first_snap
    last = matched.last_snap
    return TripGraph(
        driver_id=trip.driver_id,
        trip_id=trip.trip_id,
        segment_id=[segment for segment, _ in index],
        direction=[direction for _, direction in index],
        avg_speed_mps=[s / n for s, n in zip(speed_sums, n_points)],
        avg_direction_deg=[circular_mean_deg(row_cogs) for row_cogs in cogs],
        length_m=length_m,
        n_hard_brakes=brakes,
        n_hard_accels=accels,
        n_traversals=n_traversals,
        n_points=n_points,
        trip_length_m=trip_length,
        net_displacement_m=haversine_m(first.lat, first.lon, last.lat, last.lon),
        traversal_sequence=sequence,
        cog_resultant=mean_resultant_length(point_cogs),
    )


def filter_by_min_length(
    graphs: Sequence[TripGraph], alpha: float
) -> tuple[list[TripGraph], list[TripGraph]]:
    """Split trips into (kept, dropped) by the strict minimum-length rule.

    A trip is kept iff trip_length > alpha; a trip exactly alpha long
    is dropped.
    """
    kept = [g for g in graphs if g.trip_length_m > alpha]
    dropped = [g for g in graphs if not g.trip_length_m > alpha]
    return kept, dropped


def write_matrix_csv(graph: TripGraph, path: str | Path) -> None:
    """Debug export of one trip's matrix."""
    write_csv(path, MATRIX_CSV_COLUMNS, zip(
        graph.segment_id, graph.direction, graph.avg_speed_mps, graph.avg_direction_deg,
        graph.length_m, graph.n_hard_brakes, graph.n_hard_accels, graph.n_traversals,
        graph.n_points))
