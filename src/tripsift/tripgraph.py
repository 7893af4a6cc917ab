"""Edge-attributed trip matrices.

A matched trip becomes its Edge-Attributed Matrix, a TripGraph: one
row per (segment_id, direction) key in order of first traversal,
carrying averaged speed and direction, the segment length, hard-event
totals, and traversal counts, plus the trip's length, net displacement,
course resultant and traversal sequence. A traversal is a maximal
consecutive run of points on the same directed edge; the sequence
lists the row index of each traversal in time order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .geo import circular_mean_deg, haversine_m, mean_resultant_length
from .matching import EdgeKey, MatchedTrip
from .model import TrajectoryPoint

MATRIX_CSV_COLUMNS = [
    "segment_id", "direction", "avg_speed_mps", "avg_dir_deg",
    "length_m", "n_brakes", "n_accels", "n_traversals", "n_points",
]


@dataclass
class EdgeAttributeRow:
    segment_id: int
    direction: int
    avg_speed_mps: float
    avg_direction_deg: float
    length_m: float
    n_hard_brakes: int
    n_hard_accels: int
    n_traversals: int
    n_points: int


@dataclass
class TripGraph:
    """One trip's Edge-Attributed Matrix and its trip-wide statistics."""

    driver_id: int
    trip_id: int
    rows: list[EdgeAttributeRow]        # in order of first traversal
    trip_length_m: float
    net_displacement_m: float
    traversal_sequence: list[int]       # row index of each maximal run, in time order
    cog_resultant: float                # mean resultant length of all point courses


def detect_events(
    points: Sequence[TrajectoryPoint], accel_threshold: float
) -> list[TrajectoryPoint]:
    """Derive hard-event flags from speed differences.

    Only for inputs whose file lacked event columns: the acceleration
    over each consecutive pair is (v2 - v1) / (t2 - t1); the later
    point is flagged hard_accel when it reaches +accel_threshold and
    hard_brake when it reaches -accel_threshold. The first point gets
    zeros, and pairs with zero time delta are skipped.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points to derive events")
    out = [replace(points[0], hard_accel=0, hard_brake=0)]
    for prev, cur in zip(points, points[1:]):
        dt = cur.timestamp - prev.timestamp
        if dt == 0:
            out.append(replace(cur, hard_accel=0, hard_brake=0))
            continue
        a = (cur.speed_mps - prev.speed_mps) / dt
        out.append(replace(
            cur,
            hard_accel=1 if a >= accel_threshold else 0,
            hard_brake=1 if a <= -accel_threshold else 0,
        ))
    return out


def build_trip_graph(matched: MatchedTrip, network) -> TripGraph:
    """Aggregate a matched trip into its edge-attributed matrix.

    Rows appear in order of first traversal. Trip length sums the full
    segment length once per traversal; net displacement is the
    great-circle distance between the first and last snapped points.
    """
    if not matched.points:
        raise ValueError(f"trip ({matched.driver_id},{matched.trip_id}) has no matched points")

    index: dict[EdgeKey, int] = {}
    rows: list[EdgeAttributeRow] = []
    speed_sums: list[float] = []
    cogs: list[list[float]] = []
    sequence: list[int] = []
    for p, key in zip(matched.points, matched.edges):
        i = index.get(key)
        if i is None:
            i = index[key] = len(rows)
            rows.append(EdgeAttributeRow(
                segment_id=key[0],
                direction=key[1],
                avg_speed_mps=0.0,          # set from speed_sums below
                avg_direction_deg=0.0,      # set from cogs below
                length_m=network.segments[key[0]].length_m,
                n_hard_brakes=0,
                n_hard_accels=0,
                n_traversals=0,
                n_points=0,
            ))
            speed_sums.append(0.0)
            cogs.append([])
        row = rows[i]
        speed_sums[i] += p.speed_mps
        cogs[i].append(p.cog_deg)
        row.n_hard_brakes += p.hard_brake
        row.n_hard_accels += p.hard_accel
        row.n_points += 1
        if not sequence or sequence[-1] != i:
            row.n_traversals += 1
            sequence.append(i)

    for row, speed_sum, row_cogs in zip(rows, speed_sums, cogs):
        row.avg_speed_mps = speed_sum / row.n_points
        row.avg_direction_deg = circular_mean_deg(row_cogs)

    trip_length = 0.0
    for i in sequence:
        trip_length += rows[i].length_m

    first = matched.first_snap
    last = matched.last_snap
    return TripGraph(
        driver_id=matched.driver_id,
        trip_id=matched.trip_id,
        rows=rows,
        trip_length_m=trip_length,
        net_displacement_m=haversine_m(first.lat, first.lon, last.lat, last.lon),
        traversal_sequence=sequence,
        cog_resultant=mean_resultant_length(p.cog_deg for p in matched.points),
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MATRIX_CSV_COLUMNS)
        for row in graph.rows:
            writer.writerow([
                row.segment_id, row.direction,
                repr(row.avg_speed_mps), repr(row.avg_direction_deg), repr(row.length_m),
                row.n_hard_brakes, row.n_hard_accels, row.n_traversals, row.n_points,
            ])
