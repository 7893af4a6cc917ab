"""Edge-attributed trip matrices.

A matched trip becomes its Edge-Attributed Matrix: one row per
(segment_id, direction) key in order of first traversal, carrying
averaged speed and direction, the segment length, hard-event totals,
and traversal counts, plus the trip's length, net displacement, course
resultant and traversal sequence. A traversal is a maximal consecutive
run of points on the same directed edge; the sequence lists the row
index of each traversal in time order.

A TripGraph holds the matrices of a run of trips, each field as one
array over them (a lone trip is a run of one). build_trip_graph makes it
from a run's matched trips in array passes: rows from the unique (trip,
segment, direction) keys, traversals from key changes, sums from
np.bincount in point order and trigonometry from math. So each trip's
matrix is bit for bit the one it gets when built alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .geo import DEG_TO_RAD, RAD_TO_DEG, haversine_m
from .ingest import write_csv
from .matching import MatchedTrip, grid_of

MATRIX_CSV_COLUMNS = [
    "segment_id", "direction", "avg_speed_mps", "avg_dir_deg",
    "length_m", "n_brakes", "n_accels", "n_traversals", "n_points",
]

# the TripGraph fields with one entry per matrix row, and those holding floats
ROW_FIELDS = ("segment_id", "direction", "avg_speed_mps", "avg_direction_deg", "length_m",
              "n_hard_brakes", "n_hard_accels", "n_traversals", "n_points")
_FLOAT_FIELDS = ("avg_speed_mps", "avg_direction_deg", "length_m", "trip_length_m",
                 "net_displacement_m", "cog_resultant")


@dataclass
class TripGraph:
    """Edge-Attributed Matrices of a run of trips, column by column, with
    trip-wide statistics, each field one array joined over the trips.

    The matrix columns are the ROW_FIELDS, one entry per row. Trip i's rows
    are the next n_rows[i] entries of those columns, in order of first
    traversal, and its traversals the next n_runs[i] entries of
    traversal_sequence, whose row indices count from the trip's own first
    row; the other fields have one entry per trip.
    """

    driver_id: np.ndarray
    trip_id: np.ndarray
    segment_id: np.ndarray
    direction: np.ndarray
    avg_speed_mps: np.ndarray
    avg_direction_deg: np.ndarray
    length_m: np.ndarray
    n_hard_brakes: np.ndarray
    n_hard_accels: np.ndarray
    n_traversals: np.ndarray
    n_points: np.ndarray
    trip_length_m: np.ndarray
    net_displacement_m: np.ndarray
    traversal_sequence: np.ndarray  # row index of each maximal run, in time order
    cog_resultant: np.ndarray       # mean resultant length of all point courses
    n_rows: np.ndarray
    n_runs: np.ndarray

    @staticmethod
    def join(graphs: Sequence[TripGraph]) -> TripGraph:
        """The trips of these graphs as one graph, in order."""
        return TripGraph(**{f.name: np.concatenate(
            [np.empty(0, float if f.name in _FLOAT_FIELDS else np.int64)]
            + [getattr(g, f.name) for g in graphs]) for f in fields(TripGraph)})

    def take(self, keep: np.ndarray) -> TripGraph:
        """The trips where the boolean mask keep is set."""
        rows, runs = np.repeat(keep, self.n_rows), np.repeat(keep, self.n_runs)
        return TripGraph(**{f.name: getattr(self, f.name)[
            rows if f.name in ROW_FIELDS else runs if f.name == "traversal_sequence" else keep]
            for f in fields(self)})

    def split(self) -> list[TripGraph]:
        """Each trip as a graph of its own, in order."""
        rows, runs = np.cumsum(self.n_rows).tolist(), np.cumsum(self.n_runs).tolist()
        return [TripGraph(**{f.name: getattr(self, f.name)[
            slice(r0, r1) if f.name in ROW_FIELDS else slice(s0, s1)
            if f.name == "traversal_sequence" else slice(i, i + 1)] for f in fields(self)})
                for i, (r0, r1, s0, s1) in enumerate(zip([0] + rows, rows, [0] + runs, runs))]


def detect_events(
    timestamp: np.ndarray, speed_mps: np.ndarray, accel_threshold: float,
    starts: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Derive hard-event flags from speed differences, as (hard_accel, hard_brake).

    Only for inputs whose file lacked event columns: the acceleration
    over each consecutive pair is (v2 - v1) / (t2 - t1); the later
    point is flagged hard_accel when it reaches +accel_threshold and
    hard_brake when it reaches -accel_threshold. The first point gets
    zeros, and pairs with zero time delta are skipped. The time delta is
    the exact integer difference, rounded once to float, as in Python.
    When the columns join several trips, `starts` holds the index of each
    trip's first point; those points get zeros too, so each trip's flags
    equal those of a call on that trip alone.
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
    if starts is not None:
        hard_accel[starts] = 0
        hard_brake[starts] = 0
    return hard_accel, hard_brake


def build_trip_graph(matched: MatchedTrip, network) -> TripGraph:
    """Aggregate the matched trips of a run into their edge-attributed matrices.

    Rows appear in order of first traversal. Trip length sums the full
    segment length once per traversal; net displacement is the
    great-circle distance between the first and last snapped points.
    """
    trips = matched.trips
    grid = grid_of(network)
    n = len(trips)
    trip = np.repeat(np.arange(n), [len(t.lat) for t in trips])[matched.kept]

    def column(name):
        return np.concatenate([np.empty(0, np.int64)] + [getattr(t, name) for t in trips])[
            matched.kept]

    # rows: one per (trip, segment, direction) key, numbered in order of first traversal
    pos = np.searchsorted(grid.segment_ids, matched.segment_id)
    key = (trip * len(grid.segment_ids) + pos) * 2 + (matched.direction > 0)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    row, first = rank[inverse], first[order]
    m = len(first)
    row_count = np.bincount(trip[first], minlength=n)
    # traversals: maximal runs of points on one row
    run_start = np.flatnonzero(np.diff(row, prepend=-1))
    run_row, run_trip = row[run_start], trip[run_start]
    length = grid.length_m[pos[first]]
    brakes, accels = np.zeros(m, np.int64), np.zeros(m, np.int64)
    np.add.at(brakes, row, column("hard_brake"))
    np.add.at(accels, row, column("hard_accel"))

    # a row's circular mean course; where its courses cancel, its first course.
    # math over lists, not numpy's ufuncs, which may run float64 trig in SIMD
    # code that differs from math in the last bit
    cog = column("cog_deg")
    radians = (cog * DEG_TO_RAD).tolist()
    cos = np.fromiter(map(math.cos, radians), float, len(cog))
    sin = np.fromiter(map(math.sin, radians), float, len(cog))
    n_points = np.bincount(row, minlength=m)
    sx, sy = np.bincount(row, cos, m), np.bincount(row, sin, m)
    degenerate = _hypot(sx, sy) / n_points < 1e-9
    if degenerate.any():
        warnings.warn("degenerate mean: opposed angles cancel", RuntimeWarning, stacklevel=2)
    mean = np.fmod(np.where(degenerate, cog[first], RAD_TO_DEG * np.fromiter(
        map(math.atan2, sy.tolist(), sx.tolist()), float, m)), 360.0)
    mean = np.where(mean < 0.0, mean + 360.0, mean)
    resultant = (_hypot(np.bincount(trip, cos, n), np.bincount(trip, sin, n))
                 / np.bincount(trip, minlength=n))
    ends = [v.tolist() for s in (matched.first_snap, matched.last_snap) for v in (s.lat, s.lon)]
    return TripGraph(
        driver_id=np.array([t.driver_id for t in trips], np.int64),
        trip_id=np.array([t.trip_id for t in trips], np.int64),
        segment_id=matched.segment_id[first],
        direction=matched.direction[first],
        avg_speed_mps=np.bincount(row, column("speed_mps"), m) / n_points,
        avg_direction_deg=np.where(mean == 360.0, 0.0, mean),
        length_m=length,
        n_hard_brakes=brakes,
        n_hard_accels=accels,
        n_traversals=np.bincount(run_row, minlength=m),
        n_points=n_points,
        trip_length_m=np.bincount(run_trip, length[run_row], n),
        net_displacement_m=np.fromiter(map(haversine_m, *ends), float, n),
        traversal_sequence=run_row - (np.cumsum(row_count) - row_count)[run_trip],
        cog_resultant=np.where(resultant < 1.0, resultant, 1.0),
        n_rows=row_count,
        n_runs=np.bincount(run_trip, minlength=n),
    )


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(x))


def filter_by_min_length(
    graphs: Union[TripGraph, Sequence[TripGraph]], alpha: float
) -> tuple[Union[TripGraph, list[TripGraph]], Union[TripGraph, list[TripGraph]]]:
    """Split trips into (kept, dropped) by the strict minimum-length rule:
    a TripGraph into two, or a sequence of graphs of one trip into two lists.

    A trip is kept iff trip_length > alpha; a trip exactly alpha long
    is dropped.
    """
    if isinstance(graphs, TripGraph):
        keep = graphs.trip_length_m > alpha
        return graphs.take(keep), graphs.take(~keep)
    kept = [g for g in graphs if g.trip_length_m > alpha]
    dropped = [g for g in graphs if not g.trip_length_m > alpha]
    return kept, dropped


def write_matrix_csv(graph: TripGraph, path: str | Path) -> None:
    """Debug export of the matrix of a graph of one trip."""
    write_csv(path, MATRIX_CSV_COLUMNS,
              zip(*(getattr(graph, name).tolist() for name in ROW_FIELDS)))
