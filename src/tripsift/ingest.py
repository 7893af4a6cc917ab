"""CSV readers and writers for road networks and GPS trajectories.

Network files are authoritative infrastructure: any structural problem
raises with a 1-based line number. Trajectory files are field data:
bad rows are rejected row by row and tallied in the ingest report.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .geo import haversine_m
from .model import RoadNetwork, RoadNode, RoadSegment, TrajectoryPoint, Trip

log = logging.getLogger(__name__)

NODE_COLUMNS = ["node_id", "lat", "lon"]
SEGMENT_COLUMNS = ["segment_id", "from_node", "to_node"]
TRAJECTORY_COLUMNS = [
    "driver_id", "trip_id", "point_id", "timestamp",
    "lat", "lon", "speed_mps", "cog_deg",
]
EVENT_COLUMNS = ["hard_accel", "hard_brake"]


@dataclass
class IngestReport:
    """Bookkeeping for one trajectory file: read = accepted + rejected."""

    n_points_read: int = 0
    n_points_rejected: int = 0
    n_trips: int = 0
    rejection_reasons: Counter = field(default_factory=Counter)
    has_event_columns: bool = False

    @property
    def n_points_accepted(self) -> int:
        return self.n_points_read - self.n_points_rejected


@contextmanager
def _read_rows(path: str | Path, required: Sequence[str]) -> Iterator[tuple[list[str], Iterable]]:
    """Open a headered CSV, check its header, and yield (header, row reader); closes on exit."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected header {','.join(required)}")
        missing = [c for c in required if c not in header]
        if missing:
            raise ValueError(f"{path}: header missing columns {missing}")
        yield header, reader


def parse_road_network(nodes_path: str | Path, segments_path: str | Path) -> RoadNetwork:
    """Read node and segment CSVs into a validated network with its spatial index built.

    Segment lengths come from the optional length_m column when present
    (sanity-checked against the endpoint great-circle distance), else
    they are computed from the node coordinates.

    Raises:
        ValueError: malformed rows (with 1-based line numbers), duplicate
            ids, dangling endpoints, degenerate segments, empty network.
    """
    nodes: dict[int, RoadNode] = {}
    with _read_rows(nodes_path, NODE_COLUMNS) as (header, reader):
        col = {name: header.index(name) for name in NODE_COLUMNS}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise ValueError(f"{nodes_path}: malformed row at line {lineno}")
            try:
                node_id = int(row[col["node_id"]])
                lat = float(row[col["lat"]])
                lon = float(row[col["lon"]])
            except ValueError:
                raise ValueError(f"{nodes_path}: non-numeric field at line {lineno}") from None
            if node_id in nodes:
                raise ValueError(f"{nodes_path}: duplicate node id {node_id} at line {lineno}")
            if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
                raise ValueError(f"{nodes_path}: node {node_id} lat out of range at line {lineno}")
            if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
                raise ValueError(f"{nodes_path}: node {node_id} lon out of range at line {lineno}")
            nodes[node_id] = RoadNode(node_id, lat, lon)

    segments: dict[int, RoadSegment] = {}
    with _read_rows(segments_path, SEGMENT_COLUMNS) as (header, reader):
        col = {name: header.index(name) for name in SEGMENT_COLUMNS}
        length_col = header.index("length_m") if "length_m" in header else None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise ValueError(f"{segments_path}: malformed row at line {lineno}")
            try:
                seg_id = int(row[col["segment_id"]])
                from_node = int(row[col["from_node"]])
                to_node = int(row[col["to_node"]])
            except ValueError:
                raise ValueError(f"{segments_path}: non-numeric field at line {lineno}") from None
            if seg_id in segments:
                raise ValueError(f"{segments_path}: duplicate segment id {seg_id} at line {lineno}")
            for endpoint in (from_node, to_node):
                if endpoint not in nodes:
                    raise ValueError(
                        f"{segments_path}: dangling endpoint {endpoint} in segment {seg_id} at line {lineno}"
                    )
            if from_node == to_node:
                raise ValueError(f"{segments_path}: segment {seg_id} endpoints coincide at line {lineno}")
            a, b = nodes[from_node], nodes[to_node]
            chord = haversine_m(a.lat, a.lon, b.lat, b.lon)
            if chord <= 0.0:
                raise ValueError(f"{segments_path}: segment {seg_id} has zero-length geometry at line {lineno}")
            if length_col is not None and length_col < len(row) and row[length_col].strip():
                try:
                    length = float(row[length_col])
                except ValueError:
                    raise ValueError(f"{segments_path}: non-numeric field at line {lineno}") from None
                # straight segments only: the stated length must roughly agree with the chord
                if not (0.5 * chord <= length <= 2.0 * chord):
                    raise ValueError(
                        f"{segments_path}: segment {seg_id} length {length} outside sanity bounds "
                        f"[{0.5 * chord:.1f}, {2.0 * chord:.1f}] at line {lineno}"
                    )
            else:
                length = chord
            segments[seg_id] = RoadSegment(seg_id, from_node, to_node, length)

    if not segments:
        raise ValueError(f"{segments_path}: network has no edges")

    network = RoadNetwork(nodes=nodes, segments=segments)
    from .matching import build_spatial_index

    network.index = build_spatial_index(network)
    return network


def _reject(report: IngestReport, reason: str, lineno: int) -> None:
    report.n_points_rejected += 1
    report.rejection_reasons[reason] += 1
    log.debug("rejected row at line %d: %s", lineno, reason)


def parse_trips(path: str | Path) -> tuple[list[Trip], IngestReport]:
    """Read a trajectory CSV into trips grouped by (driver_id, trip_id).

    Points are sorted by timestamp within each trip. Out-of-range or
    unparsable rows are rejected with a reason code; for duplicated
    timestamps within a trip the first row wins. Trips left with fewer
    than 2 points are dropped and their points counted as rejected.
    Returned trips are ordered by (driver_id, trip_id).

    Reason codes: bad_field_count, non_numeric, lat_out_of_range,
    lon_out_of_range, speed_out_of_range, direction_out_of_range,
    negative_event_count, duplicate_timestamp, trip_too_short.
    """
    with _read_rows(path, TRAJECTORY_COLUMNS) as (header, reader):
        has_events = all(c in header for c in EVENT_COLUMNS)
        if not has_events and any(c in header for c in EVENT_COLUMNS):
            raise ValueError(f"{path}: header must include both of {EVENT_COLUMNS} or neither")
        col = {name: header.index(name) for name in TRAJECTORY_COLUMNS}
        if has_events:
            col.update({name: header.index(name) for name in EVENT_COLUMNS})

        report = IngestReport(has_event_columns=has_events)
        groups: dict[tuple[int, int], list[TrajectoryPoint]] = {}
        seen_ts: dict[tuple[int, int], set[int]] = {}

        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            report.n_points_read += 1
            if len(row) < len(header):
                _reject(report, "bad_field_count", lineno)
                continue
            try:
                driver_id = int(row[col["driver_id"]])
                trip_id = int(row[col["trip_id"]])
                point_id = int(row[col["point_id"]])
                timestamp = int(row[col["timestamp"]])
                lat = float(row[col["lat"]])
                lon = float(row[col["lon"]])
                speed = float(row[col["speed_mps"]])
                cog = float(row[col["cog_deg"]])
                hard_accel = int(row[col["hard_accel"]]) if has_events else 0
                hard_brake = int(row[col["hard_brake"]]) if has_events else 0
            except ValueError:
                _reject(report, "non_numeric", lineno)
                continue
            if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
                _reject(report, "lat_out_of_range", lineno)
                continue
            if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
                _reject(report, "lon_out_of_range", lineno)
                continue
            if not math.isfinite(speed) or speed < 0.0:
                _reject(report, "speed_out_of_range", lineno)
                continue
            if not math.isfinite(cog) or not 0.0 <= cog < 360.0:
                _reject(report, "direction_out_of_range", lineno)
                continue
            if hard_accel < 0 or hard_brake < 0:
                _reject(report, "negative_event_count", lineno)
                continue
            key = (driver_id, trip_id)
            stamps = seen_ts.setdefault(key, set())
            if timestamp in stamps:
                _reject(report, "duplicate_timestamp", lineno)
                continue
            stamps.add(timestamp)
            groups.setdefault(key, []).append(
                TrajectoryPoint(driver_id, trip_id, point_id, timestamp,
                                lat, lon, speed, cog, hard_accel, hard_brake)
            )

    trips: list[Trip] = []
    for key in sorted(groups):
        points = sorted(groups[key], key=lambda p: p.timestamp)
        if len(points) < 2:
            report.n_points_rejected += len(points)
            report.rejection_reasons["trip_too_short"] += len(points)
            continue
        trips.append(Trip(driver_id=key[0], trip_id=key[1], points=points))
    report.n_trips = len(trips)
    return trips, report


def write_trips(trips: Iterable[Trip], path: str | Path) -> None:
    """Write trips to the trajectory CSV schema, event columns included."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS + EVENT_COLUMNS)
        for trip in trips:
            for p in trip.points:
                writer.writerow([
                    p.driver_id, p.trip_id, p.point_id, p.timestamp,
                    repr(p.lat), repr(p.lon), repr(p.speed_mps), repr(p.cog_deg),
                    p.hard_accel, p.hard_brake,
                ])


def write_network(network: RoadNetwork, nodes_path: str | Path, segments_path: str | Path) -> None:
    """Write a network to the node and segment CSV schemas, lengths included."""
    with open(nodes_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(NODE_COLUMNS)
        for node_id in sorted(network.nodes):
            node = network.nodes[node_id]
            writer.writerow([node.node_id, repr(node.lat), repr(node.lon)])
    with open(segments_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SEGMENT_COLUMNS + ["length_m"])
        for seg_id in sorted(network.segments):
            seg = network.segments[seg_id]
            writer.writerow([seg.segment_id, seg.from_node, seg.to_node, repr(seg.length_m)])
