"""CSV readers and writers for road networks and GPS trajectories.

Network files are authoritative infrastructure: any structural problem
raises with a 1-based line number. Trajectory files are field data:
they are read a block of rows at a time into numpy columns, each bad
row is rejected with a reason code and tallied in the ingest report,
and the accepted points become columnar trips.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
import stat
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .forked import process_count, run_parts
from .geo import haversine_m
from .model import FLOAT_COLUMNS, TRIP_COLUMNS, RoadNetwork, RoadNode, RoadSegment, Trip

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


def _header(path: str | Path, reader: Iterator[list[str]], required: Sequence[str]) -> list[str]:
    """The reader's first record, checked to name every required column."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file, expected header {','.join(required)}")
    missing = [c for c in required if c not in header]
    if missing:
        raise ValueError(f"{path}: header missing columns {missing}")
    return header


@contextmanager
def _read_rows(path: str | Path, required: Sequence[str]) -> Iterator[tuple[list[str], Iterable]]:
    """Open a headered CSV, check its header, and yield (header, row reader); closes on exit."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        yield _header(path, reader, required), reader


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


# rejection reason codes, in the order a row is checked; code 0 accepts the row
REASONS = (None, "bad_field_count", "non_numeric", "lat_out_of_range", "lon_out_of_range",
           "speed_out_of_range", "direction_out_of_range", "negative_event_count",
           "duplicate_timestamp")
_CODE = {reason: code for code, reason in enumerate(REASONS) if reason}
BLOCK_ROWS = 4096           # rows read and converted at a time
_SCAN_BYTES = 1 << 20      # bytes read at a time while looking for cuts


def _convert(texts: Sequence[str], kind: type, bad: np.ndarray) -> np.ndarray:
    """One column of a block, converted with int or float; sets bad where a
    text does not parse (for int, also where it falls outside int64)."""
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.fromiter(map(kind, texts), dtype, len(texts))
    except (ValueError, OverflowError):
        pass
    out = np.zeros(len(texts), dtype)
    for i, text in enumerate(texts):
        try:
            out[i] = kind(text)
        except (ValueError, OverflowError):
            bad[i] = True
    return out


def _check_rows(rows: list[list[str]], fields: list[tuple[str, int, type]]
                ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Convert rows that have every field into columns, one per (name,
    position, int or float) in fields, and give each row the code of the
    first per-row check it fails, or 0."""
    texts = list(zip(*rows))
    bad = np.zeros(len(rows), bool)
    values = {name: _convert(texts[col], kind, bad) for name, col, kind in fields}
    lat, lon, speed, cog = values["lat"], values["lon"], values["speed_mps"], values["cog_deg"]
    checks = [
        ("non_numeric", bad),
        ("lat_out_of_range", ~((lat >= -90.0) & (lat <= 90.0))),
        ("lon_out_of_range", ~((lon >= -180.0) & (lon <= 180.0))),
        ("speed_out_of_range", ~(np.isfinite(speed) & (speed >= 0.0))),
        ("direction_out_of_range", ~((cog >= 0.0) & (cog < 360.0))),
    ]
    if "hard_accel" in values:
        checks.append(("negative_event_count",
                       (values["hard_accel"] < 0) | (values["hard_brake"] < 0)))
    code = np.zeros(len(rows), np.int8)
    for reason, failed in checks:
        code[(code == 0) & failed] = _CODE[reason]
    return code, values


def _read_columns(reader: Iterable[list[str]], fields: list[tuple[str, int, type]], width: int
                  ) -> tuple[list[np.ndarray], dict[str, list[np.ndarray]], list[np.ndarray], list[int]]:
    """Read every row, BLOCK_ROWS at a time. Returns, per block, the reason
    code of each row read (blank lines are not rows), the columns of the
    rows that passed the per-row checks and the index of each of those
    among the rows read; and, per blank line, the number of rows read
    before it."""
    codes: list[np.ndarray] = []
    parts: dict[str, list[np.ndarray]] = {name: [] for name, _, _ in fields}
    kept_rows: list[np.ndarray] = []
    blanks: list[int] = []
    n_read = 0
    for block in iter(lambda: list(islice(reader, BLOCK_ROWS)), []):
        if not all(block):
            rows_before = n_read
            for row in block:
                if row:
                    rows_before += 1
                else:
                    blanks.append(rows_before)
            block = [row for row in block if row]
        code = np.zeros(len(block), np.int8)
        short = np.fromiter(map(len, block), np.intp, len(block)) < width
        code[short] = _CODE["bad_field_count"]
        rows = [row for row, s in zip(block, short.tolist()) if not s]
        if rows:
            row_code, values = _check_rows(rows, fields)
            code[~short] = row_code
            for name, column_parts in parts.items():
                column_parts.append(values[name][row_code == 0])
            kept_rows.append(n_read + np.flatnonzero(code == 0))
        codes.append(code)
        n_read += len(block)
    return codes, parts, kept_rows, blanks


class _Window(io.RawIOBase):
    """The next `size` bytes of a raw binary file, as a raw stream that
    closes the file when it is closed."""

    def __init__(self, raw: io.RawIOBase, size: int):
        super().__init__()
        self._raw = raw
        self._left = size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view:
            n = self._raw.readinto(view[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def _open_text(path: str | Path, start: int = 0, stop: Optional[int] = None) -> io.TextIOWrapper:
    """Bytes [start, stop) of a file (to its end when stop is None), decoded
    as open(path, newline="") decodes the whole file."""
    raw = open(path, "rb", buffering=0)
    try:
        if start:
            raw.seek(start)
        return io.TextIOWrapper(io.BufferedReader(raw if stop is None else _Window(raw, stop - start)),
                                newline="")
    except BaseException:
        raw.close()
        raise


def _part_bounds(path: str | Path, n: int) -> list[Optional[int]]:
    """Byte offsets [0, cut, ..., None] that split a trajectory file into
    at most n parts, the last part running to the end of the file.

    Every cut follows a b"\\n" with no b'"' anywhere before it: outside
    quotes a newline always ends a record, so each part holds whole
    records and the first one holds the header. (A b"\\n" byte is only
    ever a newline in the ASCII-compatible encodings a locale uses.) The
    cuts are the first such newlines at or after k/n of the file; a file
    with a quote before them, or that is not a regular file, is one part.
    """
    if n == 1:
        return [0, None]
    status = os.stat(path)
    if not stat.S_ISREG(status.st_mode):
        return [0, None]
    size = status.st_size
    targets = [k * size // n for k in range(1, n)]
    cuts: list[int] = []
    with open(path, "rb") as fh:
        pos = 0
        while targets:
            chunk = fh.read(_SCAN_BYTES)
            quote = chunk.find(b'"')
            clear = len(chunk) if quote < 0 else quote
            while targets:
                newline = chunk.find(b"\n", max(targets[0] - pos, 0), clear)
                if newline < 0:
                    break
                cuts.append(pos + newline + 1)
                targets = [t for t in targets if t >= cuts[-1]]
            if quote >= 0 or not chunk:
                break
            pos += len(chunk)
    return [0, *(c for c in cuts if c < size), None]


def _read_part(path: str | Path, start: int, stop: Optional[int]
               ) -> tuple[bool, list[np.ndarray], dict[str, list[np.ndarray]], list[np.ndarray], list[int]]:
    """Read the rows of bytes [start, stop) of a trajectory file, a range
    of whole records from _part_bounds. Returns whether the header has the
    event columns, then _read_columns' blocks for those rows."""
    if start:
        with _open_text(path) as fh:
            header = _header(path, csv.reader(fh), TRAJECTORY_COLUMNS)
    with _open_text(path, start, stop) as fh:
        reader = csv.reader(fh)
        if not start:
            header = _header(path, reader, TRAJECTORY_COLUMNS)
        has_events = all(c in header for c in EVENT_COLUMNS)
        if not has_events and any(c in header for c in EVENT_COLUMNS):
            raise ValueError(f"{path}: header must include both of {EVENT_COLUMNS} or neither")
        fields = [(name, header.index(name), float if name in FLOAT_COLUMNS else int)
                  for name in ["driver_id", "trip_id", *TRIP_COLUMNS]
                  if has_events or name not in EVENT_COLUMNS]
        return has_events, *_read_columns(reader, fields, len(header))


def _join_parts(parts: list[tuple]) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray, list[int]]:
    """The blocks of _read_part's parts joined in file order: the reason
    code of every row read, the columns of the rows that passed, the index
    of each of those among all rows read, and per blank line the number of
    rows read before it. A part's indices and counts move up by the rows
    of the parts before it."""
    codes: list[np.ndarray] = []
    blocks: dict[str, list[np.ndarray]] = {}
    kept_rows: list[np.ndarray] = []
    blanks: list[int] = []
    n_read = 0
    for _, part_codes, part_blocks, part_kept, part_blanks in parts:
        codes += part_codes
        for name in list(part_blocks):
            blocks.setdefault(name, []).extend(part_blocks.pop(name))
        kept_rows += [rows + n_read for rows in part_kept]
        blanks += [rows_before + n_read for rows_before in part_blanks]
        n_read += sum(map(len, part_codes))

    # each column's blocks are freed as soon as it is joined, which bounds the peak memory
    columns = {}
    for name in list(blocks):
        column_blocks = blocks.pop(name)
        columns[name] = np.concatenate(column_blocks) if column_blocks else np.zeros(0, np.int64)
        del column_blocks
    return (np.concatenate(codes) if codes else np.zeros(0, np.int8), columns,
            np.concatenate(kept_rows) if kept_rows else np.zeros(0, np.intp), blanks)


def parse_trips(path: str | Path, workers: int = 1) -> tuple[list[Trip], IngestReport]:
    """Read a trajectory CSV into columnar trips grouped by (driver_id, trip_id).

    Rows are read and converted BLOCK_ROWS at a time, with Python's int
    and float, so a field is numeric exactly when those accept it;
    integer fields must also fit int64. Each row gets the first reason
    code that applies, checked in this order: bad_field_count (fewer
    fields than the header), non_numeric, lat_out_of_range,
    lon_out_of_range, speed_out_of_range, direction_out_of_range,
    negative_event_count, duplicate_timestamp (the first row in file
    order of a (driver, trip, timestamp) key wins). Blank lines are not
    rows. Trips left with fewer than 2 points are dropped and their
    points counted as trip_too_short. Points are sorted by timestamp
    within each trip, and trips by (driver_id, trip_id).

    With workers above 1 the file is cut into up to that many ranges of
    whole records (no more than the usable CPUs; see _part_bounds), read
    at the same time, the first here and the others in forked processes,
    and joined in file order. The result is the same for any workers.
    """
    bounds = _part_bounds(path, process_count(workers))
    parts = run_parts(_read_part, [(path, lo, hi) for lo, hi in zip(bounds, bounds[1:])])
    has_events = parts[0][0]
    code, col, row_index, blanks = _join_parts(parts)
    del parts
    for name in EVENT_COLUMNS:
        col.setdefault(name, np.zeros(len(col["timestamp"]), np.int64))

    # a stable sort keeps equal (driver, trip, timestamp) keys in file order,
    # so the first of them is the one kept; columns are reordered one at a time
    order = np.lexsort((col["timestamp"], col["trip_id"], col["driver_id"]))
    for name in col:
        col[name] = col[name][order]
    driver, trip, stamp = col["driver_id"], col["trip_id"], col["timestamp"]
    new_trip = np.ones(len(order), bool)
    new_trip[1:] = (driver[1:] != driver[:-1]) | (trip[1:] != trip[:-1])
    duplicate = np.zeros(len(order), bool)
    duplicate[1:] = ~new_trip[1:] & (stamp[1:] == stamp[:-1])
    code[row_index[order[duplicate]]] = _CODE["duplicate_timestamp"]
    keep = ~duplicate
    del driver, trip, stamp, order, row_index     # so each old column is freed when replaced
    for name in col:
        col[name] = col[name][keep]
    bounds = np.append(np.flatnonzero(new_trip[keep]), len(col["timestamp"]))

    report = IngestReport(has_event_columns=has_events, n_points_read=len(code))
    present, first = np.unique(code, return_index=True)
    for c in present[np.argsort(first)].tolist():
        if c:
            report.rejection_reasons[REASONS[c]] = int(np.count_nonzero(code == c))
    trips: list[Trip] = []
    n_short = 0
    for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if e - s < 2:
            n_short += e - s
            continue
        trips.append(Trip(int(col["driver_id"][s]), int(col["trip_id"][s]),
                          **{name: col[name][s:e] for name in TRIP_COLUMNS}))
    if n_short:
        report.rejection_reasons["trip_too_short"] = n_short
    report.n_points_rejected = int(np.count_nonzero(code)) + n_short
    report.n_trips = len(trips)
    if log.isEnabledFor(logging.DEBUG):
        for i in np.flatnonzero(code).tolist():
            # blank lines still count as lines of the file
            log.debug("rejected row at line %d: %s", i + 2 + bisect_right(blanks, i),
                      REASONS[code[i]])
    return trips, report


def write_trips(trips: Iterable[Trip], path: str | Path) -> None:
    """Write trips to the trajectory CSV schema, event columns included."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS + EVENT_COLUMNS)
        for trip in trips:
            n = len(trip)
            # tolist gives Python ints and floats, whose repr the schema uses
            writer.writerows(zip(
                repeat(trip.driver_id, n), repeat(trip.trip_id, n),
                trip.point_id.tolist(), trip.timestamp.tolist(),
                map(repr, trip.lat.tolist()), map(repr, trip.lon.tolist()),
                map(repr, trip.speed_mps.tolist()), map(repr, trip.cog_deg.tolist()),
                trip.hard_accel.tolist(), trip.hard_brake.tolist()))


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
