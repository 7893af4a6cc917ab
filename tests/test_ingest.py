"""Reader behavior: the CSV format, strict network validation, row-level trip rejection."""

import ast
import csv
import logging
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripsift import ingest
from tripsift.evaluate import read_truth
from tripsift.features import FEATURE_TABLE_COLUMNS, read_feature_table
from tripsift.ingest import (
    EVENT_COLUMNS,
    TRAJECTORY_COLUMNS,
    IngestReport,
    parse_road_network,
    parse_trips,
    read_csv,
    write_csv,
    write_network,
    write_trips,
)
from tripsift.model import FLOAT_COLUMNS, TRIP_COLUMNS, Trip


def write(path, text):
    path.write_text(text)
    return path


NODES_OK = """node_id,lat,lon
1,40.0,-86.0
2,40.0,-85.99
3,40.0,-85.98
4,40.01,-86.0
"""

SEGMENTS_OK = """segment_id,from_node,to_node
10,1,2
11,2,3
12,1,4
"""


@pytest.fixture
def network_paths(tmp_path):
    nodes = write(tmp_path / "nodes.csv", NODES_OK)
    segments = write(tmp_path / "segments.csv", SEGMENTS_OK)
    return nodes, segments


def test_parse_network_ok(network_paths):
    net = parse_road_network(*network_paths)
    assert set(net.nodes) == {1, 2, 3, 4}
    assert set(net.segments) == {10, 11, 12}
    assert net.index is not None
    # lengths computed from coordinates: ~852 m per 0.01 deg lon at lat 40
    assert net.segments[10].length_m == pytest.approx(851.7, abs=1.0)


def test_parse_network_reads_length_column(tmp_path):
    nodes = write(tmp_path / "n.csv", NODES_OK)
    segments = write(tmp_path / "s.csv",
                     "segment_id,from_node,to_node,length_m\n10,1,2,900.0\n")
    net = parse_road_network(nodes, segments)
    assert net.segments[10].length_m == 900.0


def test_parse_network_length_sanity(tmp_path):
    nodes = write(tmp_path / "n.csv", NODES_OK)
    segments = write(tmp_path / "s.csv",
                     "segment_id,from_node,to_node,length_m\n10,1,2,5000.0\n")
    with pytest.raises(ValueError, match="sanity"):
        parse_road_network(nodes, segments)


def test_parse_network_duplicate_node(tmp_path):
    nodes = write(tmp_path / "n.csv", NODES_OK + "1,41.0,-86.0\n")
    segments = write(tmp_path / "s.csv", SEGMENTS_OK)
    with pytest.raises(ValueError, match="duplicate node id 1 at line 6"):
        parse_road_network(nodes, segments)


def test_parse_network_dangling_endpoint(tmp_path):
    nodes = write(tmp_path / "n.csv", NODES_OK)
    segments = write(tmp_path / "s.csv", "segment_id,from_node,to_node\n10,1,99\n")
    with pytest.raises(ValueError, match="dangling endpoint 99 in segment 10"):
        parse_road_network(nodes, segments)


def test_parse_network_self_loop(tmp_path):
    nodes = write(tmp_path / "n.csv", NODES_OK)
    segments = write(tmp_path / "s.csv", "segment_id,from_node,to_node\n10,2,2\n")
    with pytest.raises(ValueError, match="coincide"):
        parse_road_network(nodes, segments)


def test_parse_network_no_edges(tmp_path):
    nodes = write(tmp_path / "n.csv", NODES_OK)
    segments = write(tmp_path / "s.csv", "segment_id,from_node,to_node\n")
    with pytest.raises(ValueError, match="no edges"):
        parse_road_network(nodes, segments)


def test_parse_network_missing_header(tmp_path):
    nodes = write(tmp_path / "n.csv", "node_id,lat\n1,40.0\n")
    segments = write(tmp_path / "s.csv", SEGMENTS_OK)
    with pytest.raises(ValueError, match="missing columns"):
        parse_road_network(nodes, segments)


TRIP_HEADER = "driver_id,trip_id,point_id,timestamp,lat,lon,speed_mps,cog_deg\n"


def trip_rows(*rows):
    return TRIP_HEADER + "".join(r + "\n" for r in rows)


def test_parse_trips_groups_and_sorts(tmp_path):
    # second trip's rows arrive out of timestamp order
    path = write(tmp_path / "t.csv", trip_rows(
        "1,1,0,100,40.0,-86.0,10.0,90.0",
        "1,1,1,101,40.0,-85.999,10.0,90.0",
        "2,1,1,201,40.1,-86.0,8.0,180.0",
        "2,1,0,200,40.1,-86.001,8.0,180.0",
    ))
    trips, report = parse_trips(path)
    assert [(t.driver_id, t.trip_id) for t in trips] == [(1, 1), (2, 1)]
    assert trips[1].timestamp.tolist() == [200, 201]
    assert report.n_points_read == 4
    assert report.n_points_rejected == 0
    assert report.n_trips == 2
    assert not report.has_event_columns


def test_parse_trips_event_columns(tmp_path):
    path = write(tmp_path / "t.csv",
                 TRIP_HEADER.rstrip("\n") + ",hard_accel,hard_brake\n"
                 + "1,1,0,100,40.0,-86.0,10.0,90.0,0,1\n"
                 + "1,1,1,101,40.0,-85.999,10.0,90.0,1,0\n")
    trips, report = parse_trips(path)
    assert report.has_event_columns
    assert trips[0].hard_brake.tolist() == [1, 0]
    assert trips[0].hard_accel.tolist() == [0, 1]


def test_parse_trips_one_sided_event_column_rejected(tmp_path):
    path = write(tmp_path / "t.csv",
                 TRIP_HEADER.rstrip("\n") + ",hard_accel\n"
                 + "1,1,0,100,40.0,-86.0,10.0,90.0,0\n")
    with pytest.raises(ValueError, match="both"):
        parse_trips(path)


@pytest.mark.parametrize("row,reason", [
    ("1,1,0,100,40.0,-86.0,10.0", "bad_field_count"),
    ("1,1,0,abc,40.0,-86.0,10.0,90.0", "non_numeric"),
    ("1,1,0,100,95.0,-86.0,10.0,90.0", "lat_out_of_range"),
    ("1,1,0,100,40.0,-186.0,10.0,90.0", "lon_out_of_range"),
    ("1,1,0,100,40.0,-86.0,-1.0,90.0", "speed_out_of_range"),
    ("1,1,0,100,40.0,-86.0,10.0,360.0", "direction_out_of_range"),
    ("1,1,0,100,40.0,-86.0,10.0,-0.5", "direction_out_of_range"),
    ("1,1,0,100,40.0,-86.0,nan,90.0", "speed_out_of_range"),
    # integer fields must fit int64
    ("1,1,0,9223372036854775808,40.0,-86.0,10.0,90.0", "non_numeric"),
    ("12345678901234567890,1,0,100,40.0,-86.0,10.0,90.0", "non_numeric"),
    ("1,-9223372036854775809,0,100,40.0,-86.0,10.0,90.0", "non_numeric"),
])
def test_parse_trips_rejection_reasons(tmp_path, row, reason):
    path = write(tmp_path / "t.csv", trip_rows(
        row,
        "1,1,1,110,40.0,-86.0,10.0,90.0",
        "1,1,2,111,40.0,-85.999,10.0,90.0",
    ))
    trips, report = parse_trips(path)
    assert report.rejection_reasons == {reason: 1}
    assert report.n_points_rejected == 1
    assert len(trips) == 1 and len(trips[0]) == 2


@pytest.mark.parametrize("point_id", ["abc", "1.5", "", "-9223372036854775809"])
def test_parse_trips_ignores_point_id(tmp_path, point_id):
    # point_id is not read, so no value of it rejects a row
    path = write(tmp_path / "t.csv", trip_rows(
        f"1,1,{point_id},100,40.0,-86.0,10.0,90.0",
        "1,1,1,110,40.0,-85.999,10.0,90.0",
    ))
    trips, report = parse_trips(path)
    assert report.n_points_rejected == 0
    assert trips[0].timestamp.tolist() == [100, 110]


def test_parse_trips_without_point_id_column(tmp_path):
    path = write(tmp_path / "t.csv",
                 "driver_id,trip_id,timestamp,lat,lon,speed_mps,cog_deg\n"
                 "1,1,101,40.0,-85.999,10.0,90.0\n"
                 "1,1,100,40.0,-86.0,10.0,90.0\n")
    trips, report = parse_trips(path)
    assert report.n_points_rejected == 0
    assert trips[0].timestamp.tolist() == [100, 101]
    assert trips[0].lon.tolist() == [-86.0, -85.999]


def test_parse_trips_negative_event_count(tmp_path):
    path = write(tmp_path / "t.csv",
                 TRIP_HEADER.rstrip("\n") + ",hard_accel,hard_brake\n"
                 + "1,1,0,100,40.0,-86.0,10.0,90.0,-1,0\n"
                 + "1,1,1,110,40.0,-86.0,10.0,90.0,0,0\n"
                 + "1,1,2,111,40.0,-85.999,10.0,90.0,0,0\n")
    _, report = parse_trips(path)
    assert report.rejection_reasons == {"negative_event_count": 1}


def test_parse_trips_duplicate_timestamp_keeps_first(tmp_path):
    path = write(tmp_path / "t.csv", trip_rows(
        "1,1,0,100,40.0,-86.0,10.0,90.0",
        "1,1,1,100,41.0,-86.0,10.0,90.0",
        "1,1,2,110,40.0,-85.999,10.0,90.0",
    ))
    trips, report = parse_trips(path)
    assert report.rejection_reasons == {"duplicate_timestamp": 1}
    assert trips[0].lat.tolist() == [40.0, 40.0]


def test_parse_trips_short_trip_dropped(tmp_path):
    path = write(tmp_path / "t.csv", trip_rows(
        "1,1,0,100,40.0,-86.0,10.0,90.0",
        "2,1,0,100,40.0,-86.0,10.0,90.0",
        "2,1,1,110,40.0,-85.999,10.0,90.0",
    ))
    trips, report = parse_trips(path)
    assert [(t.driver_id, t.trip_id) for t in trips] == [(2, 1)]
    assert report.rejection_reasons == {"trip_too_short": 1}
    assert report.n_points_read == report.n_points_accepted + report.n_points_rejected


def test_parse_trips_empty_file(tmp_path):
    path = write(tmp_path / "t.csv", "")
    with pytest.raises(ValueError, match="empty file"):
        parse_trips(path)


def test_write_trips_roundtrip(tmp_path):
    trip = Trip(3, 7, timestamp=np.array([1000, 1001]),
                lat=np.array([40.123456789, 40.123457]),
                lon=np.array([-86.000000123, -86.0000002]),
                speed_mps=np.array([12.5, 12.25]), cog_deg=np.array([359.25, 0.0]),
                hard_accel=np.array([0, 1]), hard_brake=np.array([1, 0]))
    path = tmp_path / "out.csv"
    write_trips([trip], path)
    # each point's index within its trip is written as its point_id
    with read_csv(path, ["point_id"]) as (header, records):
        assert header == ["driver_id", "trip_id", "point_id", *TRIP_COLUMNS]
        assert [row[2] for _, row in records] == ["0", "1"]
    trips, report = parse_trips(path)
    assert report.has_event_columns
    assert (trips[0].driver_id, trips[0].trip_id) == (3, 7)
    for name in TRIP_COLUMNS:
        assert getattr(trips[0], name).tolist() == getattr(trip, name).tolist()


def test_write_network_roundtrip(tmp_path, network_paths):
    net = parse_road_network(*network_paths)
    nodes_out, segments_out = tmp_path / "n2.csv", tmp_path / "s2.csv"
    write_network(net, nodes_out, segments_out)
    again = parse_road_network(nodes_out, segments_out)
    assert again.nodes == net.nodes
    assert again.segments == net.segments


# reason codes documented in parse_trips
REASON_CODES = {
    "bad_field_count", "non_numeric", "lat_out_of_range", "lon_out_of_range",
    "speed_out_of_range", "direction_out_of_range", "negative_event_count",
    "duplicate_timestamp", "trip_too_short",
}

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1

GARBAGE_FIELD = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=8),
    st.sampled_from(["", "nan", "inf", "-inf", "-1", "1e400", "360", "-0.5", "95", "-186", "1.5"]),
    # what int and float accept beyond plain digits, and ids past int64
    st.sampled_from(["1_000", " 12", "12 ", "0012", "+3", " 40.5 ", "1e1", "1_0.5",
                     "12345678901234567890", str(INT64_MAX), str(INT64_MIN),
                     str(INT64_MAX + 1), str(INT64_MIN - 1)]),
    # fields the writer has to quote
    st.sampled_from(['"', '1,2', '"7"', "a\nb", "3\n"]),
)


def valid_rows(with_events):
    stamps = st.integers(0, 20) | st.sampled_from([INT64_MIN, INT64_MAX])
    fields = [st.integers(1, 3), st.integers(1, 2), st.integers(0, 50), stamps,
              st.floats(-90.0, 90.0), st.floats(-180.0, 180.0), st.floats(0.0, 60.0),
              st.floats(0.0, 360.0, exclude_max=True)]
    if with_events:
        fields += [st.integers(0, 3), st.integers(0, 3)]
    return st.tuples(*fields).map(lambda row: [repr(v) for v in row])


def malformed_rows(valid):
    return st.one_of(
        # one field replaced (an index past the end appends an extra field)
        st.tuples(valid, st.integers(0, 10), GARBAGE_FIELD).map(
            lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]),
        # truncated
        valid.flatmap(lambda row: st.integers(1, len(row) - 1).map(lambda n: row[:n])),
        st.lists(GARBAGE_FIELD, min_size=1, max_size=12),
    )


@st.composite
def trip_files(draw):
    with_events = draw(st.booleans())
    valid = valid_rows(with_events)
    rows = draw(st.lists(st.one_of(valid, malformed_rows(valid)), max_size=40))
    return with_events, rows


@settings(max_examples=200, deadline=None)
@given(trip_files())
def test_parse_trips_random_rows_never_raise(case):
    with_events, rows = case
    header = TRIP_HEADER.strip().split(",") + (["hard_accel", "hard_brake"] if with_events else [])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        trips, report = parse_trips(path)
    accepted = sum(len(t) for t in trips)
    assert report.n_points_read == len(rows)
    assert report.n_points_read == accepted + report.n_points_rejected
    assert report.n_points_accepted == accepted
    assert sum(report.rejection_reasons.values()) == report.n_points_rejected
    assert set(report.rejection_reasons) <= REASON_CODES
    assert report.n_trips == len(trips)


def reference_parse_trips(path):
    """The row-at-a-time reader that parse_trips replaced, kept as its
    reference, with two rules changed: integer fields outside int64 are
    non_numeric, and point_id is not read. Returns
    ([(driver_id, trip_id, {column: values})], report)."""
    def int64(text):
        value = int(text)
        if not INT64_MIN <= value <= INT64_MAX:
            raise ValueError(text)
        return value

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        has_events = all(c in header for c in EVENT_COLUMNS)
        col = {name: header.index(name)
               for name in TRAJECTORY_COLUMNS + (EVENT_COLUMNS if has_events else [])}
        report = IngestReport(has_event_columns=has_events)
        groups, seen_ts = {}, {}

        def reject(reason):
            report.n_points_rejected += 1
            report.rejection_reasons[reason] += 1

        for row in reader:
            if not row:
                continue
            report.n_points_read += 1
            if len(row) < len(header):
                reject("bad_field_count")
                continue
            try:
                driver_id = int64(row[col["driver_id"]])
                trip_id = int64(row[col["trip_id"]])
                timestamp = int64(row[col["timestamp"]])
                lat = float(row[col["lat"]])
                lon = float(row[col["lon"]])
                speed = float(row[col["speed_mps"]])
                cog = float(row[col["cog_deg"]])
                hard_accel = int64(row[col["hard_accel"]]) if has_events else 0
                hard_brake = int64(row[col["hard_brake"]]) if has_events else 0
            except ValueError:
                reject("non_numeric")
                continue
            if not (np.isfinite(lat) and -90.0 <= lat <= 90.0):
                reject("lat_out_of_range")
                continue
            if not (np.isfinite(lon) and -180.0 <= lon <= 180.0):
                reject("lon_out_of_range")
                continue
            if not np.isfinite(speed) or speed < 0.0:
                reject("speed_out_of_range")
                continue
            if not np.isfinite(cog) or not 0.0 <= cog < 360.0:
                reject("direction_out_of_range")
                continue
            if hard_accel < 0 or hard_brake < 0:
                reject("negative_event_count")
                continue
            key = (driver_id, trip_id)
            stamps = seen_ts.setdefault(key, set())
            if timestamp in stamps:
                reject("duplicate_timestamp")
                continue
            stamps.add(timestamp)
            groups.setdefault(key, []).append(
                (timestamp, lat, lon, speed, cog, hard_accel, hard_brake))

    trips = []
    for key in sorted(groups):
        points = sorted(groups[key], key=lambda p: p[0])
        if len(points) < 2:
            report.n_points_rejected += len(points)
            report.rejection_reasons["trip_too_short"] += len(points)
            continue
        trips.append((*key, {name: [p[i] for p in points] for i, name in enumerate(TRIP_COLUMNS)}))
    report.n_trips = len(trips)
    return trips, report


@st.composite
def oracle_files(draw):
    """trip_files plus blank lines, rows with extra trailing fields, quoting
    of every field, and a block size small enough that rows span blocks."""
    with_events = draw(st.booleans())
    valid = valid_rows(with_events)
    extended = st.tuples(valid, st.lists(GARBAGE_FIELD, min_size=1, max_size=3)).map(
        lambda t: t[0] + t[1])
    rows = draw(st.lists(st.one_of(valid, malformed_rows(valid), extended, st.just([])),
                         max_size=60))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    return with_events, rows, quoting, draw(st.integers(1, 9))


@settings(max_examples=300, deadline=None)
@given(oracle_files())
def test_parse_trips_equals_row_by_row_reference(case):
    with_events, rows, quoting, block_rows = case
    header = TRIP_HEADER.strip().split(",") + (["hard_accel", "hard_brake"] if with_events else [])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, quoting=quoting)
            writer.writerow(header)
            writer.writerows(rows)
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            trips, report = parse_trips(path)
        want_trips, want_report = reference_parse_trips(path)
    assert report == want_report
    # summary.json lists the reasons in order of first occurrence
    assert list(report.rejection_reasons) == list(want_report.rejection_reasons)
    assert [(t.driver_id, t.trip_id) for t in trips] == [(d, t) for d, t, _ in want_trips]
    for trip, (_, _, columns) in zip(trips, want_trips):
        for name in TRIP_COLUMNS:
            values = getattr(trip, name)
            assert values.dtype == (np.float64 if name in FLOAT_COLUMNS else np.int64)
            assert values.tolist() == columns[name]


class LogLines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def parse_logged(path, workers=1):
    """parse_trips' trips (every column's bytes), report, reason order and
    -v log lines, in one comparable value."""
    logger = logging.getLogger("tripsift.ingest")
    handler, level = LogLines(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        trips, report = parse_trips(path, workers=workers)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    columns = [(t.driver_id, t.trip_id, [(getattr(t, n).dtype, getattr(t, n).tobytes())
                                         for n in TRIP_COLUMNS]) for t in trips]
    return columns, report, list(report.rejection_reasons), handler.lines


def write_oracle_file(path, case, lineterminator):
    with_events, rows, quoting, _ = case
    header = TRIP_HEADER.strip().split(",") + (["hard_accel", "hard_brake"] if with_events else [])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=quoting, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


LINE_ENDINGS = st.sampled_from(["\r\n", "\n", "\r"])


@settings(max_examples=200, deadline=None)
@given(oracle_files(), LINE_ENDINGS)
def test_parse_trips_cut_at_every_line_equals_one_part(case, lineterminator):
    """Asked for as many parts as the file has bytes, parse_trips cuts after
    every b"\\n" that no quote precedes, and joins the parts (read here, one
    after another) into what one part gives."""
    parts_read = []

    def in_order(fn, parts):
        parts_read.append(len(parts))
        return [fn(*args) for args in parts]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        data = write_oracle_file(path, case, lineterminator)
        quote = data.find(b'"')
        unquoted = data if quote < 0 else data[:quote]
        cuts = sum(1 for i, byte in enumerate(unquoted) if byte == ord("\n") and i + 1 < len(data))
        with mock.patch.object(ingest, "BLOCK_ROWS", case[3]):
            one = parse_logged(path)
            with mock.patch.object(ingest, "process_count", lambda workers: len(data)), \
                    mock.patch.object(ingest, "run_parts", in_order):
                many = parse_logged(path, workers=2)
    assert parts_read == [1 + cuts]
    assert many == one


@settings(max_examples=30, deadline=None)
@given(oracle_files(), LINE_ENDINGS, st.integers(2, 4))
def test_parse_trips_in_processes_equals_one_process(case, lineterminator, workers):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_oracle_file(path, case, lineterminator)
        with mock.patch.object(ingest, "BLOCK_ROWS", case[3]):
            one = parse_logged(path)
            with mock.patch.object(ingest, "process_count", lambda w: w):
                many = parse_logged(path, workers=workers)
    assert many == one


def test_parse_trips_failing_part_raises_and_leaves_no_child(tmp_path, monkeypatch):
    path = write(tmp_path / "t.csv",
                 trip_rows(*(f"1,1,{i},{i},40.0,-86.0,10.0,90.0" for i in range(200))))
    read_part = ingest._read_part

    def fail_past_start(path, start, stop):
        if start:
            raise ValueError("unreadable part")
        return read_part(path, start, stop)

    monkeypatch.setattr(ingest, "_read_part", fail_past_start)
    monkeypatch.setattr(ingest, "process_count", lambda workers: workers)
    with pytest.raises(ValueError, match="unreadable part"):
        parse_trips(path, workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parse_trips_verbose_line_numbers_across_parts(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(trip_rows("1,1,1,101,40.0,-86.0,10.0,90.0", "", "1,1",
                               "1,1,2,102,40.0,-86.0,10.0,90.0", "",
                               "1,1,3,103,100.0,-86.0,10.0,90.0").replace("\n", "\r\n").encode())
    monkeypatch.setattr(ingest, "process_count", lambda workers: workers)
    _, report, _, lines = parse_logged(path, workers=4)
    assert report.n_points_read == 4
    assert lines == ["rejected row at line 4: bad_field_count",
                     "rejected row at line 7: lat_out_of_range"]


@pytest.mark.parametrize("bad", [b"1,1,100,100," + b"4" * 200_000 + b",-86.0,10.0,90.0",
                                 b"1,1,100,100,40.\xff,-86.0,10.0,90.0"],
                         ids=["over_long_field", "undecodable_byte"])
def test_parse_trips_unreadable_row_rejected_as_non_numeric(tmp_path, monkeypatch, bad):
    rows = [f"1,1,{i},{i},40.0,-86.0,10.0,90.0".encode() for i in range(100)]
    path = tmp_path / "t.csv"
    path.write_bytes(b"\n".join([TRIP_HEADER.strip().encode(), *rows[:50], bad, *rows[50:], b""]))
    monkeypatch.setattr(ingest, "process_count", lambda workers: workers)
    one = parse_logged(path)
    _, report, _, lines = one
    assert report.rejection_reasons == {"non_numeric": 1}
    assert report.n_points_read == 101
    assert lines == ["rejected row at line 52: non_numeric"]
    assert parse_logged(path, workers=2) == one


CSV_FIELDS = st.text(st.sampled_from(["a", "1", " ", ",", '"', "\r", "\n"]), max_size=6)


@st.composite
def csv_tables(draw):
    width = draw(st.integers(1, 4))
    row = st.lists(CSV_FIELDS, min_size=width, max_size=width)
    return draw(row), draw(st.lists(row, max_size=8))


@settings(max_examples=200, deadline=None)
@given(csv_tables())
@example((["a"], [[""], ["\r\n"], [""]]))
def test_write_csv_read_csv_roundtrip(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, header, rows)
        with read_csv(path, header) as (read_header, records):
            read = list(records)
    assert read_header == header
    assert [fields for _, fields in read] == rows
    assert [lineno for lineno, _ in read] == list(range(2, len(rows) + 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=8))
@example([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.nan, math.inf, -math.inf])
@example([0.1, 1e16, 1e-05, 123456789.123456789, 1.7976931348623157e308])
def test_write_csv_writes_floats_as_repr(values):
    # write_trips and write_feature_table leave float formatting to csv
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, ["x"], ([v] for v in values))
        text = path.read_bytes().decode()
    assert text.split("\r\n") == ["x", *map(repr, values), ""]


def read_nodes(path):
    return parse_road_network(path, write(path.with_name("segments.csv"), SEGMENTS_OK))


def read_segments(path):
    return parse_road_network(write(path.with_name("nodes.csv"), NODES_OK), path)


# each file's third line holds the field under test at {}
READERS = [
    (NODES_OK.replace("2,40.0,-85.99", "2,40.0,{}"), read_nodes),
    (SEGMENTS_OK.replace("11,2,3", "11,2,{}"), read_segments),
    (",".join(FEATURE_TABLE_COLUMNS) + "\n1,1" + ",0.5" * 10 + "\n1,2,{}" + ",0.5" * 9 + "\n",
     read_feature_table),
    ("driver_id,label\n1,normal\n2,{}\n", read_truth),
]


@pytest.mark.parametrize("field,message", [
    (b"9" * 200_000, r"input\.csv: line 3: field larger than field limit"),
    (b"0.\xff", r"input\.csv: 'utf-8' codec can't decode byte 0xff"),
], ids=["over_long_field", "undecodable_byte"])
@pytest.mark.parametrize("template,read", READERS, ids=["nodes", "segments", "features", "labels"])
def test_readers_reject_unreadable_field_naming_file(tmp_path, template, read, field, message):
    path = tmp_path / "input.csv"
    before, after = template.encode().split(b"{}")
    path.write_bytes(before + field + after)
    with pytest.raises(ValueError, match=message):
        read(path)


def test_only_ingest_imports_csv():
    importers = set()
    for path in Path(ingest.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "csv" for name in names):
                importers.add(path.name)
    assert importers == {"ingest.py"}
