"""Edge matrix construction: runs, revisits, lengths, derived events."""

import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsift.features import extract_features
from tripsift.geo import haversine_m
from tripsift.matching import MatchedTrip, SnapResult
from tripsift.model import RoadNetwork, RoadNode, RoadSegment, TrajectoryPoint
from tripsift.tripgraph import (
    MATRIX_CSV_COLUMNS,
    build_trip_graph,
    detect_events,
    filter_by_min_length,
    write_matrix_csv,
)


def make_network(nodes, edges):
    node_map = {nid: RoadNode(nid, lat, lon) for nid, lat, lon in nodes}
    seg_map = {}
    for sid, u, v in edges:
        a, b = node_map[u], node_map[v]
        seg_map[sid] = RoadSegment(sid, u, v, haversine_m(a.lat, a.lon, b.lat, b.lon))
    return RoadNetwork(nodes=node_map, segments=seg_map)


@pytest.fixture
def two_segment_network():
    return make_network(
        [(1, 40.0, -86.0), (2, 40.0, -85.99), (3, 40.0, -85.98)],
        [(10, 1, 2), (11, 2, 3)],
    )


def mp(seg, direction, ts, speed=10.0, cog=90.0, brake=0, accel=0, lat=40.0, lon=-86.0):
    """One matched point: the fix and the directed edge key it snapped to."""
    p = TrajectoryPoint(1, 1, ts, 100 + ts, lat, lon, speed, cog, accel, brake)
    return p, (seg, direction)


def matched_trip(mps, trip_id=1):
    """A fully matched trip whose first and last points snapped where they lie."""
    (first, first_key), (last, last_key) = mps[0], mps[-1]
    return MatchedTrip(1, trip_id, [p for p, _ in mps], [key for _, key in mps],
                       SnapResult(first_key[0], 1.0, first.lat, first.lon),
                       SnapResult(last_key[0], 1.0, last.lat, last.lon), 1.0)


def test_point_sequence_events():
    pts = [
        TrajectoryPoint(1, 1, 0, 0, 40.0, -86.0, 10.0, 90.0),
        TrajectoryPoint(1, 1, 1, 1, 40.0, -86.0, 14.0, 90.0),   # +4 m/s2
        TrajectoryPoint(1, 1, 2, 2, 40.0, -86.0, 10.0, 90.0),   # -4 m/s2
        TrajectoryPoint(1, 1, 3, 4, 40.0, -86.0, 16.0, 90.0),   # +3 over 2 s
        TrajectoryPoint(1, 1, 4, 5, 40.0, -86.0, 13.5, 90.0),   # -2.5
    ]
    out = detect_events(pts, accel_threshold=3.0)
    assert [(p.hard_accel, p.hard_brake) for p in out] == [
        (0, 0), (1, 0), (0, 1), (1, 0), (0, 0)]


def test_detect_events_zero_dt_skipped():
    pts = [
        TrajectoryPoint(1, 1, 0, 0, 40.0, -86.0, 10.0, 90.0),
        TrajectoryPoint(1, 1, 1, 0, 40.0, -86.0, 50.0, 90.0),
    ]
    out = detect_events(pts, accel_threshold=3.0)
    assert (out[1].hard_accel, out[1].hard_brake) == (0, 0)


def test_detect_events_requires_two_points():
    with pytest.raises(ValueError):
        detect_events([TrajectoryPoint(1, 1, 0, 0, 40.0, -86.0, 10.0, 90.0)], 3.0)


def test_build_graph_rows_in_first_traversal_order(two_segment_network):
    matched = matched_trip([
        mp(11, 1, 0), mp(11, 1, 1), mp(10, -1, 2), mp(10, -1, 3),
    ])
    graph = build_trip_graph(matched, two_segment_network)
    keys = [(r.segment_id, r.direction) for r in graph.rows]
    assert keys == [(11, 1), (10, -1)]
    assert graph.traversal_sequence == [0, 1]


def test_build_graph_aggregates(two_segment_network):
    matched = matched_trip([
        mp(10, 1, 0, speed=8.0, cog=350.0, brake=1),
        mp(10, 1, 1, speed=12.0, cog=10.0, accel=1),
        mp(11, 1, 2, speed=20.0, cog=90.0),
    ])
    graph = build_trip_graph(matched, two_segment_network)
    row = graph.rows[0]
    assert row.avg_speed_mps == pytest.approx(10.0)
    assert row.avg_direction_deg == pytest.approx(0.0, abs=1e-9)
    assert row.n_hard_brakes == 1 and row.n_hard_accels == 1
    assert row.n_points == 2 and row.n_traversals == 1
    assert graph.rows[1].n_points == 1


def test_build_graph_same_segment_opposite_directions_are_two_rows(two_segment_network):
    matched = matched_trip([
        mp(10, 1, 0), mp(10, 1, 1), mp(10, -1, 2),
    ])
    graph = build_trip_graph(matched, two_segment_network)
    keys = [(r.segment_id, r.direction) for r in graph.rows]
    assert keys == [(10, 1), (10, -1)]


def test_build_graph_revisit_counts_two_traversals(two_segment_network):
    matched = matched_trip([
        mp(10, 1, 0), mp(11, 1, 1), mp(10, 1, 2), mp(10, 1, 3),
    ])
    graph = build_trip_graph(matched, two_segment_network)
    keys = [(r.segment_id, r.direction) for r in graph.rows]
    assert [keys[i] for i in graph.traversal_sequence] == [(10, 1), (11, 1), (10, 1)]
    row10 = graph.rows[keys.index((10, 1))]
    assert row10.n_traversals == 2
    assert row10.n_points == 3
    # revisit adds the segment length a second time
    seg10 = two_segment_network.segments[10].length_m
    seg11 = two_segment_network.segments[11].length_m
    assert graph.trip_length_m == pytest.approx(2 * seg10 + seg11)


def test_net_displacement_uses_snapped_positions(two_segment_network):
    # the fixes lie off the road; only the snapped ends count
    points = [mp(10, 1, 0, lat=40.0001, lon=-86.0), mp(10, 1, 1, lat=40.0001, lon=-85.995),
              mp(11, 1, 2, lat=40.0002, lon=-85.985)]
    matched = MatchedTrip(1, 1, [p for p, _ in points], [key for _, key in points],
                          SnapResult(10, 11.1, 40.0, -86.0), SnapResult(11, 22.2, 40.0, -85.985),
                          1.0)
    graph = build_trip_graph(matched, two_segment_network)
    assert graph.net_displacement_m == pytest.approx(
        haversine_m(40.0, -86.0, 40.0, -85.985), abs=1e-9)


def test_cog_resultant_range(two_segment_network):
    aligned = matched_trip([mp(10, 1, 0, cog=90.0), mp(10, 1, 1, cog=90.0)])
    scattered = matched_trip([mp(10, 1, 0, cog=0.0), mp(10, 1, 1, cog=180.0)], trip_id=2)
    assert build_trip_graph(aligned, two_segment_network).cog_resultant == 1.0
    # opposed courses cancel: the row mean degenerates (warned) but the
    # resultant length is still exactly what the feature needs
    with pytest.warns(RuntimeWarning, match="degenerate"):
        graph = build_trip_graph(scattered, two_segment_network)
    assert graph.cog_resultant == pytest.approx(0.0, abs=1e-12)


def test_build_graph_empty_raises(two_segment_network):
    with pytest.raises(ValueError, match="no matched points"):
        build_trip_graph(MatchedTrip(1, 1, [], [], None, None, 0.0), two_segment_network)


def test_filter_by_min_length_strict(two_segment_network):
    short = build_trip_graph(matched_trip([mp(10, 1, 0), mp(10, 1, 1)]),
                             two_segment_network)
    long = build_trip_graph(matched_trip([mp(10, 1, 0), mp(11, 1, 1)], trip_id=2),
                            two_segment_network)
    alpha = short.trip_length_m
    kept, dropped = filter_by_min_length([short, long], alpha)
    # equality at the boundary excludes the trip
    assert kept == [long]
    assert dropped == [short]
    kept, dropped = filter_by_min_length([short, long], 0.0)
    assert kept == [short, long] and dropped == []


def test_write_matrix_csv(tmp_path, two_segment_network):
    matched = matched_trip([mp(10, 1, 0), mp(11, 1, 1)])
    graph = build_trip_graph(matched, two_segment_network)
    path = tmp_path / "m.csv"
    write_matrix_csv(graph, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == MATRIX_CSV_COLUMNS
    assert len(rows) == 3
    assert rows[1][0] == "10" and rows[2][0] == "11"
    assert float(rows[1][4]) == pytest.approx(two_segment_network.segments[10].length_m)


SQUARE = make_network(
    [(1, 40.0, -86.0), (2, 40.0, -85.99), (3, 40.01, -85.99), (4, 40.01, -86.0)],
    [(10, 1, 2), (11, 2, 3), (12, 3, 4), (13, 4, 1)],
)


def snap_on(seg, frac):
    a, b = SQUARE.segment_endpoints(seg)
    return SnapResult(seg, 0.0, a.lat + frac * (b.lat - a.lat), a.lon + frac * (b.lon - a.lon))


@st.composite
def square_trips(draw):
    """Matched trips over SQUARE: runs of random edge keys, with random
    speeds, courses and event flags at every point."""
    runs = draw(st.lists(st.tuples(st.sampled_from(sorted(SQUARE.segments)),
                                   st.sampled_from([1, -1]), st.integers(1, 4)),
                         min_size=1, max_size=12))
    points, edges = [], []
    for seg, direction, n in runs:
        for _ in range(n):
            ts = len(points)
            points.append(TrajectoryPoint(
                1, 1, ts, 100 + ts, 40.0, -86.0,
                draw(st.floats(0.0, 40.0)),
                draw(st.floats(0.0, 360.0, exclude_max=True)),
                draw(st.integers(0, 1)),
                draw(st.integers(0, 1)),
            ))
            edges.append((seg, direction))
    first = snap_on(edges[0][0], draw(st.floats(0.0, 1.0)))
    last = snap_on(edges[-1][0], draw(st.floats(0.0, 1.0)))
    return MatchedTrip(1, 1, points, edges, first, last, 1.0)


@pytest.mark.filterwarnings("ignore:degenerate mean")
@settings(max_examples=200, deadline=None)
@given(square_trips())
def test_random_trip_graph_invariants(matched):
    graph = build_trip_graph(matched, SQUARE)
    rows, seq = graph.rows, graph.traversal_sequence
    keys = [(r.segment_id, r.direction) for r in rows]
    assert keys == list(dict.fromkeys(matched.edges))
    assert sum(r.n_points for r in rows) == len(matched.points)
    assert sum(r.n_traversals for r in rows) == len(seq)
    assert all(a != b for a, b in zip(seq, seq[1:]))
    runs = [key for i, key in enumerate(matched.edges) if i == 0 or key != matched.edges[i - 1]]
    assert [keys[i] for i in seq] == runs
    assert graph.trip_length_m == pytest.approx(
        sum(SQUARE.segments[rows[i].segment_id].length_m for i in seq), rel=1e-12)

    f = extract_features(graph)
    assert all(math.isfinite(v) for v in f.to_array())
    assert 0.0 <= f.displacement_ratio <= 1.0
    assert f.repetition_ratio >= 1.0
    assert 0.0 <= f.revisited_edge_fraction <= 1.0
    assert 0.0 <= f.direction_circular_variance <= 1.0
    assert f.turn_density >= 0.0 and f.mean_speed >= 0.0
    for count in (f.brakes_per_km, f.max_edge_brakes, f.accels_per_km, f.max_edge_accels):
        assert count >= 0.0
