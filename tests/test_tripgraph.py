"""Edge matrix construction: runs, revisits, lengths, derived events."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsift.features import FeatureVector, extract_features
from tripsift.geo import haversine_m
from tripsift.matching import MatchedTrip, SnapResult
from tripsift.model import FLOAT_COLUMNS, TRIP_COLUMNS, RoadNetwork, RoadNode, RoadSegment, Trip
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


def trip_of_rows(rows, trip_id=1):
    """Driver 1's trip of these rows, each a tuple in TRIP_COLUMNS order."""
    return Trip(1, trip_id, **{
        name: np.array(column, dtype=np.float64 if name in FLOAT_COLUMNS else np.int64)
        for name, column in zip(TRIP_COLUMNS, zip(*rows))})


def mp(seg, direction, ts, speed=10.0, cog=90.0, brake=0, accel=0, lat=40.0, lon=-86.0):
    """One matched point: the fix as a trip row, and the directed edge key it snapped to."""
    return (ts, 100 + ts, lat, lon, speed, cog, accel, brake), (seg, direction)


def snap(segment_id, distance_m, lat, lon):
    """One trip's snap result, in the array form a MatchedTrip holds."""
    return SnapResult(np.array([segment_id]), np.array([distance_m]), np.array([lat]),
                      np.array([lon]))


def matched_points(rows, edges, first, last, trip_id=1):
    """A fully matched trip of these rows, each on its (segment, direction)
    edge, as a run of one."""
    return MatchedTrip([trip_of_rows(rows, trip_id)], np.arange(len(rows)),
                       np.array([seg for seg, _ in edges]),
                       np.array([direction for _, direction in edges]), first, last,
                       np.array([1.0]), [])


def matched_trip(mps, trip_id=1):
    """A fully matched trip whose first and last points snapped where they lie."""
    (first, first_key), (last, last_key) = mps[0], mps[-1]
    # a row's lat and lon are its third and fourth fields
    return matched_points([row for row, _ in mps], [key for _, key in mps],
                          snap(first_key[0], 1.0, *first[2:4]),
                          snap(last_key[0], 1.0, *last[2:4]), trip_id)


def keys_of(graph):
    return list(zip(graph.segment_id.tolist(), graph.direction.tolist()))


def derive(fixes, accel_threshold):
    """detect_events on these (timestamp, speed) fixes, as (hard_accel, hard_brake) pairs."""
    timestamps, speeds = zip(*fixes)
    accel, brake = detect_events(timestamps, speeds, accel_threshold)
    return list(zip(accel.tolist(), brake.tolist()))


def test_point_sequence_events():
    fixes = [
        (0, 10.0),
        (1, 14.0),   # +4 m/s2
        (2, 10.0),   # -4 m/s2
        (4, 16.0),   # +3 over 2 s
        (5, 13.5),   # -2.5
    ]
    assert derive(fixes, accel_threshold=3.0) == [
        (0, 0), (1, 0), (0, 1), (1, 0), (0, 0)]


def test_detect_events_zero_dt_skipped():
    fixes = [(0, 10.0), (0, 50.0)]
    assert derive(fixes, accel_threshold=3.0)[1] == (0, 0)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from([0, 1, 2, 4]), st.integers(0, 160)),
                      min_size=1, max_size=30),
       threshold_quarters=st.integers(1, 16))
def test_detect_events_follow_threshold_rule(steps, threshold_quarters):
    """Speeds are multiples of 0.25 m/s and time steps powers of two, so every
    acceleration is exact and some land exactly on the threshold."""
    threshold = threshold_quarters / 4
    fixes = [(0, 10.0)]
    for dt, speed_quarters in steps:
        fixes.append((fixes[-1][0] + dt, speed_quarters / 4))
    out = derive(fixes, accel_threshold=threshold)
    assert len(out) == len(fixes)
    assert out[0] == (0, 0)
    for (t0, v0), (t1, v1), (hard_accel, hard_brake) in zip(fixes, fixes[1:], out[1:]):
        dv = v1 - v0
        dt = t1 - t0
        assert hard_accel == int(dt > 0 and dv >= threshold * dt)
        assert hard_brake == int(dt > 0 and dv <= -threshold * dt)


def test_detect_events_exact_past_int64_range():
    # the stamps differ by 2**64 - 1, which wraps to -1 in int64 arithmetic
    hard_accel, hard_brake = detect_events([-2 ** 63, 2 ** 63 - 1], [0.0, 1e300], 3.0)
    assert (hard_accel.tolist(), hard_brake.tolist()) == ([0, 1], [0, 0])


def test_detect_events_requires_two_points():
    with pytest.raises(ValueError):
        detect_events([0], [10.0], 3.0)


def test_build_graph_rows_in_first_traversal_order(two_segment_network):
    matched = matched_trip([
        mp(11, 1, 0), mp(11, 1, 1), mp(10, -1, 2), mp(10, -1, 3),
    ])
    graph = build_trip_graph(matched, two_segment_network)
    assert keys_of(graph) == [(11, 1), (10, -1)]
    assert graph.traversal_sequence.tolist() == [0, 1]


def test_build_graph_aggregates(two_segment_network):
    matched = matched_trip([
        mp(10, 1, 0, speed=8.0, cog=350.0, brake=1),
        mp(10, 1, 1, speed=12.0, cog=10.0, accel=1),
        mp(11, 1, 2, speed=20.0, cog=90.0),
    ])
    graph = build_trip_graph(matched, two_segment_network)
    assert graph.avg_speed_mps[0] == pytest.approx(10.0)
    assert graph.avg_direction_deg[0] == pytest.approx(0.0, abs=1e-9)
    assert graph.n_hard_brakes[0] == 1 and graph.n_hard_accels[0] == 1
    assert graph.n_points[0] == 2 and graph.n_traversals[0] == 1
    assert graph.n_points[1] == 1


def test_build_graph_same_segment_opposite_directions_are_two_rows(two_segment_network):
    matched = matched_trip([
        mp(10, 1, 0), mp(10, 1, 1), mp(10, -1, 2),
    ])
    graph = build_trip_graph(matched, two_segment_network)
    assert keys_of(graph) == [(10, 1), (10, -1)]


def test_build_graph_revisit_counts_two_traversals(two_segment_network):
    matched = matched_trip([
        mp(10, 1, 0), mp(11, 1, 1), mp(10, 1, 2), mp(10, 1, 3),
    ])
    graph = build_trip_graph(matched, two_segment_network)
    keys = keys_of(graph)
    assert [keys[i] for i in graph.traversal_sequence.tolist()] == [(10, 1), (11, 1), (10, 1)]
    row10 = keys.index((10, 1))
    assert graph.n_traversals[row10] == 2
    assert graph.n_points[row10] == 3
    # revisit adds the segment length a second time
    seg10 = two_segment_network.segments[10].length_m
    seg11 = two_segment_network.segments[11].length_m
    assert graph.trip_length_m.tolist() == [pytest.approx(2 * seg10 + seg11)]


def test_net_displacement_uses_snapped_positions(two_segment_network):
    # the fixes lie off the road; only the snapped ends count
    points = [mp(10, 1, 0, lat=40.0001, lon=-86.0), mp(10, 1, 1, lat=40.0001, lon=-85.995),
              mp(11, 1, 2, lat=40.0002, lon=-85.985)]
    matched = matched_points([row for row, _ in points], [key for _, key in points],
                             snap(10, 11.1, 40.0, -86.0),
                             snap(11, 22.2, 40.0, -85.985))
    graph = build_trip_graph(matched, two_segment_network)
    assert graph.net_displacement_m.tolist() == [pytest.approx(
        haversine_m(40.0, -86.0, 40.0, -85.985), abs=1e-9)]


def test_cog_resultant_range(two_segment_network):
    aligned = matched_trip([mp(10, 1, 0, cog=90.0), mp(10, 1, 1, cog=90.0)])
    scattered = matched_trip([mp(10, 1, 0, cog=0.0), mp(10, 1, 1, cog=180.0)], trip_id=2)
    assert build_trip_graph(aligned, two_segment_network).cog_resultant.tolist() == [1.0]
    # opposed courses cancel: the row mean degenerates (warned) but the
    # resultant length is still exactly what the feature needs
    with pytest.warns(RuntimeWarning, match="degenerate"):
        graph = build_trip_graph(scattered, two_segment_network)
    assert graph.cog_resultant.tolist() == [pytest.approx(0.0, abs=1e-12)]


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
    return snap(seg, 0.0, a.lat + frac * (b.lat - a.lat), a.lon + frac * (b.lon - a.lon))


@st.composite
def square_trips(draw):
    """Matched trips over SQUARE: runs of random edge keys, with random
    speeds, courses and event flags at every point."""
    runs = draw(st.lists(st.tuples(st.sampled_from(sorted(SQUARE.segments)),
                                   st.sampled_from([1, -1]), st.integers(1, 4)),
                         min_size=1, max_size=12))
    rows, edges = [], []
    for seg, direction, n in runs:
        for _ in range(n):
            ts = len(rows)
            rows.append((
                ts, 100 + ts, 40.0, -86.0,
                draw(st.floats(0.0, 40.0)),
                draw(st.floats(0.0, 360.0, exclude_max=True)),
                draw(st.integers(0, 1)),
                draw(st.integers(0, 1)),
            ))
            edges.append((seg, direction))
    first = snap_on(edges[0][0], draw(st.floats(0.0, 1.0)))
    last = snap_on(edges[-1][0], draw(st.floats(0.0, 1.0)))
    # one more fix that did not snap, so that a trip can have a single matched point
    unmatched = (len(rows), 100 + len(rows), 41.0, -86.0, 10.0, 0.0, 0, 0)
    return MatchedTrip([trip_of_rows(rows + [unmatched])], np.arange(len(rows)),
                       np.array([seg for seg, _ in edges]),
                       np.array([direction for _, direction in edges]), first, last,
                       np.array([1.0]), [])


@pytest.mark.filterwarnings("ignore:degenerate mean")
@settings(max_examples=200, deadline=None)
@given(square_trips())
def test_random_trip_graph_invariants(matched):
    graph = build_trip_graph(matched, SQUARE)
    seq = graph.traversal_sequence.tolist()
    keys = keys_of(graph)
    edges = list(zip(matched.segment_id.tolist(), matched.direction.tolist()))
    assert keys == list(dict.fromkeys(edges))
    columns = (graph.avg_speed_mps, graph.avg_direction_deg, graph.length_m, graph.n_hard_brakes,
               graph.n_hard_accels, graph.n_traversals, graph.n_points)
    assert all(len(column) == len(keys) for column in columns)
    assert sum(graph.n_points) == len(matched.kept)
    assert sum(graph.n_traversals) == len(seq)
    assert all(a != b for a, b in zip(seq, seq[1:]))
    runs = [key for i, key in enumerate(edges) if i == 0 or key != edges[i - 1]]
    assert [keys[i] for i in seq] == runs
    assert graph.trip_length_m.tolist() == [pytest.approx(
        sum(SQUARE.segments[keys[i][0]].length_m for i in seq), rel=1e-12)]

    # the graph's one trip's features, one entry each
    f = FeatureVector(*np.concatenate(extract_features(graph)).tolist())
    assert all(math.isfinite(v) for v in f)
    assert 0.0 <= f.displacement_ratio <= 1.0
    assert f.repetition_ratio >= 1.0
    assert 0.0 <= f.revisited_edge_fraction <= 1.0
    assert 0.0 <= f.direction_circular_variance <= 1.0
    assert f.turn_density >= 0.0 and f.mean_speed >= 0.0
    for count in (f.brakes_per_km, f.max_edge_brakes, f.accels_per_km, f.max_edge_accels):
        assert count >= 0.0
