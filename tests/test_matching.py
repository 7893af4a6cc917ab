"""Snapping correctness: exact chord distances, grid search equals brute force."""

import numpy as np
import pytest

from tripsift.geo import haversine_m
from tripsift.matching import (
    MatchRejected,
    SegmentGrid,
    build_spatial_index,
    match_trip,
    nearest_segment,
    point_segment_distance,
    travel_direction,
)
from tripsift.model import (
    AnalysisConfig,
    RoadNetwork,
    RoadNode,
    RoadSegment,
    TrajectoryPoint,
    Trip,
)

LAT_SCALE_M = 111.19492664455875  # meters per 0.001 deg of latitude


def make_network(nodes, edges):
    node_map = {nid: RoadNode(nid, lat, lon) for nid, lat, lon in nodes}
    seg_map = {}
    for sid, u, v in edges:
        a, b = node_map[u], node_map[v]
        seg_map[sid] = RoadSegment(sid, u, v, haversine_m(a.lat, a.lon, b.lat, b.lon))
    return RoadNetwork(nodes=node_map, segments=seg_map)


def test_point_segment_distance_perpendicular():
    a = RoadNode(1, 40.0, -86.0)
    b = RoadNode(2, 40.0, -85.99)
    # query 0.001 deg north of the midpoint
    dist, plat, plon = point_segment_distance(40.001, -85.995, a, b)
    assert dist == pytest.approx(LAT_SCALE_M, abs=1e-6)
    assert plat == pytest.approx(40.0, abs=1e-9)
    assert plon == pytest.approx(-85.995, abs=1e-9)


def test_point_segment_distance_clamps_to_endpoint():
    a = RoadNode(1, 40.0, -86.0)
    b = RoadNode(2, 40.0, -85.99)
    # query beyond the west end snaps to node a
    dist, plat, plon = point_segment_distance(40.0, -86.002, a, b)
    assert plat == pytest.approx(a.lat, abs=1e-9)
    assert plon == pytest.approx(a.lon, abs=1e-9)
    assert dist == pytest.approx(haversine_m(40.0, -86.002, a.lat, a.lon), abs=1e-3)


def test_point_segment_distance_degenerate_segment():
    a = RoadNode(1, 40.0, -86.0)
    dist, plat, plon = point_segment_distance(40.001, -86.0, a, a)
    assert dist == pytest.approx(LAT_SCALE_M, abs=1e-6)
    assert (plat, plon) == (pytest.approx(40.0), pytest.approx(-86.0))


def test_grid_registers_segments_in_covered_cells():
    net = make_network(
        [(1, 40.0, -86.0), (2, 40.0, -85.98)],
        [(7, 1, 2)],
    )
    grid = SegmentGrid(net, cell_size_m=200.0)
    # a ~1.7 km horizontal segment must occupy several cells in a row
    cells_with_seg = [c for c, ids in grid.cells.items() if 7 in ids]
    assert len(cells_with_seg) >= 8
    assert len({cj for _, cj in cells_with_seg}) == 1


def test_nearest_segment_basic_and_radius():
    net = make_network(
        [(1, 40.0, -86.0), (2, 40.0, -85.99), (3, 40.01, -86.0)],
        [(10, 1, 2), (11, 1, 3)],
    )
    snap = nearest_segment(40.0002, -85.995, net, max_snap_distance_m=50.0)
    assert snap is not None
    assert snap.segment_id == 10
    assert snap.distance_m == pytest.approx(0.2 * LAT_SCALE_M, abs=0.01)
    # the same point is beyond a 10 m radius
    assert nearest_segment(40.0002, -85.995, net, max_snap_distance_m=10.0) is None


def test_nearest_segment_tie_goes_to_lower_id():
    # two segments leaving one shared node; query sits past the vertex
    # so both snap to the same node at the same distance
    net = make_network(
        [(1, 40.0, -86.0), (2, 40.001, -86.001), (3, 40.001, -85.999)],
        [(5, 1, 2), (3, 1, 3)],
    )
    snap = nearest_segment(39.9998, -86.0, net, max_snap_distance_m=50.0)
    assert snap is not None
    assert snap.segment_id == 3


def random_network(rng, n_nodes, n_edges):
    nodes = {}
    for nid in range(n_nodes):
        nodes[nid] = RoadNode(nid, 40.0 + rng.uniform(0.0, 0.1), -86.0 + rng.uniform(0.0, 0.1))
    segments = {}
    sid = 0
    while len(segments) < n_edges:
        u, v = (int(x) for x in rng.integers(0, n_nodes, size=2))
        if u == v:
            continue
        a, b = nodes[u], nodes[v]
        segments[sid] = RoadSegment(sid, u, v, haversine_m(a.lat, a.lon, b.lat, b.lon))
        sid += 1
    return RoadNetwork(nodes=nodes, segments=segments)


def brute_force_nearest(lat, lon, network, max_snap_distance_m):
    best = None
    for sid in sorted(network.segments):
        a, b = network.segment_endpoints(sid)
        dist, _, _ = point_segment_distance(lat, lon, a, b)
        if best is None or (dist, sid) < best:
            best = (dist, sid)
    if best is None or best[0] > max_snap_distance_m:
        return None
    return best


@pytest.mark.parametrize("cell_size_m", [50.0, 200.0, 1000.0])
def test_nearest_segment_matches_brute_force(cell_size_m):
    rng = np.random.default_rng(42)
    for _ in range(5):
        net = random_network(rng, n_nodes=30, n_edges=60)
        net.index = build_spatial_index(net, cell_size_m=cell_size_m)
        for _ in range(50):
            lat = 40.0 + rng.uniform(-0.01, 0.11)
            lon = -86.0 + rng.uniform(-0.01, 0.11)
            for max_snap in (50.0, 1e9):
                expected = brute_force_nearest(lat, lon, net, max_snap)
                got = nearest_segment(lat, lon, net, max_snap)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got.segment_id == expected[1]
                    assert got.distance_m == pytest.approx(expected[0], abs=1e-6)


def test_travel_direction():
    assert travel_direction(90.0, 90.0) == 1
    assert travel_direction(270.0, 90.0) == -1
    assert travel_direction(85.0, 90.0) == 1
    assert travel_direction(200.0, 90.0) == -1
    # perpendicular course counts as forward
    assert travel_direction(0.0, 90.0) == 1
    assert travel_direction(180.0, 90.0) == 1


def line_trip(latlons, cogs, driver=1, trip=1):
    points = [
        TrajectoryPoint(driver, trip, i, 100 + i, lat, lon, 10.0, cog)
        for i, ((lat, lon), cog) in enumerate(zip(latlons, cogs))
    ]
    return Trip(driver, trip, points)


@pytest.fixture
def line_network():
    return make_network(
        [(1, 40.0, -86.0), (2, 40.0, -85.99)],
        [(10, 1, 2)],
    )


def test_match_trip_directions(line_network):
    config = AnalysisConfig(alpha=0.0)
    trip = line_trip(
        [(40.0, -85.998), (40.0, -85.996), (40.0, -85.994)],
        [90.0, 90.0, 270.0],
    )
    matched = match_trip(trip, line_network, config)
    assert matched.matched_fraction == 1.0
    assert [direction for _, direction in matched.edges] == [1, 1, -1]
    assert all(segment_id == 10 for segment_id, _ in matched.edges)
    snaps = [nearest_segment(p.lat, p.lon, line_network, config.max_snap_distance_m)
             for p in matched.points]
    assert all(s is not None and s.distance_m <= config.max_snap_distance_m for s in snaps)


def test_match_trip_drops_far_points(line_network):
    config = AnalysisConfig(alpha=0.0, min_matched_fraction=0.5)
    trip = line_trip(
        [(40.0, -85.998), (41.0, -85.996), (40.0, -85.994)],
        [90.0, 90.0, 90.0],
    )
    matched = match_trip(trip, line_network, config)
    assert len(matched.points) == 2
    assert matched.matched_fraction == pytest.approx(2 / 3)


def test_match_trip_poor_match_rejected(line_network):
    config = AnalysisConfig(alpha=0.0)  # default min fraction 0.8
    trip = line_trip(
        [(40.0, -85.998), (41.0, -85.996), (41.0, -85.994)],
        [90.0, 90.0, 90.0],
    )
    with pytest.raises(MatchRejected) as info:
        match_trip(trip, line_network, config)
    assert info.value.reason == "poor_match"
    assert info.value.n_matched == 1
    assert info.value.matched_fraction == pytest.approx(1 / 3)


def test_match_trip_empty_match_rejected(line_network):
    config = AnalysisConfig(alpha=0.0)
    trip = line_trip([(41.0, -85.998), (41.0, -85.996)], [90.0, 90.0])
    with pytest.raises(MatchRejected) as info:
        match_trip(trip, line_network, config)
    assert info.value.reason == "empty_match"
