"""Snapping correctness: exact chord distances, grid search equals brute force."""

import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsift import matching, pipeline
from tripsift.features import FeatureVector, extract_feature_table, extract_features
from tripsift.geo import (EARTH_RADIUS_M, circular_diff_deg, circular_mean_deg, haversine_m,
                          initial_bearing_deg, mean_resultant_length, normalize_bearing_deg)
from tripsift.matching import (
    MatchedTrip,
    MatchRejected,
    SegmentGrid,
    SnapResult,
    build_spatial_index,
    match_trip,
    nearest_segment,
    point_segment_distance,
    snap_trips,
    travel_direction,
)
from tripsift.model import (
    AnalysisConfig,
    RoadNetwork,
    RoadNode,
    RoadSegment,
    Trip,
)
from tripsift.pipeline import StageLog, match_and_build
from tripsift.tripgraph import TripGraph, build_trip_graph, filter_by_min_length

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


def test_grid_registers_diagonal_segment_along_its_chord():
    # ~1,000 km on a 45 deg diagonal: its bounding box holds about 12.5M cells of 200 m
    half = 1_000_000.0 / math.sqrt(2) / EARTH_RADIUS_M * 180.0 / math.pi
    net = make_network([(1, 0.0, 0.0), (2, half, half)], [(7, 1, 2)])
    grid = SegmentGrid(net, cell_size_m=200.0)
    chord_cells = 1_000_000.0 / 200.0
    assert chord_cells <= len(grid.cells) <= 3 * chord_cells
    # the cells form one 8-connected path from corner to corner of the box
    xs = sorted(grid.cells)
    assert xs[0] == (0, 0)
    assert all(abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1 for a, b in zip(xs, xs[1:]))
    # points along the chord still snap to it
    for f in (0.0, 0.25, 0.5, 0.999):
        snap = nearest_segment(f * half + 1e-5, f * half, net, max_snap_distance_m=50.0)
        assert snap is not None and snap.segment_id == 7


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


@st.composite
def snap_cases(draw):
    """A small network, a grid cell size and query points.

    Nodes sit on a 0.001 deg lattice, so segments share ends, overlap and
    run parallel. Some segments are copies of others under another id, and
    ids are shuffled, so a copy can hold the lower id. Queries at nodes are
    exactly 0 m from every segment that ends there; queries at chord
    midpoints are 0 m from a segment and its copies; the rest fall anywhere
    in and around the network.
    """
    lattice = st.integers(0, 20)
    n_nodes = draw(st.integers(2, 10))
    coords = draw(st.lists(st.tuples(lattice, lattice), min_size=n_nodes, max_size=n_nodes))
    nodes = {i: RoadNode(i, 40.0 + 0.001 * y, -86.0 + 0.001 * x) for i, (y, x) in enumerate(coords)}
    ends = st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1))
    pairs = draw(st.lists(ends.filter(lambda e: e[0] != e[1]), min_size=1, max_size=15))
    pairs += [pairs[i] for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=4))]
    ids = draw(st.permutations(range(len(pairs))))
    segments = {}
    for sid, (u, v) in zip(ids, pairs):
        a, b = nodes[u], nodes[v]
        segments[sid] = RoadSegment(sid, u, v, haversine_m(a.lat, a.lon, b.lat, b.lon))
    network = RoadNetwork(nodes=nodes, segments=segments)
    network.index = build_spatial_index(network, draw(st.sampled_from([50.0, 200.0, 1000.0])))

    queries = [(n.lat, n.lon) for n in nodes.values()]
    for u, v in pairs:
        queries.append(((nodes[u].lat + nodes[v].lat) / 2, (nodes[u].lon + nodes[v].lon) / 2))
    queries += draw(st.lists(st.tuples(st.floats(39.997, 40.023), st.floats(-86.003, -85.977)),
                             max_size=8))
    return network, queries


@settings(max_examples=200, deadline=None)
@given(snap_cases())
def test_random_nearest_segment_equals_brute_force(case):
    network, queries = case
    for lat, lon in queries:
        best = brute_force_nearest(lat, lon, network, math.inf)[0]
        radii = [best, 2.0 * best + 10.0, 50.0, 1e9]
        if best > 0.0:
            radii += [math.nextafter(best, 0.0), best / 2.0]
        for radius in radii:
            want = brute_force_nearest(lat, lon, network, radius)
            got = nearest_segment(lat, lon, network, radius)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.distance_m, got.segment_id) == want


def row_of(snaps, i):
    """Row i of an array-form result, in the scalar form: a SnapResult or None."""
    if snaps.segment_id[i] == -1:
        assert all(math.isnan(f[i]) for f in (snaps.distance_m, snaps.lat, snaps.lon))
        return None
    return snaps.at(i)


@settings(max_examples=100, deadline=None)
@given(snap_cases())
def test_random_array_nearest_segment_equals_scalar_calls(case):
    network, queries = case
    lats = np.array([lat for lat, _ in queries])
    lons = np.array([lon for _, lon in queries])
    for radius in (50.0, 1e9):
        snaps = nearest_segment(lats, lons, network, radius)
        for i, (lat, lon) in enumerate(queries):
            assert row_of(snaps, i) == nearest_segment(lat, lon, network, radius)
    # each row also at its own best distance, and one ulp below it
    for i, (lat, lon) in enumerate(queries):
        best = brute_force_nearest(lat, lon, network, math.inf)[0]
        for radius in [best, math.nextafter(best, 0.0)] if best > 0.0 else [best]:
            snaps = nearest_segment(lats, lons, network, radius)
            assert row_of(snaps, i) == nearest_segment(lat, lon, network, radius)


def test_travel_direction():
    assert travel_direction(90.0, 90.0) == 1
    assert travel_direction(270.0, 90.0) == -1
    assert travel_direction(85.0, 90.0) == 1
    assert travel_direction(200.0, 90.0) == -1
    # perpendicular course counts as forward, on either side and across north
    assert travel_direction(0.0, 90.0) == 1
    assert travel_direction(180.0, 90.0) == 1
    assert travel_direction(0.0, 270.0) == 1
    assert travel_direction(270.0, 0.0) == 1
    assert travel_direction(90.0, 0.0) == 1
    assert travel_direction(-90.0, 0.0) == 1
    assert travel_direction(90.0, 180.0) == 1
    assert travel_direction(270.0, 180.0) == 1
    assert travel_direction(math.nextafter(270.0, 0.0), 0.0) == -1
    assert travel_direction(math.nextafter(90.0, 180.0), 0.0) == -1
    # the array form decides element by element as the scalar form does
    cogs = np.array([0.0, 270.0, 90.0, 200.0, 85.0, 359.5])
    bearings = np.array([270.0, 0.0, 0.0, 90.0, 90.0, 0.5])
    assert travel_direction(cogs, bearings).tolist() == [
        travel_direction(c, b) for c, b in zip(cogs.tolist(), bearings.tolist())]


def line_trip(latlons, cogs, driver=1, trip=1):
    """A trip through these fixes at 10 m/s, one a second from t = 100, with no events."""
    n = len(latlons)
    lat, lon = np.array(latlons, dtype=np.float64).reshape(n, 2).T
    return Trip(driver, trip, point_id=np.arange(n), timestamp=100 + np.arange(n),
                lat=lat, lon=lon, speed_mps=np.full(n, 10.0),
                cog_deg=np.array(cogs, dtype=np.float64),
                hard_accel=np.zeros(n, np.int64), hard_brake=np.zeros(n, np.int64))


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
    assert matched.direction.tolist() == [1, 1, -1]
    assert all(segment_id == 10 for segment_id in matched.segment_id.tolist())
    snaps = [nearest_segment(trip.lat[i], trip.lon[i], line_network, config.max_snap_distance_m)
             for i in matched.kept.tolist()]
    assert all(s is not None and s.distance_m <= config.max_snap_distance_m for s in snaps)


def test_match_trip_drops_far_points(line_network):
    config = AnalysisConfig(alpha=0.0, min_matched_fraction=0.5)
    trip = line_trip(
        [(40.0, -85.998), (41.0, -85.996), (40.0, -85.994)],
        [90.0, 90.0, 90.0],
    )
    matched = match_trip(trip, line_network, config)
    assert matched.kept.tolist() == [0, 2]
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


def reference_match(trip, network, config):
    """Per-point reference: brute-force nearest segment, then the direction
    rule on circular_diff_deg; returns (kept point indices, edges, snaps)."""
    kept, edges, snaps = [], [], []
    columns = zip(trip.lat.tolist(), trip.lon.tolist(), trip.cog_deg.tolist())
    for i, (lat, lon, cog) in enumerate(columns):
        best = brute_force_nearest(lat, lon, network, config.max_snap_distance_m)
        if best is None:
            continue
        a, b = network.segment_endpoints(best[1])
        _, plat, plon = point_segment_distance(lat, lon, a, b)
        bearing = initial_bearing_deg(a.lat, a.lon, b.lat, b.lon)  # ValueError if a == b
        kept.append(i)
        edges.append((best[1], 1 if circular_diff_deg(cog, bearing) <= 90.0 else -1))
        snaps.append(SnapResult(best[1], best[0], plat, plon))
    return kept, edges, snaps


def courses_on(network):
    """Courses: arbitrary, compass points, or a segment's own bearing turned
    by +-90 or 180 degrees, so exactly perpendicular courses occur."""
    bearings = [initial_bearing_deg(a.lat, a.lon, b.lat, b.lon)
                for a, b in map(network.segment_endpoints, network.segments)
                if (a.lat, a.lon) != (b.lat, b.lon)]
    courses = st.floats(0.0, 360.0, exclude_max=True) | st.sampled_from([0.0, 90.0, 180.0, 270.0])
    if bearings:
        courses |= st.builds(lambda b, turn: normalize_bearing_deg(b + turn),
                             st.sampled_from(bearings), st.sampled_from([90.0, -90.0, 180.0]))
    return courses


# fractions of 1/2 and 1 are met exactly by some trips, so both sides of the rule occur
configs = st.builds(AnalysisConfig, max_snap_distance_m=st.sampled_from([5.0, 50.0, 500.0]),
                    min_matched_fraction=st.floats(0.01, 1.0) | st.sampled_from([0.5, 1.0]))


@st.composite
def trip_cases(draw):
    """A snap_cases network, a trip through its query points, and a config."""
    network, queries = draw(snap_cases())
    spots = draw(st.lists(st.sampled_from(queries), min_size=2, max_size=40))
    courses = courses_on(network)
    cogs = [draw(courses) for _ in spots]
    return network, line_trip(spots, cogs), draw(configs)


@settings(max_examples=200, deadline=None)
@given(trip_cases())
def test_random_match_trip_equals_per_point_reference(case):
    network, trip, config = case
    try:
        kept, edges, snaps = reference_match(trip, network, config)
    except ValueError:
        with pytest.raises(ValueError):
            match_trip(trip, network, config)
        return
    fraction = len(kept) / len(trip)
    if not kept or fraction < config.min_matched_fraction:
        with pytest.raises(MatchRejected) as info:
            match_trip(trip, network, config)
        assert info.value.reason == ("poor_match" if kept else "empty_match")
        assert (info.value.n_matched, info.value.matched_fraction) == (len(kept), fraction)
        return
    matched = match_trip(trip, network, config)
    assert matched.trip is trip
    assert matched.kept.tolist() == kept
    assert list(zip(matched.segment_id.tolist(), matched.direction.tolist())) == edges
    assert matched.first_snap == snaps[0]
    assert matched.last_snap == snaps[-1]
    assert matched.matched_fraction == fraction


@st.composite
def run_cases(draw):
    """A snap_cases network, 1-6 trips of 2-40 points (a Trip's least)
    through its query points, a config, and a chunk size of 1-50 points, so
    trips of the fewest points, trips longer than a chunk and trips across
    a chunk edge all occur."""
    network, queries = draw(snap_cases())
    courses = courses_on(network)
    trips = []
    for k in range(draw(st.integers(1, 6))):
        spots = draw(st.lists(st.sampled_from(queries), min_size=2, max_size=40))
        trips.append(line_trip(spots, [draw(courses) for _ in spots], trip=k))
    return network, trips, draw(configs), draw(st.integers(1, 50))


def match_or_rejection(trip, network, config):
    try:
        return match_trip(trip, network, config)
    except MatchRejected as exc:
        return exc


def match_chunks(trips, network, config):
    """Every trip's result in the one-trip form, its MatchedTrip or its
    MatchRejected, read off the run form that match_trip makes of each
    chunk snap_trips gives, as the pipeline matches."""
    results = []
    for chunk, snaps in snap_trips(trips, network, config.max_snap_distance_m):
        run = match_trip(chunk, network, config, snaps)
        rejected = {(driver, trip): (reason, n) for reason, driver, trip, n in run.rejected}
        ends = np.cumsum([len(t) for t in run.trip])
        owner = np.searchsorted(ends, run.kept, side="right")
        j = 0
        for trip in chunk:
            if (trip.driver_id, trip.trip_id) in rejected:
                reason, n = rejected[trip.driver_id, trip.trip_id]
                results.append(MatchRejected(reason, trip.driver_id, trip.trip_id, n, n / len(trip)))
                continue
            assert run.trip[j] is trip
            own = owner == j
            results.append(MatchedTrip(trip, run.kept[own] - (ends[j] - len(trip)),
                                       run.segment_id[own], run.direction[own],
                                       run.first_snap.at(j), run.last_snap.at(j),
                                       float(run.matched_fraction[j])))
            j += 1
        assert j == len(run.trip) == len(run.first_snap.lat)
    return results


def assert_chunked_run_equals_per_trip(network, trips, config, chunk):
    """match_trip on chunks of `chunk` points gives, for every trip, what
    match_trip gives on the trip alone, and no nearest_segment call takes
    more than max(chunk, longest trip) points."""
    try:
        want = [match_or_rejection(trip, network, config) for trip in trips]
    except ValueError as exc:
        want = exc
    with mock.patch.object(matching, "CHUNK_POINTS", chunk), \
            mock.patch.object(matching, "nearest_segment", wraps=matching.nearest_segment) as calls:
        if isinstance(want, ValueError):
            with pytest.raises(ValueError, match=str(want)):
                match_chunks(trips, network, config)
            return
        got = match_chunks(trips, network, config)
    sizes = [len(c.args[0]) for c in calls.call_args_list]
    assert max(sizes) <= max(chunk, *map(len, trips))
    assert sum(sizes) == sum(map(len, trips))
    assert len(got) == len(want)
    for trip, g, w in zip(trips, got, want):
        assert type(g) is type(w)
        if isinstance(w, MatchRejected):
            assert (g.reason, g.n_matched, g.matched_fraction) == \
                (w.reason, w.n_matched, w.matched_fraction)
            continue
        assert g.trip is trip
        assert g.kept.tolist() == w.kept.tolist()
        assert g.segment_id.tolist() == w.segment_id.tolist()
        assert g.direction.tolist() == w.direction.tolist()
        assert (g.first_snap, g.last_snap, g.matched_fraction) == \
            (w.first_snap, w.last_snap, w.matched_fraction)


@settings(max_examples=200, deadline=None)
@given(run_cases())
def test_random_chunked_match_all_equals_per_trip_match(case):
    assert_chunked_run_equals_per_trip(*case)


@pytest.mark.filterwarnings("ignore:degenerate mean")    # random courses may cancel on a row
@settings(max_examples=50, deadline=None)
@given(run_cases(), st.integers(2, 4))
def test_random_split_match_and_build_equals_one_part(case, workers):
    """Cut into runs of trips matched and built in 2-4 forked parts, the run
    joins into the one-part run's graphs (every field, bit for bit, the
    matched-point counts n_points included) and rejections in input order,
    or raises its ValueError."""
    network, trips, config, chunk = case
    with mock.patch.object(matching, "CHUNK_POINTS", chunk):
        try:
            one = match_and_build(trips, network, config, StageLog())
        except ValueError as exc:
            one = exc
        with mock.patch.object(pipeline, "process_count", lambda w: w):
            if isinstance(one, ValueError):
                with pytest.raises(ValueError, match=re.escape(str(one))):
                    match_and_build(trips, network, config, StageLog(), workers)
                return
            many = match_and_build(trips, network, config, StageLog(), workers)
    assert_same_graphs(many[0], one[0])
    assert many[1] == one[1]


def assert_same_graphs(got, want):
    """Every field of two many-trip graphs equal, dtype and bits included."""
    for name in TripGraph.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@st.composite
def feature_cases(draw):
    """A snap_cases network and 1-6 trips through its query points with
    random speeds, courses and event counts, where a trip may be a U-turn:
    two points at a segment's midpoint whose courses, perpendicular to it,
    fall on one row and cancel there. Also a config, a chunk size of 1-50
    points, a run size of 1-200 points, and a trip index whose exact
    length becomes alpha."""
    network, queries = draw(snap_cases())
    courses = courses_on(network)
    trips = []
    for k in range(draw(st.integers(1, 6))):
        seg = draw(st.sampled_from(sorted(network.segments)))
        a, b = network.segment_endpoints(seg)
        if (a.lat, a.lon) != (b.lat, b.lon) and draw(st.booleans()):
            turn = initial_bearing_deg(a.lat, a.lon, b.lat, b.lon)
            spots = [((a.lat + b.lat) / 2, (a.lon + b.lon) / 2)] * 2
            cogs = [normalize_bearing_deg(turn + 90.0), normalize_bearing_deg(turn - 90.0)]
        else:
            spots = draw(st.lists(st.sampled_from(queries), min_size=2, max_size=40))
            cogs = [draw(courses) for _ in spots]
        trip = line_trip(spots, cogs, trip=k)
        trip.speed_mps = np.array(draw(st.lists(st.floats(0.0, 40.0), min_size=len(spots),
                                                max_size=len(spots))))
        for name in ("hard_accel", "hard_brake"):
            setattr(trip, name, np.array(draw(st.lists(st.integers(0, 3), min_size=len(spots),
                                                       max_size=len(spots)))))
        trips.append(trip)
    return (network, trips, draw(configs), draw(st.integers(1, 50)), draw(st.integers(1, 200)),
            draw(st.integers(0, len(trips) - 1)))


def added(values):
    """values summed one after another from 0.0, as the matrices are summed."""
    total = 0.0
    for value in values:
        total += value
    return total


def reference_graph(matched, network):
    """One trip's TripGraph by a walk over its matched points: rows in order
    of first traversal, sums added point by point, courses averaged with
    geo.circular_mean_deg and mean_resultant_length."""
    trip, kept = matched.trip, matched.kept
    rows, sequence = {}, []
    for key, speed, cog, brake, accel in zip(
            zip(matched.segment_id.tolist(), matched.direction.tolist()),
            trip.speed_mps[kept].tolist(), trip.cog_deg[kept].tolist(),
            trip.hard_brake[kept].tolist(), trip.hard_accel[kept].tolist()):
        speeds, cogs, events = rows.setdefault(key, ([], [], [0, 0]))
        speeds.append(speed)
        cogs.append(cog)
        events[0] += brake
        events[1] += accel
        if not sequence or sequence[-1] != list(rows).index(key):
            sequence.append(list(rows).index(key))
    keys, values = list(rows), list(rows.values())
    length = [network.segments[segment].length_m for segment, _ in keys]
    first, last = matched.first_snap, matched.last_snap
    return TripGraph(
        trip.driver_id, trip.trip_id, [k[0] for k in keys], [k[1] for k in keys],
        [added(speeds) / len(speeds) for speeds, _, _ in values],
        [circular_mean_deg(cogs) for _, cogs, _ in values], length,
        [events[0] for _, _, events in values], [events[1] for _, _, events in values],
        [sequence.count(i) for i in range(len(keys))], [len(cogs) for _, cogs, _ in values],
        added(length[i] for i in sequence), haversine_m(first.lat, first.lon, last.lat, last.lon),
        sequence, mean_resultant_length(trip.cog_deg[kept].tolist()))


def reference_features(g):
    """The ten features of a one-trip graph, term by term, sums added in order."""
    km, rows = g.trip_length_m / 1000.0, len(g.segment_id)
    turns = (circular_diff_deg(g.avg_direction_deg[a], g.avg_direction_deg[b])
             for a, b in zip(g.traversal_sequence, g.traversal_sequence[1:]))
    return FeatureVector(
        min(1.0, g.net_displacement_m / g.trip_length_m), sum(g.n_traversals) / rows,
        sum(n >= 2 for n in g.n_traversals) / rows, added(turns) / km, 1.0 - g.cog_resultant,
        sum(g.n_hard_brakes) / km, float(max(g.n_hard_brakes)),
        sum(g.n_hard_accels) / km, float(max(g.n_hard_accels)),
        added(s * n for s, n in zip(g.avg_speed_mps, g.n_points)) / sum(g.n_points))


def one_trip_features(trip, network, config):
    """The trip alone through the one-trip calls: its (length, features,
    reference graph), the features equal, bit for bit, to those of the
    point walk; or its rejection as (reason, n_matched, matched_fraction)."""
    try:
        matched = match_trip(trip, network, config)
    except MatchRejected as exc:
        return exc.reason, exc.n_matched, exc.matched_fraction
    graph, reference = build_trip_graph(matched, network), reference_graph(matched, network)
    assert repr(graph) == repr(reference)
    features = extract_features(graph)
    assert np.array(features).view(np.int64).tolist() == \
        np.array(reference_features(reference)).view(np.int64).tolist()
    return graph.trip_length_m, features, reference


@pytest.mark.filterwarnings("ignore:degenerate mean")    # U-turns cancel on a row
@settings(max_examples=100, deadline=None)
@given(feature_cases(), st.integers(1, 4))
def test_random_run_features_equal_one_trip_features(case, workers):
    """Each trip's graph and feature row from match_and_build,
    filter_by_min_length and extract_feature_table, bit for bit, or its
    rejection, equals what the one-trip calls and the point walk give on
    the trip alone, for any chunk and run sizes and 1-4 forked parts; a
    trip exactly alpha long is dropped."""
    network, trips, config, chunk, run_points, at_alpha = case
    try:
        want = [one_trip_features(trip, network, config) for trip in trips]
    except ValueError as exc:
        want = exc
    if not isinstance(want, ValueError) and isinstance(want[at_alpha][1], FeatureVector):
        config = replace(config, alpha=want[at_alpha][0])
    with mock.patch.object(matching, "CHUNK_POINTS", chunk), \
            mock.patch.object(matching, "RUN_POINTS", run_points), \
            mock.patch.object(pipeline, "process_count", lambda w: w):
        if isinstance(want, ValueError):
            with pytest.raises(ValueError, match=re.escape(str(want))):
                match_and_build(trips, network, config, StageLog(), workers)
            return
        graphs, rejected = match_and_build(trips, network, config, StageLog(), workers)
    kept, dropped = filter_by_min_length(graphs, config.alpha)
    table = extract_feature_table(kept)
    rows = dict(zip(table.keys, table.matrix))
    built = iter(graphs.split())
    rejections = iter(rejected)
    for trip, result in zip(trips, want):
        key = (trip.driver_id, trip.trip_id)
        if isinstance(result[1], FeatureVector):
            assert repr(next(built)) == repr(result[2])
        if not isinstance(result[1], FeatureVector):
            reason, driver_id, trip_id, n = next(rejections)
            assert (reason, (driver_id, trip_id), n, n / len(trip)) == \
                (result[0], key, result[1], result[2])
        elif result[0] > config.alpha:
            assert rows.pop(key).view(np.int64).tolist() == \
                np.array(result[1]).view(np.int64).tolist()
        else:
            assert key in zip(dropped.driver_id.tolist(), dropped.trip_id.tolist())
    assert next(rejections, None) is None and next(built, None) is None and not rows


@given(st.lists(st.integers(2, 60), max_size=12), st.integers(1, 5))
def test_trip_runs_cut_at_trip_ends_past_each_share(lengths, n):
    trips = [line_trip([(40.0, -86.0)] * k, [0.0] * k) for k in lengths]
    runs = pipeline._trip_runs(trips, n)
    bounds = [lo for lo, _ in runs] + [runs[-1][1]]
    assert bounds[0] == 0 and bounds[-1] == len(trips)
    assert all(lo < hi for lo, hi in runs) or runs == [(0, 0)]
    assert len(runs) <= n
    starts = np.cumsum([0] + lengths)
    for cut in bounds[1:-1]:
        # the first trip end at or past some k-th n-th of the points
        assert any(starts[cut - 1] < starts[-1] * k / n <= starts[cut] for k in range(1, n))


@pytest.mark.parametrize("chunk", [1, 2, 3, 100])
def test_chunked_match_all_zero_length_segment_raises_as_per_trip(chunk):
    """A point of the third trip snaps to a zero-length segment: the run
    raises match_trip's ValueError, however the trips are chunked."""
    network = make_network([(1, 40.0, -86.0), (2, 40.0, -85.99), (3, 40.001, -85.995)],
                           [(10, 1, 2), (11, 3, 3)])
    on_line = [(40.0, -85.998), (40.0, -85.996)]
    trips = [line_trip(on_line, [90.0, 90.0], trip=0),
             line_trip(on_line, [270.0, 270.0], trip=1),
             line_trip(on_line + [(40.001, -85.995)], [90.0] * 3, trip=2),
             line_trip(on_line, [90.0, 90.0], trip=3)]
    with pytest.raises(ValueError, match="zero-length"):
        match_trip(trips[2], network, AnalysisConfig())
    assert_chunked_run_equals_per_trip(network, trips, AnalysisConfig(), chunk)


def test_chunked_match_all_keeps_rejections_in_place(line_network):
    """Off-network and poorly matched trips between matched ones, in chunks
    that split some trips' neighbours apart."""
    on_line = [(40.0, -85.998), (40.0, -85.996), (40.0, -85.994)]
    far = [(41.0, -85.998), (41.0, -85.996)]
    trips = [line_trip(on_line, [90.0] * 3, trip=0),
             line_trip(far, [90.0] * 2, trip=1),
             line_trip(on_line[:1] + far, [90.0] * 3, trip=2),
             line_trip(on_line[:2], [270.0] * 2, trip=3)]
    for chunk in (1, 2, 4, 5, 1024):
        assert_chunked_run_equals_per_trip(line_network, trips, AnalysisConfig(), chunk)
    results = match_chunks(trips, line_network, AnalysisConfig())
    assert [type(r) for r in results] == [MatchedTrip, MatchRejected, MatchRejected, MatchedTrip]
    assert [r.reason for r in results[1:3]] == ["empty_match", "poor_match"]
