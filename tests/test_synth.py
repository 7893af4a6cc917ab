"""Synthetic data generator: grid geometry, routes, injections, determinism."""

import hashlib

import numpy as np
import pytest

from tripsift.geo import circular_diff_deg, haversine_m
from tripsift.ingest import parse_road_network, parse_trips, write_network
from tripsift.matching import match_trip, nearest_segment
from tripsift.model import AnalysisConfig
from tripsift.synth import (
    ANOMALY_KINDS,
    SynthSpec,
    _splice_detour,
    _splice_loop,
    build_world,
    generate_dataset,
    generate_network,
    generate_normal_trip,
    inject_anomaly,
    plan_route,
    sample_points,
)

SMALL = SynthSpec(rows=4, cols=4, n_drivers=4, trips_per_driver=3,
                  abnormal_driver_fraction=0.25, rng_seed=5)


def test_spec_validation():
    with pytest.raises(ValueError, match="grid too small"):
        SynthSpec(rows=1)
    with pytest.raises(ValueError, match="spacing"):
        SynthSpec(spacing_m=0.0)
    with pytest.raises(ValueError, match="abnormal_driver_fraction"):
        SynthSpec(abnormal_driver_fraction=1.5)
    with pytest.raises(ValueError, match="positive total weight"):
        SynthSpec(loop_prob=0, detour_prob=0, brake_burst_prob=0, accel_burst_prob=0)
    with pytest.raises(ValueError, match="sample_period"):
        SynthSpec(sample_period_s=0)


def test_network_structure():
    spec = SynthSpec(rows=6, cols=6, spacing_m=500.0)
    net = generate_network(spec)
    assert len(net.nodes) == 36
    assert len(net.segments) == 60          # 6*5 east-west + 5*6 north-south
    assert net.index is not None
    assert all(seg.length_m == 500.0 for seg in net.segments.values())
    # horizontal segments come first, ids row-major
    assert (net.segments[0].from_node, net.segments[0].to_node) == (0, 1)
    assert (net.segments[30].from_node, net.segments[30].to_node) == (0, 6)


def test_network_geometry_matches_nominal_spacing():
    spec = SynthSpec(rows=5, cols=5, spacing_m=500.0)
    net = generate_network(spec)
    for seg in net.segments.values():
        a, b = net.nodes[seg.from_node], net.nodes[seg.to_node]
        actual = haversine_m(a.lat, a.lon, b.lat, b.lon)
        assert actual == pytest.approx(500.0, abs=0.005)


def test_plan_route_is_monotone_shortest():
    world = build_world(SynthSpec(rows=6, cols=6))
    rng = np.random.default_rng(3)
    for _ in range(50):
        origin, destination = 0, 35
        path = plan_route(world, origin, destination, rng)
        assert path[0] == origin and path[-1] == destination
        assert len(path) == world.manhattan(origin, destination) + 1
        for u, v in zip(path, path[1:]):
            assert world.manhattan(u, v) == 1
    with pytest.raises(ValueError, match="origin equals destination"):
        plan_route(world, 3, 3, rng)


def test_sample_points_walks_the_route():
    spec = SynthSpec(rows=6, cols=6, cog_jitter_deg=0.0, speed_jitter_mps=0.0,
                     background_event_prob=0.0)
    world = build_world(spec)
    rng = np.random.default_rng(1)
    path = [0, 1, 2, 3]
    trip = sample_points(world, 1, 1, path, start_time=1000, rng=rng)
    assert len(trip) == pytest.approx(3 * 500.0 / 12.0, abs=3)
    assert trip.timestamp.tolist() == list(range(1000, 1000 + len(trip)))
    assert trip.point_id.tolist() == list(range(len(trip)))
    assert all(speed == 12.0 for speed in trip.speed_mps.tolist())
    # jitter disabled: course equals the eastbound edge bearing
    for cog in trip.cog_deg.tolist():
        assert circular_diff_deg(cog, 90.0) < 1.0
    # samples stay clear of the route's end nodes
    lat0, lon0 = world.node_coords[0]
    assert haversine_m(trip.lat[0], trip.lon[0], lat0, lon0) > 0.5


def test_samples_lie_on_network():
    world = build_world(SynthSpec(rows=5, cols=5))
    rng = np.random.default_rng(9)
    trip = generate_normal_trip(world, 1, 1, 0, 24, 0, rng).to_trip()
    config = AnalysisConfig(alpha=0.0)
    matched = match_trip(trip, world.network, config)
    assert matched.matched_fraction == 1.0
    assert max(nearest_segment(trip.lat[i], trip.lon[i], world.network,
                               config.max_snap_distance_m).distance_m
               for i in matched.kept.tolist()) < 1.0


def grid_edges(world, path):
    for u, v in zip(path, path[1:]):
        assert world.manhattan(u, v) == 1, f"{u}->{v} is not a grid edge"


def test_splice_loop_adds_a_repeated_directed_edge():
    world = build_world(SynthSpec(rows=6, cols=6))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        path = plan_route(world, 0, 35, rng)
        looped = _splice_loop(world, list(path), rng)
        assert len(looped) == len(path) + 4
        assert looped[0] == path[0] and looped[-1] == path[-1]
        grid_edges(world, looped)
        directed = list(zip(looped, looped[1:]))
        assert len(directed) > len(set(directed))   # some directed edge repeats


def test_splice_detour_lengthens_route():
    world = build_world(SynthSpec(rows=6, cols=6))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        path = plan_route(world, 0, 35, rng)
        detoured = _splice_detour(world, list(path), rng)
        assert len(detoured) - len(path) in (2, 4)  # bulge depth 1 or 2
        assert detoured[0] == path[0] and detoured[-1] == path[-1]
        grid_edges(world, detoured)
        # a detour never repeats a directed edge
        directed = list(zip(detoured, detoured[1:]))
        assert len(directed) == len(set(directed))


def test_inject_route_anomalies_resample_points():
    world = build_world(SynthSpec(rows=6, cols=6))
    rng = np.random.default_rng(4)
    base = generate_normal_trip(world, 1, 1, 0, 35, 1000, rng)
    for kind in ("loop", "detour"):
        out = inject_anomaly(world, base, kind, np.random.default_rng(7))
        assert out.kind == kind
        assert len(out.node_path) > len(base.node_path)
        assert out.trip.timestamp[0] == 1000
        assert len(out.trip) > len(base.trip)
        # original is untouched
        assert base.kind is None and len(base.node_path) == world.manhattan(0, 35) + 1


def test_inject_bursts_flag_consecutive_points():
    spec = SynthSpec(rows=6, cols=6, background_event_prob=0.0)
    world = build_world(spec)
    rng = np.random.default_rng(8)
    base = generate_normal_trip(world, 1, 1, 0, 35, 0, rng)
    base_speed = base.trip.speed_mps.copy()
    for kind, flag, other in (("brake_burst", "hard_brake", "hard_accel"),
                              ("accel_burst", "hard_accel", "hard_brake")):
        out = inject_anomaly(world, base, kind, np.random.default_rng(2))
        assert out.kind == kind
        assert out.node_path == base.node_path
        flagged = np.flatnonzero(getattr(out.trip, flag) == 1).tolist()
        # only the burst's speeds and its own flag column change
        outside = np.ones(len(base.trip), dtype=bool)
        outside[flagged] = False
        assert out.trip.speed_mps[outside].tolist() == base_speed[outside].tolist()
        assert getattr(out.trip, other).tolist() == getattr(base.trip, other).tolist()
        assert 5 <= len(flagged) <= 10
        assert flagged == list(range(flagged[0], flagged[-1] + 1))
        # speeds move the right way across the burst
        speeds = out.trip.speed_mps[flagged].tolist()
        if kind == "brake_burst":
            assert speeds[-1] < base.trip.speed_mps[flagged[0] - 1]
        else:
            assert speeds[-1] > base.trip.speed_mps[flagged[0] - 1]
    assert base.kind is None and base.trip.speed_mps.tolist() == base_speed.tolist()


def test_inject_anomaly_errors():
    world = build_world(SynthSpec(rows=6, cols=6))
    rng = np.random.default_rng(0)
    base = generate_normal_trip(world, 1, 1, 0, 35, 0, rng)
    with pytest.raises(ValueError, match="unknown anomaly kind"):
        inject_anomaly(world, base, "wobble", rng)
    short = generate_normal_trip(world, 1, 2, 0, 2, 0, rng)
    with pytest.raises(ValueError, match="too short to inject loop"):
        inject_anomaly(world, short, "loop", rng)


def test_generate_dataset_files_and_truth(tmp_path):
    summary = generate_dataset(SMALL, tmp_path / "data")
    for p in (summary.nodes_path, summary.segments_path, summary.trips_path,
              summary.truth_path, summary.trip_truth_path):
        assert p.exists()
    assert summary.n_trips == SMALL.n_drivers * SMALL.trips_per_driver
    assert len(summary.abnormal_drivers) == 1     # round(0.25 * 4)

    lines = summary.truth_path.read_text().strip().splitlines()
    assert lines[0] == "driver_id,label"
    assert len(lines) == 1 + SMALL.n_drivers
    abnormal_rows = [l for l in lines[1:] if l.endswith(",abnormal")]
    assert [int(l.split(",")[0]) for l in abnormal_rows] == summary.abnormal_drivers

    trip_lines = summary.trip_truth_path.read_text().strip().splitlines()
    assert trip_lines[0] == "driver_id,trip_id,label,kind"
    assert len(trip_lines) == 1 + summary.n_trips
    kinds = [l.split(",")[3] for l in trip_lines[1:] if l.split(",")[2] == "abnormal"]
    assert all(k in ANOMALY_KINDS for k in kinds)
    assert sum(summary.kind_counts.values()) == len(kinds)

    network = parse_road_network(summary.nodes_path, summary.segments_path)
    trips, report = parse_trips(summary.trips_path)
    assert report.has_event_columns
    assert report.n_points_rejected == 0
    assert len(trips) == summary.n_trips
    assert len(network.segments) == 4 * 3 * 2


def test_generate_dataset_deterministic(tmp_path):
    a = generate_dataset(SMALL, tmp_path / "a")
    b = generate_dataset(SMALL, tmp_path / "b")
    for name in ("nodes.csv", "segments.csv", "trips.csv", "truth.csv", "truth_trips.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other = generate_dataset(SynthSpec(**{**SMALL.__dict__, "rng_seed": 6}), tmp_path / "c")
    assert (tmp_path / "a" / "trips.csv").read_bytes() != (tmp_path / "c" / "trips.csv").read_bytes()
    assert a.abnormal_drivers == b.abnormal_drivers


def test_tiny_grid_falls_back_to_bursts(tmp_path):
    spec = SynthSpec(rows=2, cols=2, n_drivers=2, trips_per_driver=5,
                     abnormal_driver_fraction=0.5, injection_rate=1.0,
                     loop_prob=1.0, detour_prob=0.0,
                     brake_burst_prob=0.5, accel_burst_prob=0.0, rng_seed=1)
    summary = generate_dataset(spec, tmp_path / "tiny")
    # 2x2 routes never reach 3 segments, so loops degrade to brake bursts
    assert summary.kind_counts.get("loop", 0) == 0
    assert summary.kind_counts.get("detour", 0) == 0
    assert summary.kind_counts.get("brake_burst", 0) > 0


def test_tiny_grid_fallback_follows_the_mix(tmp_path):
    """A route anomaly that does not fit a 2x2 route falls back to a burst
    kind the mix can draw."""
    spec = SynthSpec(rows=2, cols=2, n_drivers=2, trips_per_driver=5,
                     abnormal_driver_fraction=0.5, injection_rate=1.0,
                     loop_prob=1.0, detour_prob=0.0,
                     brake_burst_prob=0.0, accel_burst_prob=1.0, rng_seed=1)
    summary = generate_dataset(spec, tmp_path / "tiny")
    assert set(summary.kind_counts) == {"accel_burst"}
    assert summary.kind_counts["accel_burst"] == spec.trips_per_driver


def test_trip_too_short_for_its_burst_stays_normal(tmp_path):
    """Routes of 120 m give trips of about 10 points: some fit the drawn
    burst and are altered, the rest are written unaltered and labelled normal."""
    spec = SynthSpec(rows=2, cols=2, spacing_m=60.0, n_drivers=3, trips_per_driver=4,
                     abnormal_driver_fraction=1.0, injection_rate=1.0)
    summary = generate_dataset(spec, tmp_path / "short")
    trips, _ = parse_trips(summary.trips_path)
    assert len(trips) == summary.n_trips == 12
    rows = summary.trip_truth_path.read_text().strip().splitlines()[1:]
    labels = [row.split(",")[2:] for row in rows]
    assert ["normal", ""] in labels
    assert sorted(kind for label, kind in labels if label == "abnormal") == sorted(
        summary.kind_counts.elements())
    assert all(kind in ("brake_burst", "accel_burst") for kind in summary.kind_counts)
    assert sum(summary.kind_counts.values()) > 0


# sha256 of generate_dataset(SMALL)'s files; any change to what the
# generator draws or writes must show up here
SMALL_DIGESTS = {
    "nodes.csv": "aed844c7cef17fd06e8cc8b905b58761a6fe09b932d680ce2359c407ef2b2db0",
    "segments.csv": "597f686d2b566b7536dce7a0cb8cd04291586a74f67056803b465b5ac6a121e2",
    "trips.csv": "9dc7806b921fbadddfcf1526636147dfefcc288dbc57a7bd6f4963fbfc160661",
    "truth.csv": "5d157e766e628b0948b74fe2c20e49846aa99df8b07a707875bc1a00b8223ffb",
    "truth_trips.csv": "4f7ecd2ff3cf757d9107efda9b5c5cfe100f930fe985c8920020c3e0d45f5562",
}


def test_generate_dataset_bytes_are_pinned(tmp_path):
    generate_dataset(SMALL, tmp_path)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in SMALL_DIGESTS} == SMALL_DIGESTS


def test_spec_grid_must_lie_in_lat_lon_range(tmp_path):
    """A spec is refused exactly when its grid would leave the range that
    parse_road_network reads: through the origin, over a pole, or over the
    antimeridian."""
    outside = [(95.0, -86.0), (-90.5, -86.0), (89.999, -86.0), (40.0, 179.99), (40.0, -180.5)]
    for origin_lat, origin_lon in outside:
        with pytest.raises(ValueError, match="origin_lat/origin_lon"):
            SynthSpec(origin_lat=origin_lat, origin_lon=origin_lon)
    for origin_lat, origin_lon in [(89.9, 150.0), (40.0, 179.97), (-89.9, -180.0)]:
        spec = SynthSpec(origin_lat=origin_lat, origin_lon=origin_lon)
        write_network(generate_network(spec), tmp_path / "n.csv", tmp_path / "s.csv")
        network = parse_road_network(tmp_path / "n.csv", tmp_path / "s.csv")
        assert len(network.nodes) == spec.rows * spec.cols
