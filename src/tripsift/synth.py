"""Synthetic Manhattan-grid driving data with planted anomalies.

A rows x cols grid of nodes at fixed spacing, drivers taking random
monotone (staircase) routes between node pairs, points sampled once a
second at a jittered cruising speed, straight into a Trip's columns.
Abnormal drivers get a share of their trips altered: spliced loops,
long detours, or bursts of hard brake/accel events. A loop or detour
drawn for a route too short to hold it becomes a burst kind the mix can
draw, and a trip too short for its burst stays normal. One seeded
generator drives everything, so output files are byte-identical for a
given spec.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .geo import EARTH_RADIUS_M, initial_bearing_deg, normalize_bearing_deg
from .ingest import removed_on_failure, write_csv, write_network, write_trips
from .matching import build_spatial_index
from .model import RoadNetwork, RoadNode, RoadSegment, Trip

ANOMALY_KINDS = ["loop", "detour", "brake_burst", "accel_burst"]

TRUTH_COLUMNS = ["driver_id", "label"]
TRIP_TRUTH_COLUMNS = ["driver_id", "trip_id", "label", "kind"]

_EPOCH_BASE = 1_600_000_000
_TRIP_TIME_SPACING_S = 10_000
_NODE_CLEARANCE_M = 1.0     # samples start/stop this far from end nodes so no
                            # point sits exactly on a node shared by many segments
_BURST_SPEED_STEP = 3.5     # m/s per sample during event bursts


@dataclass(frozen=True)
class SynthSpec:
    """Everything that defines one synthetic dataset."""

    rows: int = 6
    cols: int = 6
    spacing_m: float = 500.0
    n_drivers: int = 18
    trips_per_driver: int = 20
    abnormal_driver_fraction: float = 3 / 18
    injection_rate: float = 0.5           # share of an abnormal driver's trips altered
    loop_prob: float = 0.25               # anomaly mix, normalized at use
    detour_prob: float = 0.25
    brake_burst_prob: float = 0.25
    accel_burst_prob: float = 0.25
    base_speed_mps: float = 12.0
    speed_jitter_mps: float = 1.0
    cog_jitter_deg: float = 3.0
    sample_period_s: int = 1
    background_event_prob: float = 0.001
    origin_lat: float = 40.0
    origin_lon: float = -86.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value}")
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid too small: need at least 2 rows and 2 cols")
        if self.spacing_m <= 0.0:
            raise ValueError("spacing_m must be positive")
        if self.n_drivers < 1 or self.trips_per_driver < 1:
            raise ValueError("need at least 1 driver and 1 trip per driver")
        if not 0.0 <= self.abnormal_driver_fraction <= 1.0:
            raise ValueError("abnormal_driver_fraction must lie in [0, 1]")
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ValueError("injection_rate must lie in [0, 1]")
        mix = (self.loop_prob, self.detour_prob, self.brake_burst_prob, self.accel_burst_prob)
        if any(p < 0.0 for p in mix):
            raise ValueError("anomaly mix probabilities must be non-negative")
        if self.abnormal_driver_fraction > 0.0 and self.injection_rate > 0.0 and sum(mix) == 0.0:
            raise ValueError("anomaly mix must have positive total weight")
        if self.base_speed_mps <= 0.0 or self.speed_jitter_mps < 0.0 or self.cog_jitter_deg < 0.0:
            raise ValueError("speed and jitter parameters must be non-negative (speed positive)")
        if self.sample_period_s < 1:
            raise ValueError("sample_period_s must be >= 1")
        if not 0.0 <= self.background_event_prob <= 1.0:
            raise ValueError("background_event_prob must lie in [0, 1]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        # the rows nearest a pole hold the grid's extreme latitude and longitude
        for r in (0, self.rows - 1):
            lat, dlon = _grid_row(self, r)
            east = self.origin_lon + (self.cols - 1) * dlon
            if not (-90.0 <= lat <= 90.0 and -180.0 <= self.origin_lon and east <= 180.0):
                raise ValueError(f"origin_lat/origin_lon put grid row {r} at lat {lat}, lon up "
                                 f"to {east}: outside [-90, 90] x [-180, 180]")


@dataclass
class GridWorld:
    """A generated grid network plus the lookups route construction needs."""

    spec: SynthSpec
    network: RoadNetwork
    node_coords: dict[int, tuple[float, float]]
    bearing_by_edge: dict[tuple[int, int], float]  # directed (u, v) -> compass bearing

    def node_id(self, r: int, c: int) -> int:
        return r * self.spec.cols + c

    def rc(self, node_id: int) -> tuple[int, int]:
        return divmod(node_id, self.spec.cols)

    def manhattan(self, a: int, b: int) -> int:
        (ra, ca), (rb, cb) = self.rc(a), self.rc(b)
        return abs(ra - rb) + abs(ca - cb)


@dataclass
class PlannedTrip:
    """A sampled trip that still remembers the node route it came from."""

    trip: Trip
    node_path: list[int]
    kind: Optional[str] = None

    def to_trip(self) -> Trip:
        return self.trip


@dataclass
class DatasetSummary:
    out_dir: Path
    nodes_path: Path
    segments_path: Path
    trips_path: Path
    truth_path: Path
    trip_truth_path: Path
    n_drivers: int
    n_trips: int
    abnormal_drivers: list[int]
    kind_counts: Counter = field(default_factory=Counter)


def _grid_row(spec: SynthSpec, r: int) -> tuple[float, float]:
    """Latitude of grid row r, and the longitude step that keeps its segments spacing_m long."""
    lat = spec.origin_lat + np.degrees(r * spec.spacing_m / EARTH_RADIUS_M)
    return lat, np.degrees(spec.spacing_m / (EARTH_RADIUS_M * np.cos(np.radians(lat))))


def generate_network(spec: SynthSpec) -> RoadNetwork:
    """Grid network: rows*(cols-1) east-west plus (rows-1)*cols north-south segments.

    Longitude spacing is recomputed per row so that every segment's
    great-circle length matches spacing_m to well under half a meter;
    stored lengths are the nominal spacing.
    """
    nodes: dict[int, RoadNode] = {}
    for r in range(spec.rows):
        lat, dlon = _grid_row(spec, r)
        for c in range(spec.cols):
            node_id = r * spec.cols + c
            nodes[node_id] = RoadNode(node_id, float(lat), float(spec.origin_lon + c * dlon))

    segments: dict[int, RoadSegment] = {}
    seg_id = 0
    for r in range(spec.rows):
        for c in range(spec.cols - 1):
            segments[seg_id] = RoadSegment(seg_id, r * spec.cols + c, r * spec.cols + c + 1,
                                           spec.spacing_m)
            seg_id += 1
    for r in range(spec.rows - 1):
        for c in range(spec.cols):
            segments[seg_id] = RoadSegment(seg_id, r * spec.cols + c, (r + 1) * spec.cols + c,
                                           spec.spacing_m)
            seg_id += 1

    network = RoadNetwork(nodes=nodes, segments=segments)
    network.index = build_spatial_index(network)
    return network


def build_world(spec: SynthSpec) -> GridWorld:
    network = generate_network(spec)
    coords = {nid: (n.lat, n.lon) for nid, n in network.nodes.items()}
    bearings: dict[tuple[int, int], float] = {}
    for seg in network.segments.values():
        u, v = seg.from_node, seg.to_node
        (lat_u, lon_u), (lat_v, lon_v) = coords[u], coords[v]
        bearings[(u, v)] = initial_bearing_deg(lat_u, lon_u, lat_v, lon_v)
        bearings[(v, u)] = initial_bearing_deg(lat_v, lon_v, lat_u, lon_u)
    return GridWorld(spec=spec, network=network, node_coords=coords, bearing_by_edge=bearings)


def plan_route(world: GridWorld, origin: int, destination: int, rng: np.random.Generator) -> list[int]:
    """A uniformly random monotone staircase path; all such paths are shortest."""
    if origin == destination:
        raise ValueError("origin equals destination")
    (r, c) = world.rc(origin)
    (r2, c2) = world.rc(destination)
    path = [origin]
    while (r, c) != (r2, c2):
        if r != r2 and c != c2:
            move_row = rng.integers(2) == 0
        else:
            move_row = r != r2
        if move_row:
            r += 1 if r2 > r else -1
        else:
            c += 1 if c2 > c else -1
        path.append(world.node_id(r, c))
    return path


def sample_points(
    world: GridWorld,
    driver_id: int,
    trip_id: int,
    node_path: list[int],
    start_time: int,
    rng: np.random.Generator,
) -> Trip:
    """Walk the route at a jittered speed, emitting one point per period."""
    spec = world.spec
    spacing = spec.spacing_m
    n_edges = len(node_path) - 1
    total = n_edges * spacing
    clearance = min(_NODE_CLEARANCE_M, total / 4.0)
    end = total - clearance

    lats: list[float] = []
    lons: list[float] = []
    speeds: list[float] = []
    cogs: list[float] = []
    accels: list[int] = []
    brakes: list[int] = []
    pos = clearance
    while True:
        e = min(int(pos // spacing), n_edges - 1)
        frac = pos / spacing - e
        (lat_u, lon_u) = world.node_coords[node_path[e]]
        (lat_v, lon_v) = world.node_coords[node_path[e + 1]]
        lats.append(lat_u + frac * (lat_v - lat_u))
        lons.append(lon_u + frac * (lon_v - lon_u))
        bearing = world.bearing_by_edge[(node_path[e], node_path[e + 1])]
        cogs.append(normalize_bearing_deg(bearing + rng.normal(0.0, spec.cog_jitter_deg)))
        speed = max(1.0, rng.normal(spec.base_speed_mps, spec.speed_jitter_mps))
        speeds.append(speed)
        accels.append(int(rng.random() < spec.background_event_prob))
        brakes.append(int(rng.random() < spec.background_event_prob))
        if pos >= end:
            break
        pos = min(end, pos + speed * spec.sample_period_s)
    steps = np.arange(len(lats), dtype=np.int64)
    return Trip(driver_id, trip_id, point_id=steps,
                timestamp=start_time + spec.sample_period_s * steps,
                lat=np.array(lats), lon=np.array(lons), speed_mps=np.array(speeds),
                cog_deg=np.array(cogs), hard_accel=np.array(accels, dtype=np.int64),
                hard_brake=np.array(brakes, dtype=np.int64))


def generate_normal_trip(
    world: GridWorld,
    driver_id: int,
    trip_id: int,
    origin: int,
    destination: int,
    start_time: int,
    rng: np.random.Generator,
) -> PlannedTrip:
    """Plan a staircase route between two nodes and sample it."""
    path = plan_route(world, origin, destination, rng)
    return PlannedTrip(sample_points(world, driver_id, trip_id, path, start_time, rng), path)


def _offset_sides(coord: int, limit: int, depth: int) -> list[int]:
    """Directions (+1/-1) in which `depth` grid steps stay inside [0, limit)."""
    sides = []
    if coord + depth <= limit - 1:
        sides.append(1)
    if coord - depth >= 0:
        sides.append(-1)
    return sides


def _splice_loop(world: GridWorld, path: list[int], rng: np.random.Generator) -> list[int]:
    # pick an edge u->v in the middle third and append the circuit
    # v -> v_off -> u_off -> u -> v, re-traversing u->v in its original direction
    n = len(path)
    lo = max(1, n // 3)
    hi = max(lo + 1, (2 * n) // 3)
    i = int(rng.integers(lo, hi))
    u, v = path[i - 1], path[i]
    (ru, cu), (rv, cv) = world.rc(u), world.rc(v)
    if ru == rv:
        sides = _offset_sides(ru, world.spec.rows, 1)
        side = sides[int(rng.integers(len(sides)))] if len(sides) > 1 else sides[0]
        v_off = world.node_id(ru + side, cv)
        u_off = world.node_id(ru + side, cu)
    else:
        sides = _offset_sides(cu, world.spec.cols, 1)
        side = sides[int(rng.integers(len(sides)))] if len(sides) > 1 else sides[0]
        v_off = world.node_id(rv, cu + side)
        u_off = world.node_id(ru, cu + side)
    return path[: i + 1] + [v_off, u_off, u, v] + path[i + 1:]


def _splice_detour(world: GridWorld, path: list[int], rng: np.random.Generator) -> list[int]:
    # replace an edge u->v with a bulge around it, 2*depth + 1 edges long
    n = len(path)
    lo = max(1, n // 3)
    hi = max(lo + 1, (2 * n) // 3)
    i = int(rng.integers(lo, hi))
    u, v = path[i - 1], path[i]
    (ru, cu), (rv, cv) = world.rc(u), world.rc(v)
    options: list[tuple[int, int]] = []
    if ru == rv:
        limit = world.spec.rows
        anchor = ru
    else:
        limit = world.spec.cols
        anchor = cu
    for depth in (1, 2):
        for side in _offset_sides(anchor, limit, depth):
            options.append((side, depth))
    side, depth = options[int(rng.integers(len(options)))]
    if ru == rv:
        out = [world.node_id(ru + side * j, cu) for j in range(1, depth + 1)]
        back = [world.node_id(ru + side * j, cv) for j in range(depth, 0, -1)]
    else:
        out = [world.node_id(ru, cu + side * j) for j in range(1, depth + 1)]
        back = [world.node_id(rv, cu + side * j) for j in range(depth, 0, -1)]
    return path[:i] + out + back + path[i:]


def _inject_burst(trip: Trip, kind: str, rng: np.random.Generator) -> Optional[Trip]:
    """A copy of the trip with a 5-10 point burst of one event kind, or
    None if the drawn burst does not fit between its first and last point."""
    length = int(rng.integers(5, 11))
    if len(trip) < length + 2:
        return None
    start = int(rng.integers(1, len(trip) - length))
    burst = slice(start, start + length)
    steps = _BURST_SPEED_STEP * np.arange(1, length + 1)
    speed = trip.speed_mps.copy()
    if kind == "brake_burst":
        flag = "hard_brake"
        speed[burst] = np.maximum(0.5, speed[start - 1] - steps)
    else:
        flag = "hard_accel"
        speed[burst] = np.minimum(55.0, speed[start - 1] + steps)
    flags = getattr(trip, flag).copy()
    flags[burst] = 1
    return replace(trip, speed_mps=speed, **{flag: flags})


def inject_anomaly(
    world: GridWorld, planned: PlannedTrip, kind: str, rng: np.random.Generator
) -> PlannedTrip:
    """Return a copy of the trip altered by one anomaly kind.

    Route anomalies (loop, detour) rewrite the node path and resample
    the points; event bursts rewrite a stretch of sampled points. A trip
    too short for the burst drawn for it comes back unaltered, with kind
    None.

    Raises:
        ValueError: unknown kind, or a route anomaly on a route of
            fewer than 3 segments.
    """
    if kind not in ANOMALY_KINDS:
        raise ValueError(f"unknown anomaly kind {kind!r}")
    if kind in ("loop", "detour"):
        if len(planned.node_path) - 1 < 3:
            raise ValueError(f"trip too short to inject {kind}: need at least 3 segments")
        if kind == "loop":
            new_path = _splice_loop(world, planned.node_path, rng)
        else:
            new_path = _splice_detour(world, planned.node_path, rng)
        trip = planned.trip
        return PlannedTrip(sample_points(world, trip.driver_id, trip.trip_id, new_path,
                                         int(trip.timestamp[0]), rng), new_path, kind)
    burst = _inject_burst(planned.trip, kind, rng)
    return planned if burst is None else PlannedTrip(burst, planned.node_path, kind)


def _pick_endpoints(world: GridWorld, rng: np.random.Generator) -> tuple[int, int]:
    spec = world.spec
    n_nodes = spec.rows * spec.cols
    max_sep = (spec.rows - 1) + (spec.cols - 1)
    min_sep = min(3, max_sep)
    while True:
        origin = int(rng.integers(n_nodes))
        destination = int(rng.integers(n_nodes))
        if world.manhattan(origin, destination) >= min_sep:
            return origin, destination


def generate_dataset(spec: SynthSpec, out_dir: str | Path) -> DatasetSummary:
    """Write a full dataset: network, trajectories, and ground truth.

    Files: nodes.csv, segments.csv, trips.csv, truth.csv (driver
    labels), truth_trips.csv (trip labels with anomaly kind). Output is
    byte-identical for identical specs. On any failure the files
    written so far are removed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.rng_seed)
    world = build_world(spec)

    driver_ids = list(range(1, spec.n_drivers + 1))
    n_abnormal = int(round(spec.abnormal_driver_fraction * spec.n_drivers))
    if n_abnormal > 0:
        abnormal = sorted(int(d) for d in rng.choice(driver_ids, size=n_abnormal, replace=False))
    else:
        abnormal = []
    abnormal_set = set(abnormal)

    mix = np.array([spec.loop_prob, spec.detour_prob, spec.brake_burst_prob,
                    spec.accel_burst_prob], dtype=float)
    weights = mix / mix.sum() if mix.sum() > 0 else None

    trip_truth: list[tuple[int, int, Optional[str]]] = []
    kind_counts: Counter = Counter()

    def trips() -> Iterator[Trip]:
        """Plan, alter and sample every trip in turn, recording its truth."""
        trip_counter = 0
        for driver_id in driver_ids:
            for trip_id in range(1, spec.trips_per_driver + 1):
                origin, destination = _pick_endpoints(world, rng)
                start_time = _EPOCH_BASE + trip_counter * _TRIP_TIME_SPACING_S
                trip_counter += 1
                planned = generate_normal_trip(world, driver_id, trip_id, origin, destination,
                                               start_time, rng)
                if (driver_id in abnormal_set and weights is not None
                        and rng.random() < spec.injection_rate):
                    kind = ANOMALY_KINDS[int(rng.choice(len(ANOMALY_KINDS), p=weights))]
                    if kind in ("loop", "detour") and len(planned.node_path) - 1 < 3:
                        kind = ("brake_burst" if spec.brake_burst_prob > 0
                                else "accel_burst" if spec.accel_burst_prob > 0 else None)
                    if kind is not None:
                        planned = inject_anomaly(world, planned, kind, rng)
                if planned.kind is not None:
                    kind_counts[planned.kind] += 1
                trip_truth.append((driver_id, trip_id, planned.kind))
                yield planned.trip

    nodes_path = out / "nodes.csv"
    segments_path = out / "segments.csv"
    trips_path = out / "trips.csv"
    truth_path = out / "truth.csv"
    trip_truth_path = out / "truth_trips.csv"

    with removed_on_failure() as written:
        written += [nodes_path, segments_path]
        write_network(world.network, nodes_path, segments_path)
        written.append(trips_path)
        # each trip is written as it is generated, so none is held for the whole run
        write_trips(trips(), trips_path)
        written.append(truth_path)
        write_csv(truth_path, TRUTH_COLUMNS,
                  ([driver_id, "abnormal" if driver_id in abnormal_set else "normal"]
                   for driver_id in driver_ids))
        written.append(trip_truth_path)
        write_csv(trip_truth_path, TRIP_TRUTH_COLUMNS,
                  ([driver_id, trip_id, "abnormal" if kind else "normal", kind or ""]
                   for driver_id, trip_id, kind in trip_truth))

    return DatasetSummary(
        out_dir=out,
        nodes_path=nodes_path,
        segments_path=segments_path,
        trips_path=trips_path,
        truth_path=truth_path,
        trip_truth_path=trip_truth_path,
        n_drivers=spec.n_drivers,
        n_trips=len(trip_truth),
        abnormal_drivers=abnormal,
        kind_counts=kind_counts,
    )
