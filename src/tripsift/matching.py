"""Map matching: snap GPS points onto nearby road segments.

A matched trip keeps the points that snapped, the directed edge key
(segment_id, direction) of each, and the snap results of its first and
last matched points; nearest_segment answers single-point queries.

Candidate lookup runs on a uniform grid keyed by a fixed equirectangular
projection of the network's bounding box; exact distances are computed
per query with a projection anchored at the query point, treating each
segment as a locally planar chord. Grid distances only gate the search,
so ring expansion carries slack for the projection mismatch; accuracy
assumes city-scale networks at sane latitudes (below roughly 85 deg).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .geo import EARTH_RADIUS_M, initial_bearing_deg
from .model import AnalysisConfig, RoadNetwork, RoadNode, TrajectoryPoint, Trip

DEFAULT_CELL_SIZE_M = 200.0

# conservative gate: projected distance may disagree with the anchored
# chord distance, so bounds are inflated before pruning grid rings
_SLACK_FACTOR = 1.05
_SLACK_M = 10.0


@dataclass(frozen=True)
class SnapResult:
    segment_id: int
    distance_m: float
    lat: float
    lon: float


EdgeKey = tuple[int, int]  # (segment_id, direction): +1 with segment orientation, -1 against


@dataclass
class MatchedTrip:
    """The points of a trip that snapped, each with its directed edge key.

    edges[i] is the key of points[i]; first_snap and last_snap are the
    snap results of the first and last of those points.
    """

    driver_id: int
    trip_id: int
    points: list[TrajectoryPoint]
    edges: list[EdgeKey]
    first_snap: SnapResult
    last_snap: SnapResult
    matched_fraction: float


class MatchRejected(Exception):
    """Trip could not be matched well enough to keep."""

    def __init__(self, reason: str, driver_id: int, trip_id: int, n_matched: int,
                 matched_fraction: float):
        super().__init__(f"trip ({driver_id},{trip_id}) rejected: {reason} "
                         f"(matched fraction {matched_fraction:.3f})")
        self.reason = reason
        self.driver_id = driver_id
        self.trip_id = trip_id
        self.n_matched = n_matched
        self.matched_fraction = matched_fraction


def point_segment_distance(
    lat: float, lon: float, a: RoadNode, b: RoadNode
) -> tuple[float, float, float]:
    """Distance from a point to the chord between two nodes.

    The sphere is flattened with an equirectangular projection anchored
    at the query point, the point is projected onto the chord, and the
    planar distance is returned together with the projected position.

    Returns:
        (distance_m, projected_lat, projected_lon)
    """
    cos_ref = math.cos(math.radians(lat))
    if cos_ref < 1e-12:
        cos_ref = 1e-12
    kx = EARTH_RADIUS_M * cos_ref
    ax = math.radians(a.lon - lon) * kx
    ay = math.radians(a.lat - lat) * EARTH_RADIUS_M
    bx = math.radians(b.lon - lon) * kx
    by = math.radians(b.lat - lat) * EARTH_RADIUS_M
    dx = bx - ax
    dy = by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        t = 0.0
    else:
        t = -(ax * dx + ay * dy) / seg_len2
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    cx = ax + t * dx
    cy = ay + t * dy
    dist = math.hypot(cx, cy)
    plat = lat + math.degrees(cy / EARTH_RADIUS_M)
    plon = lon + math.degrees(cx / kx)
    return dist, plat, plon


class SegmentGrid:
    """Uniform grid over the network's projected bounding box.

    Every segment is registered in each cell its bounding box overlaps,
    so a radius query only needs the rings of cells around the query
    point. Cells are sparse (dict keyed by integer cell coordinates).
    """

    def __init__(self, network: RoadNetwork, cell_size_m: float = DEFAULT_CELL_SIZE_M):
        if cell_size_m <= 0.0:
            raise ValueError("cell size must be positive")
        self.cell_size_m = cell_size_m
        lats = [n.lat for n in network.nodes.values()]
        lons = [n.lon for n in network.nodes.values()]
        self.lat0 = min(lats) if lats else 0.0
        self.lon0 = min(lons) if lons else 0.0
        mid_lat = (min(lats) + max(lats)) / 2.0 if lats else 0.0
        self.cos_ref = max(math.cos(math.radians(mid_lat)), 1e-12)
        self.cells: dict[tuple[int, int], list[int]] = {}

        for seg_id in sorted(network.segments):
            seg = network.segments[seg_id]
            a = network.nodes[seg.from_node]
            b = network.nodes[seg.to_node]
            ax, ay = self.project(a.lat, a.lon)
            bx, by = self.project(b.lat, b.lon)
            ix0 = math.floor(min(ax, bx) / cell_size_m)
            ix1 = math.floor(max(ax, bx) / cell_size_m)
            iy0 = math.floor(min(ay, by) / cell_size_m)
            iy1 = math.floor(max(ay, by) / cell_size_m)
            for ix in range(ix0, ix1 + 1):
                for iy in range(iy0, iy1 + 1):
                    self.cells.setdefault((ix, iy), []).append(seg_id)

        if self.cells:
            xs = [c[0] for c in self.cells]
            ys = [c[1] for c in self.cells]
            self._cell_bounds = (min(xs), max(xs), min(ys), max(ys))
        else:
            self._cell_bounds = (0, 0, 0, 0)

    def project(self, lat: float, lon: float) -> tuple[float, float]:
        x = math.radians(lon - self.lon0) * EARTH_RADIUS_M * self.cos_ref
        y = math.radians(lat - self.lat0) * EARTH_RADIUS_M
        return x, y

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.cell_size_m), math.floor(y / self.cell_size_m)

    def rings_to_cover(self, ci: int, cj: int) -> int:
        """Ring count from a cell out to the farthest occupied cell."""
        ix0, ix1, iy0, iy1 = self._cell_bounds
        return max(abs(ci - ix0), abs(ci - ix1), abs(cj - iy0), abs(cj - iy1))

    def ring_cells(self, ci: int, cj: int, k: int) -> Iterator[tuple[int, int]]:
        """Cells at Chebyshev distance exactly k from (ci, cj)."""
        if k == 0:
            yield (ci, cj)
            return
        for ix in range(ci - k, ci + k + 1):
            yield (ix, cj - k)
            yield (ix, cj + k)
        for iy in range(cj - k + 1, cj + k):
            yield (ci - k, iy)
            yield (ci + k, iy)


def build_spatial_index(network: RoadNetwork, cell_size_m: float = DEFAULT_CELL_SIZE_M) -> SegmentGrid:
    """Build the uniform grid index for a network."""
    return SegmentGrid(network, cell_size_m)


def _grid_of(network: RoadNetwork) -> SegmentGrid:
    if network.index is None:
        network.index = build_spatial_index(network)
    return network.index


def nearest_segment(
    lat: float, lon: float, network: RoadNetwork, max_snap_distance_m: float
) -> Optional[SnapResult]:
    """Closest segment within the snap radius, or None.

    Matches an exhaustive scan over all segments exactly: candidate
    cells are expanded ring by ring until no unvisited ring can beat
    the best distance found, and ties on distance go to the lower
    segment id.
    """
    grid = _grid_of(network)
    px, py = grid.project(lat, lon)
    ci, cj = grid.cell_of(px, py)
    cell = grid.cell_size_m

    snap_rings = int((_SLACK_FACTOR * max_snap_distance_m + _SLACK_M) / cell) + 1
    k_cap = min(snap_rings, grid.rings_to_cover(ci, cj))

    best: Optional[tuple[float, int, float, float]] = None
    seen: set[int] = set()
    for k in range(k_cap + 1):
        if best is not None and (k - 1) * cell > _SLACK_FACTOR * best[0] + _SLACK_M:
            break
        for cell_key in grid.ring_cells(ci, cj, k):
            for seg_id in grid.cells.get(cell_key, ()):
                if seg_id in seen:
                    continue
                seen.add(seg_id)
                a, b = network.segment_endpoints(seg_id)
                dist, plat, plon = point_segment_distance(lat, lon, a, b)
                if best is None or (dist, seg_id) < (best[0], best[1]):
                    best = (dist, seg_id, plat, plon)

    if best is None or best[0] > max_snap_distance_m:
        return None
    return SnapResult(segment_id=best[1], distance_m=best[0], lat=best[2], lon=best[3])


def travel_direction(cog_deg: float, segment_bearing_deg: float) -> int:
    """+1 when the course runs with the segment's from->to orientation, else -1.

    Decided by the sign of the dot product between the two unit
    vectors; an exactly perpendicular course counts as +1.
    """
    dot = math.cos(math.radians(cog_deg - segment_bearing_deg))
    return 1 if dot >= 0.0 else -1


def match_trip(trip: Trip, network: RoadNetwork, config: AnalysisConfig) -> MatchedTrip:
    """Snap every point of a trip to its nearest segment.

    Points with no segment within config.max_snap_distance_m are
    dropped. The trip is rejected when nothing matches or when the
    matched fraction falls below config.min_matched_fraction.

    Raises:
        MatchRejected: reason "empty_match" or "poor_match".
    """
    bearings: dict[int, float] = {}
    points: list[TrajectoryPoint] = []
    edges: list[EdgeKey] = []
    first_snap = last_snap = None
    for p in trip.points:
        snap = nearest_segment(p.lat, p.lon, network, config.max_snap_distance_m)
        if snap is None:
            continue
        bearing = bearings.get(snap.segment_id)
        if bearing is None:
            a, b = network.segment_endpoints(snap.segment_id)
            bearing = initial_bearing_deg(a.lat, a.lon, b.lat, b.lon)
            bearings[snap.segment_id] = bearing
        points.append(p)
        edges.append((snap.segment_id, travel_direction(p.cog_deg, bearing)))
        if first_snap is None:
            first_snap = snap
        last_snap = snap

    fraction = len(points) / len(trip.points)
    if not points:
        raise MatchRejected("empty_match", trip.driver_id, trip.trip_id, 0, fraction)
    if fraction < config.min_matched_fraction:
        raise MatchRejected("poor_match", trip.driver_id, trip.trip_id, len(points), fraction)
    return MatchedTrip(trip.driver_id, trip.trip_id, points, edges, first_snap, last_snap,
                       fraction)
