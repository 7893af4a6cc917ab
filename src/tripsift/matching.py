"""Map matching: snap GPS points onto nearby road segments.

A matched trip keeps its trip's columns, the indices of the points that
snapped, the directed edge (segment_id and direction arrays) of each,
and the snap results of its first and last matched points.
nearest_segment is the one snapping function: it takes one point, or
lat/lon columns of any length. snap_trips feeds it runs of whole trips,
joined into chunks of up to CHUNK_POINTS points (a longer trip alone);
match_trip turns a trip's snaps into a MatchedTrip or a rejection, or a
whole run's snaps into one MatchedTrip of its matched trips, which lists
the rejected ones.

Candidate lookup runs on a uniform grid keyed by a fixed equirectangular
projection of the network's bounding box. A point's candidates are every
segment registered in the box of cells within the snap radius (plus
slack for the projection mismatch) of its home cell, the box clamped to
the occupied cells. Exact distances are computed for all points and
candidates as one block, with a projection anchored at each point and
each segment treated as a locally planar chord; the arithmetic is that
of point_segment_distance, so results equal an exhaustive scan.
Accuracy assumes city-scale networks at sane latitudes (below roughly
85 deg).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .geo import DEG_TO_RAD, EARTH_RADIUS_M, RAD_TO_DEG, initial_bearing_deg
from .model import AnalysisConfig, RoadNetwork, RoadNode, Trip

DEFAULT_CELL_SIZE_M = 200.0

# conservative gate: projected distance may disagree with the anchored
# chord distance, so the searched box is inflated by this much
_SLACK_FACTOR = 1.05
_SLACK_M = 10.0
# a chord is registered in the cells within this distance of its computed
# path, which covers rounding in the cell crossings many times over
_EDGE_M = 1e-3

# squared distances rank the candidates; where the best two squares lie
# within this relative band, or this absolute floor, math.hypot decides
_TIE_BAND = 1e-9
_TIE_FLOOR = 1e-300

_NO_CANDIDATES = np.empty(0, dtype=np.intp)
_NO_CANDIDATES.setflags(write=False)

# points per nearest_segment call in snap_trips, unless one trip is longer.
# The call's block is these points times the widest candidate box among
# them, so this bounds its memory; numpy's fixed cost per call is already
# small at this size, and at 2048 the run's peak RSS rose by 3 MB on a
# 24-segment network where every box holds the whole network
CHUNK_POINTS = 1024

# points per run of chunks that snap_trips gives, unless one chunk is
# longer. A run is matched and its graphs built as one table of a few
# arrays per point, so this bounds their memory; below it, numpy's fixed
# cost per call shows (on 290-point trips, 1024-point runs took twice as long)
RUN_POINTS = 16384


@dataclass(frozen=True)
class SnapResult:
    """A snap: scalars for one point, or equal-length arrays for many.

    In the array form segment_id is -1, and the other fields NaN, where
    no segment lies within the snap radius.
    """

    segment_id: Union[int, np.ndarray]
    distance_m: Union[float, np.ndarray]
    lat: Union[float, np.ndarray]
    lon: Union[float, np.ndarray]

    def at(self, i: int) -> SnapResult:
        """Row i of an array result, as a scalar SnapResult."""
        return SnapResult(int(self.segment_id[i]), float(self.distance_m[i]),
                          float(self.lat[i]), float(self.lon[i]))

    def take(self, index: np.ndarray) -> SnapResult:
        """The rows at index of an array result, as arrays."""
        return SnapResult(self.segment_id[index], self.distance_m[index],
                          self.lat[index], self.lon[index])


@dataclass
class MatchedTrip:
    """A trip and the points of it that snapped, or the matched trips of a
    run and their points.

    kept holds the indices of those points into the trip's columns (into
    the trips' columns joined trip after trip), in order; segment_id and
    direction hold the directed edge of each (+1 with the segment's
    from->to orientation, -1 against it). first_snap and last_snap are the
    snap results of the first and last of them: scalars for one trip, and
    arrays with one entry per trip for a run, as matched_fraction is. A
    run also lists its rejected trips, each as (reason, driver_id,
    trip_id, n_matched).
    """

    trip: Union[Trip, list[Trip]]
    kept: np.ndarray
    segment_id: np.ndarray
    direction: np.ndarray
    first_snap: SnapResult
    last_snap: SnapResult
    matched_fraction: Union[float, np.ndarray]
    rejected: list[tuple[str, int, int, int]] = field(default_factory=list)


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
    """Uniform grid over the network's projected bounding box, plus the
    network's segment geometry as arrays.

    Every segment is registered in each cell its projected chord crosses,
    found column by column, so a long diagonal segment takes cells in
    proportion to its length, not to its bounding box's area.
    Cells are sparse (dict keyed by integer cell coordinates). Segments
    are addressed by position in the sorted id array, so a lower
    position is a lower id.
    """

    def __init__(self, network: RoadNetwork, cell_size_m: float = DEFAULT_CELL_SIZE_M):
        if cell_size_m <= 0.0:
            raise ValueError("cell size must be positive")
        if not network.segments:
            raise ValueError("network has no segments")
        self.cell_size_m = cell_size_m
        lats = [n.lat for n in network.nodes.values()]
        lons = [n.lon for n in network.nodes.values()]
        self.lat0 = min(lats) if lats else 0.0
        self.lon0 = min(lons) if lons else 0.0
        mid_lat = (min(lats) + max(lats)) / 2.0 if lats else 0.0
        self.cos_ref = max(math.cos(math.radians(mid_lat)), 1e-12)
        self.cells: dict[tuple[int, int], list[int]] = {}

        ids = sorted(network.segments)
        ends = [network.segment_endpoints(seg_id) for seg_id in ids]
        for seg_id, (a, b) in zip(ids, ends):
            for cell in self._chord_cells(*self.project(a.lat, a.lon), *self.project(b.lat, b.lon)):
                self.cells.setdefault(cell, []).append(seg_id)

        if self.cells:
            xs = [c[0] for c in self.cells]
            ys = [c[1] for c in self.cells]
            self._cell_bounds = (min(xs), max(xs), min(ys), max(ys))
        else:
            self._cell_bounds = (0, 0, 0, 0)

        self.segment_ids = np.array(ids, dtype=np.int64)
        self.length_m = np.array([network.segments[seg_id].length_m for seg_id in ids], dtype=float)
        self.a_lat = np.array([a.lat for a, _ in ends], dtype=float)
        self.a_lon = np.array([a.lon for a, _ in ends], dtype=float)
        self.b_lat = np.array([b.lat for _, b in ends], dtype=float)
        self.b_lon = np.array([b.lon for _, b in ends], dtype=float)
        # from->to bearing; NaN for a zero-length segment, whose direction is undefined
        self.bearing = np.array(
            [math.nan if (a.lat, a.lon) == (b.lat, b.lon)
             else initial_bearing_deg(a.lat, a.lon, b.lat, b.lon) for a, b in ends],
            dtype=float)
        self._boxes: dict[tuple[int, int, int, int], np.ndarray] = {}

    def _chord_cells(self, ax: float, ay: float, bx: float, by: float) -> list[tuple[int, int]]:
        """The cells the projected chord from (ax, ay) to (bx, by) crosses,
        column by column, within its bounding box of cells.

        In each column the chord's y range is widened by _EDGE_M on either
        side, so a chord that runs along or through a cell edge or corner
        is registered on both sides of it whatever the rounding.
        """
        cell = self.cell_size_m
        ix0, ix1 = math.floor(min(ax, bx) / cell), math.floor(max(ax, bx) / cell)
        iy0, iy1 = math.floor(min(ay, by) / cell), math.floor(max(ay, by) / cell)
        if ix0 == ix1 or iy0 == iy1:
            # one column or row of cells: the chord crosses all of its box
            return [(ix, iy) for ix in range(ix0, ix1 + 1) for iy in range(iy0, iy1 + 1)]
        if ax > bx:
            ax, ay, bx, by = bx, by, ax, ay
        slope = (by - ay) / (bx - ax)
        cells = []
        for ix in range(ix0, ix1 + 1):
            # the chord's y where it enters and leaves the column
            y0 = ay + slope * (max(ix * cell, ax) - ax)
            y1 = ay + slope * (min((ix + 1) * cell, bx) - ax)
            lo = max(math.floor((min(y0, y1) - _EDGE_M) / cell), iy0)
            hi = min(math.floor((max(y0, y1) + _EDGE_M) / cell), iy1)
            cells += [(ix, iy) for iy in range(lo, hi + 1)]
        return cells

    def project(self, lat: float, lon: float) -> tuple[float, float]:
        x = math.radians(lon - self.lon0) * EARTH_RADIUS_M * self.cos_ref
        y = math.radians(lat - self.lat0) * EARTH_RADIUS_M
        return x, y

    def candidates(self, ci: int, cj: int, rings: int) -> np.ndarray:
        """Sorted positions of the segments in the cells within `rings` of
        cell (ci, cj), the box clamped to the occupied cells; cached per box."""
        ix0, ix1, iy0, iy1 = self._cell_bounds
        box = i0, i1, j0, j1 = (max(ci - rings, ix0), min(ci + rings, ix1),
                                max(cj - rings, iy0), min(cj + rings, iy1))
        if i0 > i1 or j0 > j1:
            return _NO_CANDIDATES
        found = self._boxes.get(box)
        if found is None:
            ids = sorted({seg_id for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)
                          for seg_id in self.cells.get((i, j), ())})
            found = self._boxes[box] = np.searchsorted(self.segment_ids, ids)
            found.setflags(write=False)  # shared by every caller
        return found


def build_spatial_index(network: RoadNetwork, cell_size_m: float = DEFAULT_CELL_SIZE_M) -> SegmentGrid:
    """Build the uniform grid index for a network."""
    return SegmentGrid(network, cell_size_m)


def grid_of(network: RoadNetwork) -> SegmentGrid:
    """The network's spatial index, built on first use."""
    if network.index is None:
        network.index = build_spatial_index(network)
    return network.index


def nearest_segment(
    lat: Union[float, np.ndarray],
    lon: Union[float, np.ndarray],
    network: RoadNetwork,
    max_snap_distance_m: float,
) -> Optional[SnapResult]:
    """Closest segment within the snap radius, for one point or for arrays of points.

    Equals an exhaustive scan over all segments with
    point_segment_distance, exactly: each point's candidates are the
    segments of the clamped box of cells around its home cell, which
    holds every segment the radius can reach; distances to all of them
    come from one points x candidates block computed in the scalar
    function's operation order; ties on distance go to the lower
    segment id.

    Returns:
        For scalar lat/lon, a SnapResult or None when nothing is in range.
        For arrays, one SnapResult of arrays, with segment_id -1 (and NaN
        elsewhere) on the rows where nothing is in range.
    """
    grid = grid_of(network)
    scalar = np.ndim(lat) == 0
    lat = np.atleast_1d(np.asarray(lat, dtype=float))
    lon = np.atleast_1d(np.asarray(lon, dtype=float))
    n = len(lat)
    cell = grid.cell_size_m
    rings = int((_SLACK_FACTOR * max_snap_distance_m + _SLACK_M) / cell) + 1

    # home cells, by the arithmetic of SegmentGrid.project; one candidate
    # lookup per distinct cell (as the complex ci + j*cj), numbered home[k] for point k
    ci = np.floor((lon - grid.lon0) * DEG_TO_RAD * EARTH_RADIUS_M * grid.cos_ref / cell)
    cj = np.floor((lat - grid.lat0) * DEG_TO_RAD * EARTH_RADIUS_M / cell)
    _, first, home = np.unique(ci + 1j * cj, return_index=True, return_inverse=True)
    boxes = [grid.candidates(i, j, rings) for i, j in
             zip(ci[first].astype(np.int64).tolist(), cj[first].astype(np.int64).tolist())]
    # pad every cell's box to the widest; padding points at position 0 and is masked off
    lengths = np.fromiter(map(len, boxes), np.intp, len(boxes))
    width = max(lengths.max(initial=0), 1)
    filled = np.arange(width) < lengths[:, None]
    pos = np.zeros(filled.shape, dtype=np.intp)
    pos[filled] = np.concatenate(boxes) if boxes else []
    pos, filled = pos[home], filled[home]

    cos_ref = np.fromiter(map(math.cos, (lat * DEG_TO_RAD).tolist()), float, n)
    kx = EARTH_RADIUS_M * np.maximum(cos_ref, 1e-12)
    lat_col, lon_col, kx_col = lat[:, None], lon[:, None], kx[:, None]
    ax = (grid.a_lon[pos] - lon_col) * DEG_TO_RAD * kx_col
    ay = (grid.a_lat[pos] - lat_col) * DEG_TO_RAD * EARTH_RADIUS_M
    bx = (grid.b_lon[pos] - lon_col) * DEG_TO_RAD * kx_col
    by = (grid.b_lat[pos] - lat_col) * DEG_TO_RAD * EARTH_RADIUS_M
    dx = bx - ax
    dy = by - ay
    seg_len2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-(ax * dx + ay * dy) / seg_len2, 0.0, 1.0)
    t[seg_len2 == 0.0] = 0.0
    cx = ax + t * dx
    cy = ay + t * dy
    sq = cx * cx + cy * cy
    sq[~filled] = math.inf

    # the least square picks the winner, except where the best two lie within
    # rounding of each other (relatively, or absolutely below the range where
    # squares keep their precision): there math.hypot decides, as in the scalar scan
    rows = np.arange(n)
    best = sq.argmin(axis=1)
    lowest = sq[rows, best]
    near = sq <= lowest[:, None] * (1.0 + _TIE_BAND) + _TIE_FLOOR
    for r in np.flatnonzero((near.sum(axis=1) > 1) & (lowest < math.inf)).tolist():
        best[r] = min(np.flatnonzero(near[r]).tolist(),
                      key=lambda k: (math.hypot(cx[r, k], cy[r, k]), pos[r, k]))

    cx, cy = cx[rows, best], cy[rows, best]
    dist = np.fromiter(map(math.hypot, cx.tolist(), cy.tolist()), float, n)
    hit = filled[rows, best] & (dist <= max_snap_distance_m)
    snaps = SnapResult(np.where(hit, grid.segment_ids[pos[rows, best]], -1),
                       np.where(hit, dist, math.nan),
                       np.where(hit, lat + (cy / EARTH_RADIUS_M) * RAD_TO_DEG, math.nan),
                       np.where(hit, lon + (cx / kx) * RAD_TO_DEG, math.nan))
    if scalar:
        return snaps.at(0) if hit[0] else None
    return snaps


def travel_direction(
    cog_deg: Union[float, np.ndarray], segment_bearing_deg: Union[float, np.ndarray]
) -> Union[int, np.ndarray]:
    """+1 when the course runs with the segment's from->to orientation, else -1.

    The course runs with the segment when circular_diff_deg puts it
    within 90 deg of the segment's bearing, so an exactly perpendicular
    course counts as +1. Takes scalars or arrays; fmod, abs and the fold
    360 - d above 180 are exact, so both forms decide alike.
    """
    d = np.fmod(np.abs(np.subtract(cog_deg, segment_bearing_deg)), 360.0)
    direction = np.where((d <= 90.0) | (d >= 270.0), 1, -1)
    return int(direction) if direction.ndim == 0 else direction


def snap_trips(
    trips: Sequence[Trip], network: RoadNetwork, max_snap_distance_m: float
) -> Iterator[tuple[Sequence[Trip], SnapResult]]:
    """Runs of consecutive whole trips, in order, each with the snaps of its
    points, trip after trip.

    A chunk of trips is grown while the next trip still fits in
    CHUNK_POINTS points (a longer trip is a chunk of its own) and snapped
    in one nearest_segment call; a run is grown from chunks while the next
    still fits in RUN_POINTS points. A point's snap does not depend on the
    other points of its call, so it equals nearest_segment on the trip
    alone. Runs are snapped as they are consumed, so one is held at a time.
    """
    start, run, snaps, run_size = 0, [], [], 0
    while start < len(trips):
        stop, size = start + 1, len(trips[start])
        while stop < len(trips) and size + len(trips[stop]) <= CHUNK_POINTS:
            size += len(trips[stop])
            stop += 1
        chunk = trips[start:stop]
        if run and run_size + size > RUN_POINTS:
            yield run, SnapResult(*map(np.concatenate, zip(*snaps)))
            run, snaps, run_size = [], [], 0
        got = nearest_segment(np.concatenate([t.lat for t in chunk]),
                              np.concatenate([t.lon for t in chunk]), network, max_snap_distance_m)
        run += chunk
        run_size += size
        snaps.append((got.segment_id, got.distance_m, got.lat, got.lon))
        start = stop
    if run:
        yield run, SnapResult(*map(np.concatenate, zip(*snaps)))


def match_trip(
    trip: Union[Trip, Sequence[Trip]], network: RoadNetwork, config: AnalysisConfig,
    snaps: Optional[SnapResult] = None,
) -> MatchedTrip:
    """Turn the snaps of one trip, or of a run of trips, into matched points
    and directed edges.

    `snaps` holds the array snaps of the points at
    config.max_snap_distance_m, trip after trip, as snap_trips gives them;
    without it the points are snapped here, in one nearest_segment call.
    Points with no segment in range are dropped. A trip is rejected when
    nothing matches or when its matched fraction falls below
    config.min_matched_fraction. A run gives one MatchedTrip of its
    matched trips, which lists the rejected ones.

    Raises:
        MatchRejected: one trip rejected, reason "empty_match" or "poor_match".
        ValueError: a point snapped to a zero-length segment, whose
            direction is undefined; checked over every snapped point,
            rejected trips' included, before any rejection.
    """
    one = isinstance(trip, Trip)
    run = [trip] if one else trip
    if snaps is None:
        snaps = nearest_segment(np.concatenate([t.lat for t in run]),
                                np.concatenate([t.lon for t in run]),
                                network, config.max_snap_distance_m)
    grid = grid_of(network)
    sizes = np.array([len(t.lat) for t in run])
    point_trip = np.repeat(np.arange(len(run)), sizes)
    hit = np.flatnonzero(snaps.segment_id >= 0)
    bearing = grid.bearing[np.searchsorted(grid.segment_ids, snaps.segment_id[hit])]
    if np.isnan(bearing).any():
        raise ValueError("undefined bearing: a point snapped to a zero-length segment")

    n_matched = np.bincount(point_trip[hit], minlength=len(run))
    fraction = n_matched / sizes
    poor = fraction < config.min_matched_fraction
    reason = np.where(n_matched == 0, "empty_match", np.where(poor, "poor_match", "")).tolist()
    if one and reason[0]:
        raise MatchRejected(reason[0], trip.driver_id, trip.trip_id, int(n_matched[0]),
                            float(fraction[0]))
    accepted = (n_matched > 0) & ~poor
    on = accepted[point_trip[hit]]
    kept = hit[on]
    owner = point_trip[kept]
    # each matched trip's first and last points: where its run of owners starts and ends
    first = snaps.take(kept[np.flatnonzero(np.diff(owner, prepend=-1))])
    last = snaps.take(kept[np.flatnonzero(np.diff(owner, append=len(run)))])
    direction = travel_direction(np.concatenate([t.cog_deg for t in run])[kept], bearing[on])
    if one:
        return MatchedTrip(trip, kept, snaps.segment_id[kept], direction, first.at(0), last.at(0),
                           float(fraction[0]))
    # the points of rejected trips before a point are not in the matched trips' columns
    skipped = np.cumsum(np.where(accepted, 0, sizes))
    return MatchedTrip(
        [t for t, ok in zip(run, accepted.tolist()) if ok], kept - skipped[owner],
        snaps.segment_id[kept], direction, first, last, fraction[accepted],
        [(r, t.driver_id, t.trip_id, n) for t, r, n in zip(run, reason, n_matched.tolist()) if r])
