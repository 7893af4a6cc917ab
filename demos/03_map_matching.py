"""Snap a noisy trajectory onto the road network it was driven on.

Run: python3 demos/03_map_matching.py
"""

from dataclasses import replace

import numpy as np

from tripsift.matching import match_trip, nearest_segment
from tripsift.model import AnalysisConfig, Trip
from tripsift.synth import SynthSpec, build_world, generate_normal_trip

GPS_NOISE_M = 6.0
M_PER_DEG_LAT = 111_194.9


def add_noise(trip: Trip, rng: np.random.Generator) -> Trip:
    """Scatter each fix a few meters off the road, like a real receiver."""
    lat_scale = 1.0 / M_PER_DEG_LAT
    lon_scale = lat_scale / np.cos(np.radians(trip.lat[0]))
    noise = rng.normal(0.0, GPS_NOISE_M, size=(len(trip), 2))
    return replace(trip, lat=trip.lat + noise[:, 0] * lat_scale,
                   lon=trip.lon + noise[:, 1] * lon_scale)


def main() -> None:
    world = build_world(SynthSpec(rows=5, cols=5))
    rng = np.random.default_rng(42)

    # an L-shaped drive: three blocks east, two blocks north
    planned = generate_normal_trip(world, 1, 1, world.node_id(0, 0),
                                   world.node_id(2, 3), 0, rng)
    trip = add_noise(planned.to_trip(), rng)
    print(f"sampled {len(trip)} points along node path {planned.node_path}")
    print(f"added {GPS_NOISE_M:.0f} m gaussian position noise")

    config = AnalysisConfig(alpha=0.0)
    matched = match_trip(trip, world.network, config)
    snaps = nearest_segment(trip.lat[matched.kept], trip.lon[matched.kept], world.network,
                            config.max_snap_distance_m).distance_m
    print(f"matched fraction: {matched.matched_fraction[0]:.3f}")
    print(f"snap distance:    median {np.median(snaps):.2f} m, max {max(snaps):.2f} m")

    segs = np.unique(matched.segment_id).tolist()
    print(f"segments visited: {segs}")

    # single-point lookups work without a trip
    mid = len(trip) // 2
    snap = nearest_segment(trip.lat[mid], trip.lon[mid], world.network, config.max_snap_distance_m)
    print(f"midpoint snaps to segment {snap.segment_id} at {snap.distance_m:.2f} m")

    # the same trip through an absurdly tight radius gets refused
    print()
    tight = AnalysisConfig(alpha=0.0, max_snap_distance_m=0.05)
    for reason, driver_id, trip_id, n_matched in match_trip(trip, world.network, tight).rejected:
        print(f"with a 5 cm radius: trip ({driver_id},{trip_id}) rejected: {reason} "
              f"(matched fraction {n_matched / len(trip):.3f})")


if __name__ == "__main__":
    main()
