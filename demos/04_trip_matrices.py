"""Edge-attributed matrices and trip features, normal vs looped.

The same origin-destination trip is shown twice: as driven normally,
and with a spliced loop. The loop shows up as revisited rows in the
matrix and shifts the shape features.

Run: python3 demos/04_trip_matrices.py
"""

import numpy as np

from tripsift.features import FEATURE_NAMES, extract_features
from tripsift.matching import match_trip
from tripsift.model import AnalysisConfig
from tripsift.synth import SynthSpec, build_world, generate_normal_trip, inject_anomaly
from tripsift.tripgraph import build_trip_graph


def show(world, planned, label: str):
    config = AnalysisConfig(alpha=0.0)
    matched = match_trip(planned.to_trip(), world.network, config)
    graph = build_trip_graph(matched, world.network)

    print(f"--- {label} ---")
    print(f"node path: {planned.node_path}")
    print(f"{'seg':>4s} {'dir':>4s} {'visits':>7s} {'len_m':>8s} {'speed':>6s}")
    for row in graph.rows:
        print(f"{row.segment_id:4d} {row.direction:+4d} {row.n_traversals:7d} "
              f"{row.length_m:8.1f} {row.avg_speed_mps:6.2f}")
    print(f"trip length {graph.trip_length_m:.0f} m, "
          f"net displacement {graph.net_displacement_m:.0f} m")
    return extract_features(graph)


def main() -> None:
    world = build_world(SynthSpec(rows=5, cols=5))
    rng = np.random.default_rng(9)

    base = generate_normal_trip(world, 3, 1, world.node_id(1, 0),
                                world.node_id(1, 4), 0, rng)
    looped = inject_anomaly(world, base, "loop", rng)

    f_base = show(world, base, "normal trip")
    print()
    f_loop = show(world, looped, "same trip with a spliced loop")

    print()
    print(f"{'feature':32s} {'normal':>8s} {'looped':>8s}")
    for name, a, b in zip(FEATURE_NAMES, f_base.to_array(), f_loop.to_array()):
        marker = "  <-" if not np.isclose(a, b) else ""
        print(f"{name:32s} {a:8.3f} {b:8.3f}{marker}")


if __name__ == "__main__":
    main()
