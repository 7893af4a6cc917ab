"""The benchmark's workloads: how each input set is built from a seed.

Each workload is a SynthSpec plus, for ``field``, a seeded degradation of
the generated trips.csv. The program under test only ever sees the CSV
files written here. Building a workload also returns what a correct run
must report about those files, so every run can be checked.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tripsift.synth import SynthSpec, generate_dataset

M_PER_DEG_LAT = 111_320.0


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict                      # SynthSpec fields; rng_seed comes from --seed
    workers: int                    # value passed to `tripsift pipeline --workers`
    degrade: bool                   # apply the field-data degradation below
    why: str
    predictions: tuple[str, ...]    # layer -> end-to-end metric, written before measuring


# Sizes keep one pipeline run at roughly 2.5-4.5 s on a 2-core host, so a
# 35 s window holds about eight runs, and give each workload enough drivers
# and trips per driver that f1 barely moves from seed to seed. On field,
# 60 drivers x 16 trips puts f1 at 1.0 or 0.917 (one driver missed) over 16
# seeds; 80 x 12 spread it over 0.875-1.0, and 50 x 20 pinned it at 1.0,
# where a matcher change could no longer raise it.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="city",
            spec=dict(rows=20, cols=20, n_drivers=30, trips_per_driver=12,
                      sample_period_s=2, abnormal_driver_fraction=0.2),
            workers=2,
            degrade=False,
            why=("points-heavy: long trips (~290 points) on a 20x20 grid, so per-point "
                 "ingest and matching dominate; the only workload on the threaded matching "
                 "path (--workers 2)"),
            predictions=(
                "ingest -> wall_s, peak_rss_mb",
                "matching -> wall_s",
                "tripgraph.events_s -> no change (events come from the file)",
                "iforest -> wall_s, barely",
                "features -> no change",
            ),
        ),
        Workload(
            name="fleet",
            spec=dict(n_drivers=250, trips_per_driver=10, sample_period_s=10,
                      abnormal_driver_fraction=0.2),
            workers=1,
            degrade=False,
            why=("trips-heavy: 2500 short trips (~22 points) on the default 6x6 grid, so "
                 "forest scoring (trips x trees Python walks), per-trip graph and feature "
                 "overhead and summary.json writing are large"),
            predictions=(
                "ingest -> wall_s",
                "tripgraph.graphs_s, tripgraph.us_per_trip -> wall_s",
                "iforest -> wall_s",
                "scoring -> wall_s",
                "tripgraph.events_s -> no change (events come from the file)",
                "features -> no change",
            ),
        ),
        Workload(
            name="field",
            spec=dict(rows=4, cols=4, spacing_m=200.0, n_drivers=60, trips_per_driver=16,
                      abnormal_driver_fraction=0.2),
            workers=1,
            degrade=True,
            why=("field data: no event columns, 8 m position noise, ~1% corrupt rows and "
                 "a few off-network trips, so ingest rejection, derived events and noisy "
                 "snapping run, and matcher changes show in f1"),
            predictions=(
                "ingest -> wall_s",
                "matching -> wall_s, f1",
                "tripgraph.events_s -> wall_s (this workload only)",
                "features -> no change",
            ),
        ),
    )
}

# field degradation
NOISE_SIGMA_M = 8.0
CORRUPT_SHARE = 0.01
MOVED_TRIPS = 3
MOVE_NORTH_DEG = 0.1        # ~11 km: far beyond any max_snap_distance_m in use
CORRUPTIONS = {             # injected defect -> the rejection reason ingest must give
    "nan_lat": "lat_out_of_range",
    "text_speed": "non_numeric",
    "truncated": "bad_field_count",
    "duplicate_timestamp": "duplicate_timestamp",
}
N_TRAJECTORY_COLUMNS = 8    # trips.csv columns before hard_accel, hard_brake


@dataclass
class Dataset:
    """Paths of one built workload and what a correct run reports on it."""

    dir: Path
    trips_path: Path
    truth_path: Path
    data_rows: int
    rejection_reasons: dict[str, int] = field(default_factory=dict)
    match_rejections: dict[str, int] = field(default_factory=dict)


def build(workload: Workload, seed: int, out_dir: Path) -> Dataset:
    """Generate the workload's input files into out_dir."""
    summary = generate_dataset(SynthSpec(rng_seed=seed, **workload.spec), out_dir)
    if workload.degrade:
        return _degrade(summary.trips_path, summary.truth_path, random.Random(seed))
    with open(summary.trips_path, "rb") as fh:
        data_rows = sum(1 for _ in fh) - 1
    return Dataset(out_dir, summary.trips_path, summary.truth_path, data_rows)


def _degrade(trips_path: Path, truth_path: Path, rng: random.Random) -> Dataset:
    """Rewrite trips.csv in place as field data, recording the expected rejections.

    Moved trips are taken from distinct drivers, and corruptions hit
    distinct rows, so every driver keeps scoreable trips and every
    injected defect maps to exactly one rejection reason.
    """
    with open(trips_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)[:N_TRAJECTORY_COLUMNS]
        rows = [row[:N_TRAJECTORY_COLUMNS] for row in reader]
    lat_col, lon_col = header.index("lat"), header.index("lon")
    speed_col = header.index("speed_mps")

    trip_rows: dict[tuple[str, str], list[int]] = {}
    for i, row in enumerate(rows):
        trip_rows.setdefault((row[0], row[1]), []).append(i)
    by_driver: dict[str, list[tuple[str, str]]] = {}
    for key in trip_rows:
        by_driver.setdefault(key[0], []).append(key)
    moved_drivers = rng.sample(sorted(by_driver), MOVED_TRIPS)
    moved = {i for d in moved_drivers for i in trip_rows[rng.choice(by_driver[d])]}

    for i, row in enumerate(rows):
        lat, lon = float(row[lat_col]), float(row[lon_col])
        if i in moved:
            lat += MOVE_NORTH_DEG
        else:
            lon += rng.gauss(0.0, NOISE_SIGMA_M) / (M_PER_DEG_LAT * math.cos(math.radians(lat)))
            lat += rng.gauss(0.0, NOISE_SIGMA_M) / M_PER_DEG_LAT
        row[lat_col], row[lon_col] = repr(lat), repr(lon)

    kinds = list(CORRUPTIONS)
    targets = rng.sample(range(len(rows)), round(CORRUPT_SHARE * len(rows)))
    kind_of = {i: kinds[n % len(kinds)] for n, i in enumerate(targets)}
    out_rows = []
    for i, row in enumerate(rows):
        kind = kind_of.get(i)
        if kind == "nan_lat":
            row[lat_col] = "nan"
        elif kind == "text_speed":
            row[speed_col] = "fast"
        elif kind == "truncated":
            row = row[:5]
        out_rows.append(row)
        if kind == "duplicate_timestamp":
            out_rows.append(list(row))

    with open(trips_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(out_rows)
    return Dataset(
        dir=trips_path.parent,
        trips_path=trips_path,
        truth_path=truth_path,
        data_rows=len(out_rows),
        rejection_reasons=dict(Counter(CORRUPTIONS[k] for k in kind_of.values())),
        match_rejections={"empty_match": MOVED_TRIPS},
    )
