"""Generate a synthetic benchmark dataset and look inside it.

A grid road network is built, normal drivers drive staircase routes
across it, and a chosen fraction of drivers get loops, detours, and
hard-event bursts injected into some of their trips. Ground truth is
written next to the data.

Run: python3 demos/02_generate_dataset.py [--out DIR] [--seed N]
(without --out the dataset goes to a temp dir that is removed on exit)
"""

import argparse
import tempfile
from pathlib import Path

from tripsift.synth import SynthSpec, generate_dataset


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="output directory (default: a temp dir removed on exit)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if args.out:
        show(Path(args.out), args.seed)
    else:
        with tempfile.TemporaryDirectory(prefix="tripsift_demo_") as tmp:
            show(Path(tmp), args.seed)


def show(out: Path, seed: int) -> None:
    spec = SynthSpec(n_drivers=8, trips_per_driver=10,
                     abnormal_driver_fraction=0.25, rng_seed=seed)
    summary = generate_dataset(spec, out)

    print(f"wrote dataset to {out}")
    print(f"  drivers:          {summary.n_drivers}")
    print(f"  trips:            {summary.n_trips}")
    print(f"  abnormal drivers: {summary.abnormal_drivers}")
    print(f"  injected kinds:   {dict(summary.kind_counts)}")
    print()

    for path in (summary.nodes_path, summary.segments_path,
                 summary.trips_path, summary.truth_path):
        with open(path) as fh:
            n_lines = sum(1 for _ in fh)
        print(f"  {path.name:14s} {n_lines:7d} lines")

    print()
    print("first trajectory rows:")
    with open(summary.trips_path) as fh:
        for _ in range(4):
            print("  " + next(fh).rstrip())


if __name__ == "__main__":
    main()
