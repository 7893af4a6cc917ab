"""Generate a dataset, run the whole pipeline, score it against truth.

Run: python3 demos/06_full_pipeline.py [--seed N]
(the dataset and the run outputs go to a temp dir that is removed on exit)
"""

import argparse
import tempfile
from pathlib import Path

from tripsift.evaluate import confusion, metrics, read_truth
from tripsift.model import AnalysisConfig
from tripsift.pipeline import run_pipeline
from tripsift.synth import SynthSpec, generate_dataset


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="tripsift_demo_") as tmp:
        run(Path(tmp), args.seed)


def run(base: Path, seed: int) -> None:
    data = generate_dataset(SynthSpec(rng_seed=seed), base / "data")
    print(f"dataset: {data.n_drivers} drivers, {data.n_trips} trips "
          f"(abnormal drivers planted: {sorted(data.abnormal_drivers)})")

    config = AnalysisConfig(alpha=0.0, rng_seed=seed)
    result = run_pipeline(data.nodes_path, data.segments_path, data.trips_path,
                          base / "run", config)
    print(f"pipeline counts: {result.record.counts}")
    print()

    print(f"{'driver':>6s} {'mean':>7s} {'abn trips':>9s} {'rank':>5s}  classified")
    for rep in sorted(result.driver_reports, key=lambda r: r.rank):
        mark = "ABNORMAL" if rep.abnormal else ""
        print(f"{rep.driver_id:6d} {rep.mean_score:7.4f} {rep.n_abnormal_trips:9d} "
              f"{rep.rank:5d}  {mark}")

    predicted = {r.driver_id: r.abnormal for r in result.driver_reports}
    m = metrics(confusion(predicted, read_truth(data.truth_path)))
    print()
    print(f"accuracy {m.accuracy:.4f}  precision {m.precision:.4f}  "
          f"recall {m.recall:.4f}  f1 {m.f1:.4f}")


if __name__ == "__main__":
    main()
