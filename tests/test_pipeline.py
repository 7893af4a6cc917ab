"""End-to-end pipeline runs on a small generated dataset."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tripsift
from tripsift.ingest import parse_road_network, parse_trips
from tripsift.iforest import load_model, threshold_from_contamination
from tripsift.matching import match_trip
from tripsift.model import AnalysisConfig, TrajectoryPoint
from tripsift.pipeline import EmptyPipelineError, run_pipeline
from tripsift.tripgraph import build_trip_graph

CONFIG = AnalysisConfig(alpha=0.0)


def run(dataset, out, config=CONFIG, **kwargs):
    return run_pipeline(dataset.nodes_path, dataset.segments_path,
                        dataset.trips_path, out, config, **kwargs)


def test_end_to_end_outputs(small_dataset, tmp_path):
    result = run(small_dataset, tmp_path / "run", save_model_json=True)
    n_trips = small_dataset.n_trips

    assert result.counts["trips_parsed"] == n_trips
    assert result.counts["trips_scored"] == n_trips
    assert result.counts["trips_match_rejected"] == 0
    assert result.counts["drivers"] == small_dataset.n_drivers
    network = parse_road_network(small_dataset.nodes_path, small_dataset.segments_path)
    trips, _ = parse_trips(small_dataset.trips_path)
    assert result.counts["points_matched"] == sum(
        len(match_trip(trip, network, CONFIG).kept) for trip in trips)

    for name in ("features", "trip_scores", "driver_report", "summary", "model"):
        assert result.outputs[name].exists()

    features_lines = result.outputs["features"].read_text().strip().splitlines()
    assert len(features_lines) == 1 + n_trips

    summary = json.loads(result.outputs["summary"].read_text())
    assert summary["counts"] == result.counts
    assert len(summary["trips"]) == n_trips
    assert len(summary["drivers"]) == small_dataset.n_drivers
    assert summary["config"]["alpha"] == 0.0
    # the same timings as the manifest, less the summary's own write
    stages = summary["stage_seconds"]
    assert set(stages) == {"ingest", "events", "match", "graphs", "features", "score", "write"}
    assert all(stages[k] == result.stage_seconds[k] for k in stages if k != "write")
    assert stages["write"] <= result.stage_seconds["write"]
    # the process's high-water mark after each stage, so it never falls
    peaks = summary["stage_peak_rss_mb"]
    assert list(peaks) == list(stages)
    assert all(0.0 < a <= b for a, b in zip(list(peaks.values()), list(peaks.values())[1:]))

    # contamination diagnostic matches an independent recomputation
    scores = [t["score"] for t in summary["trips"]]
    expected = threshold_from_contamination(scores, CONFIG.contamination)
    assert summary["contamination_threshold"] == expected
    flagged = sum(1 for t in summary["trips"] if t["contamination_flag"])
    assert flagged >= math.ceil(CONFIG.contamination * n_trips)

    # driver classifications follow the top-k rule
    k = math.ceil(CONFIG.top_fraction * small_dataset.n_drivers)
    assert sum(1 for d in summary["drivers"] if d["classification"] == "abnormal") == k
    assert [d["rank"] for d in summary["drivers"]] == list(range(1, small_dataset.n_drivers + 1))

    model = load_model(result.outputs["model"])
    assert model.n_features == 10


def test_deterministic_across_workers(small_dataset, tmp_path, monkeypatch):
    run(small_dataset, tmp_path / "serial", workers=1, save_model_json=True)
    # three usable CPUs: each split stage (ingest, fit) forks two children, whatever workers asks
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    run(small_dataset, tmp_path / "parallel", workers=64, save_model_json=True)
    assert len(forks) == 4
    for name in ("features.csv", "trip_scores.csv", "driver_report.csv", "model.json"):
        a = (tmp_path / "serial" / name).read_bytes()
        b = (tmp_path / "parallel" / name).read_bytes()
        assert a == b, name


def test_per_category_outputs(small_dataset, tmp_path):
    result = run(small_dataset, tmp_path / "cats", per_category=True)
    header = result.outputs["trip_scores"].read_text().splitlines()[0]
    assert header.endswith("dir_score,brake_score,accel_score,speed_score")
    summary = json.loads(result.outputs["summary"].read_text())
    assert set(summary["trips"][0]["category_scores"]) == {
        "direction", "braking", "acceleration", "speed"}


def test_alpha_drops_short_trips(small_dataset, tmp_path):
    network = parse_road_network(small_dataset.nodes_path, small_dataset.segments_path)
    trips, _ = parse_trips(small_dataset.trips_path)
    lengths = sorted(
        build_trip_graph(match_trip(t, network, CONFIG), network).trip_length_m
        for t in trips
    )
    alpha = lengths[len(lengths) // 2]    # median, guaranteed to split the set
    config = AnalysisConfig(alpha=alpha)
    result = run(small_dataset, tmp_path / "filtered", config=config)
    expected_kept = sum(1 for v in lengths if v > alpha)
    assert result.counts["trips_scored"] == expected_kept
    assert result.counts["trips_alpha_dropped"] == len(lengths) - expected_kept


def test_alpha_too_high_empties_pipeline(small_dataset, tmp_path):
    config = AnalysisConfig(alpha=1e9)
    with pytest.raises(EmptyPipelineError, match="minimum length"):
        run(small_dataset, tmp_path / "e", config=config)


def test_no_trips_parsed(small_dataset, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(small_dataset.trips_path.read_text().splitlines()[0] + "\n")
    with pytest.raises(EmptyPipelineError, match="no trips parsed"):
        run_pipeline(small_dataset.nodes_path, small_dataset.segments_path,
                     empty, tmp_path / "out", CONFIG)


def test_nothing_matches(small_dataset, tmp_path):
    # same trips, shifted a degree north: nothing is near the network
    lines = small_dataset.trips_path.read_text().splitlines()
    shifted = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[4] = str(float(parts[4]) + 1.0)
        shifted.append(",".join(parts))
    far = tmp_path / "far.csv"
    far.write_text("\n".join(shifted) + "\n")
    with pytest.raises(EmptyPipelineError, match="no trips matched"):
        run_pipeline(small_dataset.nodes_path, small_dataset.segments_path,
                     far, tmp_path / "out", CONFIG)


def test_partial_outputs_removed_on_failure(small_dataset, tmp_path):
    out = tmp_path / "broken"
    out.mkdir()
    (out / "summary.json").mkdir()    # makes the final write fail
    with pytest.raises(OSError):
        run(small_dataset, out)
    assert not (out / "features.csv").exists()
    assert not (out / "trip_scores.csv").exists()
    assert not (out / "driver_report.csv").exists()


def test_events_derived_when_columns_missing(small_dataset, tmp_path):
    lines = small_dataset.trips_path.read_text().splitlines()
    stripped = [",".join(line.split(",")[:8]) for line in lines]
    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(stripped) + "\n")
    result = run_pipeline(small_dataset.nodes_path, small_dataset.segments_path,
                          bare, tmp_path / "out", CONFIG)
    assert result.counts["trips_scored"] == small_dataset.n_trips
    # speed steps planted by the generator are recovered as hard events
    assert any(v.brakes_per_km > 0 or v.accels_per_km > 0 for v in result.table.vectors)


def test_pipeline_builds_no_trajectory_point(small_dataset, no_event_dataset, tmp_path,
                                             monkeypatch):
    """Trips stay columnar from the CSV to the trip graphs."""
    built = []
    init = TrajectoryPoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TrajectoryPoint, "__init__", counting_init)
    TrajectoryPoint(1, 1, 0, 0, 40.0, -86.0, 10.0, 90.0)   # the counter sees a build
    assert built == [1]
    built.clear()
    run(small_dataset, tmp_path / "events")
    result = run_pipeline(*no_event_dataset, tmp_path / "derived", CONFIG)
    assert result.counts["points_rejected"] == 1
    assert built == []


def test_stage_peak_rss_counts_worker_processes():
    """A worker that peaks above the main process raises the stage's peak RSS."""
    script = """
import resource
from tripsift.forked import run_parts
from tripsift.pipeline import StageLog

def part(megabytes):
    data = b"x" * (megabytes << 20)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

# this process's ru_maxrss may start at its launcher's, so the worker outgrows that
own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
stages = StageLog()
with stages.timed("work"):
    _, worker_peak = run_parts(part, [(0,), (int(own_peak) + 16,)])
assert worker_peak > resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + 8
assert stages.peak_rss_mb["work"] >= worker_peak, (stages.peak_rss_mb, worker_peak)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(tripsift.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
