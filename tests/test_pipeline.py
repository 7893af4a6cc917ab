"""End-to-end pipeline runs on a small generated dataset."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tripsift
from tripsift import pipeline
from tripsift.features import FEATURE_NAMES
from tripsift.ingest import parse_road_network, parse_trips
from tripsift.iforest import load_model
from tripsift.matching import match_trip
from tripsift.model import AnalysisConfig, RoadNode, RoadSegment
from tripsift.pipeline import EmptyPipelineError, RunRecord, run_pipeline
from tripsift.tripgraph import build_trip_graph

CONFIG = AnalysisConfig(alpha=0.0)


def run(dataset, out, config=CONFIG, **kwargs):
    return run_pipeline(dataset.nodes_path, dataset.segments_path,
                        dataset.trips_path, out, config, **kwargs)


# sha256 of the data outputs on the small dataset; any change to these bytes
# must be deliberate and recorded
SMALL_OUTPUT_DIGESTS = {
    "features": "61d968df30134ba3ef55524f3f6da1dba74f1375d4347b52e047bf895f083ac6",
    "trip_scores": "2fbdad02745b5df7b97083e46c98a15ac63216f95bfaaff3fa0c52b2078c81bb",
    "driver_report": "dd42d020a5922625fbd5ffc7b5d64e82a29fe3612cd123aca07442ea06c9bb51",
    "model": "b5de6a73ae7f360e100816e4f40d8e42adbb1011140cf211851076763ba1a57b",
}


def test_pipeline_output_bytes_are_pinned(small_dataset, tmp_path):
    result = run(small_dataset, tmp_path / "run", save_model_json=True)
    assert {name: hashlib.sha256(result.outputs[name].read_bytes()).hexdigest()
            for name in SMALL_OUTPUT_DIGESTS} == SMALL_OUTPUT_DIGESTS


def test_end_to_end_outputs(small_dataset, tmp_path):
    result = run(small_dataset, tmp_path / "run", save_model_json=True)
    n_trips = small_dataset.n_trips

    assert result.record.counts["trips_parsed"] == n_trips
    assert result.record.counts["trips_scored"] == n_trips
    assert result.record.counts["trips_match_rejected"] == 0
    assert result.record.counts["drivers"] == small_dataset.n_drivers
    network = parse_road_network(small_dataset.nodes_path, small_dataset.segments_path)
    trips, _ = parse_trips(small_dataset.trips_path)
    assert result.record.counts["points_matched"] == sum(
        len(match_trip(trip, network, CONFIG).kept) for trip in trips)

    for name in ("features", "trip_scores", "driver_report", "summary", "model"):
        assert result.outputs[name].exists()

    features_lines = result.outputs["features"].read_text().strip().splitlines()
    assert len(features_lines) == 1 + n_trips

    summary = json.loads(result.outputs["summary"].read_text())
    assert summary["counts"] == result.record.counts
    assert len(summary["trips"]) == n_trips
    assert len(summary["drivers"]) == small_dataset.n_drivers
    assert summary["config"]["alpha"] == 0.0
    # the same timings as the manifest, less the summary's own write
    stages = summary["stage_seconds"]
    assert set(stages) == {"ingest", "events", "match", "graphs", "features", "score", "write"}
    assert all(stages[k] == result.record.seconds[k] for k in stages if k != "write")
    assert stages["write"] <= result.record.seconds["write"]
    # the process's high-water mark after each stage, so it never falls
    peaks = summary["stage_peak_rss_mb"]
    assert list(peaks) == list(stages)
    assert all(0.0 < a <= b for a, b in zip(list(peaks.values()), list(peaks.values())[1:]))

    # driver classifications follow the top-k rule
    k = math.ceil(CONFIG.top_fraction * small_dataset.n_drivers)
    assert sum(1 for d in summary["drivers"] if d["classification"] == "abnormal") == k
    assert [d["rank"] for d in summary["drivers"]] == list(range(1, small_dataset.n_drivers + 1))

    model = load_model(result.outputs["model"])
    assert model.n_features == 10


def test_deterministic_across_workers(small_dataset, tmp_path, monkeypatch):
    run(small_dataset, tmp_path / "serial", workers=1, save_model_json=True)
    # three usable CPUs: each split stage (ingest, matching and trip graphs, fit) forks two
    # children, whatever workers asks
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    run(small_dataset, tmp_path / "parallel", workers=64, save_model_json=True)
    assert len(forks) == 6
    for name in ("features.csv", "trip_scores.csv", "driver_report.csv", "model.json"):
        a = (tmp_path / "serial" / name).read_bytes()
        b = (tmp_path / "parallel" / name).read_bytes()
        assert a == b, name


def test_zero_length_segment_in_second_part_raises_as_in_one(small_dataset, tmp_path,
                                                             monkeypatch):
    """The last trip's last point, moved about 20 m off its road onto a
    zero-length segment: matched in the second of two parts, in a forked
    child, that trip raises match_trip's ValueError from run_pipeline, as in
    one part."""
    read_trips, read_network = pipeline.parse_trips, pipeline.parse_road_network

    def with_moved_point(path, workers=1):
        trips, report = read_trips(path, workers=workers)
        trips[-1].lat[-1] += 0.0002
        trips[-1].lon[-1] += 0.0002
        return trips, report

    def with_zero_length_segment(nodes_path, segments_path):
        network = read_network(nodes_path, segments_path)
        node_id, segment_id = max(network.nodes) + 1, max(network.segments) + 1
        network.nodes[node_id] = RoadNode(node_id, lat, lon)
        network.segments[segment_id] = RoadSegment(segment_id, node_id, node_id, 0.0)
        network.index = None    # indexed again, with the new segment, on first use
        return network

    trips, _ = with_moved_point(small_dataset.trips_path)
    lat, lon = float(trips[-1].lat[-1]), float(trips[-1].lon[-1])
    network = with_zero_length_segment(small_dataset.nodes_path, small_dataset.segments_path)
    (_, first_end), (second_start, _) = pipeline._trip_parts(trips, 2)
    assert first_end == second_start < len(trips) - 1
    for trip in trips[:-1]:
        match_trip(trip, network, CONFIG)
    with pytest.raises(ValueError, match="zero-length") as want:
        match_trip(trips[-1], network, CONFIG)

    monkeypatch.setattr(pipeline, "parse_trips", with_moved_point)
    monkeypatch.setattr(pipeline, "parse_road_network", with_zero_length_segment)
    monkeypatch.setattr(pipeline, "process_count", lambda workers: workers)
    for workers in (1, 2):
        with pytest.raises(ValueError) as got:
            run(small_dataset, tmp_path / f"workers{workers}", workers=workers)
        assert str(got.value) == str(want.value), workers


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
        build_trip_graph(match_trip(t, network, CONFIG), network).trip_length_m.item()
        for t in trips
    )
    alpha = lengths[len(lengths) // 2]    # median, guaranteed to split the set
    config = AnalysisConfig(alpha=alpha)
    result = run(small_dataset, tmp_path / "filtered", config=config)
    expected_kept = sum(1 for v in lengths if v > alpha)
    assert result.record.counts["trips_scored"] == expected_kept
    assert result.record.counts["trips_alpha_dropped"] == len(lengths) - expected_kept


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


def test_partial_outputs_removed_on_failure(small_dataset, tmp_path, caplog):
    out = tmp_path / "broken"
    out.mkdir()
    (out / "summary.json").mkdir()    # makes the final write fail
    with pytest.raises(OSError):
        run(small_dataset, out)
    assert not (out / "features.csv").exists()
    assert not (out / "trip_scores.csv").exists()
    assert not (out / "driver_report.csv").exists()
    assert "could not remove partial output" not in caplog.text


def test_events_derived_when_columns_missing(small_dataset, tmp_path):
    lines = small_dataset.trips_path.read_text().splitlines()
    stripped = [",".join(line.split(",")[:8]) for line in lines]
    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(stripped) + "\n")
    result = run_pipeline(small_dataset.nodes_path, small_dataset.segments_path,
                          bare, tmp_path / "out", CONFIG)
    assert result.record.counts["trips_scored"] == small_dataset.n_trips
    # speed steps planted by the generator are recovered as hard events
    events = [FEATURE_NAMES.index("brakes_per_km"), FEATURE_NAMES.index("accels_per_km")]
    assert (result.table.matrix[:, events] > 0).any()


def test_stage_that_raises_is_still_logged():
    record = RunRecord()
    with record.timed("ok"):
        pass
    with pytest.raises(RuntimeError), record.timed("boom"):
        raise RuntimeError("stage failed")
    assert list(record.seconds) == list(record.peak_rss_mb) == ["ok", "boom"]
    assert record.seconds["boom"] >= 0.0 and record.peak_rss_mb["boom"] > 0.0


def test_stage_peak_rss_counts_worker_processes():
    """A worker that peaks above the main process raises the stage's peak RSS."""
    script = """
import resource
from tripsift.forked import run_parts
from tripsift.pipeline import RunRecord

def part(megabytes):
    data = b"x" * (megabytes << 20)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

# this process's ru_maxrss may start at its launcher's, so the worker outgrows that
own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
record = RunRecord()
with record.timed("work"):
    _, worker_peak = run_parts(part, [(0,), (int(own_peak) + 16,)])
assert worker_peak > resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + 8
assert record.peak_rss_mb["work"] >= worker_peak, (record.peak_rss_mb, worker_peak)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(tripsift.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
