"""The benchmark's traced run still finds every layer it measures.

perfbench/traced.py wraps named functions of the package from outside
and derives the per-layer metrics from those wrappers. A renamed or
no longer called function makes a metric absent, so one small traced
run here must report all of them.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from tripsift.ingest import parse_trips
from tripsift.matching import CHUNK_POINTS

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chunk_count(lengths, chunk):
    """Chunks of the matcher's packing rule: runs of whole trips, each grown
    while the next trip still fits in `chunk` points."""
    count, size = 0, chunk
    for length in lengths:
        if size + length > chunk:
            count, size = count + 1, length
        else:
            size += length
    return count


def traced_run(tmp_path, nodes, segments, trips):
    """Run the traced pipeline; return (spans, summary, metrics), checking
    that every declared per-layer metric is reported."""
    spans_path, out = tmp_path / "spans.json", tmp_path / "run"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(TRACED), str(spans_path), "pipeline",
            "--nodes", str(nodes), "--segments", str(segments),
            "--trips", str(trips), "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr

    spans = json.loads(spans_path.read_text())
    summary = json.loads((out / "summary.json").read_text())
    metrics, absent = load_traced().layer_metrics(spans, summary, [1.0], [1.0], 1.0)
    assert spans["missing"] == []
    assert absent == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    # the matcher snaps runs of trips in one nearest_segment call per chunk
    lengths = [len(trip) for trip in parse_trips(trips)[0]]
    assert len(lengths) == summary["counts"]["trips_parsed"]
    assert metrics["matching.queries"] == chunk_count(lengths, CHUNK_POINTS)
    return spans, summary, metrics


def test_traced_pipeline_reports_every_layer_metric(small_dataset, tmp_path):
    traced_run(tmp_path, small_dataset.nodes_path, small_dataset.segments_path,
               small_dataset.trips_path)


def test_traced_pipeline_with_derived_events_and_a_rejected_row(no_event_dataset, tmp_path):
    spans, _, metrics = traced_run(tmp_path, *no_event_dataset)
    assert spans["records"]["tripsift.pipeline.detect_events"]["calls"] > 0
    assert metrics["ingest.rows_rejected"] == 1
