"""End-to-end batch pipeline: ingest, match, build graphs, score, report.

The run is a chain of named stages, most of which the match and score
subcommands also call on their own: ingest_inputs (network and trips,
with hard events derived when the file has none), match_and_build
(every trip matched and every matched trip's Edge-Attributed Matrix
built, one run of consecutive trips at a time, in up to `workers`
processes) and score_and_write (forest scores, driver ranking, score
files). Each stage adds its time
to a StageLog, which also keeps the peak RSS of the process and its
worker processes as the stage ended, also when the stage raised.

Outputs land in one directory: features.csv, trip_scores.csv,
driver_report.csv, summary.json (and model.json on request). On any
failure the partially written data files are removed; logging goes to
stderr, data only to files.
"""

from __future__ import annotations

import json
import logging
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .features import FeatureTable, extract_feature_table, write_feature_table
from .forked import process_count, run_parts
from .iforest import IForestModel, save_model, threshold_from_contamination
from .ingest import IngestReport, parse_road_network, parse_trips, removed_on_failure
from .matching import match_trip, trip_runs
from .model import AnalysisConfig, RoadNetwork, Trip
from .scoring import (DriverReport, TripScore, aggregate_drivers, score_trips,
                      write_driver_report, write_trip_scores)
from .tripgraph import TripGraph, build_trip_graph, detect_events, filter_by_min_length

log = logging.getLogger(__name__)


class EmptyPipelineError(RuntimeError):
    """The pipeline ran out of trips before anything could be scored."""


@dataclass
class PipelineResult:
    config: AnalysisConfig
    ingest_report: IngestReport
    n_match_rejected: int
    match_rejections: dict[str, int]
    n_points_matched: int                     # matched points over all matched trips
    n_alpha_dropped: int
    table: FeatureTable
    trip_scores: list[TripScore]
    driver_reports: list[DriverReport]
    model: IForestModel
    contamination_threshold: float
    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_peak_rss_mb: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, Path] = field(default_factory=dict)

    @property
    def counts(self) -> dict[str, int]:
        return {
            "points_read": self.ingest_report.n_points_read,
            "points_rejected": self.ingest_report.n_points_rejected,
            "points_matched": self.n_points_matched,
            "trips_parsed": self.ingest_report.n_trips,
            "trips_match_rejected": self.n_match_rejected,
            "trips_alpha_dropped": self.n_alpha_dropped,
            "trips_scored": len(self.trip_scores),
            "drivers": len(self.driver_reports),
        }


@dataclass
class StageLog:
    """Seconds spent per stage, and the peak RSS in MB when each stage last
    ended: the larger high-water mark (ru_maxrss, which Linux reports in
    KiB) of this process and of its waited-for children, which include
    the worker processes of parse_trips, match_and_build and fit."""

    seconds: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def timed(self, stage: str) -> Iterator[None]:
        """Add the time spent in the block to seconds[stage], also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(stage, time.perf_counter() - t0)

    def add(self, stage: str, seconds: float) -> None:
        """Add seconds to seconds[stage] and note the peak RSS as of now."""
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        self.peak_rss_mb[stage] = max(
            resource.getrusage(who).ru_maxrss / 1024.0
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def ingest_inputs(
    nodes_path: Union[str, Path],
    segments_path: Union[str, Path],
    trips_path: Union[str, Path],
    config: AnalysisConfig,
    stages: StageLog,
    workers: int = 1,
) -> tuple[RoadNetwork, list[Trip], IngestReport]:
    """Read the network and the trips (in up to `workers` processes); derive
    hard events when the trip file has none."""
    with stages.timed("ingest"):
        network = parse_road_network(nodes_path, segments_path)
        trips, report = parse_trips(trips_path, workers=workers)
    log.info("ingest: %d points read, %d rejected, %d trips, %d segments",
             report.n_points_read, report.n_points_rejected, report.n_trips,
             len(network.segments))
    with stages.timed("events"):
        if not report.has_event_columns and trips:
            log.info("no event columns in input; deriving hard events at %.1f m/s^2",
                     config.hard_event_accel_threshold)
            for t in trips:
                t.hard_accel, t.hard_brake = detect_events(
                    t.timestamp, t.speed_mps, config.hard_event_accel_threshold)
    return network, trips, report


def match_and_build(
    trips: list[Trip],
    network: RoadNetwork,
    config: AnalysisConfig,
    stages: StageLog,
    workers: int = 1,
) -> tuple[TripGraph, list[tuple[str, int, int, int]]]:
    """Match every trip and build the graph of each matched one, in up to
    `workers` processes; return the graphs, as one TripGraph, and each
    rejection as (reason, driver_id, trip_id, n_matched), both in input
    order.

    The trips are cut into parts of consecutive trips holding about equal
    numbers of points. Each part is matched and built on its own, the
    first in this process and the others in forked children, and the
    parts are joined in order, so the result is the same for any workers.
    Within a part, each run of trips that matching.trip_runs cuts is
    matched (match_trip) and built (build_trip_graph) at once. The whole
    split is timed as "match", less the first part's graph building,
    which is added to "graphs" when any trip matched.

    Raises:
        ValueError: a point snapped to a zero-length segment.
    """
    bounds = _trip_parts(trips, process_count(workers))
    with stages.timed("match"):
        parts = run_parts(_match_and_build_part,
                          [(trips[lo:hi], network, config) for lo, hi in bounds])
    graph_parts, rejected_parts, graphs_seconds = zip(*parts)
    graphs = TripGraph.join(graph_parts)
    # the first part built its graphs in this process: that time is the graphs stage's
    stages.add("match", -graphs_seconds[0])
    if len(graphs.driver_id):
        stages.add("graphs", graphs_seconds[0])
    return graphs, [r for part in rejected_parts for r in part]


def _trip_parts(trips: list[Trip], n: int) -> list[tuple[int, int]]:
    """Bounds of up to n parts of consecutive trips, cut at the first trip
    end at or past each n-th of the points; no part is empty unless it is
    the only one."""
    starts = np.cumsum([0] + [len(t) for t in trips])
    cuts = np.searchsorted(starts, starts[-1] * np.arange(1, n) / n).tolist()
    bounds = [0, *sorted(set(cuts) - {0, len(trips)}), len(trips)]
    return list(zip(bounds, bounds[1:]))


def _match_and_build_part(
    trips: list[Trip], network: RoadNetwork, config: AnalysisConfig,
) -> tuple[TripGraph, list[tuple[str, int, int, int]], float]:
    """One part's graphs and rejections, as plain data a forked part sends
    back, and the seconds its graph building took."""
    stages = StageLog()
    graphs, rejected = [], []
    for run in trip_runs(trips):
        matched = match_trip(run, network, config)
        rejected += matched.rejected
        with stages.timed("graphs"):
            graphs.append(build_trip_graph(matched, network))
    return TripGraph.join(graphs), rejected, stages.seconds.get("graphs", 0.0)


def score_and_write(
    table: FeatureTable,
    config: AnalysisConfig,
    out: Path,
    written: list[Path],
    stages: StageLog,
    per_category: bool = False,
    model: Optional[IForestModel] = None,
    save_model_json: bool = False,
    workers: int = 1,
) -> tuple[list[TripScore], list[DriverReport], IForestModel, dict[str, Path]]:
    """Score the trips (fitting a forest in up to `workers` processes unless
    `model` is given), rank the drivers, and write trip_scores.csv,
    driver_report.csv and, with save_model_json, model.json into out. Each
    path is appended to `written` before it is opened.

    Raises:
        EmptyPipelineError: fewer than 2 trips in the table.
    """
    if len(table) < 2:
        raise EmptyPipelineError("fewer than 2 trips available to score")
    with stages.timed("score"):
        trip_scores, model = score_trips(table, config, per_category=per_category, model=model,
                                         workers=workers)
        reports = aggregate_drivers(trip_scores, config)
    log.info("score: %d trips, %d drivers, %d drivers classified abnormal",
             len(trip_scores), len(reports), sum(1 for r in reports if r.abnormal))

    with stages.timed("write"):
        outputs = {"trip_scores": out / "trip_scores.csv",
                   "driver_report": out / "driver_report.csv"}
        if save_model_json:
            outputs["model"] = out / "model.json"
        written.extend(outputs.values())
        write_trip_scores(trip_scores, outputs["trip_scores"])
        write_driver_report(reports, outputs["driver_report"])
        if save_model_json:
            save_model(model, outputs["model"])
    return trip_scores, reports, model, outputs


def run_pipeline(
    nodes_path: Union[str, Path],
    segments_path: Union[str, Path],
    trips_path: Union[str, Path],
    out_dir: Union[str, Path],
    config: AnalysisConfig,
    per_category: bool = False,
    workers: int = 1,
    save_model_json: bool = False,
    stages: Optional[StageLog] = None,
) -> PipelineResult:
    """Run the whole pipeline and write its outputs.

    `workers` processes, capped at the usable CPUs, read trips.csv, match
    the trips and build their graphs, and grow the forest(s): each of
    those stages splits into independent parts (byte ranges of the file,
    runs of consecutive trips, runs of trees) computed at the same time,
    the first in this process and the others in forked children, and
    joined in order, so every output is the same for any workers. Events
    run in this process, one trip after another; the minimum-length filter
    and the features run in this process as array passes over the joined
    graphs. The stage times and peaks go
    into `stages` when it is given, so the caller keeps them when the run
    fails.

    Raises:
        ValueError: workers below 1.
        EmptyPipelineError: nothing survived to be scored.
    """
    workers = process_count(workers)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with removed_on_failure() as written:
        return _run(Path(nodes_path), Path(segments_path), Path(trips_path), out,
                    config, per_category, save_model_json, workers, written,
                    StageLog() if stages is None else stages)


def _run(
    nodes_path: Path,
    segments_path: Path,
    trips_path: Path,
    out: Path,
    config: AnalysisConfig,
    per_category: bool,
    save_model_json: bool,
    workers: int,
    written: list[Path],
    stages: StageLog,
) -> PipelineResult:
    network, trips, report = ingest_inputs(nodes_path, segments_path, trips_path,
                                           config, stages, workers)
    if not trips:
        raise EmptyPipelineError("no trips parsed from input")

    graphs, rejected = match_and_build(trips, network, config, stages, workers)
    rejections: dict[str, int] = {}
    for reason, driver_id, trip_id, _ in rejected:
        rejections[reason] = rejections.get(reason, 0) + 1
        log.debug("match rejected (%s): driver %d trip %d", reason, driver_id, trip_id)
    log.info("match: %d trips matched, %d rejected %s",
             len(graphs.driver_id), len(rejected), rejections or "")
    if not len(graphs.driver_id):
        raise EmptyPipelineError("no trips matched the network")

    with stages.timed("graphs"):
        kept, dropped = filter_by_min_length(graphs, config.alpha)
    log.info("graphs: %d trips kept, %d below min length %.1f m",
             len(kept.driver_id), len(dropped.driver_id), config.alpha)
    if not len(kept.driver_id):
        raise EmptyPipelineError(f"no trips pass the minimum length filter (alpha={config.alpha})")

    with stages.timed("features"):
        table = extract_feature_table(kept)

    trip_scores, reports, model, outputs = score_and_write(
        table, config, out, written, stages,
        per_category=per_category, save_model_json=save_model_json, workers=workers)
    threshold = threshold_from_contamination([ts.score for ts in trip_scores],
                                             config.contamination)
    outputs = {"features": out / "features.csv", **outputs, "summary": out / "summary.json"}
    written += [outputs["features"], outputs["summary"]]
    result = PipelineResult(
        config=config,
        ingest_report=report,
        n_match_rejected=len(rejected),
        match_rejections=rejections,
        n_points_matched=int(graphs.n_points.sum()),
        n_alpha_dropped=len(dropped.driver_id),
        table=table,
        trip_scores=trip_scores,
        driver_reports=reports,
        model=model,
        contamination_threshold=threshold,
        stage_seconds=stages.seconds,
        stage_peak_rss_mb=stages.peak_rss_mb,
        outputs=outputs,
    )
    # summary.json gets the stage times so far; these last writes reach only the manifest
    with stages.timed("write"):
        write_feature_table(table, outputs["features"])
        _write_summary(result, outputs["summary"])
    return result


def _write_summary(result: PipelineResult, path: Path) -> None:
    doc = {
        "config": asdict(result.config),
        "counts": result.counts,
        "stage_seconds": dict(result.stage_seconds),
        "stage_peak_rss_mb": dict(result.stage_peak_rss_mb),
        "match_rejections": result.match_rejections,
        "rejection_reasons": dict(result.ingest_report.rejection_reasons),
        "contamination_threshold": result.contamination_threshold,
        "trips": [
            {
                "driver_id": ts.driver_id,
                "trip_id": ts.trip_id,
                "score": ts.score,
                "label": "abnormal" if ts.abnormal else "normal",
                "contamination_flag": ts.score >= result.contamination_threshold,
                **({"category_scores": ts.category_scores} if ts.category_scores else {}),
            }
            for ts in result.trip_scores
        ],
        "drivers": [
            {
                "driver_id": r.driver_id,
                "mean_score": r.mean_score,
                "n_trips": r.n_trips,
                "n_abnormal_trips": r.n_abnormal_trips,
                "rank": r.rank,
                "classification": "abnormal" if r.abnormal else "normal",
                **({"category_means": r.category_means} if r.category_means else {}),
            }
            for r in result.driver_reports
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
