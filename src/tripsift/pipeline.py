"""End-to-end batch pipeline: ingest, match, build graphs, score, report.

The run is a chain of named stages, most of which the match and score
subcommands also call on their own: ingest_inputs (network and trips,
with hard events derived when the file has none), match_and_build
(every trip matched and every matched trip's Edge-Attributed Matrix
built, one run of consecutive trips at a time, in up to `workers`
processes) and score_and_write (forest fit and scores, driver ranking,
score files, all in this process). Each stage writes what it did into
the run's RunRecord: its time, the peak RSS of the process and its
worker processes as the stage ended (also when the stage raised), and
its own counts and rejection tallies. RunRecord.render is the one form
of the record that both summary.json and the CLI's manifest.json carry.

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
from typing import Any, Iterator, Optional, Union

import numpy as np

from .features import FeatureTable, extract_feature_table, write_feature_table
from .forked import process_count, run_parts
from .iforest import IForestModel, save_model
from .ingest import parse_road_network, parse_trips, removed_on_failure
from .matching import match_trip, trip_runs
from .model import AnalysisConfig, RoadNetwork, Trip
from .scoring import (DriverReport, TripScore, aggregate_drivers, score_trips,
                      write_driver_report, write_trip_scores)
from .tripgraph import TripGraph, build_trip_graph, detect_events, filter_by_min_length

log = logging.getLogger(__name__)


class EmptyPipelineError(RuntimeError):
    """The pipeline ran out of trips before anything could be scored."""


@dataclass
class RunRecord:
    """What a run did, stage by stage: seconds spent per stage; the peak RSS
    in MB when each stage last ended, the larger high-water mark
    (ru_maxrss, which Linux reports in KiB) of this process and of its
    waited-for children, which include the worker processes of
    parse_trips and match_and_build; the item counts each stage
    wrote; the ingest rejections by reason (points) and the matching
    rejections by reason (trips)."""

    seconds: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: dict[str, float] = field(default_factory=dict)
    counts: dict[str, Any] = field(default_factory=dict)
    rejection_reasons: dict[str, int] = field(default_factory=dict)
    match_rejections: dict[str, int] = field(default_factory=dict)

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

    def render(self) -> dict[str, dict[str, Any]]:
        """The record as summary.json and manifest.json both write it; each
        rejection tally only when its stage ran, so an empty one means that
        stage rejected nothing."""
        doc = {
            "counts": dict(self.counts),
            "stage_seconds": dict(self.seconds),
            "stage_peak_rss_mb": dict(self.peak_rss_mb),
        }
        if "match" in self.seconds:
            doc["match_rejections"] = dict(self.match_rejections)
        if "ingest" in self.seconds:
            doc["rejection_reasons"] = dict(self.rejection_reasons)
        return doc


@dataclass
class PipelineResult:
    config: AnalysisConfig
    record: RunRecord
    table: FeatureTable
    trip_scores: list[TripScore]
    driver_reports: list[DriverReport]
    model: IForestModel
    outputs: dict[str, Path] = field(default_factory=dict)


def ingest_inputs(
    nodes_path: Union[str, Path],
    segments_path: Union[str, Path],
    trips_path: Union[str, Path],
    config: AnalysisConfig,
    record: RunRecord,
    workers: int = 1,
) -> tuple[RoadNetwork, list[Trip]]:
    """Read the network and the trips (in up to `workers` processes); derive
    hard events when the trip file has none, in one detect_events call on
    all trips' joined columns. Records points_read, points_rejected,
    trips_parsed, drivers_parsed (the distinct driver ids among the parsed
    trips) and the rejections by reason."""
    with record.timed("ingest"):
        network = parse_road_network(nodes_path, segments_path)
        trips, report = parse_trips(trips_path, workers=workers)
    record.counts.update(points_read=report.n_points_read,
                         points_rejected=report.n_points_rejected,
                         trips_parsed=report.n_trips,
                         drivers_parsed=len({t.driver_id for t in trips}))
    record.rejection_reasons.update(report.rejection_reasons)
    log.info("ingest: %d points read, %d rejected, %d trips, %d segments",
             report.n_points_read, report.n_points_rejected, report.n_trips,
             len(network.segments))
    with record.timed("events"):
        if not report.has_event_columns and trips:
            log.info("no event columns in input; deriving hard events at %.1f m/s^2",
                     config.hard_event_accel_threshold)
            starts = np.cumsum([0] + [len(t) for t in trips[:-1]])
            flags = detect_events(np.concatenate([t.timestamp for t in trips]),
                                  np.concatenate([t.speed_mps for t in trips]),
                                  config.hard_event_accel_threshold, starts)
            for t, hard_accel, hard_brake in zip(trips, *(np.split(f, starts[1:]) for f in flags)):
                t.hard_accel, t.hard_brake = hard_accel, hard_brake
    return network, trips


def match_and_build(
    trips: list[Trip],
    network: RoadNetwork,
    config: AnalysisConfig,
    record: RunRecord,
    workers: int = 1,
) -> tuple[TripGraph, list[tuple[str, int, int, int]]]:
    """Match every trip and build the graph of each matched one, in up to
    `workers` processes; return the graphs, as one TripGraph, and each
    rejection as (reason, driver_id, trip_id, n_matched), both in input
    order. Records points_matched (over the matched trips),
    drivers_matched (the distinct driver ids among the matched trips),
    trips_match_rejected and the rejections by reason.

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
    with record.timed("match"):
        parts = run_parts(_match_and_build_part,
                          [(trips[lo:hi], network, config) for lo, hi in bounds])
    graph_parts, rejected_parts, graphs_seconds = zip(*parts)
    graphs = TripGraph.join(graph_parts)
    rejected = [r for part in rejected_parts for r in part]
    # the first part built its graphs in this process: that time is the graphs stage's
    record.add("match", -graphs_seconds[0])
    if len(graphs.driver_id):
        record.add("graphs", graphs_seconds[0])
    record.counts.update(points_matched=int(graphs.n_points.sum()),
                         drivers_matched=len(set(graphs.driver_id.tolist())),
                         trips_match_rejected=len(rejected))
    for reason, driver_id, trip_id, _ in rejected:
        record.match_rejections[reason] = record.match_rejections.get(reason, 0) + 1
        log.debug("match rejected (%s): driver %d trip %d", reason, driver_id, trip_id)
    log.info("match: %d trips matched, %d rejected %s",
             len(graphs.driver_id), len(rejected), record.match_rejections or "")
    return graphs, rejected


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
    record = RunRecord()
    graphs, rejected = [], []
    for run in trip_runs(trips):
        matched = match_trip(run, network, config)
        rejected += matched.rejected
        with record.timed("graphs"):
            graphs.append(build_trip_graph(matched, network))
    return TripGraph.join(graphs), rejected, record.seconds.get("graphs", 0.0)


def score_and_write(
    table: FeatureTable,
    config: AnalysisConfig,
    out: Path,
    written: list[Path],
    record: RunRecord,
    per_category: bool = False,
    model: Optional[IForestModel] = None,
    save_model_json: bool = False,
) -> tuple[list[TripScore], list[DriverReport], IForestModel, dict[str, Path]]:
    """Score the trips (fitting a forest in this process unless `model` is
    given), rank the drivers, and write trip_scores.csv,
    driver_report.csv and, with save_model_json, model.json into out. Each
    path is appended to `written` before it is opened. Records trips_scored
    and drivers.

    Raises:
        EmptyPipelineError: fewer than 2 trips in the table.
    """
    if len(table) < 2:
        raise EmptyPipelineError("fewer than 2 trips available to score")
    with record.timed("score"):
        trip_scores, model = score_trips(table, config, per_category=per_category, model=model)
        reports = aggregate_drivers(trip_scores, config)
    record.counts.update(trips_scored=len(trip_scores), drivers=len(reports))
    log.info("score: %d trips, %d drivers, %d drivers classified abnormal",
             len(trip_scores), len(reports), sum(1 for r in reports if r.abnormal))

    with record.timed("write"):
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
    record: Optional[RunRecord] = None,
) -> PipelineResult:
    """Run the whole pipeline and write its outputs.

    `workers` processes, capped at the usable CPUs, read trips.csv, match
    the trips and build their graphs: each of those stages splits into
    independent parts (byte ranges of the file, runs of consecutive
    trips) computed at the same time, the first in this process and the
    others in forked children, and joined in order, so every output is
    the same for any workers. Events run in this process as one array
    pass over the joined trips; the minimum-length filter and the
    features run in this process as array passes over the joined graphs,
    and the forest(s) grow and score in this process. The run's record is
    written into `record` when it is given, so the caller keeps the
    times, peaks and counts of the stages that ran when the run fails.

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
                    RunRecord() if record is None else record)


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
    record: RunRecord,
) -> PipelineResult:
    network, trips = ingest_inputs(nodes_path, segments_path, trips_path, config, record, workers)
    if not trips:
        raise EmptyPipelineError("no trips parsed from input")

    graphs, _ = match_and_build(trips, network, config, record, workers)
    if not len(graphs.driver_id):
        raise EmptyPipelineError("no trips matched the network")

    with record.timed("graphs"):
        kept, dropped = filter_by_min_length(graphs, config.alpha)
    record.counts["trips_alpha_dropped"] = len(dropped.driver_id)
    log.info("graphs: %d trips kept, %d below min length %.1f m",
             len(kept.driver_id), len(dropped.driver_id), config.alpha)
    if not len(kept.driver_id):
        raise EmptyPipelineError(f"no trips pass the minimum length filter (alpha={config.alpha})")

    with record.timed("features"):
        table = extract_feature_table(kept)

    trip_scores, reports, model, outputs = score_and_write(
        table, config, out, written, record,
        per_category=per_category, save_model_json=save_model_json)
    outputs = {"features": out / "features.csv", **outputs, "summary": out / "summary.json"}
    written += [outputs["features"], outputs["summary"]]
    result = PipelineResult(
        config=config,
        record=record,
        table=table,
        trip_scores=trip_scores,
        driver_reports=reports,
        model=model,
        outputs=outputs,
    )
    # summary.json gets the stage times so far; these last writes reach only the manifest
    with record.timed("write"):
        write_feature_table(table, outputs["features"])
        _write_summary(result, outputs["summary"])
    return result


def _write_summary(result: PipelineResult, path: Path) -> None:
    doc = {
        "config": asdict(result.config),
        **result.record.render(),
        "trips": [
            {
                "driver_id": ts.driver_id,
                "trip_id": ts.trip_id,
                "score": ts.score,
                "label": "abnormal" if ts.abnormal else "normal",
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
