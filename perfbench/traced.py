"""Traced run: `tripsift pipeline` in one process, with each layer wrapped from outside.

Usage (the remaining arguments are the tripsift CLI's own):

    PYTHONPATH=src python3 perfbench/traced.py SPANS_JSON pipeline --network DIR ...

Each target is replaced under the name its caller looks up at call time
(``tripsift.pipeline.parse_trips``, not ``tripsift.ingest.parse_trips``),
so the wrapper sees every call the pipeline makes. Calls are folded into
one record per name and thread (count, summed time, first start, last
end, raised, returned None), which keeps memory flat however many points
a run has. On a threaded run a call's time includes waits for the GIL.
A target that no longer exists is listed as missing, and the layer
metrics that need it are reported absent by ``layer_metrics``.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import threading
import time

SPAN, PER_CALL, COUNT = "span", "per_call", "count"

# (module the caller resolves the name in, name, how to record it)
TARGETS = [
    ("tripsift.cli", "main", SPAN),
    ("tripsift.cli", "run_pipeline", SPAN),
    ("tripsift.pipeline", "parse_road_network", SPAN),
    ("tripsift.pipeline", "parse_trips", SPAN),
    ("tripsift.pipeline", "detect_events", PER_CALL),
    ("tripsift.pipeline", "match_trip", PER_CALL),
    ("tripsift.pipeline", "build_trip_graph", PER_CALL),
    ("tripsift.pipeline", "filter_by_min_length", SPAN),
    ("tripsift.pipeline", "extract_feature_table", SPAN),
    ("tripsift.pipeline", "write_feature_table", SPAN),
    ("tripsift.pipeline", "score_trips", SPAN),
    ("tripsift.pipeline", "aggregate_drivers", SPAN),
    ("tripsift.pipeline", "write_trip_scores", SPAN),
    ("tripsift.pipeline", "write_driver_report", SPAN),
    ("tripsift.scoring", "fit", SPAN),
    ("tripsift.scoring", "score_vectors", SPAN),
    ("tripsift.matching", "build_spatial_index", SPAN),
    ("tripsift.matching", "nearest_segment", PER_CALL),
    ("tripsift.matching", "point_segment_distance", COUNT),
]


class Record:
    __slots__ = ("calls", "seconds", "first", "last", "raised", "none", "rss_mb")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.first = float("inf")
        self.last = float("-inf")
        self.raised = 0
        self.none = 0
        self.rss_mb = 0.0


def _merge(records: list[Record]) -> dict:
    return {
        "calls": sum(r.calls for r in records),
        "seconds": sum(r.seconds for r in records),
        "first": min(r.first for r in records),
        "last": max(r.last for r in records),
        "raised": sum(r.raised for r in records),
        "none": sum(r.none for r in records),
        "rss_mb": max(r.rss_mb for r in records),
    }


def _wrap(fn, per_thread: dict[int, Record], kind: str):
    """Wrap fn so each call updates the calling thread's own Record.

    One record per thread means no lock: a shared lock taken around every
    per-point call convoys the matcher's worker threads.
    """
    perf = time.perf_counter
    ident = threading.get_ident

    def own() -> Record:
        rec = per_thread.get(ident())
        return rec if rec is not None else per_thread.setdefault(ident(), Record())

    if kind == COUNT:
        def counted(*args, **kwargs):
            own().calls += 1
            return fn(*args, **kwargs)
        return counted

    def timed(*args, **kwargs):
        t0 = perf()
        result = None
        raised = False
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            raised = True
            raise
        finally:
            t1 = perf()
            rec = own()
            rec.calls += 1
            rec.seconds += t1 - t0
            rec.first = min(rec.first, t0)
            rec.last = max(rec.last, t1)
            rec.raised += raised
            rec.none += result is None and not raised
            if kind == SPAN:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                rec.rss_mb = max(rec.rss_mb, rss)
    return timed


def install() -> tuple[dict[str, dict[int, Record]], list[str]]:
    """Wrap every target that exists; return per-thread records by name, and the missing names."""
    records: dict[str, dict[int, Record]] = {}
    missing: list[str] = []
    for module_name, attr, kind in TARGETS:
        name = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        records[name] = {}
        setattr(module, attr, _wrap(fn, records[name], kind))
    return records, missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    records, missing = install()
    cli = importlib.import_module("tripsift.cli")
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        doc = {
            "exit_code": code,
            "missing": missing,
            "records": {name: _merge(list(per_thread.values()))
                        for name, per_thread in records.items() if per_thread},
        }
        with open(spans_path, "w") as fh:
            json.dump(doc, fh)
    return code


def _busy(rec: dict) -> float:
    """Time a layer kept the run busy: summed call time, or the first-to-last
    envelope when calls overlapped on worker threads."""
    return min(rec["seconds"], rec["last"] - rec["first"])


def layer_metrics(spans: dict, summary: dict, untraced_walls: list[float],
                  untraced_cpus: list[float], traced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced run; returns (metrics, absent names).

    A function that exists but was never called contributes zeros; a
    function that no longer exists makes the metrics that need it absent.
    """
    gone = {name.split(".", 1)[1] for name in spans["missing"]}
    recs = spans["records"]

    def r(name: str) -> dict:
        if name in gone:
            raise KeyError(name)
        return recs.get("tripsift." + name,
                        {"calls": 0, "seconds": 0.0, "first": 0.0, "last": 0.0,
                         "raised": 0, "none": 0, "rss_mb": 0.0})

    counts = summary["counts"]
    n_trees = summary["config"]["n_trees"]
    pipeline_children = [f"pipeline.{attr}" for module, attr, _ in TARGETS
                         if module == "tripsift.pipeline"]
    formulas = {
        "ingest.trips_s": lambda: r("pipeline.parse_trips")["seconds"],
        "ingest.rows_per_s": lambda: counts["points_read"] / r("pipeline.parse_trips")["seconds"],
        "ingest.rss_mb": lambda: r("pipeline.parse_trips")["rss_mb"],
        "ingest.rows_rejected": lambda: counts["points_rejected"],
        "ingest.network_s": lambda: r("pipeline.parse_road_network")["seconds"],
        "matching.s": lambda: _busy(r("pipeline.match_trip")),
        "matching.queries": lambda: r("matching.nearest_segment")["calls"],
        "matching.query_us": lambda: (1e6 * r("matching.nearest_segment")["seconds"]
                                      / r("matching.nearest_segment")["calls"]),
        "matching.evals_per_query": lambda: (r("matching.point_segment_distance")["calls"]
                                             / r("matching.nearest_segment")["calls"]),
        "matching.snap_rate": lambda: 1.0 - (r("matching.nearest_segment")["none"]
                                             / r("matching.nearest_segment")["calls"]),
        "matching.trips_rejected": lambda: r("pipeline.match_trip")["raised"],
        "matching.index_s": lambda: r("matching.build_spatial_index")["seconds"],
        "tripgraph.events_s": lambda: _busy(r("pipeline.detect_events")),
        "tripgraph.graphs_s": lambda: (_busy(r("pipeline.build_trip_graph"))
                                       + r("pipeline.filter_by_min_length")["seconds"]),
        "tripgraph.us_per_trip": lambda: (1e6 * r("pipeline.build_trip_graph")["seconds"]
                                          / r("pipeline.build_trip_graph")["calls"]),
        "features.s": lambda: r("pipeline.extract_feature_table")["seconds"],
        "features.us_per_trip": lambda: (1e6 * r("pipeline.extract_feature_table")["seconds"]
                                         / counts["trips_scored"]),
        "features.write_s": lambda: r("pipeline.write_feature_table")["seconds"],
        "iforest.fit_s": lambda: r("scoring.fit")["seconds"],
        "iforest.score_s": lambda: r("scoring.score_vectors")["seconds"],
        "iforest.ns_per_row_tree": lambda: (1e9 * r("scoring.score_vectors")["seconds"]
                                            / (r("scoring.score_vectors")["calls"]
                                               * counts["trips_scored"] * n_trees)),
        "scoring.aggregate_s": lambda: r("pipeline.aggregate_drivers")["seconds"],
        "scoring.write_s": lambda: (r("pipeline.write_trip_scores")["seconds"]
                                    + r("pipeline.write_driver_report")["seconds"]),
        "pipeline.self_s": lambda: (r("cli.run_pipeline")["seconds"]
                                    - sum(_busy(r(c)) for c in pipeline_children if c not in gone)),
        "pipeline.cpu_s": lambda: statistics.median(untraced_cpus),
        "pipeline.trace_overhead": lambda: traced_wall / statistics.median(untraced_walls) - 1.0,
        "cli.overhead_s": lambda: r("cli.main")["seconds"] - r("cli.run_pipeline")["seconds"],
    }
    metrics: dict[str, float] = {}
    absent: list[str] = []
    for name, formula in formulas.items():
        try:
            metrics[name] = formula()
        except (KeyError, ZeroDivisionError):
            absent.append(name)
    return metrics, absent


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
