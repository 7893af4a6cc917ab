"""Command-line front end.

Subcommands: generate (synthetic dataset), pipeline (end to end),
evaluate (against ground truth), plus match and score for debugging
single stages. Every knob can also come from a flat key=value config
file; explicit flags win. Each flag maps to a field of SynthSpec or
AnalysisConfig (or a keyword of run_pipeline), which holds its type and
default. Every run writes a manifest: inputs, parameters, outcome and
the run's RunRecord, rendered as summary.json renders it (counts, stage
times and peaks, rejections), as far as the run got. It is
manifest.json in the output directory, or <out stem>.manifest.json
beside the metrics file for evaluate.

Exit codes: 0 success, 2 configuration or usage error, 3 empty
pipeline, 4 evaluation mismatch, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import logging
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional, get_type_hints

import numpy as np

from . import __version__
from .evaluate import DriverSetMismatch, confusion, metrics, read_truth, write_metrics_json
from .features import read_feature_table
from .iforest import load_model
from .ingest import removed_on_failure, write_csv
from .model import AnalysisConfig
from .pipeline import (EmptyPipelineError, RunRecord, ingest_inputs, match_and_build, run_pipeline,
                       score_and_write)
from .scoring import read_driver_classifications
from .synth import SynthSpec, generate_dataset
from .tripgraph import write_matrix_csv

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_EMPTY = 3
EXIT_MISMATCH = 4

MATCHED_TRIP_COLUMNS = ["driver_id", "trip_id", "n_points", "n_matched", "matched_fraction", "status"]

# option name -> (parameter it sets, type, default); shared by flags and config files
Option = tuple[str, type, Any]


def _options(owner: Callable, params: dict[str, str]) -> dict[str, Option]:
    """Options for the named parameters of owner (a config dataclass or a
    function), with types and defaults read off its signature."""
    hints = get_type_hints(owner)
    signature = inspect.signature(owner).parameters
    return {name: (param, hints[param], signature[param].default)
            for name, param in params.items()}


GENERATE_OPTIONS = _options(SynthSpec, {
    "seed": "rng_seed",
    "rows": "rows",
    "cols": "cols",
    "spacing": "spacing_m",
    "drivers": "n_drivers",
    "trips_per_driver": "trips_per_driver",
    "abnormal_fraction": "abnormal_driver_fraction",
    "injection_rate": "injection_rate",
    "loop_prob": "loop_prob",
    "detour_prob": "detour_prob",
    "brake_burst_prob": "brake_burst_prob",
    "accel_burst_prob": "accel_burst_prob",
    "base_speed": "base_speed_mps",
})

ANALYSIS_OPTIONS = _options(AnalysisConfig, {
    "alpha": "alpha",
    "seed": "rng_seed",
    "trip_threshold": "trip_score_threshold",
    "top_fraction": "top_fraction",
    "trees": "n_trees",
    "subsample": "subsample_size",
    "max_snap": "max_snap_distance_m",
    "min_matched_fraction": "min_matched_fraction",
    "accel_threshold": "hard_event_accel_threshold",
})

PIPELINE_OPTIONS = {**ANALYSIS_OPTIONS, **_options(run_pipeline, {
    "workers": "workers",
    "per_category": "per_category",
    "save_model": "save_model_json",
})}

MATCH_OPTIONS = {name: PIPELINE_OPTIONS[name]
                 for name in ("max_snap", "min_matched_fraction", "accel_threshold")}

SCORE_OPTIONS = {name: PIPELINE_OPTIONS[name]
                 for name in ("seed", "trees", "subsample", "trip_threshold", "top_fraction",
                              "per_category", "save_model")}


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored.

    Raises ValueError naming the file for a line without "=" (with the
    line) or bytes that do not decode.
    """
    out: dict[str, str] = {}
    with open(path) as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}: expected key=value at line {lineno}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return out


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def resolve_options(args: argparse.Namespace, options: dict[str, Option]) -> dict[str, Any]:
    """Merge flag values over config-file values over defaults."""
    file_cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_cfg) - set(options))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    resolved: dict[str, Any] = {}
    for name, (_, typ, default) in options.items():
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            resolved[name] = flag_value
        elif name in file_cfg:
            try:
                resolved[name] = _parse_bool(file_cfg[name]) if typ is bool else typ(file_cfg[name])
            except ValueError:
                raise ValueError(f"config key {name}: cannot parse {file_cfg[name]!r} as {typ.__name__}") from None
        else:
            resolved[name] = default
    return resolved


def build_config(owner: Callable, options: dict[str, Option], vals: dict[str, Any]) -> Any:
    """Call owner with the resolved values of those of its options present in vals."""
    return owner(**{param: vals[name] for name, (param, _, _) in options.items() if name in vals})


# help text for options whose default alone does not explain them
OPTION_NOTES = {"workers": "processes that read the trips file, match trips and build "
                           "their graphs, and grow the forest, capped at the usable CPUs; "
                           "outputs do not depend on it"}


def _add_option_flags(parser: argparse.ArgumentParser, options: dict[str, Option]) -> None:
    for name, (_, typ, default) in options.items():
        flag = "--" + name.replace("_", "-")
        help_text = f"(default {default})"
        if name in OPTION_NOTES:
            help_text = f"{OPTION_NOTES[name]} {help_text}"
        if typ is bool:
            parser.add_argument(flag, action="store_true", default=None, help=help_text)
        else:
            parser.add_argument(flag, type=typ, default=None, metavar=name.upper(),
                                help=help_text)


def _network_paths(args: argparse.Namespace) -> tuple[Path, Path]:
    if args.network is not None:
        base = Path(args.network)
        return base / "nodes.csv", base / "segments.csv"
    if args.nodes is not None and args.segments is not None:
        return Path(args.nodes), Path(args.segments)
    raise ValueError("provide --network DIR or both --nodes and --segments")


def _sha256(path: Path) -> Optional[str]:
    try:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        return digest.hexdigest()
    except OSError:
        return None


class _ManifestWriter:
    """Owns the run's RunRecord and writes the manifest when the run ends,
    success or not. A manifest that cannot be written fails a run that
    succeeded; when the run itself raised, that error is the one reported
    and the manifest's is only logged."""

    def __init__(self, path: Path, command: str, params: dict[str, Any], inputs: list[Path]):
        self.path = path
        self.command = command
        self.params = params
        self.inputs = inputs
        self.record = RunRecord()
        self.t0 = time.perf_counter()

    def __enter__(self) -> "_ManifestWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        doc = {
            "command": self.command,
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "params": self.params,
            "inputs": {str(p): _sha256(p) for p in self.inputs},
            "outcome": "success" if exc is None else "error",
            "error": None if exc is None else str(exc),
            "wall_clock_s": time.perf_counter() - self.t0,
            **self.record.render(),
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        except OSError as write_error:
            if exc is None:
                raise
            log.warning("could not write manifest: %s", write_error)


def cmd_generate(args: argparse.Namespace) -> int:
    vals = resolve_options(args, GENERATE_OPTIONS)
    out = Path(args.out)
    spec = build_config(SynthSpec, GENERATE_OPTIONS, vals)
    out.mkdir(parents=True, exist_ok=True)
    with _ManifestWriter(out / "manifest.json", "generate", vals, []) as manifest:
        summary = generate_dataset(spec, out)
        manifest.record.counts.update(
            n_trips=summary.n_trips,
            n_drivers=summary.n_drivers,
            abnormal_drivers=summary.abnormal_drivers,
            kind_counts=dict(summary.kind_counts),
        )
        log.info("generated %d trips for %d drivers (%d abnormal) in %s",
                 summary.n_trips, summary.n_drivers, len(summary.abnormal_drivers), out)
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    vals = resolve_options(args, PIPELINE_OPTIONS)
    nodes_path, segments_path = _network_paths(args)
    trips_path = Path(args.trips)
    out = Path(args.out)
    config = build_config(AnalysisConfig, ANALYSIS_OPTIONS, vals)
    out.mkdir(parents=True, exist_ok=True)
    with _ManifestWriter(out / "manifest.json", "pipeline", vals,
                         [nodes_path, segments_path, trips_path]) as manifest:
        run_pipeline(
            nodes_path, segments_path, trips_path, out, config,
            per_category=vals["per_category"],
            workers=vals["workers"],
            save_model_json=vals["save_model"],
            record=manifest.record,
        )
        log.info("pipeline complete: outputs in %s", out)
    return EXIT_OK


def cmd_match(args: argparse.Namespace) -> int:
    vals = resolve_options(args, MATCH_OPTIONS)
    nodes_path, segments_path = _network_paths(args)
    trips_path = Path(args.trips)
    out = Path(args.out)
    config = build_config(AnalysisConfig, ANALYSIS_OPTIONS, vals)
    out.mkdir(parents=True, exist_ok=True)
    with _ManifestWriter(out / "manifest.json", "match", vals,
                         [nodes_path, segments_path, trips_path]) as manifest, \
            removed_on_failure() as written:
        network, trips = ingest_inputs(nodes_path, segments_path, trips_path, config,
                                       manifest.record)
        graphs, rejected = match_and_build(trips, network, config, manifest.record)
        rejections = {(driver_id, trip_id): (reason, n) for reason, driver_id, trip_id, n in rejected}
        matched = iter(graphs.split())
        matrices_dir = out / "matrices"
        matrices_dir.mkdir(exist_ok=True)
        rows = []
        for trip in trips:
            status, n_kept = rejections.get((trip.driver_id, trip.trip_id), ("matched", 0))
            if status == "matched":
                graph = next(matched)
                n_kept = int(graph.n_points.sum())
                matrix_path = matrices_dir / f"trip_{trip.driver_id}_{trip.trip_id}.csv"
                written.append(matrix_path)
                write_matrix_csv(graph, matrix_path)
            rows.append([trip.driver_id, trip.trip_id, len(trip), n_kept,
                         f"{n_kept / len(trip):.4f}", status])
        written.append(out / "matched_trips.csv")
        write_csv(out / "matched_trips.csv", MATCHED_TRIP_COLUMNS, rows)
        log.info("matched %d of %d trips; matrices in %s",
                 len(graphs.driver_id), len(trips), matrices_dir)
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    vals = resolve_options(args, SCORE_OPTIONS)
    out = Path(args.out)
    config = build_config(AnalysisConfig, ANALYSIS_OPTIONS, vals)
    if args.model:
        fit_only = [name for name in ("seed", "trees", "subsample") if getattr(args, name) is not None]
        if vals["per_category"]:
            fit_only.append("per_category")
        if fit_only:
            flags = ", ".join("--" + name.replace("_", "-") for name in fit_only)
            raise ValueError(f"{flags}: fitting options cannot be used with --model")
    out.mkdir(parents=True, exist_ok=True)
    inputs = [Path(args.features)] + ([Path(args.model)] if args.model else [])
    with _ManifestWriter(out / "manifest.json", "score", vals, inputs) as manifest, \
            removed_on_failure() as written:
        table = read_feature_table(args.features)
        model = load_model(args.model) if args.model else None
        if model is not None:
            # the manifest records the forest that scored, not the unused defaults
            vals.update(seed=model.rng_seed, trees=model.n_trees, subsample=model.subsample_size)
        trip_scores, reports, _, _ = score_and_write(
            table, config, out, written, manifest.record,
            per_category=vals["per_category"], model=model,
            save_model_json=vals["save_model"])
        log.info("scored %d trips, %d drivers; outputs in %s", len(trip_scores), len(reports), out)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    out_path = Path(args.out)
    # beside the metrics, not manifest.json: that name belongs to the run being evaluated
    with _ManifestWriter(out_path.with_name(out_path.stem + ".manifest.json"), "evaluate", {},
                         [Path(args.pred), Path(args.truth)]) as manifest:
        predicted = read_driver_classifications(args.pred)
        truth = read_truth(args.truth)
        counts = confusion(predicted, truth)
        m = metrics(counts)
        write_metrics_json(m, counts, out_path)
        manifest.record.counts.update(tp=counts.tp, tn=counts.tn, fp=counts.fp, fn=counts.fn)
        print(f"accuracy {m.accuracy:.4f}")
        print(f"precision {m.precision:.4f}")
        print(f"recall {m.recall:.4f}")
        print(f"f1 {m.f1:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripsift",
        description="Detect anomalous driving in GPS trajectories over a road network.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset with planted anomalies")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="flat key=value config file")
    _add_option_flags(p, GENERATE_OPTIONS)
    p.set_defaults(func=cmd_generate)

    for name, help_text, options, func in (
        ("pipeline", "run the full pipeline on a dataset", PIPELINE_OPTIONS, cmd_pipeline),
        ("match", "debug map matching: per-trip matrices and match stats", MATCH_OPTIONS, cmd_match),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--network", help="directory holding nodes.csv and segments.csv")
        p.add_argument("--nodes", help="nodes CSV (alternative to --network)")
        p.add_argument("--segments", help="segments CSV (alternative to --network)")
        p.add_argument("--trips", required=True, help="trajectory CSV")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="flat key=value config file")
        _add_option_flags(p, options)
        p.set_defaults(func=func)

    p = sub.add_parser("score", help="debug scoring: read a feature table, write scores")
    p.add_argument("--features", required=True, help="feature table CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", help="reuse a fitted model JSON instead of fitting")
    p.add_argument("--config", help="flat key=value config file")
    _add_option_flags(p, SCORE_OPTIONS)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="compare a driver report to ground truth")
    p.add_argument("--pred", required=True, help="driver report CSV from the pipeline")
    p.add_argument("--truth", required=True, help="truth CSV (driver_id,label)")
    p.add_argument("--out", default="metrics.json", help="metrics JSON path (default metrics.json)")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0

    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        return args.func(args)
    except EmptyPipelineError as exc:
        log.error("empty pipeline: %s", exc)
        return EXIT_EMPTY
    except DriverSetMismatch as exc:
        log.error("evaluation mismatch: %s", exc)
        return EXIT_MISMATCH
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except Exception:
        log.exception("unexpected failure")
        return EXIT_UNEXPECTED


def entrypoint() -> None:
    raise SystemExit(main())
