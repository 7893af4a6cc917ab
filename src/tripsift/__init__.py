"""Batch toolkit for spotting anomalous driving in GPS trajectories.

Trips are snapped onto a road network, summarized as edge-attributed
matrices, reduced to behavioral feature vectors, and ranked with an
isolation forest. Drivers are flagged from their per-trip scores.
"""

__version__ = "0.1.0"

from .model import AnalysisConfig, RoadNetwork, RoadNode, RoadSegment, Trip
from .ingest import parse_road_network, parse_trips
from .matching import MatchedTrip, match_trip
from .tripgraph import TripGraph, build_trip_graph, detect_events
from .features import FEATURE_NAMES, FeatureTable, extract_feature_table, extract_features
from .iforest import IForestModel, fit, load_model, save_model, score_vectors
from .scoring import DriverReport, TripScore, aggregate_drivers, score_trips
from .evaluate import DriverSetMismatch, confusion, metrics
from .synth import SynthSpec, generate_dataset
from .pipeline import EmptyPipelineError, PipelineResult, run_pipeline

__all__ = [
    "__version__",
    "AnalysisConfig",
    "RoadNetwork",
    "RoadNode",
    "RoadSegment",
    "Trip",
    "parse_road_network",
    "parse_trips",
    "MatchedTrip",
    "match_trip",
    "TripGraph",
    "build_trip_graph",
    "detect_events",
    "FEATURE_NAMES",
    "FeatureTable",
    "extract_feature_table",
    "extract_features",
    "IForestModel",
    "fit",
    "load_model",
    "save_model",
    "score_vectors",
    "DriverReport",
    "TripScore",
    "aggregate_drivers",
    "score_trips",
    "DriverSetMismatch",
    "confusion",
    "metrics",
    "SynthSpec",
    "generate_dataset",
    "EmptyPipelineError",
    "PipelineResult",
    "run_pipeline",
]
