"""Command-line behavior: exit codes, config precedence, manifests, outputs."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import tripsift
from tripsift.cli import (ANALYSIS_OPTIONS, GENERATE_OPTIONS, MATCH_OPTIONS, PIPELINE_OPTIONS,
                          SCORE_OPTIONS, build_config, build_parser, main, resolve_options)
from tripsift.ingest import parse_trips
from tripsift.matching import match_trip
from tripsift.model import AnalysisConfig
from tripsift.pipeline import RunRecord, ingest_inputs
from tripsift.synth import SynthSpec, generate_dataset
from tripsift.tripgraph import build_trip_graph, write_matrix_csv

GEN_ARGS = ["--rows", "4", "--cols", "4", "--drivers", "4",
            "--trips-per-driver", "3", "--abnormal-fraction", "0.25", "--seed", "5"]


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "tripsift" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_full_cli_flow(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    for name in ("nodes.csv", "segments.csv", "trips.csv", "truth.csv", "manifest.json"):
        assert (data / name).exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["outcome"] == "success"
    assert manifest["counts"]["n_trips"] == 12
    assert manifest["params"]["rows"] == 4

    run = tmp_path / "run"
    assert main(["pipeline", "--network", str(data),
                 "--trips", str(data / "trips.csv"), "--out", str(run)]) == 0
    for name in ("features.csv", "trip_scores.csv", "driver_report.csv",
                 "summary.json", "manifest.json"):
        assert (run / name).exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["outcome"] == "success"
    assert set(manifest["stage_seconds"]) >= {"ingest", "match", "score", "write"}
    assert all(isinstance(v, str) for v in manifest["inputs"].values())
    # both files render one record; summary.json is written inside the last
    # write stage, so only that stage reads further on in the manifest
    summary = json.loads((run / "summary.json").read_text())
    for key in ("counts", "rejection_reasons", "match_rejections"):
        assert manifest[key] == summary[key]
    for key in ("stage_seconds", "stage_peak_rss_mb"):
        assert list(manifest[key]) == list(summary[key])
        assert all(manifest[key][k] == summary[key][k] for k in summary[key] if k != "write")
        assert manifest[key]["write"] >= summary[key]["write"]

    metrics_path = tmp_path / "metrics.json"
    capsys.readouterr()
    assert main(["evaluate", "--pred", str(run / "driver_report.csv"),
                 "--truth", str(data / "truth.csv"), "--out", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert [l.split()[0] for l in lines] == ["accuracy", "precision", "recall", "f1"]
    for line in lines:
        value = line.split()[1]
        assert len(value.split(".")[1]) == 4    # four decimal places
        assert 0.0 <= float(value) <= 1.0
    doc = json.loads(metrics_path.read_text())
    assert set(doc) == {"accuracy", "precision", "recall", "f1", "confusion"}


def test_pipeline_accepts_separate_node_segment_paths(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    run = tmp_path / "run"
    assert main(["pipeline", "--nodes", str(data / "nodes.csv"),
                 "--segments", str(data / "segments.csv"),
                 "--trips", str(data / "trips.csv"), "--out", str(run)]) == 0


def test_pipeline_requires_network_args(tmp_path):
    assert main(["pipeline", "--trips", "t.csv", "--out", str(tmp_path / "o")]) == 2


def test_missing_input_is_usage_error(tmp_path):
    code = main(["pipeline", "--network", str(tmp_path / "nope"),
                 "--trips", str(tmp_path / "nope" / "trips.csv"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outcome"] == "error"
    assert manifest["error"]


def test_empty_pipeline_exit_code(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    header_only = tmp_path / "empty.csv"
    header_only.write_text(
        (data / "trips.csv").read_text().splitlines()[0] + "\n")
    assert main(["pipeline", "--network", str(data),
                 "--trips", str(header_only), "--out", str(tmp_path / "out")]) == 3


def off_network_copy(tmp_path):
    """A generated dataset and a copy of its trips.csv with every point moved
    about 11 km north of every road. Returns (dataset dir, trips path)."""
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    rows = [line.split(",") for line in (data / "trips.csv").read_text().splitlines()]
    lat = rows[0].index("lat")
    for row in rows[1:]:
        row[lat] = repr(float(row[lat]) + 0.1)
    moved = tmp_path / "moved.csv"
    moved.write_text("".join(",".join(row) + "\n" for row in rows))
    return data, moved


def test_failed_pipeline_manifest_keeps_stage_times(tmp_path):
    """A run that fails in matching still says in its manifest where its time
    went, and what ingest and matching counted."""
    data, moved = off_network_copy(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--network", str(data), "--trips", str(moved),
                 "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["outcome"], manifest["error"]) == ("error", "no trips matched the network")
    assert list(manifest["stage_seconds"]) == ["ingest", "events", "match"]
    assert all(seconds >= 0.0 for seconds in manifest["stage_seconds"].values())
    counts = manifest["counts"]
    assert counts["points_read"] == len(moved.read_text().splitlines()) - 1
    assert counts["trips_parsed"] == 12
    assert counts["trips_match_rejected"] == counts["trips_parsed"]
    assert manifest["match_rejections"] == {"empty_match": counts["trips_parsed"]}


def test_unwritable_manifest_keeps_the_run_error(tmp_path, caplog):
    """A manifest that cannot be written is logged; the run's own error and
    exit code are the ones reported."""
    data, moved = off_network_copy(tmp_path)
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert main(["pipeline", "--network", str(data), "--trips", str(moved),
                 "--out", str(out)]) == 3
    assert "empty pipeline: no trips matched the network" in caplog.text
    assert "could not write manifest" in caplog.text


def test_evaluate_mismatch_exit_code(tmp_path):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    pred.write_text("driver_id,classification\n1,normal\n2,abnormal\n")
    truth.write_text("driver_id,label\n1,normal\n")
    assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                 "--out", str(tmp_path / "m.json")]) == 4


def test_unexpected_failure_exit_code(tmp_path, monkeypatch):
    import tripsift.cli as cli_mod

    def boom(spec, out):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli_mod, "generate_dataset", boom)
    assert main(["generate", "--out", str(tmp_path / "d")] + GEN_ARGS) == 1


def test_generate_removes_partial_outputs_on_failure(tmp_path, caplog):
    data = tmp_path / "data"
    (data / "truth.csv").mkdir(parents=True)    # makes the fourth write fail
    assert main(["generate", "--out", str(data), "--drivers", "3",
                 "--trips-per-driver", "2"]) == 2
    assert sorted(p.name for p in data.iterdir()) == ["manifest.json", "truth.csv"]
    assert json.loads((data / "manifest.json").read_text())["outcome"] == "error"
    assert "could not remove partial output" not in caplog.text


def test_score_removes_partial_outputs_on_failure(tmp_path, caplog):
    data, run, scored = tmp_path / "data", tmp_path / "run", tmp_path / "scored"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    assert main(["pipeline", "--network", str(data), "--trips", str(data / "trips.csv"),
                 "--out", str(run)]) == 0
    (scored / "driver_report.csv").mkdir(parents=True)    # makes the second write fail
    assert main(["score", "--features", str(run / "features.csv"), "--out", str(scored)]) == 2
    assert sorted(p.name for p in scored.iterdir()) == ["driver_report.csv", "manifest.json"]
    assert "could not remove partial output" not in caplog.text


def test_match_removes_partial_outputs_on_failure(tmp_path, caplog):
    data, matched = tmp_path / "data", tmp_path / "matched"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    (matched / "matrices" / "trip_4_3.csv").mkdir(parents=True)   # makes the last matrix fail
    assert main(["match", "--network", str(data), "--trips", str(data / "trips.csv"),
                 "--out", str(matched)]) == 2
    assert sorted(p.name for p in matched.iterdir()) == ["manifest.json", "matrices"]
    assert [p.name for p in (matched / "matrices").iterdir()] == ["trip_4_3.csv"]
    assert "could not remove partial output" not in caplog.text


def test_over_long_network_field_is_usage_error(tmp_path, caplog):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    lines = (data / "nodes.csv").read_text().splitlines(keepends=True)
    lines[3] = "9" * 200_000 + lines[3]
    (data / "nodes.csv").write_text("".join(lines))
    assert main(["pipeline", "--network", str(data), "--trips", str(data / "trips.csv"),
                 "--out", str(tmp_path / "run")]) == 2
    assert "nodes.csv: line 4: field larger than field limit (131072)" in caplog.text


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("# grid size\nrows = 6\ncols = 3\nseed = 5\n")
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--config", str(cfg),
                 "--rows", "5", "--drivers", "2", "--trips-per-driver", "2"]) == 0
    # rows from the flag (5), cols from the file (3)
    n_nodes = len((data / "nodes.csv").read_text().strip().splitlines()) - 1
    assert n_nodes == 15
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["params"]["rows"] == 5
    assert manifest["params"]["cols"] == 3


def test_config_file_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 3\n")
    assert main(["generate", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2

    cfg.write_text("rows\n")
    assert main(["generate", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2

    cfg.write_text("rows = not_a_number\n")
    assert main(["generate", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2


def test_undecodable_config_file_is_usage_error_naming_it(tmp_path, caplog):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"trees=\xff\xfe\n")
    assert main(["pipeline", "--network", str(tmp_path), "--trips", str(tmp_path / "trips.csv"),
                 "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{cfg}: 'utf-8' codec can't decode byte 0xff in position 6" in caplog.text


@pytest.mark.parametrize("flag,field", [
    ("--max-snap", "max_snap_distance_m"),
    ("--alpha", "alpha"),
    ("--accel-threshold", "hard_event_accel_threshold"),
])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_analysis_values_are_usage_errors(tmp_path, caplog, flag, field, value):
    with pytest.raises(ValueError, match=field):
        AnalysisConfig(**{field: float(value)})
    code = main(["pipeline", "--network", str(tmp_path), "--trips", str(tmp_path / "t.csv"),
                 "--out", str(tmp_path / "out"), f"{flag}={value}"])
    assert code == 2
    assert field in caplog.text


@pytest.mark.parametrize("flag,field", [
    ("--spacing", "spacing_m"),
    ("--base-speed", "base_speed_mps"),
    ("--loop-prob", "loop_prob"),
])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_synth_values_are_usage_errors(tmp_path, caplog, flag, field, value):
    with pytest.raises(ValueError, match=field):
        SynthSpec(**{field: float(value)})
    code = main(["generate", "--out", str(tmp_path / "data"), f"{flag}={value}"] + GEN_ARGS)
    assert code == 2
    assert field in caplog.text
    assert not (tmp_path / "data" / "trips.csv").exists()


def test_match_subcommand(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    out = tmp_path / "match"
    assert main(["match", "--network", str(data),
                 "--trips", str(data / "trips.csv"), "--out", str(out)]) == 0
    lines = (out / "matched_trips.csv").read_text().strip().splitlines()
    assert lines[0] == "driver_id,trip_id,n_points,n_matched,matched_fraction,status"
    assert len(lines) == 13
    assert all(line.endswith("matched") for line in lines[1:])
    assert len(list((out / "matrices").glob("trip_*.csv"))) == 12


def test_match_reports_matched_count_of_poor_match(tmp_path):
    (tmp_path / "nodes.csv").write_text("node_id,lat,lon\n1,40.0,-86.0\n2,40.0,-85.99\n")
    (tmp_path / "segments.csv").write_text("segment_id,from_node,to_node\n10,1,2\n")
    # two of four points lie far off the only segment
    (tmp_path / "trips.csv").write_text(
        "driver_id,trip_id,point_id,timestamp,lat,lon,speed_mps,cog_deg\n"
        "1,1,0,100,40.0,-85.998,10.0,90.0\n"
        "1,1,1,101,41.0,-85.996,10.0,90.0\n"
        "1,1,2,102,40.0,-85.994,10.0,90.0\n"
        "1,1,3,103,41.0,-85.992,10.0,90.0\n")
    out = tmp_path / "match"
    assert main(["match", "--network", str(tmp_path), "--trips", str(tmp_path / "trips.csv"),
                 "--out", str(out)]) == 0
    lines = (out / "matched_trips.csv").read_text().strip().splitlines()
    assert lines[1] == "1,1,4,2,0.5000,poor_match"


def degraded_copy(data, out):
    """The dataset's trips.csv with, by trip in file order, points moved
    about 110 km off the network: every point of the first trip
    (empty_match), one of the second (matched with an unsnapped point) and
    every other one of the third (poor_match). Returns the new trips.csv path."""
    lines = data.trips_path.read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    lat = header.index("lat")
    keys = list(dict.fromkeys((row[0], row[1]) for row in rows))
    of_trip = {key: [row for row in rows if (row[0], row[1]) == key] for key in keys[:3]}
    for row in of_trip[keys[0]] + of_trip[keys[1]][2:3] + of_trip[keys[2]][::2]:
        row[lat] = repr(float(row[lat]) + 1.0)
    path = out / "trips.csv"
    path.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
    return path


def ledger_copy(data, out):
    """degraded_copy, plus a row whose lat is not a number and a one-point
    trip (trip_too_short). Returns the new trips.csv path."""
    path = degraded_copy(data, out)
    lines = path.read_text().splitlines()
    lat = lines[0].split(",").index("lat")
    corrupt = lines[-1].split(",")
    corrupt[lat] = "north"
    lone = lines[-2].split(",")
    lone[1] = "9999"
    path.write_text("\n".join(lines[:-1] + [",".join(corrupt), ",".join(lone)]) + "\n")
    return path


def test_match_manifest_counts_equal_pipeline_summary(tmp_path):
    """match records its stages under the pipeline's names and figures."""
    data = generate_dataset(SynthSpec(rng_seed=1), tmp_path / "data")
    trips_path = ledger_copy(data, tmp_path)
    args = ["--network", str(tmp_path / "data"), "--trips", str(trips_path), "--out"]
    assert main(["match"] + args + [str(tmp_path / "match")]) == 0
    assert main(["pipeline"] + args + [str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "match" / "manifest.json").read_text())
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert set(manifest["counts"]) == {"points_read", "points_rejected", "trips_parsed",
                                       "drivers_parsed", "points_matched",
                                       "drivers_matched", "trips_match_rejected"}
    assert manifest["counts"] == {name: summary["counts"][name] for name in manifest["counts"]}
    assert manifest["rejection_reasons"] == summary["rejection_reasons"] == {
        "non_numeric": 1, "trip_too_short": 1}
    assert manifest["match_rejections"] == summary["match_rejections"] == {
        "empty_match": 1, "poor_match": 1}


def test_run_record_ledger_adds_up(tmp_path):
    """Every point and trip read is accounted for once, by the reason it went."""
    data = generate_dataset(SynthSpec(rng_seed=1), tmp_path / "data")
    trips_path = ledger_copy(data, tmp_path)
    # every point of driver 2 moved off the network: parsed, never ranked
    lines = trips_path.read_text().splitlines()
    lat = lines[0].split(",").index("lat")
    rows = [line.split(",") for line in lines]
    for row in rows[1:]:
        if row[0] == "2":
            row[lat] = repr(float(row[lat]) + 1.0)
    trips_path.write_text("".join(",".join(row) + "\n" for row in rows))
    run = tmp_path / "run"
    # every default-spec trip is a whole number of 500 m edges, the shortest 1500 m
    assert main(["pipeline", "--network", str(tmp_path / "data"), "--trips", str(trips_path),
                 "--alpha", "1500", "--out", str(run)]) == 0
    summary = json.loads((run / "summary.json").read_text())
    counts, reasons = summary["counts"], summary["rejection_reasons"]
    assert set(reasons) == {"non_numeric", "trip_too_short"}
    assert "empty_match" in summary["match_rejections"]
    assert counts["trips_alpha_dropped"] > 0

    assert sum(reasons.values()) == counts["points_rejected"]
    trips, _ = parse_trips(trips_path)
    assert counts["points_read"] - counts["points_rejected"] == sum(len(t) for t in trips)
    assert counts["trips_parsed"] == (counts["trips_match_rejected"]
                                      + counts["trips_alpha_dropped"] + counts["trips_scored"])
    assert sum(summary["match_rejections"].values()) == counts["trips_match_rejected"]
    scored = [line.split(",")[0] for line in
              (run / "trip_scores.csv").read_text().splitlines()[1:]]
    assert counts["trips_scored"] == len(scored)
    assert counts["drivers"] == len(set(scored))
    parsed_drivers = {trip.driver_id for trip in trips}
    assert counts["drivers_parsed"] == len(parsed_drivers) == 18
    assert parsed_drivers - {int(driver_id) for driver_id in scored} == {2}
    assert counts["drivers_parsed"] - counts["drivers"] == 1
    # the drivers lost to matching (driver 2) and to --alpha (none) add up to those lost
    assert counts["drivers_parsed"] - counts["drivers_matched"] == 1
    assert counts["drivers_matched"] - counts["drivers"] == 0


@pytest.mark.parametrize("degraded", [False, True])
def test_match_outputs_equal_one_trip_match_and_build(tmp_path, degraded):
    """matched_trips.csv holds, per trip, what match_trip on that trip alone
    gives, and each matrix file is write_matrix_csv of its build_trip_graph."""
    data = generate_dataset(SynthSpec(rng_seed=1), tmp_path / "data")
    trips_path = degraded_copy(data, tmp_path) if degraded else data.trips_path
    out = tmp_path / "match"
    assert main(["match", "--network", str(tmp_path / "data"), "--trips", str(trips_path),
                 "--out", str(out)]) == 0

    config = AnalysisConfig()
    network, trips = ingest_inputs(data.nodes_path, data.segments_path, trips_path, config,
                                   RunRecord())
    rows, matrices = [], {}
    for trip in trips:
        matched = match_trip(trip, network, config)
        if matched.rejected:
            (status, _, _, n), = matched.rejected
            fraction = n / len(trip)
        else:
            n, fraction, status = len(matched.kept), matched.matched_fraction.item(), "matched"
            name = f"trip_{trip.driver_id}_{trip.trip_id}.csv"
            write_matrix_csv(build_trip_graph(matched, network), tmp_path / name)
            matrices[name] = (tmp_path / name).read_bytes()
        rows.append(f"{trip.driver_id},{trip.trip_id},{len(trip)},{n},{fraction:.4f},{status}")
    assert (out / "matched_trips.csv").read_text().splitlines()[1:] == rows
    if degraded:
        assert [row.rsplit(",", 1)[1] for row in rows[:3]] == ["empty_match", "matched",
                                                                 "poor_match"]
        assert rows[1].split(",")[3] == str(len(trips[1]) - 1)
    assert {p.name: p.read_bytes() for p in (out / "matrices").iterdir()} == matrices


def test_pipeline_help_says_what_workers_does(capsys, monkeypatch):
    for columns in ("40", "60", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)      # argparse wraps help to this width
        assert main(["pipeline", "--help"]) == 0
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        start = next(i for i, line in enumerate(lines) if line.startswith("--workers"))
        # the note runs to the next line that starts an option, however it was wrapped
        end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("-"))
        text = " ".join(lines[start:end])
        assert "ignored" not in text
        for phrase in ("processes", "trips file", "usable CPUs", "(default 1)"):
            assert phrase in text, columns
        # the forest grows in the main process, whatever --workers says
        assert "forest" not in text, columns


@pytest.mark.parametrize("value", ["0", "-3"])
def test_workers_below_one_is_usage_error(tmp_path, caplog, value):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    code = main(["pipeline", "--network", str(data), "--trips", str(data / "trips.csv"),
                 "--workers", value, "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"workers must be >= 1, got {value}" in caplog.text


def test_score_subcommand_fit_and_reuse(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    run = tmp_path / "run"
    assert main(["pipeline", "--network", str(data),
                 "--trips", str(data / "trips.csv"), "--out", str(run),
                 "--save-model"]) == 0

    fresh = tmp_path / "score_fit"
    assert main(["score", "--features", str(run / "features.csv"),
                 "--out", str(fresh), "--save-model"]) == 0
    assert (fresh / "trip_scores.csv").read_bytes() == (run / "trip_scores.csv").read_bytes()
    assert (fresh / "model.json").exists()

    reused = tmp_path / "score_reuse"
    assert main(["score", "--features", str(run / "features.csv"),
                 "--model", str(fresh / "model.json"), "--out", str(reused)]) == 0
    assert (reused / "trip_scores.csv").read_bytes() == (run / "trip_scores.csv").read_bytes()

    assert main(["score", "--features", str(run / "features.csv"),
                 "--model", str(fresh / "model.json"), "--per-category",
                 "--out", str(tmp_path / "bad")]) == 2

    # a model whose tree loops back on itself is refused, not walked forever
    crafted = json.loads((fresh / "model.json").read_text())
    crafted["trees"] = [[[0, 0.5, 0, 0]]] * crafted["params"]["n_trees"]
    (tmp_path / "crafted.json").write_text(json.dumps(crafted))
    assert main(["score", "--features", str(run / "features.csv"),
                 "--model", str(tmp_path / "crafted.json"), "--out", str(tmp_path / "bad")]) == 2


def test_score_with_model_records_the_model_forest(tmp_path):
    """With --model the loaded forest scores, so fitting flags are refused and
    the manifest's params name the model's seed, trees and subsample."""
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    assert main(["pipeline", "--network", str(data), "--trips", str(data / "trips.csv"),
                 "--seed", "3", "--trees", "20", "--save-model", "--out", str(run)]) == 0
    score = ["score", "--features", str(run / "features.csv"), "--model", str(run / "model.json")]
    for flag in (["--seed", "0"], ["--trees", "7"], ["--subsample", "16"]):
        assert main(score + flag + ["--out", str(tmp_path / "bad")]) == 2
    assert main(score + ["--out", str(tmp_path / "reused")]) == 0
    params = json.loads((tmp_path / "reused" / "manifest.json").read_text())["params"]
    assert (params["seed"], params["trees"], params["subsample"]) == (3, 20, 256)
    assert ((tmp_path / "reused" / "trip_scores.csv").read_bytes()
            == (run / "trip_scores.csv").read_bytes())


def test_manifest_renders_only_the_tallies_of_stages_run(tmp_path):
    """A rejection tally is written only by a command that ran its stage, so an
    empty one means nothing was rejected; pipeline and match keep both."""
    data, run = tmp_path / "data", tmp_path / "run"
    network = ["--network", str(data), "--trips", str(data / "trips.csv")]
    assert main(["generate", "--out", str(data)] + GEN_ARGS) == 0
    assert main(["pipeline"] + network + ["--out", str(run)]) == 0
    assert main(["match"] + network + ["--out", str(tmp_path / "match")]) == 0
    assert main(["score", "--features", str(run / "features.csv"),
                 "--out", str(tmp_path / "scored")]) == 0
    assert main(["evaluate", "--pred", str(run / "driver_report.csv"),
                 "--truth", str(data / "truth.csv"), "--out", str(tmp_path / "m.json")]) == 0
    tallies = {"match_rejections", "rejection_reasons"}
    for path in (data / "manifest.json", tmp_path / "scored" / "manifest.json",
                 tmp_path / "m.manifest.json"):
        assert not tallies & set(json.loads(path.read_text())), path
    for path in (run / "summary.json", run / "manifest.json", tmp_path / "match" / "manifest.json"):
        doc = json.loads(path.read_text())
        assert doc["match_rejections"] == doc["rejection_reasons"] == {}, path


def test_contamination_is_no_longer_an_option(tmp_path, caplog):
    data = tmp_path / "data"
    assert main(["pipeline", "--network", str(data), "--trips", str(data / "trips.csv"),
                 "--contamination", "0.2", "--out", str(tmp_path / "run")]) == 2
    assert main(["score", "--features", str(tmp_path / "f.csv"), "--contamination", "0.2",
                 "--out", str(tmp_path / "scored")]) == 2
    cfg = tmp_path / "old.cfg"
    cfg.write_text("contamination=0.2\n")
    for command in (["pipeline", "--network", str(data), "--trips", str(data / "trips.csv")],
                    ["score", "--features", str(tmp_path / "f.csv")]):
        caplog.clear()
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "unknown config key(s): contamination" in caplog.text


def test_analysis_options_map_config_fields_one_to_one():
    """Each AnalysisConfig field has exactly one option, and each option sets a
    field: a field without one would silently keep its default."""
    params = [param for param, _, _ in ANALYSIS_OPTIONS.values()]
    assert sorted(params) == sorted(f.name for f in fields(AnalysisConfig))


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "tripsift", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tripsift" in proc.stdout


NUMPY_IMPORTS = """
import sys
import tripsift.cli
before = set(sys.modules)
assert tripsift.cli.main(sys.argv[1:]) == 0
print(" ".join(sorted({name.split(".")[1] for name in set(sys.modules) - before
                       if name.startswith("numpy.")})))
"""


@pytest.mark.parametrize("command,subpackages", [("pipeline", ["random"]), ("match", [])])
def test_run_imports_no_numpy_subpackage_it_does_not_use(small_dataset, tmp_path,
                                                           command, subpackages):
    """A fresh run imports no numpy subpackage beyond numpy.random, which the
    forest's streams need. (np.unique without return_* flags imports numpy.ma,
    about 14 ms on first use.)"""
    env = {**os.environ, "PYTHONPATH": str(Path(tripsift.__file__).parents[1])}
    argv = [command, "--network", str(small_dataset.nodes_path.parent),
            "--trips", str(small_dataset.trips_path), "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-c", NUMPY_IMPORTS, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == subpackages


def test_no_flags_resolve_to_dataclass_defaults():
    parser = build_parser()
    gen = resolve_options(parser.parse_args(["generate", "--out", "d"]), GENERATE_OPTIONS)
    assert build_config(SynthSpec, GENERATE_OPTIONS, gen) == SynthSpec()
    for command, options in (("pipeline", PIPELINE_OPTIONS), ("match", MATCH_OPTIONS)):
        args = parser.parse_args([command, "--trips", "t.csv", "--out", "o"])
        vals = resolve_options(args, options)
        assert build_config(AnalysisConfig, ANALYSIS_OPTIONS, vals) == AnalysisConfig(alpha=0.0)
    args = parser.parse_args(["score", "--features", "f.csv", "--out", "o"])
    vals = resolve_options(args, SCORE_OPTIONS)
    assert build_config(AnalysisConfig, ANALYSIS_OPTIONS, vals) == AnalysisConfig(alpha=0.0)
    assert (vals["per_category"], vals["save_model"]) == (False, False)


def test_quick_start_keeps_pipeline_manifest(tmp_path, monkeypatch, capsys):
    # the three README quick-start commands, verbatim
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--out", "data"]) == 0
    assert main(["pipeline", "--network", "data", "--trips", "data/trips.csv", "--out", "run"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--pred", "run/driver_report.csv", "--truth", "data/truth.csv",
                 "--out", "run/metrics.json"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "accuracy 0.9444", "precision 0.7500", "recall 1.0000", "f1 0.8571"]
    assert json.loads(Path("run/manifest.json").read_text())["command"] == "pipeline"
    counts = json.loads(Path("run/summary.json").read_text())["counts"]
    assert 0 < counts["points_matched"] <= counts["points_read"] - counts["points_rejected"]
    evaluated = json.loads(Path("run/metrics.manifest.json").read_text())
    assert evaluated["command"] == "evaluate"
    assert evaluated["outcome"] == "success"


def test_no_resource_warnings(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(tripsift.__file__).parents[1])}
    base = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "tripsift"]
    data = tmp_path / "data"
    pipeline = ["pipeline", "--network", str(data), "--trips", str(data / "trips.csv")]
    for argv in (["generate", "--out", str(data)] + GEN_ARGS,
                 pipeline + ["--out", str(tmp_path / "run")],
                 pipeline + ["--workers", "2", "--out", str(tmp_path / "run2")]):
        proc = subprocess.run(base + argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr
