"""tripsift benchmark: closed-loop runs of `tripsift pipeline` on seeded synthetic workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload city --seed 1 --seconds 35 --trace 0

or, for every workload in one command:

    for w in city fleet field; do python3 perfbench/run.py --workload $w --seed 1 --seconds 35 --trace 0; done

One client launches `python3 -m tripsift pipeline` in a fresh child
process, waits for it, checks its outputs, and launches the next, until
--seconds have passed (at least MIN_RUNS runs). The program only sees the
CSV files the workload writes. With --trace 0 the last stdout line holds
the end-to-end metrics (medians over the runs, each run's time, RSS and CPU
from its own os.wait4 rusage). With --trace 1 the same untraced runs are
followed by one traced run (see traced.py), and the last line holds the
per-layer metrics. The lines before it give a table of the metrics and a
JSON record with the host facts, the workload and every run.

The times are given at reference host speed. On a shared 2-vCPU VM
(Xeon, 2.1 GHz) the CPU was seen to run in a fast and a slow state about
1.6x apart, switching every few seconds, so a raw median over one window
mostly said how much of it the host spent slow. Before each pipeline
run, and once after the last, the client therefore times REF_PASSES
passes of a fixed reference workload that does not use tripsift (see
reference_pass), and scales the medians by REF_NOMINAL_S / mean(all
reference pass times). The mean, not the median: the pass times are
bimodal, and their mean follows the share of time spent in each state
where their median jumps from one mode to the other. Across runs, log
median wall time moved with log mean pass time at a slope of 0.8-1.0 on
every workload, so the scale needs no exponent. Scaling each pipeline
run by the passes next to it was tried and was no steadier: a few passes
say little about the state during a run of several seconds. `wall_s` and
`setup_s` (scaled by the same factor; set-up runs seconds before the
window) read as seconds on a host where one reference pass takes
REF_NOMINAL_S, and `points_per_s` as rows per such second. A change to
the program moves them as it moves the raw times, which are printed
alongside and kept in the JSON record.

A run that fails any output check counts as failed, not as slow: its
timings are left out of the medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

MIN_RUNS = 3
SETUP_REPEATS = 3          # setup_s is the median of this many builds (trace 0)
CHILD_TIMEOUT_S = 120.0
WORK_DIR = ".perfbench_work"
REF_NOMINAL_S = 0.2        # reference pass time that the reported times are scaled to
REF_PASSES = 4             # reference passes before each pipeline run and after the last

UNITS = {
    "wall_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s", "f1": "ratio",
    "ingest.trips_s": "s", "ingest.rows_per_s": "1/s", "ingest.rss_mb": "MB",
    "ingest.rows_rejected": "count", "ingest.network_s": "s",
    "matching.s": "s", "matching.queries": "count", "matching.query_us": "us",
    "matching.evals_per_query": "ratio", "matching.snap_rate": "ratio",
    "matching.trips_rejected": "count", "matching.index_s": "s",
    "tripgraph.events_s": "s", "tripgraph.graphs_s": "s", "tripgraph.us_per_trip": "us",
    "features.s": "s", "features.us_per_trip": "us", "features.write_s": "s",
    "iforest.fit_s": "s", "iforest.score_s": "s", "iforest.ns_per_row_tree": "ns",
    "scoring.aggregate_s": "s", "scoring.write_s": "s",
    "pipeline.self_s": "s", "pipeline.cpu_s": "s", "pipeline.trace_overhead": "ratio",
    "cli.overhead_s": "s",
}


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    cpu_s: float
    exit_code: int
    problems: list
    f1: float = 0.0
    points: int = 0


def run_child(argv: list[str], env: dict, log_path: Path) -> tuple[float, float, float, int]:
    """Launch argv, wait for it, return (wall s, max RSS MB, user+sys CPU s, exit code)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, proc.returncode


def reference_pass() -> float:
    """Time one pass of a fixed workload shaped like the pipeline's: text
    parsing, float arithmetic in Python loops, dict updates and a numpy sort.
    It does not touch tripsift, so only the host's speed moves it."""
    t0 = time.perf_counter()
    rows = [f"{i},{(i * 7919) % 10007 / 10007:.6f},{(i * 104729) % 10009 / 10009:.6f}"
            for i in range(60_000)]
    parsed = [tuple(float(x) for x in row.split(",")) for row in rows]
    buckets: dict[int, float] = {}
    for i, a, b in parsed:
        key = int(i) % 997
        buckets[key] = buckets.get(key, 0.0) + (a * a + b * b) ** 0.5
    numpy.sort(numpy.array(parsed), axis=0)
    return time.perf_counter() - t0


def reference_passes() -> list[float]:
    return [reference_pass() for _ in range(REF_PASSES)]


def check_outputs(out: Path, data, first_report: bytes | None) -> tuple[list[str], float, int, bytes]:
    """Correctness gate for one run; returns (problems, f1, points read, driver_report bytes)."""
    from tripsift.evaluate import confusion, metrics, read_truth
    from tripsift.scoring import read_driver_classifications

    problems = []
    summary = json.loads((out / "summary.json").read_text())
    counts = summary["counts"]
    if counts["points_read"] != data.data_rows:
        problems.append(f"points_read {counts['points_read']} != rows written {data.data_rows}")
    accounted = counts["trips_match_rejected"] + counts["trips_alpha_dropped"] + counts["trips_scored"]
    if counts["trips_parsed"] != accounted:
        problems.append(f"trips_parsed {counts['trips_parsed']} != rejected+dropped+scored {accounted}")
    if summary["rejection_reasons"] != data.rejection_reasons:
        problems.append(f"rejection_reasons {summary['rejection_reasons']} != injected {data.rejection_reasons}")
    if summary["match_rejections"] != data.match_rejections:
        problems.append(f"match_rejections {summary['match_rejections']} != injected {data.match_rejections}")
    report = (out / "driver_report.csv").read_bytes()
    if first_report is not None and report != first_report:
        problems.append("driver_report.csv differs from the first run's")
    predicted = read_driver_classifications(out / "driver_report.csv")
    truth = read_truth(data.truth_path)
    if set(predicted) != set(truth):
        problems.append("driver set of driver_report.csv != truth.csv")
        return problems, 0.0, counts["points_read"], report
    f1 = metrics(confusion(predicted, truth)).f1
    return problems, f1, counts["points_read"], report


def pipeline_args(workload, data) -> list[str]:
    return ["pipeline", "--network", str(data.dir), "--trips", str(data.trips_path),
            "--workers", str(workload.workers)]


def measure(argv: list[str], out: Path, env: dict, data, first_report: bytes | None) -> tuple[Run, bytes | None]:
    """One closed-loop run: launch, wait, check. Returns the run and its driver_report bytes."""
    log = out.with_suffix(".log")
    wall, rss, cpu, code = run_child(argv + ["--out", str(out)], env, log)
    run = Run(wall, rss, cpu, code, [])
    if code != 0:
        last_line = log.read_text(errors="replace").strip().splitlines()[-1:]
        run.problems.append(f"exit code {code}: {' '.join(last_line)}")
        return run, None
    try:
        run.problems, run.f1, run.points, report = check_outputs(out, data, first_report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"unreadable outputs: {exc!r}")
        return run, None
    return run, report


def host_facts(root: Path) -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src_digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src_digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_sha(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    return _read(root / ".git" / head[5:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "tripsift" / "__init__.py").is_file():
        print(f"no tripsift sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tripsift
    if not Path(tripsift.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported tripsift from {tripsift.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, build
    import traced

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    host = host_facts(root)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, ref_times, digests = [], [], set()
        for i in range(SETUP_REPEATS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            data = build(workload, args.seed, work / f"data{i}")
            setup_times.append(time.perf_counter() - t0)
            digests.add(hashlib.sha256(data.trips_path.read_bytes()).hexdigest())

        argv = [sys.executable, "-m", "tripsift"] + pipeline_args(workload, data)
        runs: list[Run] = []
        first_report = None
        t_start = time.perf_counter()
        while len(runs) < MIN_RUNS or time.perf_counter() - t_start < args.seconds:
            out = work / f"run{len(runs)}"
            ref_times += reference_passes()
            run, report = measure(argv, out, env, data, first_report)
            runs.append(run)
            if first_report is None and not run.problems:
                first_report = report
            shutil.rmtree(out, ignore_errors=True)
        ref_times += reference_passes()

        traced_run, spans, summary = None, None, None
        if args.trace == 1:
            out, spans_path = work / "traced", work / "spans.json"
            targv = [sys.executable, str(Path(traced.__file__).resolve()), str(spans_path)]
            traced_run, _ = measure(targv + pipeline_args(workload, data), out, env, data, first_report)
            if not traced_run.problems:
                spans = json.loads(spans_path.read_text())
                summary = json.loads((out / "summary.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_runs = runs + ([traced_run] if traced_run else [])
    good = [r for r in runs if not r.problems]
    failed = sum(1 for r in all_runs if r.problems)
    correct = failed == 0 and len(digests) == 1

    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    absent: list[str] = []
    ref_s = statistics.fmean(ref_times)
    if good and args.trace == 0:
        raw = {
            "wall_s": statistics.median(r.wall_s for r in good),
            "points_per_s": statistics.median(r.points / r.wall_s for r in good),
            "setup_s": statistics.median(setup_times),
        }
        scale = REF_NOMINAL_S / ref_s
        metrics = {
            "wall_s": raw["wall_s"] * scale,
            "points_per_s": raw["points_per_s"] / scale,
            "peak_rss_mb": statistics.median(r.rss_mb for r in good),
            "setup_s": raw["setup_s"] * scale,
            "f1": good[0].f1,
        }
    elif good and spans is not None and summary is not None:
        metrics, absent = traced.layer_metrics(
            spans, summary, [r.wall_s for r in good], [r.cpu_s for r in good], traced_run.wall_s)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(all_runs)}  failed {failed}")
    for r in all_runs:
        for problem in r.problems:
            print(f"  FAILED: {problem}")
    print(f"  reference pass mean {ref_s:.4f} s over {len(ref_times)} passes "
          f"(nominal {REF_NOMINAL_S} s)")
    for name, value in metrics.items():
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:28s} {value:14.6g} {UNITS[name]}{note}")
    for name in absent:
        print(f"  {name:28s} {'absent':>14s}")
    record = {
        "host": host,
        "workload": {"name": workload.name, "why": workload.why, "spec": workload.spec,
                     "workers": workload.workers, "predictions": list(workload.predictions)},
        "setup_s": setup_times,
        "reference_s": ref_times,
        "raw": raw,
        "runs": [r.__dict__ for r in all_runs],
        "traced": traced_run is not None,
        "absent": absent,
        "missing_targets": spans["missing"] if spans else None,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
