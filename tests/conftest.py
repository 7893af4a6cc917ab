import pytest

from tripsift.synth import SynthSpec, generate_dataset

SMALL_SPEC = SynthSpec(
    rows=5, cols=5, n_drivers=6, trips_per_driver=5,
    abnormal_driver_fraction=1 / 3, injection_rate=0.6, rng_seed=3,
)


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """One small generated dataset shared across the suite (read only)."""
    out = tmp_path_factory.mktemp("dataset")
    return generate_dataset(SMALL_SPEC, out)


@pytest.fixture(scope="session")
def no_event_dataset(small_dataset, tmp_path_factory):
    """The small dataset's trips without the event columns, so the pipeline
    derives hard events, and with one row's speed made non-numeric.
    Returns (nodes path, segments path, trips path)."""
    lines = small_dataset.trips_path.read_text().splitlines()
    rows = [line.split(",")[:8] for line in lines]
    rows[1][6] = "fast"
    path = tmp_path_factory.mktemp("no_events") / "trips.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return small_dataset.nodes_path, small_dataset.segments_path, path


# one visible line per acceptance criterion, printed after the run
_acceptance_results: list[tuple[str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        _acceptance_results.append((item.name, report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_results:
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status} {name}")
