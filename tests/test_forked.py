"""Forked parts: results in order, errors raised here, no child left behind."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tripsift import forked
from tripsift.forked import process_count, run_parts


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pid_and(value):
    return os.getpid(), value


def test_results_in_part_order_first_part_here():
    results = run_parts(pid_and, [("a",), ("b",), ("c",)])
    assert [value for _, value in results] == ["a", "b", "c"]
    pids = [pid for pid, _ in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    assert_no_child_left()


def fail_in_child(message, in_child):
    if in_child:
        raise ValueError(message)
    return message


def test_child_exception_is_raised_here_first_in_part_order():
    with pytest.raises(ValueError, match="^second$"):
        run_parts(fail_in_child, [("first", False), ("second", True), ("third", True)])
    assert_no_child_left()


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}-{b}")


def raise_unpicklable(in_child):
    if in_child:
        raise Unpicklable(1, 2)


def test_unpicklable_child_exception_becomes_runtime_error():
    with pytest.raises(RuntimeError, match="Unpicklable: 1-2"):
        run_parts(raise_unpicklable, [(False,), (True,)])
    assert_no_child_left()


def die_in_child(in_child):
    if in_child:
        os._exit(3)


def test_child_that_dies_without_reporting_raises():
    with pytest.raises(ChildProcessError, match="ended without a result"):
        run_parts(die_in_child, [(False,), (True,)])
    assert_no_child_left()


def sleep_or_raise(in_child):
    if in_child:
        time.sleep(60)
    raise KeyError("here")


def test_failure_here_kills_and_reaps_running_children():
    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        run_parts(sleep_or_raise, [(False,), (True,), (True,)])
    assert time.perf_counter() - t0 < 30
    assert_no_child_left()


def test_process_count_caps_at_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert process_count(1) == 1
    assert process_count(3) == 3
    assert process_count(1000) == 3


@pytest.mark.parametrize("workers", [0, -3])
def test_process_count_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        process_count(workers)


def test_process_count_is_one_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert process_count(8) == 1
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


def test_process_count_is_one_without_fork(monkeypatch):
    monkeypatch.delattr(forked.os, "fork")
    assert process_count(8) == 1


def test_child_exits_once_its_caller_is_gone(tmp_path):
    """The caller ends while its child still works; the child's report then
    meets a broken pipe, and the child ends too."""
    pid_file = tmp_path / "pid"
    script = f"""
import os, time
from tripsift.forked import run_parts

def part(in_child):
    if in_child:
        with open({str(pid_file)!r} + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.rename({str(pid_file)!r} + ".tmp", {str(pid_file)!r})
        time.sleep(1)
        return "late"
    while not os.path.exists({str(pid_file)!r}):
        time.sleep(0.01)
    os._exit(0)

run_parts(part, [(False,), (True,)])
"""
    env = {**os.environ, "PYTHONPATH": str(Path(forked.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", script], env=env, timeout=30, check=True)
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state == "Z":
            return
        time.sleep(0.05)
    pytest.fail(f"child {pid} still running after its caller ended")
