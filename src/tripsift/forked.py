"""Run the independent parts of one job in forked worker processes.

run_parts computes the first part in the calling process and each other
part in a child made with os.fork, which starts from a copy of the
caller's memory, so arguments are never pickled. A child pickles its
result (or the exception it raised) into a pipe and ends with os._exit;
the caller reads the results back in part order. No resource tracker,
pool or helper thread is involved, and every child is reaped before
run_parts returns or raises.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Any, Callable, Sequence


def process_count(workers: int) -> int:
    """How many processes a job split `workers` ways may use: workers,
    capped at the CPUs this process may run on. 1 where os.fork is missing
    or other threads are running, since a forked child inherits only the
    calling thread and could block on a lock another thread held.

    Raises:
        ValueError: workers below 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


def run_parts(fn: Callable[..., Any], parts: Sequence[tuple]) -> list[Any]:
    """[fn(*args) for args in parts], with parts[0] computed here and each
    other part in a forked child, all at the same time.

    An exception raised by any part is raised here: the first one in part
    order. A child that ends without reporting raises ChildProcessError.
    On any exception, children not yet collected are killed; all are reaped.
    """
    children: dict[int, int] = {}       # pid -> read end of its pipe, until reaped
    try:
        for args in parts[1:]:
            pid, fd = _start(fn, args, list(children.values()))
            children[pid] = fd
        results = [fn(*parts[0])]
        for pid in list(children):
            results.append(_collect(pid, children))
        return results
    finally:
        for pid, fd in children.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _start(fn: Callable[..., Any], args: tuple, inherited: list[int]) -> tuple[int, int]:
    """Fork a child that pickles (True, fn(*args)), or (False, the exception),
    into a pipe; return its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        # holding no other read end, the child's write fails once the caller is gone
        for fd in (read_fd, *inherited):
            os.close(fd)
        with open(write_fd, "wb") as out:
            try:
                report = (True, fn(*args))
            except BaseException as exc:
                report = (False, _portable(exc))
            pickle.dump(report, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _portable(exc: BaseException) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _collect(pid: int, children: dict[int, int]) -> Any:
    """Read a child's report from its pipe, reap the child, and return its
    result or raise its exception."""
    with open(children[pid], "rb", closefd=False) as pipe:
        try:
            report = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            report = None      # the child died before its report was complete
    _, status = os.waitpid(pid, 0)
    os.close(children.pop(pid))
    if report is None:
        raise ChildProcessError(f"worker process {pid} ended without a result "
                                f"(wait status {status})")
    ok, value = report
    if not ok:
        raise value
    return value
