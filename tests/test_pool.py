"""The fork pool: its contract (results in range order, a task's own
exception, a clear error for a dead worker or an unpicklable result, and
no worker left behind however the caller ends), and its allocator
setting, made in each worker, never in the process that runs the pool,
and without effect on any result."""
import ctypes
import os
import pickle
import subprocess
import sys
import threading

import pytest

from tailfit import LognormalModel, SeededGenerator, bootstrap_pvalue, fit_lognormal, quantize
from tailfit import ingestion, pool, sample_lognormal
from tailfit.ingestion import read_durations_text, write_durations_text


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)


class FakeLibc:
    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


def test_sets_both_thresholds(monkeypatch):
    libc = FakeLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    pool.keep_freed_memory()
    assert libc.calls == [
        (pool.M_MMAP_THRESHOLD, pool.WORKER_MMAP_THRESHOLD),
        (pool.M_TRIM_THRESHOLD, pool.WORKER_TRIM_THRESHOLD),
    ]


def no_library(name):
    raise OSError("cannot open shared object file")


@pytest.mark.parametrize("libc", [lambda name: object(), no_library])
def test_no_op_without_mallopt(monkeypatch, libc):
    monkeypatch.setattr(ctypes, "CDLL", libc)
    pool.keep_freed_memory()


def test_only_workers_set_it(monkeypatch):
    # The setting marks the process it runs in; each range reports its
    # process and that process's marks.
    marks = []
    monkeypatch.setattr(pool, "keep_freed_memory", lambda: marks.append(os.getpid()))

    def task(lo, hi):
        return os.getpid(), list(marks)

    ranges = pool.even_ranges(8, 4)
    serial = list(pool.run_ranges(task, ranges, 1))
    assert serial == [(os.getpid(), [])] * len(ranges)
    forked = list(pool.run_ranges(task, ranges, 2))
    assert marks == []
    for pid, seen in forked:
        assert pid != os.getpid() and seen == [pid]


def test_glibc_accepts_the_values():
    # Run in a worker, so that the calling process keeps its settings.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        pytest.skip("no mallopt in this C library")

    def task(lo, hi):
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        return (
            mallopt(pool.M_MMAP_THRESHOLD, pool.WORKER_MMAP_THRESHOLD),
            mallopt(pool.M_TRIM_THRESHOLD, pool.WORKER_TRIM_THRESHOLD),
        )

    assert list(pool.run_ranges(task, [(0, 1), (1, 2)], 2)) == [(1, 1), (1, 1)]


def test_outputs_equal_at_one_and_two_workers(tmp_path, monkeypatch):
    # A bootstrap of the closed-form lognormal on an hour lattice (its KS
    # scored on runs of equal values), and duration text formatted and
    # read in worker ranges.
    monkeypatch.setattr(ingestion, "POOL_MIN_BYTES", 1)
    s, _ = quantize(
        sample_lognormal(LognormalModel(10.45, 2.75), 4_000, SeededGenerator(40)), 3600.0
    )
    fit = fit_lognormal(s)
    results = []
    for workers in (1, 2):
        boot = bootstrap_pvalue(s, fit, 100, SeededGenerator(41), workers=workers)
        path = tmp_path / f"durations{workers}.txt"
        with open(path, "w") as fh:
            write_durations_text(s, fh, workers)
        with open(path) as fh:
            back = read_durations_text(fh, workers)
        results.append((boot, path.read_bytes(), back.values.tobytes()))
    assert results[1] == results[0]
    assert results[0][2] == s.values.tobytes()


def test_one_worker_where_processes_cannot_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert pool.usable_workers(2) == 1
    ranges = [(0, 1), (1, 2)]
    assert list(pool.run_ranges(lambda lo, hi: (lo, os.getpid()), ranges, 2)) == [
        (0, os.getpid()), (1, os.getpid())
    ]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_output_buffered_before_the_fork_is_written_once():
    # Block-buffered standard output, as in a pipe: what the parent printed
    # before the workers forked is not flushed again by each worker, and
    # what a worker prints is not lost.
    code = (
        "from tailfit import pool\n"
        "pool._usable_cpus = lambda: 2\n"
        "print('before')\n"
        "def task(lo, hi):\n"
        "    print(f'range {lo}')\n"
        "list(pool.run_ranges(task, [(0, 1), (1, 2)], 2))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pool.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(done.stdout.splitlines()) == ["before", "range 0", "range 1"]


def test_task_exception_keeps_its_type():
    def task(lo, hi):
        if lo == 3:
            raise ValueError(f"bad range {lo}..{hi}")
        return lo

    results = pool.run_ranges(task, [(i, i + 1) for i in range(6)], 2)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError, match="bad range 3..4"):
        next(results)
    assert no_child_left()


def test_early_close_leaves_no_child():
    def task(lo, hi):
        return lo

    results = pool.run_ranges(task, [(i, i + 1) for i in range(100)], 2)
    assert next(results) == 0
    results.close()
    assert no_child_left()


def test_more_ranges_than_the_index_pipe_holds():
    # 80 000 bytes of indices, more than a 64 KiB pipe buffer holds.
    ranges = [(i, i + 1) for i in range(10_000)]
    assert list(pool.run_ranges(lambda lo, hi: lo, ranges, 2)) == list(range(10_000))
    assert no_child_left()


def test_large_results_come_back_whole():
    # Each result is far larger than a pipe's buffer.
    def task(lo, hi):
        return bytes([lo]) * (1 << 20)

    results = list(pool.run_ranges(task, [(i, i + 1) for i in range(6)], 2))
    assert results == [bytes([i]) * (1 << 20) for i in range(6)]
    assert no_child_left()


@pytest.mark.parametrize("outcome", ["result", "exception"])
def test_unpicklable_outcome_is_a_clear_error(outcome):
    def task(lo, hi):
        if outcome == "result":
            return threading.Lock()
        raise ValueError(threading.Lock())

    message = rf"the {outcome}.* of range \(0, 1\) cannot be pickled"
    with pytest.raises(pickle.PicklingError, match=message):
        list(pool.run_ranges(task, [(0, 1), (1, 2)], 2))
    assert no_child_left()


@pytest.mark.parametrize(
    "at, end, message",
    [
        (0, lambda: os._exit(7), "exited with code 7"),
        (5, lambda: os._exit(7), "exited with code 7"),  # the other worker goes on
        (1, lambda: os.kill(os.getpid(), 9), "killed by signal 9"),
    ],
)
def test_dead_worker_raises_and_leaves_no_child(at, end, message):
    def task(lo, hi):
        if lo == at:
            end()
        return lo

    with pytest.raises(pool.WorkerDiedError, match=message):
        list(pool.run_ranges(task, [(i, i + 1) for i in range(10)], 2))
    assert no_child_left()
