"""The fork pool's allocator setting: made in each worker, never in the
process that runs the pool, and without effect on any result."""
import ctypes
import os

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
