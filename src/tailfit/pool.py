"""Run a task over contiguous ranges of its input in forked worker processes.

The bootstrap's replicate ranges and ingestion's byte and value ranges
all go through ``run_ranges``; ``tailfit fit`` forks one pool for all of
its replicates, those of both families with ``--dist both``. Workers are
forked, so they inherit the task and everything it refers to (samples,
open files, closures) from the parent's memory; only the range bounds
and each range's result are pickled.

Each worker keeps the memory it frees for its next allocations: glibc's
allocator would otherwise serve every large array with a fresh ``mmap``
and hand freed heap back to the kernel, so a worker that builds arrays of
the same size range after range would fault their pages in anew each
time. Where the C library has ``mallopt`` (glibc), each worker fixes the
mmap and trim thresholds at ``WORKER_MMAP_THRESHOLD`` and
``WORKER_TRIM_THRESHOLD`` bytes before its first range
(``keep_freed_memory``). ``run_ranges`` never touches the calling
process's allocator. The command line fixes it, in its own process, at
the smaller ``CLI_MMAP_THRESHOLD`` and ``CLI_TRIM_THRESHOLD``.
"""
from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

# Ranges handed to the pool per worker; more than one lets a worker that
# finishes early take over the work of a slow one.
RANGES_PER_WORKER = 4

# glibc's mallopt parameters (malloc.h) and the worker values: arrays up to
# 32 MiB (glibc's largest mmap threshold on 64-bit) come from the heap, and
# up to twice that of free heap is kept, as glibc's own dynamic threshold
# would do after freeing a 32 MiB block.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
WORKER_MMAP_THRESHOLD = 32 << 20
WORKER_TRIM_THRESHOLD = 64 << 20
# The command line's own process: a bootstrap run there, and the fits,
# would otherwise fault in fresh pages for every array, but arrays the
# size of a whole input still go back to the kernel when freed, which
# keeps its peak memory near that of its largest arrays.
CLI_MMAP_THRESHOLD = 4 << 20
CLI_TRIM_THRESHOLD = 8 << 20


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def usable_workers(workers: int) -> int:
    """``workers`` capped by the usable CPUs, or 1 where processes cannot fork."""
    if workers < 1:
        raise ValueError("need at least one worker")
    workers = min(workers, _usable_cpus())
    if workers > 1:
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return workers


def run_ranges(task, ranges, workers: int):
    """Yield ``task(lo, hi)`` for each ``(lo, hi)`` in ``ranges``, in order.

    With more than one usable worker (see ``usable_workers``, and at most
    one per range) the ranges run in a pool of forked processes, and each
    result is yielded as soon as it and those before it are back, so the
    caller can consume them while later ranges still run. An exception
    raised by the task reaches the caller with its own type; a worker that
    dies raises ``BrokenProcessPool``.
    """
    workers = min(usable_workers(workers), len(ranges))
    if workers <= 1:
        for lo, hi in ranges:
            yield task(lo, hi)
        return
    # The executor forks every worker before it starts its own thread,
    # and raises BrokenProcessPool if a worker dies, where a
    # multiprocessing.Pool would wait for its lost results forever.
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_set_worker_task,
        initargs=(task,),
    )
    try:
        yield from pool.map(_run_worker_task, ranges)
    finally:
        pool.shutdown(cancel_futures=True)


def even_ranges(n: int, parts: int, align: int = 1) -> list[tuple[int, int]]:
    """[0, n) cut into at most ``parts`` contiguous ranges of nearly equal
    size, each starting at a multiple of ``align``."""
    blocks = -(-n // align)
    parts = max(1, min(parts, blocks))
    bounds = [min(n, blocks * i // parts * align) for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


# Set in each pool worker, from the parent's memory, before any range runs.
_worker_task = None


def _set_worker_task(task) -> None:
    global _worker_task
    _worker_task = task
    keep_freed_memory()


def keep_freed_memory(
    mmap_threshold: int = WORKER_MMAP_THRESHOLD, trim_threshold: int = WORKER_TRIM_THRESHOLD
) -> None:
    """Fix this process's malloc mmap and trim thresholds (see the module
    docstring); nothing where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, mmap_threshold)
    mallopt(M_TRIM_THRESHOLD, trim_threshold)


def _run_worker_task(bounds: tuple[int, int]):
    return _worker_task(*bounds)
