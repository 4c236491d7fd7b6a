"""Run a task over contiguous ranges of its input in forked worker processes.

The bootstrap's replicate ranges and ingestion's byte and value ranges
all go through ``run_ranges``; ``tailfit fit`` forks one pool for all of
its replicates, those of both families with ``--dist both``. Workers are
forked with ``os.fork``, so they inherit the task, the ranges and
everything they refer to (samples, open files, closures) from the
parent's memory; only each range's result crosses back, pickled.

The pool is three kinds of pipe and no thread. The parent queues range
indices, 8 bytes each, on one pipe that every worker reads: a read that
small is atomic, so each index reaches one worker, and the ranges go to
whichever worker is free, in order. A worker sends each result as a
fixed-size header (range, worker, payload bytes) on a pipe that all
workers share, a write small enough to be atomic, and then the pickled
``(ok, value)`` payload on a pipe of its own, which the parent reads
into one buffer of the header's size. The parent queues at most
``QUEUED_RANGES`` indices at once, one more for each result it reads,
so that its writes never wait on a full pipe. A worker ends in
``os._exit`` once the index pipe is empty and closed; the parent reaps
every worker and closes every pipe however ``run_ranges`` ends, and
kills the workers first unless every range came back.

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
import os
import pickle
import signal
import struct
import sys

# Ranges handed to the pool per worker; more than one lets a worker that
# finishes early take over the work of a slow one.
RANGES_PER_WORKER = 4
# Range indices queued on the index pipe at once: 4096 bytes, which every
# Linux pipe holds (one page; PIPE_BUF), so no write of the parent's
# waits. It also caps the workers, each of which must find an index.
QUEUED_RANGES = 512

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

_INDEX = struct.Struct("q")
_HEADER = struct.Struct("3q")  # range index, worker, payload bytes


class WorkerDiedError(RuntimeError):
    """A worker process ended before it sent back every range it took,
    for example killed by the kernel for want of memory."""


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def usable_workers(workers: int) -> int:
    """``workers`` capped by the usable CPUs, or 1 where processes cannot fork."""
    if workers < 1:
        raise ValueError("need at least one worker")
    return min(workers, _usable_cpus()) if hasattr(os, "fork") else 1


def run_ranges(task, ranges, workers: int):
    """Yield ``task(lo, hi)`` for each ``(lo, hi)`` in ``ranges``, in order.

    With more than one usable worker (see ``usable_workers``, and at most
    one per range) the ranges run in a pool of forked processes, and each
    result is yielded as soon as it and those before it are back, so the
    caller can consume them while later ranges still run. An exception
    raised by the task reaches the caller with its own type; a result or
    exception that cannot be pickled raises ``pickle.PicklingError``; a
    worker that dies raises ``WorkerDiedError``. However the generator
    ends, no worker outlives it.
    """
    workers = min(usable_workers(workers), len(ranges), QUEUED_RANGES)
    if workers <= 1:
        for lo, hi in ranges:
            yield task(lo, hi)
        return
    yield from _forked(task, ranges, workers)


def even_ranges(n: int, parts: int, align: int = 1) -> list[tuple[int, int]]:
    """[0, n) cut into at most ``parts`` contiguous ranges of nearly equal
    size, each starting at a multiple of ``align``."""
    blocks = -(-n // align)
    parts = max(1, min(parts, blocks))
    bounds = [min(n, blocks * i // parts * align) for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _forked(task, ranges, workers: int):
    n = len(ranges)
    fds: list[int] = []  # every pipe end open in this process
    pids: dict[int, int] = {}  # worker -> pid, until reaped
    complete = False

    def pipe() -> tuple[int, int]:
        r, w = os.pipe()
        fds.extend((r, w))
        return r, w

    def close(fd: int) -> None:
        fds.remove(fd)
        os.close(fd)

    def reap(k: int) -> tuple[int, int]:
        pid = pids.pop(k)
        return pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def died(i: int, pid: int, code: int) -> WorkerDiedError:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return WorkerDiedError(
            f"worker process {pid} {how} before sending back the result of range {ranges[i]}"
        )

    try:
        index_r, index_w = pipe()
        heads_r, heads_w = pipe()
        queued = min(n, QUEUED_RANGES)
        os.write(index_w, b"".join(map(_INDEX.pack, range(queued))))
        if queued == n:
            close(index_w)
        # Nothing the parent has buffered reaches a worker's output twice.
        _flush_std_streams()
        payloads = []
        for k in range(workers):
            payload_r, payload_w = pipe()
            pid = os.fork()
            if pid == 0:
                _work(task, ranges, k, fds, index_r, heads_w, payload_w)
            pids[k] = pid
            close(payload_w)
            payloads.append(payload_r)
        close(index_r)
        close(heads_w)

        back: dict[int, bytearray] = {}
        for i in range(n):
            while i not in back:
                head = _read_exactly(heads_r, _HEADER.size)
                if head is None:
                    # Every worker has ended, one of them holding range i:
                    # name the first that did not end cleanly.
                    ends = [reap(k) for k in list(pids)]
                    raise died(i, *next((end for end in ends if end[1]), ends[0]))
                j, k, size = _HEADER.unpack(head)
                payload = _read_exactly(payloads[k], size)
                if payload is None:
                    raise died(j, *reap(k))
                back[j] = payload
                if queued < n:
                    os.write(index_w, _INDEX.pack(queued))
                    queued += 1
                    if queued == n:
                        close(index_w)
            ok, value = _loads(back.pop(i), ranges[i])
            if not ok:
                raise value
            yield value
        complete = True
    finally:
        for fd in fds:
            os.close(fd)
        # Every range came back: each worker has read the end of the
        # index pipe, or soon will, and exits. Otherwise they may still
        # be running ranges nobody will read.
        if not complete:
            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
        for pid in pids.values():
            os.waitpid(pid, 0)


def _work(task, ranges, k: int, fds: list[int], index: int, heads: int, payload: int):
    """Worker ``k``'s life: run each range whose index it reads, send back
    its outcome, and end in ``os._exit`` when the indices run out, so that
    it never unwinds into its caller's frames."""
    code = 1
    try:
        for fd in fds:
            if fd not in (index, heads, payload):
                os.close(fd)
        keep_freed_memory()
        while job := os.read(index, _INDEX.size):
            (i,) = _INDEX.unpack(job)
            data = _dumps(task, *ranges[i])
            os.write(heads, _HEADER.pack(i, k, len(data)))
            with memoryview(data) as view:
                sent = 0
                while sent < len(data):
                    sent += os.write(payload, view[sent:])
        _flush_std_streams()
        code = 0
    finally:
        os._exit(code)


def _dumps(task, lo: int, hi: int) -> bytes:
    """The pickled ``(ok, value)`` outcome of ``task(lo, hi)``: its result,
    or the exception it raised."""
    try:
        outcome = (True, task(lo, hi))
    except Exception as exc:
        outcome = (False, exc)
    try:
        return pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        what = "result" if outcome[0] else f"exception {outcome[1]!r}"
        error = pickle.PicklingError(
            f"the {what} of range {(lo, hi)} cannot be pickled in its worker: {exc}"
        )
        return pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)


def _loads(data: bytearray, bounds: tuple[int, int]):
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise pickle.UnpicklingError(
            f"the outcome of range {bounds} cannot be unpickled from its worker: {exc}"
        ) from exc


def _read_exactly(fd: int, size: int) -> bytearray | None:
    """``size`` bytes read from ``fd`` into one buffer, or None if the
    pipe ends first."""
    data = bytearray(size)
    with memoryview(data) as view:
        got = 0
        while got < size:
            step = os.readv(fd, [view[got:]])
            if not step:
                return None
            got += step
    return data


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # None, or closed
            pass


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
