"""Turn raw timestamped event logs into per-actor inter-event duration
samples.

The event CSV is read in chunks of ``CHUNK_ROWS`` rows, and each chunk
becomes an ``EventBatch`` of columns: the accepted timestamps, actor codes
into the chunk's own actor names, and the direction column if there is
one. Each batch also carries its chunk's counts of rows read and dropped;
``interevent_durations`` adds them up and is the one stage that fills an
``IngestSummary``. It keeps every accepted timestamp once, as two
columns of 12 bytes per event (a float64 timestamp and an int32 actor
code, actors numbered in first-seen order), plus one chunk of rows, so
memory still grows with the number of events. It then takes every
actor's gaps at once: one stable lexsort by (actor, timestamp), one diff,
a mask at the actor boundaries, and one sort of the positive gaps.

Duration text is written and read in blocks of ``CHUNK_ROWS`` values.

With more than one worker, large inputs are parsed, formatted and read
in contiguous ranges by forked processes (``pool.run_ranges``): a regular
file in byte ranges that end after a newline, the values to format in
ranges of whole blocks. Every result is put together in input order, so
it is the same for any worker count.
"""
from __future__ import annotations

import codecs
import csv
import gc
import io
import os
import stat
import struct
from array import array
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import chain, compress, count, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .pool import RANGES_PER_WORKER, even_ranges, run_ranges, usable_workers
from .sample import DurationSample

BINARY_MAGIC = b"TFD1"
CHUNK_ROWS = 8192
# Inputs smaller than this many bytes (of file, or of float64 values to
# format) are handled in-process. Starting two forked workers took 7-20 ms
# on a 2-core host, what one core spends parsing 0.4-1 MB of event CSV, so
# a pool pays for itself only from a few MB on.
POOL_MIN_BYTES = 4 << 20


@dataclass
class IngestSummary:
    events_read: int = 0
    events_dropped: int = 0
    actors: int = 0
    durations_emitted: int = 0
    zero_gaps_dropped: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EventBatch:
    """The accepted events of one chunk of CSV rows, as columns.

    ``codes[i]`` indexes ``actors``, the chunk's actor names in first-seen
    order. ``directions`` is an object array (a row too short for the
    column has None), or None when the log has no direction column.
    ``rows`` counts the chunk's rows and ``dropped`` those not accepted.
    """

    timestamps: np.ndarray  # float64
    codes: np.ndarray  # int32
    actors: list[str]
    directions: np.ndarray | None
    rows: int
    dropped: int

    def take(self, mask: np.ndarray) -> "EventBatch":
        """The events where ``mask`` is True; ``actors`` is kept whole."""
        return replace(
            self,
            timestamps=self.timestamps[mask],
            codes=self.codes[mask],
            directions=None if self.directions is None else self.directions[mask],
        )


def parse_events(stream: TextIO, workers: int = 1) -> Iterator[EventBatch]:
    """Stream EventBatches from CSV with header ``actor,timestamp[,direction]``.

    A row is dropped when it is too short, its timestamp does not parse
    with ``float`` or is not finite or is negative, or its actor is empty.
    Dropped rows are counted in their batch; ingestion only fails
    afterwards (see ``check_malformed_fraction``) if more than half the
    lines were bad. Every chunk yields a batch, even one with no accepted
    events, so that its counts reach ``interevent_durations``.

    With ``workers`` > 1, a large regular file without a ``"`` (a quoted
    field may hold a newline) is parsed in byte ranges by forked workers;
    the events, in file order, and the counts are the same.
    """
    ranges = _line_ranges(stream, workers, forbid=b'"')
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise ValueError("empty input")
    columns = [c.strip().lower() for c in header]
    if "actor" not in columns or "timestamp" not in columns:
        raise ValueError("expected CSV header actor,timestamp[,direction]")
    i_actor = columns.index("actor")
    i_ts = columns.index("timestamp")
    i_dir = columns.index("direction") if "direction" in columns else None
    if ranges is None:
        yield from _parse_rows(reader, i_actor, i_ts, i_dir)
        return

    def parse_range(lo: int, hi: int) -> list[EventBatch]:
        reader = csv.reader(_range_text(stream, lo, hi))
        if lo == 0:
            next(reader)  # the header, read above
        return list(_parse_rows(reader, i_actor, i_ts, i_dir))

    yield from chain.from_iterable(run_ranges(parse_range, ranges, workers))


def _parse_rows(reader, i_actor, i_ts, i_dir) -> Iterator[EventBatch]:
    """A batch per ``CHUNK_ROWS`` rows of ``reader``."""
    while True:
        # The chunk's row lists set off cyclic collections that find no
        # garbage; the collector is back on before the batch is yielded.
        enabled = gc.isenabled()
        gc.disable()
        try:
            rows = list(islice(reader, CHUNK_ROWS))
            batch = _parse_chunk(rows, i_actor, i_ts, i_dir) if rows else None
        finally:
            if enabled:
                gc.enable()
        if batch is None:
            return
        yield batch


def _parse_chunk(rows, i_actor, i_ts, i_dir) -> EventBatch:
    """The accepted rows of one chunk, as columns."""
    n_rows = len(rows)
    try:
        actors = list(map(itemgetter(i_actor), rows))
        stamps = np.fromiter(map(float, map(itemgetter(i_ts), rows)), np.float64, len(rows))
    except (IndexError, ValueError):
        # A short row or an unparsable stamp: the same rules, row by row.
        kept, actors, values = [], [], []
        for row in rows:
            try:
                actor = row[i_actor]
                value = float(row[i_ts])
            except (IndexError, ValueError):
                continue
            kept.append(row)
            actors.append(actor)
            values.append(value)
        rows = kept
        stamps = np.array(values, dtype=np.float64)
    named = np.fromiter(map(bool, actors), bool, len(actors))
    keep = np.isfinite(stamps) & (stamps >= 0) & named
    if not keep.all():
        selected = keep.tolist()
        rows = list(compress(rows, selected))
        actors = list(compress(actors, selected))
        stamps = stamps[keep]
    # Each actor maps to the row of its first occurrence; ranking those
    # rows numbers the actors 0, 1, ... in first-seen order.
    first_row: dict[str, int] = {}
    occurrence = np.fromiter(map(first_row.setdefault, actors, count()), np.int64, len(actors))
    codes = np.unique(occurrence, return_inverse=True)[1].astype(np.int32)
    directions = None
    if i_dir is not None:
        directions = np.array(
            [row[i_dir] if len(row) > i_dir else None for row in rows], dtype=object
        )
    return EventBatch(stamps, codes, list(first_row), directions, n_rows, n_rows - stamps.size)


def check_malformed_fraction(summary: IngestSummary) -> None:
    if summary.events_read and summary.events_dropped > summary.events_read / 2:
        raise ValueError(
            f"{summary.events_dropped} of {summary.events_read} lines malformed"
        )


def _columns(batches, direction, summary):
    """Every kept event as global actor codes (first-seen order) and
    timestamps, and the actor names. Adds each batch's row counts into
    ``summary``."""
    stamps, codes = array("d"), array("i")
    names: dict[str, int] = {}
    for batch in batches:
        summary.events_read += batch.rows
        summary.events_dropped += batch.dropped
        if direction is not None:
            if batch.directions is None:
                continue
            batch = batch.take(batch.directions == direction)
        present, first = np.unique(batch.codes, return_index=True)
        to_global = np.empty(len(batch.actors), np.int32)
        for code in present[np.argsort(first)].tolist():
            to_global[code] = names.setdefault(batch.actors[code], len(names))
        codes.frombytes(memoryview(to_global[batch.codes]).cast("B"))
        stamps.frombytes(memoryview(batch.timestamps).cast("B"))
    return (
        np.frombuffer(codes, dtype=np.int32),
        np.frombuffer(stamps, dtype=np.float64),
        list(names),
    )


def interevent_durations(
    events: Iterable[EventBatch],
    direction: str | None = None,
    summary: IngestSummary | None = None,
    per_actor: bool = False,
):
    """Pool per-actor inter-event durations into one sample.

    Per actor, timestamps are sorted ascending and successive differences
    emitted; zero gaps (duplicate timestamps) are dropped and counted.
    Actors with fewer than two events contribute nothing. With
    ``per_actor=True`` a dict actor -> DurationSample is returned instead,
    actors in first-seen order. The returned summary (``summary`` if given)
    also holds the row counts of the batches.
    """
    if summary is None:
        summary = IngestSummary()
    codes, stamps, names = _columns(events, direction, summary)
    n = codes.size
    summary.actors = len(names)
    sizes = np.bincount(codes, minlength=len(names))
    order = np.lexsort((stamps, codes))
    del codes
    stamps = stamps[order]
    del order
    gaps = np.diff(stamps)
    del stamps
    # Actor k's events sit at [ends[k] - sizes[k], ends[k]) in time order.
    # Zeroing the step from each actor's last event to the next actor's
    # first masks it out; the n - actors gaps within actors are counted.
    ends = np.cumsum(sizes)
    gaps[ends[:-1] - 1] = 0.0
    positive = gaps > 0
    emitted = int(np.count_nonzero(positive))
    summary.zero_gaps_dropped += n - len(names) - emitted
    summary.durations_emitted += emitted

    if per_actor:
        out = {}
        for name, lo, hi in zip(names, (ends - sizes).tolist(), ends.tolist()):
            g = gaps[lo : hi - 1]
            g = g[g > 0]
            if g.size:
                out[name] = DurationSample(g)
        return out, summary

    gaps = gaps[positive]
    del positive
    if not gaps.size:
        raise ValueError("no positive inter-event durations in input")
    gaps.sort()
    return DurationSample(gaps), summary


def split_by_resolution(
    events: Iterable[EventBatch],
    predicate: Callable[[EventBatch], np.ndarray],
) -> dict:
    """Partition events by a resolution class (e.g. minute-truncated vs
    second-accurate epochs) and build one pooled sample per class.

    ``predicate`` maps a batch to one label per event, computed from its
    columns (``timestamps``, ``codes``/``actors``). Classes appear in the
    order of their first event; empty partitions are omitted.
    """
    parts: dict = {}
    for batch in events:
        labels = np.asarray(predicate(batch))
        found, first = np.unique(labels, return_index=True)
        for label in found[np.argsort(first)].tolist():
            parts.setdefault(label, []).append(batch.take(labels == label))
    out = {}
    for label, batches in parts.items():
        try:
            sample, _ = interevent_durations(batches)
        except ValueError:
            continue
        out[label] = sample
    return out


def read_durations_text(stream: TextIO, workers: int = 1) -> DurationSample:
    """One decimal duration per line.

    With ``workers`` > 1, a large regular file is read in byte ranges by
    forked workers; the sample is the same.
    """
    values = array("d")
    ranges = _line_ranges(stream, workers)
    if ranges is None:
        bad = _read_lines(stream, values)
    else:
        def read_range(lo: int, hi: int) -> tuple[array, int]:
            part = array("d")
            return part, _read_lines(_range_text(stream, lo, hi), part)

        bad = 0
        for part, part_bad in run_ranges(read_range, ranges, workers):
            values.extend(part)
            bad += part_bad
    if not values:
        raise ValueError("no durations in input")
    if bad > len(values):
        raise ValueError(f"{bad} malformed duration lines")
    return DurationSample(np.sort(np.frombuffer(values, dtype=float)))


def _read_lines(stream: TextIO, values: array) -> int:
    """Append the durations of ``stream``'s lines to ``values``, skipping
    blank lines; return the number of malformed lines."""
    bad = 0
    while lines := list(islice(stream, CHUNK_ROWS)):
        try:
            block = array("d", map(float, lines))
        except ValueError:
            # A blank or malformed line: the same rules, line by line.
            block = array("d")
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    block.append(float(line))
                except ValueError:
                    bad += 1
        values.extend(block)
    return bad


def write_durations_text(s: DurationSample, stream: TextIO, workers: int = 1) -> None:
    """One duration per line, as the shortest decimal that reads back to it.

    With ``workers`` > 1, a large sample is formatted in ranges of whole
    blocks by forked workers, and the parent writes each range's text as
    it comes back.
    """
    values = s.values
    workers = usable_workers(workers) if values.nbytes >= POOL_MIN_BYTES else 1
    # In-process, each range is one block, so that one block's text is
    # held at a time.
    parts = workers * RANGES_PER_WORKER if workers > 1 else values.size
    ranges = even_ranges(values.size, parts, align=CHUNK_ROWS)
    for text in run_ranges(partial(_format_values, values), ranges, workers):
        stream.write(text)


def _format_values(values: np.ndarray, lo: int, hi: int) -> str:
    # repr of a Python float is the shortest exact decimal representation.
    return "".join(
        "\n".join(map(repr, values[i : min(i + CHUNK_ROWS, hi)].tolist())) + "\n"
        for i in range(lo, hi, CHUNK_ROWS)
    )


def _line_ranges(stream, workers: int, forbid: bytes = b"") -> list[tuple[int, int]] | None:
    """About ``workers`` x ``RANGES_PER_WORKER`` byte ranges that cover the
    regular file under ``stream``, each but the last ending just after a
    newline byte; or None when the text is to be read from ``stream`` in
    this process. That is so for one usable worker, a stream that is not
    a regular file at its start, a file under ``POOL_MIN_BYTES``, an
    encoding in which a newline byte may be part of another character,
    and a file that holds ``forbid``.
    """
    workers = usable_workers(workers)
    if workers == 1:
        return None
    try:
        fd = stream.fileno()
        info = os.fstat(fd)
        at_start = stream.tell() == 0
    except (OSError, ValueError):  # no file descriptor, or no position
        return None
    size = info.st_size
    if (
        not at_start
        or not stat.S_ISREG(info.st_mode)
        or size < POOL_MIN_BYTES
        or not _ascii_compatible(getattr(stream, "encoding", None))
    ):
        return None
    if forbid and any(forbid in block for block in _blocks(fd, 0, size)):
        return None
    parts = workers * RANGES_PER_WORKER
    bounds = [0]
    for i in range(1, parts):
        cut = _after_newline(fd, size * i // parts, size)
        if bounds[-1] < cut < size:
            bounds.append(cut)
    bounds.append(size)
    return list(zip(bounds[:-1], bounds[1:]))


def _ascii_compatible(encoding) -> bool:
    """Whether every byte below 0x80 always stands for that ASCII
    character, so that a file can be cut after any newline byte."""
    try:
        name = codecs.lookup(encoding).name
    except (LookupError, TypeError):
        return False
    return name in ("ascii", "utf-8") or name.startswith(("iso8859-", "cp125"))


def _blocks(fd: int, lo: int, hi: int, size: int = 1 << 20) -> Iterator[bytes]:
    """Bytes lo..hi of the file, a block at a time."""
    while lo < hi and (block := os.pread(fd, min(size, hi - lo), lo)):
        yield block
        lo += len(block)


def _after_newline(fd: int, pos: int, size: int) -> int:
    """The offset just after the first newline byte at or after ``pos``,
    or ``size`` if there is none."""
    for block in _blocks(fd, pos, size, 1 << 16):
        k = block.find(b"\n")
        if k >= 0:
            return pos + k + 1
        pos += len(block)
    return size


def _range_text(stream, lo: int, hi: int) -> TextIO:
    """Bytes lo..hi of ``stream``'s file, read with ``os.pread`` (which
    leaves the file offset alone) and decoded with the stream's encoding
    and universal newlines, as ``open`` does."""
    data = b"".join(_blocks(stream.fileno(), lo, hi))
    return io.TextIOWrapper(io.BytesIO(data), encoding=stream.encoding, errors=stream.errors)


def read_durations_binary(stream) -> DurationSample:
    """Binary column format: magic TFD1, u64-LE count, count f64-LE values."""
    magic = stream.read(4)
    if magic != BINARY_MAGIC:
        raise ValueError("bad magic; not a TFD1 duration file")
    (count,) = struct.unpack("<Q", stream.read(8))
    values = np.frombuffer(stream.read(8 * count), dtype="<f8")
    if values.size != count:
        raise ValueError("truncated TFD1 duration file")
    return DurationSample(np.sort(values.astype(float)))


def write_durations_binary(s: DurationSample, stream) -> None:
    stream.write(BINARY_MAGIC)
    stream.write(struct.pack("<Q", s.n))
    stream.write(s.values.astype("<f8").tobytes())
