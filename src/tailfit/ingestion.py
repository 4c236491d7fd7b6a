"""Turn raw timestamped event logs into per-actor inter-event duration
samples.

An event CSV that is a regular file is read in blocks of about
``BLOCK_BYTES`` that end just after a newline byte, and a block of plain
rows becomes one ``EventBatch``, parsed by numpy alone: the newline and
comma offsets give the fields, actors are numbered as fixed-width byte
keys, and ``digits[.digits]`` timestamps are read by
``floattext.decimal_values`` exactly as ``float`` reads them. Any other
block, the rest of a file from its first ``"`` on, and any other stream
are read by ``csv.reader`` in chunks of ``CHUNK_ROWS`` rows, a batch per
chunk. Either parser applies the direction filter as it parses the rows.
A batch holds columns, the accepted timestamps of the requested
direction and actor codes into the batch's own actor names, with its
counts of rows read and of malformed rows dropped, of any direction;
``interevent_durations`` adds them up and is the one stage that fills
an ``IngestSummary``. It keeps every accepted timestamp once, as two
columns of 12 bytes per event (a float64 timestamp and an int32 actor
code, actors numbered in first-seen order), plus one batch, so memory
still grows with the number of events. It then takes every actor's gaps
at once: one stable sort by actor (a radix sort of 16-bit codes when the
actors allow; none when the log is grouped by actor already), the gaps
in place in the stamps column, a block at a time from the end, so that
no second event-sized float64 array exists, a mask at the actor
boundaries, and one sort of the gaps in place, whose zero gaps then form
a prefix that the sample leaves out. Only when some actor's stamps are
out of file order, which is decided before any stamp is overwritten,
are they first sorted within each actor.

Duration text holds one value per line as ``repr`` writes it. It is
written in blocks of ``CHUNK_ROWS`` values, each laid out by
``floattext.shortest_lines`` (Schubfach's shortest digits in ``repr``'s
layout, byte for byte). A regular duration file read from its start is
read in blocks of about ``BLOCK_BYTES`` that end just after a newline
byte; a block of ``digits[.digits]`` lines is read by
``floattext.decimal_values``, any other block (blank lines, CRs,
exponents, padding, ``nan``, more than 19 significant digits...) line by
line with ``float``, as standard input and other streams are. Each
block's values are copied, as they come, into one float64 array sized
from the file's line ends. The kernels give ``repr``'s and ``float``'s
results bit for bit, so the outputs are the same either way.

With more than one worker, large duration texts are formatted and read
in contiguous ranges by forked processes (``pool.run_ranges``): a regular
file in even byte ranges, each reading the lines that start in it, and
the values to format in ranges of whole blocks. Every result is put
together in input order, so it is the same for any worker count.
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
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, compress, count, islice
from operator import itemgetter
from typing import Iterable, Iterator, TextIO

import numpy as np

from .floattext import decimal_values, field_chars, shortest_lines
from .pool import RANGES_PER_WORKER, even_ranges, run_ranges, usable_workers
from .sample import DurationSample

BINARY_MAGIC = b"TFD1"
CHUNK_ROWS = 8192
# Duration texts smaller than this many bytes (of file, or of float64
# values to format) are handled in-process. Starting two forked workers
# took 7-20 ms on a 2-core host, so a pool pays for itself only from a few
# MB on.
POOL_MIN_BYTES = 4 << 20
# Event CSV and duration text files are read in blocks of about this many
# bytes. A 256 KiB block of events keeps the parser's temporaries near
# 2 MB; blocks of 1 MiB took about 7 MB of them, and no less time.
BLOCK_BYTES = 1 << 18
# The passes over the event columns go this many events at a time (actor
# codes are counted at least this many at a time).
COUNT_BLOCK = 1 << 16


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
    """The accepted events of a block or chunk of CSV rows, as columns.

    ``codes[i]`` indexes ``actors``, the names of the batch's actors in
    first-seen order, each with an event. ``rows`` counts the batch's rows,
    of any direction, and ``dropped`` the malformed ones among them.
    """

    timestamps: np.ndarray  # float64
    codes: np.ndarray  # int32
    actors: list[str]
    rows: int
    dropped: int


def parse_events(stream: TextIO, direction: str | None = None) -> Iterator[EventBatch]:
    """Stream EventBatches from CSV with header ``actor,timestamp[,direction]``.

    A row is dropped when it is too short, its timestamp does not parse
    with ``float`` or is not finite or is negative, or its actor is empty.
    Dropped rows are counted in their batch; ingestion only fails
    afterwards (see ``check_malformed_fraction``) if more than half the
    lines were bad. With ``direction``, only the events whose direction
    field is that string are kept: none of a log without the column, nor
    of a row too short to have it. Rows of other directions are still
    counted, and so are the malformed ones among them. Every batch is
    yielded, even one with no kept events, so that its counts reach
    ``interevent_durations``.

    A regular file read from its start, in an encoding in which every
    byte below 0x80 is that ASCII character, is read in blocks of about
    ``BLOCK_BYTES`` that end just after a newline byte, and each block of
    plain rows becomes one batch, parsed by numpy alone (``_block_batch``).
    A block it declines is decoded as ``open`` decodes it and parsed by
    ``csv.reader`` like any other stream; so is the rest of the file from
    the block of its first ``"`` on, since a quoted field may hold a
    newline. The events, in file order, and the counts are the same
    either way.
    """
    file = _regular_file(stream)
    blocks = _line_blocks(file[0], 0, file[1]) if file is not None else iter(())
    first = next(blocks, b"")
    cut = first.find(b"\n") + 1 or len(first)
    header = first[:cut]
    if not _plain(header) or header.count(b"\r") != header.count(b"\r\n"):
        # Not a file, or a header the block parser does not read: the
        # stream is still where it was given.
        reader = csv.reader(stream)
        yield from _parse_rows(reader, _layout(next(reader, None)), direction)
        return
    layout = _layout(next(csv.reader([header.decode("ascii")]), None))
    for block in chain([first[cut:]], blocks):
        if b'"' in block:
            lines = chain.from_iterable(map(partial(_decoded, stream), chain([block], blocks)))
            yield from _parse_rows(csv.reader(lines), layout, direction)
            return
        batch = _block_batch(block, *layout, direction)
        if batch is not None:
            yield batch
        else:
            yield from _parse_rows(csv.reader(_decoded(stream, block)), layout, direction)


def _layout(header) -> tuple[int, int, int, int | None]:
    """The header's field count and the indices of the actor, timestamp
    and direction (None if absent) columns."""
    if header is None:
        raise ValueError("empty input")
    columns = [c.strip().lower() for c in header]
    if "actor" not in columns or "timestamp" not in columns:
        raise ValueError("expected CSV header actor,timestamp[,direction]")
    i_dir = columns.index("direction") if "direction" in columns else None
    return len(columns), columns.index("actor"), columns.index("timestamp"), i_dir


def _parse_rows(reader, layout, direction) -> Iterator[EventBatch]:
    """A batch per ``CHUNK_ROWS`` rows of ``reader``."""
    _, i_actor, i_ts, i_dir = layout
    while True:
        # The chunk's row lists set off cyclic collections that find no
        # garbage; the collector is back on before the batch is yielded.
        enabled = gc.isenabled()
        gc.disable()
        try:
            rows = list(islice(reader, CHUNK_ROWS))
            batch = _parse_chunk(rows, i_actor, i_ts, i_dir, direction) if rows else None
        finally:
            if enabled:
                gc.enable()
        if batch is None:
            return
        yield batch


def _parse_chunk(rows, i_actor, i_ts, i_dir, direction) -> EventBatch:
    """The accepted rows of one chunk, of ``direction`` if given, as columns."""
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
    dropped = n_rows - int(np.count_nonzero(keep))
    if direction is not None:
        keep &= i_dir is not None and np.fromiter(
            (len(row) > i_dir and row[i_dir] == direction for row in rows), bool, len(rows)
        )
    if not keep.all():
        actors = list(compress(actors, keep.tolist()))
        stamps = stamps[keep]
    # Each actor maps to the row of its first occurrence; ranking those
    # rows numbers the actors 0, 1, ... in first-seen order.
    first_row: dict[str, int] = {}
    occurrence = np.fromiter(map(first_row.setdefault, actors, count()), np.int64, len(actors))
    codes = np.unique(occurrence, return_inverse=True)[1].astype(np.int32)
    return EventBatch(stamps, codes, list(first_row), n_rows, dropped)


def _plain(data: bytes) -> bool:
    """Whether ``data`` is non-empty ASCII without a NUL or a ``"``."""
    return bool(data) and data.isascii() and b"\0" not in data and b'"' not in data


def _block_batch(block: bytes, n_fields, i_actor, i_ts, i_dir, direction) -> EventBatch | None:
    """The rows of ``block`` (whole lines) of ``direction`` (if not None)
    as one batch, parsed by numpy alone; or None, declining the block,
    unless it is ASCII without a NUL, a ``"`` or a CR outside a CRLF, and
    every row has the header's field count, no field longer than
    ``csv.field_size_limit()``, and a ``digits[.digits]`` timestamp that
    ``floattext.decimal_values`` reads as ``float`` does. Actors are
    numbered in first-seen order as fixed-width byte keys.
    """
    if not _plain(block):
        return None
    if not block.endswith(b"\n"):
        block += b"\n"  # the file's last line
    raw = np.frombuffer(block, np.uint8)
    newlines = np.flatnonzero(raw == 10)
    commas = np.flatnonzero(raw == 44)
    n = newlines.size
    if commas.size != n * (n_fields - 1):
        return None
    # Field j of row r lies between bounds[j, r] and bounds[j + 1, r]:
    # after the previous newline, between the row's commas, and before
    # its line end.
    bounds = np.empty((n_fields + 1, n), np.int64)
    bounds[0, 0] = -1
    bounds[0, 1:] = newlines[:-1]
    bounds[1:n_fields] = commas.reshape(n, n_fields - 1).T
    bounds[n_fields] = newlines
    # Equal counts, and each row's first and last comma inside it, put
    # n_fields - 1 commas in every row.
    if np.any(bounds[1] <= bounds[0]) or np.any(bounds[n_fields - 1] >= newlines):
        return None
    if b"\r" in block:
        crlf = raw[newlines - 1] == 13
        if np.count_nonzero(raw == 13) != np.count_nonzero(crlf):
            return None  # a CR that ends a line of its own
        bounds[n_fields] -= crlf
    widths = np.diff(bounds, axis=0) - 1
    starts = bounds[:-1] + 1
    del bounds, newlines, commas
    if widths.max() > csv.field_size_limit():
        return None

    stamps = decimal_values(raw, starts[i_ts], widths[i_ts])
    if stamps is None:
        return None
    keys = _field_keys(raw, starts[i_actor], widths[i_actor])
    if keys is None:
        return None
    keep = widths[i_actor] > 0
    dropped = n - int(np.count_nonzero(keep))
    if direction is not None:
        keep &= i_dir is not None and _fields_equal(raw, starts[i_dir], widths[i_dir], direction)
    if not keep.all():
        stamps, keys = stamps[keep], keys[keep]
    codes, first = _first_seen(keys)
    names = [name.decode("ascii") for name in keys[first].tolist()]
    return EventBatch(stamps, codes, names, n, dropped)


def _fields_equal(raw, starts, widths, value: str) -> np.ndarray:
    """Whether each field is ``value``, compared by width and character.
    A plain block holds no NUL and no byte outside ASCII, so no field
    equals a value with either."""
    if not value.isascii() or "\0" in value:
        return np.zeros(starts.size, bool)
    chars = np.frombuffer(value.encode("ascii"), np.uint8)[:, None]
    return (widths == chars.size) & (field_chars(raw, starts, widths, chars.size) == chars).all(0)


def _field_keys(raw, starts, widths) -> np.ndarray | None:
    """The fields as fixed-width byte strings (NUL-padded) as wide as the
    widest, or None if those would take more than four times ``raw``'s
    bytes."""
    width = max(int(widths.max()), 1)
    if starts.size * width > 4 * raw.size:
        return None
    return field_chars(raw, starts, widths, width).T.copy().view(f"S{width}").ravel()


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 codes numbering ``keys`` in first-seen order, and the index
    of each code's first key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    return rank[inverse], first[order]


def check_malformed_fraction(summary: IngestSummary) -> None:
    if summary.events_read and summary.events_dropped > summary.events_read / 2:
        raise ValueError(
            f"{summary.events_dropped} of {summary.events_read} lines malformed"
        )


def _columns(batches, summary):
    """Every event as global actor codes (first-seen order, as each batch
    lists its actors) and timestamps, and the actor names. Adds each
    batch's row counts into ``summary``."""
    stamps, codes = array("d"), array("i")
    names: dict[str, int] = {}
    for batch in batches:
        summary.events_read += batch.rows
        summary.events_dropped += batch.dropped
        to_global = np.array(
            [names.setdefault(actor, len(names)) for actor in batch.actors], np.int32
        )
        codes.frombytes(memoryview(to_global[batch.codes]).cast("B"))
        stamps.frombytes(memoryview(batch.timestamps).cast("B"))
    return (
        np.frombuffer(codes, dtype=np.int32),
        np.frombuffer(stamps, dtype=np.float64),
        list(names),
    )


def interevent_durations(events: Iterable[EventBatch]) -> tuple[DurationSample, IngestSummary]:
    """Pool per-actor inter-event durations into one sample.

    Per actor, timestamps are sorted ascending and successive differences
    emitted; zero gaps (duplicate timestamps) are dropped and counted.
    Actors with fewer than two events contribute nothing. The returned
    summary also holds the row counts of the batches.
    """
    summary = IngestSummary()
    codes, stamps, names = _columns(events, summary)
    n = codes.size
    summary.actors = len(names)
    # The passes below that compare or subtract neighbouring events go a
    # block at a time, so that their temporaries stay block-sized; each
    # [lo, hi) pairs its events with the ones just before them.
    steps = [(lo, min(lo + COUNT_BLOCK, n)) for lo in range(1, n, COUNT_BLOCK)]
    # bincount casts the codes it counts to int64, so they go a block at a
    # time; a block at least as long as the actor list keeps the counting
    # linear in the events.
    sizes = np.zeros(len(names), dtype=np.int64)
    step = max(COUNT_BLOCK, len(names))
    for lo in range(0, n, step):
        sizes += np.bincount(codes[lo : lo + step], minlength=len(names))
    # A stable sort by actor keeps each actor's events in file order; with
    # at most 65536 actors the codes fit in 16 bits, which numpy sorts by
    # radix. A log already grouped by actor (codes never decrease, since
    # they number actors in first-seen order) is in that order already.
    if any(np.any(codes[lo:hi] < codes[lo - 1 : hi - 1]) for lo, hi in steps):
        if len(names) <= 1 << 16:
            codes = codes.astype(np.uint16)
        order = np.argsort(codes, kind="stable")
        del codes
        stamps = stamps[order]
        del order
    else:
        del codes
    # Actor k's events sit at [ends[k] - sizes[k], ends[k]). A stamp below
    # the one before it is out of file order unless it is the first of an
    # actor; the descents are counted before any stamp is overwritten.
    ends = np.cumsum(sizes)
    firsts = ends[:-1]
    descents = sum(np.count_nonzero(stamps[lo:hi] < stamps[lo - 1 : hi - 1]) for lo, hi in steps)
    if descents > np.count_nonzero(stamps[firsts] < stamps[firsts - 1]):
        # Some actor's stamps are out of file order: sort them within
        # each actor, as one lexsort by (actor, timestamp) would.
        actor = np.repeat(np.arange(len(names), dtype=np.int32), sizes)
        stamps = stamps[np.lexsort((stamps, actor))]
        del actor
    # Each gap is written over the later of its two stamps. The blocks go
    # from the end, so each still reads the stamp before it unchanged;
    # within a block numpy buffers the overlapping operand.
    for lo, hi in reversed(steps):
        np.subtract(stamps[lo:hi], stamps[lo - 1 : hi - 1], out=stamps[lo:hi])
    gaps = stamps[1:]
    del stamps
    # Zeroing the step from each actor's last event to the next actor's
    # first masks it out; the n - actors gaps within actors are counted.
    gaps[firsts - 1] = 0.0
    # No gap is negative now, so the nonzero ones are the positive ones.
    emitted = int(np.count_nonzero(gaps))
    summary.zero_gaps_dropped = n - len(names) - emitted
    summary.durations_emitted = emitted
    if not emitted:
        raise ValueError("no positive inter-event durations in input")
    # Sorted in place, the zero gaps come first; the sample is the rest.
    gaps.sort()
    return DurationSample(gaps[gaps.size - emitted :]), summary


def read_durations_text(stream: TextIO, workers: int = 1) -> DurationSample:
    """One decimal duration per line.

    A regular file read from its start is read in blocks of about
    ``BLOCK_BYTES`` that end just after a newline byte; a block of
    ``digits[.digits]`` lines is read by ``floattext.decimal_values``, any
    other block line by line with ``float``. With ``workers`` > 1, a large
    file is cut into even byte ranges, read by forked workers; each range
    reads the lines that start in it. The sample is the same either way.
    """
    file = _regular_file(stream)
    if file is None:
        values = array("d")
        bad = _read_lines(stream, values)
        values = np.frombuffer(values, dtype=float)
    else:
        fd, size = file

        def range_values(lo: int, hi: int) -> Iterator[tuple[np.ndarray, int]]:
            """The values and malformed-line count of each block of the
            lines that start in [lo, hi)."""
            # A line starts at 0 or just after a newline byte.
            lo, hi = (_after_newline(fd, pos - 1, size) if pos else 0 for pos in (lo, hi))
            for block in _line_blocks(fd, lo, hi):
                part = _decimal_lines(block)
                if part is not None:
                    yield part, 0
                else:
                    lines = array("d")
                    bad = _read_lines(_decoded(stream, block), lines)
                    yield np.frombuffer(lines, dtype=float), bad

        def read_range(lo: int, hi: int) -> list[tuple[np.ndarray, int]]:
            return list(range_values(lo, hi))

        workers = usable_workers(workers) if size >= POOL_MIN_BYTES else 1
        ranges = even_ranges(size, workers * RANGES_PER_WORKER if workers > 1 else 1)
        # A worker sends its range's blocks back at once; in this process
        # each block is gathered as it is read.
        task = read_range if workers > 1 else range_values
        parts = chain.from_iterable(run_ranges(task, ranges, workers))
        values, bad = _gathered(parts, _line_bound(fd, size))
    if not values.size:
        raise ValueError("no durations in input")
    if bad > values.size:
        raise ValueError(f"{bad} malformed duration lines")
    # DurationSample sorts the values unless they already are, as a file
    # that ingest or simulate wrote is.
    return DurationSample(values)


def _line_bound(fd: int, size: int) -> int:
    """An upper bound on the values of the file's lines: one a newline or
    CR byte (a line end under universal newlines), and one for a last line
    without an end."""
    bound = 1
    for block in _blocks(fd, 0, size, BLOCK_BYTES):
        raw = np.frombuffer(block, np.uint8)
        bound += int(np.count_nonzero(raw == 10)) + int(np.count_nonzero(raw == 13))
    return bound


def _gathered(parts: Iterable[tuple[np.ndarray, int]], bound: int) -> tuple[np.ndarray, int]:
    """The values of ``parts``, (values, malformed lines) pairs of at most
    ``bound`` values in all, each copied as it comes into one float64
    array; and the sum of their malformed lines."""
    values = np.empty(bound)
    end = bad = 0
    for part, part_bad in parts:
        values[end : end + part.size] = part
        end += part.size
        bad += part_bad
    # In place: gives back the room that blank, malformed or CRLF lines kept.
    values.resize(end, refcheck=False)
    return values, bad


def _decimal_lines(block: bytes) -> np.ndarray | None:
    """The value of every line of ``block`` if each is ``digits[.digits]``
    (see ``floattext.decimal_values``); else None. The lines go to the
    kernel ``CHUNK_ROWS`` at a time, fewer than a ``BLOCK_BYTES`` block
    of short lines holds, which bounds its temporaries."""
    if not block.endswith(b"\n"):
        block += b"\n"  # the file's last line
    raw = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(raw == 10)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts
    values = np.empty(ends.size)
    for lo in range(0, ends.size, CHUNK_ROWS):
        part = decimal_values(raw, starts[lo : lo + CHUNK_ROWS], widths[lo : lo + CHUNK_ROWS])
        if part is None:
            return None
        values[lo : lo + CHUNK_ROWS] = part
    return values


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
    """One duration per line, as the shortest decimal that reads back to it
    (``repr``), written by ``floattext.shortest_lines``.

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
    """The text of values[lo:hi], a block of ``CHUNK_ROWS`` at a time."""
    # A DurationSample's values are finite, so shortest_lines takes every block.
    return "".join(
        shortest_lines(values[i : min(i + CHUNK_ROWS, hi)]).decode("ascii")
        for i in range(lo, hi, CHUNK_ROWS)
    )


def _regular_file(stream) -> tuple[int, int] | None:
    """The file descriptor and size of the regular file under ``stream``,
    if it is read from its start in an encoding in which a file can be cut
    after any newline byte; else None."""
    try:
        fd = stream.fileno()
        info = os.fstat(fd)
        at_start = stream.tell() == 0
    except (OSError, ValueError):  # no file descriptor, or no position
        return None
    if (
        not at_start
        or not stat.S_ISREG(info.st_mode)
        or not _ascii_compatible(getattr(stream, "encoding", None))
    ):
        return None
    return fd, info.st_size


def _ascii_compatible(encoding) -> bool:
    """Whether every byte below 0x80 always stands for that ASCII
    character, so that a file can be cut after any newline byte."""
    try:
        name = codecs.lookup(encoding).name
    except (LookupError, TypeError):
        return False
    return name in ("ascii", "utf-8") or name.startswith(("iso8859-", "cp125"))


def _blocks(fd: int, lo: int, hi: int, size: int) -> Iterator[bytes]:
    """Bytes lo..hi of the file, a block at a time."""
    while lo < hi and (block := os.pread(fd, min(size, hi - lo), lo)):
        yield block
        lo += len(block)


def _line_blocks(fd: int, lo: int, hi: int) -> Iterator[bytes]:
    """Bytes lo..hi of the file in blocks of about ``BLOCK_BYTES``, each but
    the last ending just after a newline byte."""
    carry = b""
    for block in _blocks(fd, lo, hi, BLOCK_BYTES):
        block = carry + block
        cut = block.rfind(b"\n") + 1
        if cut:
            yield block[:cut]
        carry = block[cut:]
    if carry:
        yield carry


def _after_newline(fd: int, pos: int, size: int) -> int:
    """The offset just after the first newline byte at or after ``pos``,
    or ``size`` if there is none."""
    for block in _blocks(fd, pos, size, 1 << 16):
        k = block.find(b"\n")
        if k >= 0:
            return pos + k + 1
        pos += len(block)
    return size


def _decoded(stream, data: bytes) -> TextIO:
    """``data``, read from ``stream``'s file, decoded with the stream's
    encoding and errors and universal newlines, as ``open`` does."""
    return io.TextIOWrapper(io.BytesIO(data), encoding=stream.encoding, errors=stream.errors)


def read_durations_binary(stream) -> DurationSample:
    """Binary column format: magic TFD1, u64-LE count, count f64-LE values."""
    header = stream.read(12)
    if header[:4] != BINARY_MAGIC:
        raise ValueError("bad magic; not a TFD1 duration file")
    if len(header) < 12:
        raise ValueError("truncated TFD1 duration file")
    (count,) = struct.unpack_from("<Q", header, 4)
    size = 8 * count
    # A block at a time, so that a corrupt count sizes no allocation.
    data = bytearray()
    while len(data) < size and (block := stream.read(min(size - len(data), BLOCK_BYTES))):
        data += block
    if len(data) < size:
        raise ValueError("truncated TFD1 duration file")
    return DurationSample(np.frombuffer(data, dtype="<f8"))


def write_durations_binary(s: DurationSample, stream) -> None:
    stream.write(BINARY_MAGIC)
    stream.write(struct.pack("<Q", s.n))
    stream.write(s.values.astype("<f8").tobytes())
