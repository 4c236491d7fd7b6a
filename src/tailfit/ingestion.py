"""Turn raw timestamped event logs into per-actor inter-event duration
samples.

The event CSV is read in chunks of ``CHUNK_ROWS`` rows, and each chunk
becomes an ``EventBatch`` of columns: the accepted timestamps, actor codes
into the chunk's own actor names, and the direction column if there is
one. ``interevent_durations`` keeps every accepted timestamp once, as two
columns of 12 bytes per event (a float64 timestamp and an int32 actor
code, actors numbered in first-seen order), plus one chunk of rows, so
memory still grows with the number of events. It then takes every
actor's gaps at once: one stable lexsort by (actor, timestamp), one diff,
a mask at the actor boundaries, and one sort of the positive gaps.

Duration text is written and read in blocks of ``CHUNK_ROWS`` values.
"""
from __future__ import annotations

import csv
import struct
from array import array
from dataclasses import dataclass, replace
from itertools import compress, count, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .sample import DurationSample

BINARY_MAGIC = b"TFD1"
CHUNK_ROWS = 8192


@dataclass
class IngestSummary:
    events_read: int = 0
    events_dropped: int = 0
    actors: int = 0
    durations_emitted: int = 0
    zero_gaps_dropped: int = 0

    def to_dict(self) -> dict:
        return {
            "events_read": self.events_read,
            "events_dropped": self.events_dropped,
            "actors": self.actors,
            "durations_emitted": self.durations_emitted,
            "zero_gaps_dropped": self.zero_gaps_dropped,
        }


@dataclass(frozen=True)
class EventBatch:
    """The accepted events of one chunk of CSV rows, as columns.

    ``codes[i]`` indexes ``actors``, the chunk's actor names in first-seen
    order. ``directions`` is an object array (a row too short for the
    column has None), or None when the log has no direction column.
    ``parsed`` is the summary the parser counted the chunk's rows into.
    """

    timestamps: np.ndarray  # float64
    codes: np.ndarray  # int32
    actors: list[str]
    directions: np.ndarray | None
    parsed: IngestSummary

    def take(self, mask: np.ndarray) -> "EventBatch":
        """The events where ``mask`` is True; ``actors`` is kept whole."""
        return replace(
            self,
            timestamps=self.timestamps[mask],
            codes=self.codes[mask],
            directions=None if self.directions is None else self.directions[mask],
        )


def parse_events(
    stream: TextIO, summary: IngestSummary | None = None
) -> Iterator[EventBatch]:
    """Stream EventBatches from CSV with header ``actor,timestamp[,direction]``.

    A row is dropped when it is too short, its timestamp does not parse
    with ``float`` or is not finite or is negative, or its actor is empty.
    Dropped rows are counted into ``summary``; parsing only fails
    afterwards (see ``check_malformed_fraction``) if more than half the
    lines were bad. Every chunk yields a batch, even one with no accepted
    events, so that its counts reach ``interevent_durations``.
    """
    if summary is None:
        summary = IngestSummary()
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
    while rows := list(islice(reader, CHUNK_ROWS)):
        summary.events_read += len(rows)
        batch = _parse_chunk(rows, i_actor, i_ts, i_dir, summary)
        summary.events_dropped += len(rows) - batch.codes.size
        yield batch


def _parse_chunk(rows, i_actor, i_ts, i_dir, summary) -> EventBatch:
    """The accepted rows of one chunk, as columns."""
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
    return EventBatch(stamps, codes, list(first_row), directions, summary)


def check_malformed_fraction(summary: IngestSummary) -> None:
    if summary.events_read and summary.events_dropped > summary.events_read / 2:
        raise ValueError(
            f"{summary.events_dropped} of {summary.events_read} lines malformed"
        )


def _columns(batches, direction, summary):
    """Every kept event as global actor codes (first-seen order) and
    timestamps, and the actor names. Adds the parse counts of each batch's
    summary, other than ``summary`` itself, into ``summary``."""
    stamps, codes = array("d"), array("i")
    names: dict[str, int] = {}
    parsers: list[IngestSummary] = []
    for batch in batches:
        if batch.parsed is not summary and all(p is not batch.parsed for p in parsers):
            parsers.append(batch.parsed)
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
    for parsed in parsers:
        summary.events_read += parsed.events_read
        summary.events_dropped += parsed.events_dropped
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
    actors in first-seen order. The parse counts of the batches reach the
    returned summary whether or not it is the one given to the parser.
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


def read_durations_text(stream: TextIO) -> DurationSample:
    """One decimal duration per line."""
    values = array("d")
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
    if not values:
        raise ValueError("no durations in input")
    if bad > len(values):
        raise ValueError(f"{bad} malformed duration lines")
    return DurationSample(np.sort(np.frombuffer(values, dtype=float)))


def write_durations_text(s: DurationSample, stream: TextIO) -> None:
    # repr of a Python float is the shortest exact decimal representation.
    values = s.values
    for lo in range(0, values.size, CHUNK_ROWS):
        stream.write("\n".join(map(repr, values[lo : lo + CHUNK_ROWS].tolist())) + "\n")


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
