"""Turn raw timestamped event logs into per-actor inter-event duration
samples.

Events are parsed in one streaming pass over the CSV, but every accepted
timestamp is kept (8 bytes per event, grouped by actor) until the gaps
are taken, so memory grows with the number of events.
"""
from __future__ import annotations

import csv
import struct
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .sample import DurationSample

BINARY_MAGIC = b"TFD1"


@dataclass(frozen=True)
class EventRecord:
    actor: str
    timestamp: float
    direction: str | None = None  # "outbound" | "inbound" | None


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


def parse_events(
    stream: TextIO, summary: IngestSummary | None = None
) -> Iterator[EventRecord]:
    """Stream EventRecords from CSV with header ``actor,timestamp[,direction]``.

    Malformed lines are counted and skipped; parsing only fails afterwards
    (see ``check_malformed_fraction``) if more than half the lines were bad.
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
    for row in reader:
        summary.events_read += 1
        try:
            actor = row[i_actor]
            timestamp = float(row[i_ts])
        except (IndexError, ValueError):
            summary.events_dropped += 1
            continue
        if not actor or not np.isfinite(timestamp) or timestamp < 0:
            summary.events_dropped += 1
            continue
        direction = row[i_dir] if i_dir is not None and len(row) > i_dir else None
        yield EventRecord(actor, timestamp, direction)


def check_malformed_fraction(summary: IngestSummary) -> None:
    if summary.events_read and summary.events_dropped > summary.events_read / 2:
        raise ValueError(
            f"{summary.events_dropped} of {summary.events_read} lines malformed"
        )


def interevent_durations(
    events: Iterable[EventRecord],
    direction: str | None = None,
    summary: IngestSummary | None = None,
    per_actor: bool = False,
):
    """Pool per-actor inter-event durations into one sample.

    Per actor, timestamps are sorted ascending and successive differences
    emitted; zero gaps (duplicate timestamps) are dropped and counted.
    Actors with fewer than two events contribute nothing. With
    ``per_actor=True`` a dict actor -> DurationSample is returned instead.
    """
    if summary is None:
        summary = IngestSummary()
    by_actor: dict[str, array] = {}
    for ev in events:
        if direction is not None and ev.direction != direction:
            continue
        by_actor.setdefault(ev.actor, array("d")).append(ev.timestamp)
    summary.actors = len(by_actor)

    def gaps(timestamps: array) -> np.ndarray:
        ts = np.sort(np.frombuffer(timestamps, dtype=float))
        d = np.diff(ts)
        positive = d[d > 0]
        summary.zero_gaps_dropped += int(d.size - positive.size)
        summary.durations_emitted += int(positive.size)
        return positive

    if per_actor:
        out = {}
        for actor, ts in by_actor.items():
            g = gaps(ts)
            if g.size:
                out[actor] = DurationSample(g)
        return out, summary

    pooled = [gaps(ts) for ts in by_actor.values()]
    pooled = [g for g in pooled if g.size]
    if not pooled:
        raise ValueError("no positive inter-event durations in input")
    values = np.sort(np.concatenate(pooled))
    return DurationSample(values), summary


def split_by_resolution(
    events: Iterable[EventRecord],
    predicate: Callable[[EventRecord], str],
) -> dict[str, DurationSample]:
    """Partition events by a resolution class (e.g. minute-truncated vs
    second-accurate epochs) and build one pooled sample per class.

    Empty partitions are omitted.
    """
    buckets: dict[str, list[EventRecord]] = {}
    for ev in events:
        buckets.setdefault(predicate(ev), []).append(ev)
    out = {}
    for label, evs in buckets.items():
        try:
            sample, _ = interevent_durations(evs)
        except ValueError:
            continue
        out[label] = sample
    return out


def read_durations_text(stream: TextIO) -> DurationSample:
    """One decimal duration per line."""
    values = array("d")
    bad = 0
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            bad += 1
    if not values:
        raise ValueError("no durations in input")
    if bad > len(values):
        raise ValueError(f"{bad} malformed duration lines")
    return DurationSample(np.sort(np.frombuffer(values, dtype=float)))


def write_durations_text(s: DurationSample, stream: TextIO) -> None:
    # repr of a Python float is the shortest exact decimal representation.
    stream.writelines(f"{float(v)!r}\n" for v in s.values)


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
