"""Tracing from outside the program: timing wrappers installed on the
module attributes of ``tailfit.ingestion``, ``tailfit.binning`` and
``tailfit.estimation``.

The CLI and the bootstrap drivers look these names up at call time, so a
replaced attribute turns every call, including each bootstrap refit, into
a span. Spans are kept in memory and written out when the process ends.
"""
from __future__ import annotations

import functools
from collections import Counter, defaultdict
from itertools import islice
from time import perf_counter

# Fits whose spans count as refits when a bootstrap span is their parent.
REFIT_SPANS = (
    "estimation.scan",
    "estimation.pl_fixed",
    "estimation.ln_closed",
    "estimation.ln_trunc",
)


def _xmin(args, kwargs):
    return kwargs["xmin"] if "xmin" in kwargs else (args[1] if len(args) > 1 else None)


# (module, attribute) -> span name, or a function of the call's arguments
# giving the span name. Scan and fixed-cutoff power-law fits, and closed
# and truncated lognormal fits, are one function each in the program.
WRAPPED = {
    ("ingestion", "interevent_durations"): "ingestion.gaps",
    ("ingestion", "read_durations_text"): "ingestion.read_text",
    ("ingestion", "write_durations_text"): "ingestion.write_text",
    ("binning", "quantize"): "binning.quantize",
    ("estimation", "fit_powerlaw_tail"):
        lambda a, k: "estimation.scan" if _xmin(a, k) is None else "estimation.pl_fixed",
    ("estimation", "fit_lognormal"):
        lambda a, k: "estimation.ln_closed" if _xmin(a, k) is None else "estimation.ln_trunc",
    ("estimation", "ks_distance"): "estimation.ks",
    # The scan's per-candidate KS kernel; its calls inside a scan span are
    # the candidates the scan evaluated.
    ("estimation", "_powerlaw_tail_ks"): "estimation.ks",
    ("estimation", "bootstrap_pvalue"): "estimation.bootstrap",
    ("estimation", "compare_families"): "estimation.compare",
}
# parse_events returns a generator. It parses inside whichever span
# consumes the events, so its time counts as a child of that span.
PARSE = ("ingestion", "parse_events")
PARSE_BATCH = 4096


class Tracer:
    """Spans as tuples (name, parent, start, duration, self time, ok).

    Self time is the span's duration minus the durations of its direct
    children; ``ok`` is False when the call raised.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # open frames: [name, start, child time]

    def call(self, name, fn, args, kwargs):
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self._close(frame, perf_counter() - frame[1], ok)

    def _close(self, frame, duration, ok):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append(
            (frame[0], parent[0] if parent else None, frame[1], duration,
             duration - frame[2], ok)
        )

    def leaf(self, name, start, busy, ok):
        """Record a span whose time was accumulated in pieces (a generator)."""
        frame = [name, start, 0.0]
        self._stack.append(frame)
        self._close(frame, busy, ok)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tparent\tstart\tduration\tself\tok\n")
            fh.writelines(
                f"{n}\t{p or ''}\t{s!r}\t{d!r}\t{own!r}\t{int(ok)}\n"
                for n, p, s, d, own, ok in self.spans
            )

    def summary(self) -> dict:
        """Per-name totals, refit accounting and top-level coverage."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for name, parent, _, duration, self_s, ok in self.spans:
            total[name] += duration
            own[name] += self_s
            calls[name] += 1
            if parent is None:
                total["<top>"] += duration
            if parent == "estimation.bootstrap" and name in REFIT_SPANS:
                calls["<refit>"] += 1
                calls["<refit_failed>"] += not ok
            if parent == "estimation.scan" and name == "estimation.ks":
                calls["<scan_candidates>"] += 1
        return {
            "total_s": dict(total),
            "self_s": dict(own),
            "calls": dict(calls),
            "counters": dict(self.counters),
        }


def _timed_events(tracer, events):
    """Yield the parser's events, timing the parser in batches; a timer
    around every single event would cost more than parsing it."""
    start = perf_counter()
    busy = 0.0
    ok = False
    try:
        while True:
            t0 = perf_counter()
            batch = list(islice(events, PARSE_BATCH))
            busy += perf_counter() - t0
            if not batch:
                ok = True
                return
            yield from batch
    finally:
        tracer.leaf("ingestion.parse", start, busy, ok)


def install(tracer: Tracer, tailfit_modules: dict) -> None:
    """Replace the traced attributes of ``tailfit_modules`` (short name ->
    module) with wrappers recording into ``tracer``. Attributes the
    program no longer has are skipped; the self-tests check that all exist.
    """
    for (mod_name, attr), namer in WRAPPED.items():
        module = tailfit_modules[mod_name]
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, _wrap(tracer, fn, namer, attr))
    module = tailfit_modules[PARSE[0]]
    parse = getattr(module, PARSE[1], None)
    if parse is not None:
        @functools.wraps(parse)
        def parse_events(*args, **kwargs):
            return _timed_events(tracer, parse(*args, **kwargs))

        setattr(module, PARSE[1], parse_events)


def _wrap(tracer, fn, namer, attr):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = namer(args, kwargs) if callable(namer) else namer
        result = tracer.call(name, fn, args, kwargs)
        if attr == "quantize":
            tracer.counters["binning.quantize_dropped"] += int(result[1])
        elif name == "estimation.bootstrap":
            reps = kwargs["reps"] if "reps" in kwargs else args[2]
            tracer.counters["estimation.replicates"] += int(reps)
        return result

    return wrapper
