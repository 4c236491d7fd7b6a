"""Metric definitions: every end-to-end and per-layer metric the benchmark
prints, with its unit, its better direction, and for each per-layer metric
the end-to-end metric and workloads it should move.

``BENCHMARK.json`` repeats names, units and directions; the self-tests
check that the two agree.
"""
from __future__ import annotations

from statistics import median

ALL = ("readme_fit_hour", "ingest_1e6")
README, INGEST = ALL

# name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better, target end-to-end metric, workloads it moves there)
PER_LAYER = {
    "cli.cpu_s": ("s", "lower", "wall_s", ALL),
    "trace.coverage": ("ratio", "higher", "wall_s", ALL),
    "trace.overhead_s": ("s", "lower", "wall_s", ALL),
    "ingestion.parse_s": ("s", "lower", "wall_s", (INGEST,)),
    "ingestion.gaps_self_s": ("s", "lower", "wall_s", (INGEST,)),
    "ingestion.write_text_s": ("s", "lower", "wall_s", (INGEST,)),
    "ingestion.read_text_s": ("s", "lower", "wall_s", (INGEST,)),
    "ingestion.events_read": ("count", "higher", "wall_s", (INGEST,)),
    "ingestion.events_dropped": ("count", "lower", "wall_s", (INGEST,)),
    "ingestion.durations_emitted": ("count", "higher", "wall_s", (INGEST,)),
    "ingestion.zero_gaps_dropped": ("count", "lower", "wall_s", (INGEST,)),
    "binning.quantize_s": ("s", "lower", "wall_s", (README,)),
    "binning.quantize_dropped": ("count", "lower", "wall_s", (README,)),
    "estimation.scan_s": ("s", "lower", "wall_s", (README,)),
    "estimation.scan_calls": ("count", "lower", "wall_s", (README,)),
    "estimation.scan_candidates": ("count", "lower", "wall_s", (README,)),
    "estimation.bootstrap_s": ("s", "lower", "wall_s", (README,)),
    "estimation.bootstrap_self_s": ("s", "lower", "wall_s", (README,)),
    "estimation.replicates": ("count", "higher", "wall_s", (README,)),
    "estimation.refit_failed": ("count", "lower", "wall_s", (README,)),
    "estimation.refit_ok_ratio": ("ratio", "higher", "wall_s", (README,)),
    "estimation.pl_fixed_s": ("s", "lower", "wall_s", (INGEST,)),
    "estimation.ln_trunc_s": ("s", "lower", "wall_s", (INGEST,)),
    "estimation.ln_trunc_calls": ("count", "lower", "wall_s", (INGEST,)),
    "estimation.ln_closed_s": ("s", "lower", "wall_s", (README,)),
    "estimation.ks_s": ("s", "lower", "wall_s", (README,)),
    "estimation.compare_s": ("s", "lower", "wall_s", (README,)),
}

_SPAN_TOTALS = {
    "ingestion.parse_s": "ingestion.parse",
    "ingestion.write_text_s": "ingestion.write_text",
    "ingestion.read_text_s": "ingestion.read_text",
    "binning.quantize_s": "binning.quantize",
    "estimation.scan_s": "estimation.scan",
    "estimation.bootstrap_s": "estimation.bootstrap",
    "estimation.pl_fixed_s": "estimation.pl_fixed",
    "estimation.ln_trunc_s": "estimation.ln_trunc",
    "estimation.ln_closed_s": "estimation.ln_closed",
    "estimation.ks_s": "estimation.ks",
    "estimation.compare_s": "estimation.compare",
}
_SPAN_SELF = {
    "ingestion.gaps_self_s": "ingestion.gaps",
    "estimation.bootstrap_self_s": "estimation.bootstrap",
}
_SPAN_CALLS = {
    "estimation.scan_calls": "estimation.scan",
    "estimation.scan_candidates": "<scan_candidates>",
    "estimation.refit_failed": "<refit_failed>",
    "estimation.ln_trunc_calls": "estimation.ln_trunc",
}
_COUNTERS = ("binning.quantize_dropped", "estimation.replicates")
_SUMMARY = ("events_read", "events_dropped", "durations_emitted", "zero_gaps_dropped")


def end_to_end(passes: list[dict]) -> dict:
    """Medians over the measured untraced passes; set-up time over every
    process they started."""
    setups = [s for p in passes for s in p["setup_s"]]
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "setup_s": median(setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over the traced passes; the tracing overhead is the traced
    minus the untraced median wall time."""
    values = [_layer_values(p) for p in traced]
    out = {name: median(v[name] for v in values) for name in values[0]}
    out["trace.overhead_s"] = (
        median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in untraced)
    )
    return out


def _layer_values(p: dict) -> dict:
    t = p["trace"]
    total, own, calls, counters = t["total_s"], t["self_s"], t["calls"], t["counters"]
    v = {"cli.cpu_s": p["cpu_s"], "trace.coverage": total.get("<top>", 0.0) / p["wall_s"]}
    v.update({m: total.get(span, 0.0) for m, span in _SPAN_TOTALS.items()})
    v.update({m: own.get(span, 0.0) for m, span in _SPAN_SELF.items()})
    v.update({m: calls.get(span, 0) for m, span in _SPAN_CALLS.items()})
    v.update({m: counters.get(m, 0) for m in _COUNTERS})
    v.update({f"ingestion.{k}": p["counts"].get(k, 0) for k in _SUMMARY})
    replicates = counters.get("estimation.replicates", 0)
    refits_ok = calls.get("<refit>", 0) - calls.get("<refit_failed>", 0)
    # Without a bootstrap no replicate was wasted.
    v["estimation.refit_ok_ratio"] = refits_ok / replicates if replicates else 1.0
    return v
