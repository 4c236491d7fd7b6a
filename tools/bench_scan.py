"""Time the power-law cutoff scan (``fit_powerlaw_tail`` without ``xmin``)
on its own, and count the candidates it scores exactly.

    PYTHONPATH=src python3 tools/bench_scan.py lattices --reps 100
    PYTHONPATH=src python3 tools/bench_scan.py distinct --n 1000000 --repeat 3

``lattices`` scans the samples that the README run's power-law bootstrap
refits: the README sample (lognormal(10.45, 2.75), n=41184, seed 1)
quantized to 3600, then ``reps`` replicates drawn by ``bootstrap_pvalue``,
which quantizes them to the sample's step (seed 1). ``distinct`` scans one all-distinct
lognormal(10.45, 2.75) sample of n values (seed 1). Inputs are made
before any timing. Exact scorings are calls of the scan's per-candidate
KS kernel. The last line printed is one JSON object, including a sha256
of every scan's (xmin, ks, gamma), which must match between two versions
of the program that claim the same outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time

from tailfit import LognormalModel, SeededGenerator, estimation, sample_lognormal
from tailfit.binning import quantize

README_MODEL = LognormalModel(10.45, 2.75)
README_N = 41184
STEP = 3600.0


def readme_lattices(reps: int) -> list:
    """The first ``reps`` samples the README run's power-law bootstrap refits."""
    sample, _ = quantize(sample_lognormal(README_MODEL, README_N, SeededGenerator(1)), STEP)
    fit = estimation.fit_powerlaw_tail(sample)
    seen = []
    scan = estimation.fit_powerlaw_tail

    def record(s, **options):
        seen.append(s)
        return scan(s, **options)

    estimation.fit_powerlaw_tail = record
    try:
        estimation.bootstrap_pvalue(sample, fit, max(reps, 100), SeededGenerator(1))
    finally:
        estimation.fit_powerlaw_tail = scan
    return seen[:reps]


def run_scans(samples: list) -> dict:
    kernel = estimation._powerlaw_tail_ks
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    estimation._powerlaw_tail_ks = counted
    digest = hashlib.sha256()
    ms, scorings = [], []
    try:
        for s in samples:
            calls[0] = 0
            t0 = time.perf_counter()
            fit = estimation.fit_powerlaw_tail(s)
            ms.append((time.perf_counter() - t0) * 1e3)
            scorings.append(calls[0])
            digest.update(repr((fit.xmin, fit.ks, fit.params[0])).encode())
    finally:
        estimation._powerlaw_tail_ks = kernel
    return {
        "scans": len(samples),
        "ms_per_scan_mean": statistics.fmean(ms),
        "ms_per_scan_median": statistics.median(ms),
        "scorings_per_scan_mean": statistics.fmean(scorings),
        "scorings_per_scan_max": max(scorings),
        "fits_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", choices=["lattices", "distinct"])
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument("--repeat", type=int, default=1, help="scan every input this many times")
    args = parser.parse_args(argv)
    if args.input == "lattices":
        samples = readme_lattices(args.reps)
        label = {"input": "readme_lattices", "reps": args.reps}
    else:
        samples = [sample_lognormal(README_MODEL, args.n, SeededGenerator(1))]
        label = {"input": "distinct", "n": args.n}
    result = {**label, **run_scans(samples * args.repeat)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
