"""Histograms, unit rescaling and resolution quantization.

These are the operations that deform a lognormal sample toward an
apparent power-law: coarse binning shifts the apparent mu by
-ln(binsize) while leaving sigma untouched, and provider-side
quantization erases the up-going part of the density.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sample import DurationSample


@dataclass(frozen=True)
class Histogram:
    """Binned view of a sample: edges (m+1 ascending boundaries) and counts
    (m non-negative integers summing to n).
    """

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("need at least two bin edges")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if counts.size != edges.size - 1:
            raise ValueError("counts must have one entry per bin")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        edges.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def density(self) -> np.ndarray:
        """counts / (n * width); sums (times widths) to 1."""
        return self.counts / (self.n * self.widths)

    def to_csv(self) -> str:
        """CSV with header bin_left,bin_right,count,density."""
        dens = self.density()
        lines = ["bin_left,bin_right,count,density"]
        for left, right, count, d in zip(
            self.edges[:-1], self.edges[1:], self.counts, dens
        ):
            lines.append(f"{float(left)!r},{float(right)!r},{count},{float(d)!r}")
        return "\n".join(lines) + "\n"


def _density_finite(counts: np.ndarray, n: int, widths: np.ndarray) -> bool:
    """Whether n times each width, and so Histogram.density, is finite."""
    with np.errstate(over="ignore"):
        scaled = n * widths
        return bool(np.isfinite(scaled).all() and np.isfinite(counts / scaled).all())


def bin_linear(s: DurationSample, m: int) -> Histogram:
    """m equal-width bins over [x_min, x_max], left-closed/right-open,
    last bin closed. A degenerate x_max == x_min sample yields one bin.
    """
    if m < 1:
        raise ValueError("bin count must be at least 1")
    lo, hi = s.x_min, s.x_max
    if hi == lo:
        edges = np.array([lo, lo * (1.0 + 1e-12) if lo > 0 else 1.0])
        return Histogram(edges, np.array([s.n]))
    try:
        edges = np.linspace(lo, hi, m + 1)
    except (MemoryError, ValueError):
        # numpy's "Unable to allocate" or "Maximum allowed size exceeded".
        raise ValueError(f"cannot allocate {m:.3g} linear bins over [{lo!r}, {hi!r}]") from None
    counts, _ = np.histogram(s.values, bins=edges)
    if not _density_finite(counts, s.n, np.diff(edges)):
        raise ValueError(
            f"values in [{lo!r}, {hi!r}] reach the float64 limits: in {m} linear bins, n "
            "times a width, or a density, would be infinite"
        )
    return Histogram(edges, counts)


def bin_log(s: DurationSample, bins_per_decade: int) -> Histogram:
    """Bins with edges at 10**(k / bins_per_decade) covering the sample."""
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be at least 1")
    k_lo = math.floor(bins_per_decade * math.log10(s.x_min) + 1e-9)
    k_hi = math.ceil(bins_per_decade * math.log10(s.x_max) - 1e-9)
    if k_hi <= k_lo:
        k_hi = k_lo + 1
    with np.errstate(over="ignore"):
        edges = 10.0 ** (np.arange(k_lo, k_hi + 1) / bins_per_decade)
    # Guard against the sample extremes falling just outside due to rounding.
    edges[0] = min(edges[0], s.x_min)
    edges[-1] = max(edges[-1], s.x_max)
    widths = np.diff(edges)
    finite = bool(np.isfinite(edges[-1]) and np.all(widths > 0))
    if finite:
        counts, _ = np.histogram(s.values, bins=edges)
        finite = _density_finite(counts, s.n, widths)
    if not finite:
        raise ValueError(
            f"values in [{s.x_min!r}, {s.x_max!r}] reach the float64 limits: their "
            "log bins would have an infinite edge or density, or no width"
        )
    return Histogram(edges, counts)


def rescale(s: DurationSample, b: float) -> DurationSample:
    """Multiply every duration, and any lattice step, by b (change of time unit)."""
    if not (b > 0 and math.isfinite(b)):
        raise ValueError(f"scale factor must be finite and positive, got {b!r}")
    if b == 1.0:
        return s
    # The values are sorted, so the extremes bound every product.
    if not (s.x_min * b > 0 and math.isfinite(s.x_max * b)):
        raise ValueError(
            f"scale factor {b!r} takes durations in [{s.x_min!r}, {s.x_max!r}] outside "
            "the positive float64 range"
        )
    return DurationSample(s.values * b, None if s.step is None else s.step * b)


def quantize(s: DurationSample, step: float) -> tuple[DurationSample, int]:
    """Truncate each duration to a multiple of step (floor), dropping the
    values below step that truncate to zero; the sample records ``step``.

    Models a data provider that stores timestamps at coarse resolution;
    the drop count is surfaced so reports can state how much of the
    small-duration mass was erased.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"quantization step must be finite and positive, got {step!r}")
    if not math.isfinite(s.x_max / step):
        raise ValueError(
            f"quantization step {step!r} divides durations in [{s.x_min!r}, {s.x_max!r}] "
            "past the largest float64"
        )
    kept = floor_to_step(s.values, step)
    if kept.size == 0:
        raise ValueError("all values fall below the quantization step")
    return DurationSample(kept, step), s.n - kept.size


def floor_to_step(values: np.ndarray, step: float) -> np.ndarray:
    """The positive values of floor(values / step) * step, in their order."""
    quantized = np.floor(values / step) * step
    return quantized[quantized > 0]


def expected_counts(model, edges, n: int) -> np.ndarray:
    """n * (cdf(right) - cdf(left)) per bin, for any model with a cdf."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    cdf = model.cdf(edges)
    return n * np.diff(cdf)
