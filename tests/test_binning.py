"""Histogramming, rescaling and resolution quantization."""
import math

import numpy as np
import pytest

from tailfit import (
    DurationSample,
    Histogram,
    LognormalModel,
    SeededGenerator,
    bin_linear,
    bin_log,
    expected_counts,
    quantize,
    rescale,
    sample_lognormal,
)
from tailfit.binning import floor_to_step


def small_sample():
    return DurationSample(np.array([1.0, 2.0, 2.5, 4.0, 8.0, 9.0]))


class TestHistogram:
    def test_counts_sum_to_n(self):
        h = bin_linear(small_sample(), 4)
        assert h.n == 6
        assert h.counts.sum() == 6

    def test_density_normalizes(self):
        h = bin_linear(small_sample(), 5)
        assert float(np.sum(h.density() * h.widths)) == pytest.approx(1.0, rel=1e-12)

    def test_last_bin_closed(self):
        # The maximum lands in the last bin, not past it.
        s = DurationSample(np.array([1.0, 2.0, 3.0]))
        h = bin_linear(s, 2)
        assert h.counts[-1] >= 1
        assert h.counts.sum() == 3

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Histogram(np.array([1.0]), np.array([]))
        with pytest.raises(ValueError):
            Histogram(np.array([2.0, 1.0]), np.array([1]))
        with pytest.raises(ValueError):
            Histogram(np.array([1.0, 2.0]), np.array([-1]))
        with pytest.raises(ValueError):
            Histogram(np.array([1.0, 2.0, 3.0]), np.array([1]))

    def test_csv_roundtrip_shape(self):
        h = bin_linear(small_sample(), 3)
        lines = h.to_csv().strip().split("\n")
        assert lines[0] == "bin_left,bin_right,count,density"
        assert len(lines) == 4
        left, right, count, dens = lines[1].split(",")
        assert float(left) == h.edges[0]
        assert int(count) == h.counts[0]


class TestBinLinear:
    def test_equal_widths(self):
        h = bin_linear(small_sample(), 8)
        np.testing.assert_allclose(h.widths, h.widths[0], rtol=1e-12)
        assert h.edges[0] == 1.0 and h.edges[-1] == 9.0

    def test_degenerate_single_value(self):
        s = DurationSample(np.array([5.0, 5.0, 5.0]))
        h = bin_linear(s, 10)
        assert h.counts.sum() == 3
        assert h.counts.size == 1

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            bin_linear(small_sample(), 0)


class TestBinLog:
    def test_edges_are_powers(self):
        s = DurationSample(np.array([1.5, 10.0, 900.0]))
        h = bin_log(s, 1)
        # Interior edges sit at powers of ten.
        for e in h.edges[1:-1]:
            assert math.log10(e) == pytest.approx(round(math.log10(e)), abs=1e-9)

    def test_covers_sample(self):
        s = small_sample()
        h = bin_log(s, 5)
        assert h.edges[0] <= s.x_min
        assert h.edges[-1] >= s.x_max
        assert h.counts.sum() == s.n

    def test_bins_per_decade(self):
        s = DurationSample(np.array([1.0, 999.0]))
        h = bin_log(s, 10)
        # Three decades at ten bins per decade.
        assert h.counts.size == 30


class TestRescale:
    def test_values_scaled(self):
        s = small_sample()
        r = rescale(s, 1.0 / 60.0)
        np.testing.assert_allclose(r.values, s.values / 60.0, rtol=1e-15)

    def test_identity(self):
        s = small_sample()
        assert rescale(s, 1.0) is s

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rescale(small_sample(), 0.0)

    def test_scales_the_lattice_step(self):
        q, _ = quantize(small_sample(), 0.5)
        assert rescale(q, 4.0).step == 2.0
        assert rescale(small_sample(), 4.0).step is None


class TestQuantize:
    def test_floor_semantics(self):
        s = DurationSample(np.array([0.4, 1.2, 3.7, 4.0, 7.9]))
        q, dropped = quantize(s, 1.0)
        np.testing.assert_array_equal(q.values, [1.0, 3.0, 4.0, 7.0])
        assert dropped == 1

    def test_records_the_step(self):
        assert small_sample().step is None
        q, _ = quantize(small_sample(), 0.7)
        assert q.step == 0.7

    @pytest.mark.parametrize("step", [0.0, -1.0, math.inf, math.nan])
    def test_sample_rejects_a_bad_step(self, step):
        with pytest.raises(ValueError, match="quantization step must be finite and positive"):
            DurationSample(np.array([1.0, 2.0]), step)

    def test_floor_to_step_keeps_order(self):
        # The bootstrap floors its unsorted replicates with the same function.
        values = np.array([7.9, 0.4, 4.0, 1.2, 3.7])
        np.testing.assert_array_equal(floor_to_step(values, 1.0), [7.0, 4.0, 1.0, 3.0])

    def test_all_dropped_raises(self):
        s = DurationSample(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            quantize(s, 1.0)

    def test_hour_quantization_drops_subhour_mass(self):
        m = LognormalModel(10.0, 2.0)
        s = sample_lognormal(m, 10_000, SeededGenerator(5))
        q, dropped = quantize(s, 3600.0)
        expected_frac = m.cdf(3600.0)
        assert dropped / s.n == pytest.approx(expected_frac, abs=0.02)
        assert q.x_min >= 3600.0
        # Every kept value is a multiple of the step.
        np.testing.assert_allclose(np.mod(q.values, 3600.0), 0.0, atol=1e-6)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            quantize(small_sample(), -1.0)


class TestExpectedCounts:
    def test_sums_to_n_minus_tails(self):
        m = LognormalModel(2.0, 1.0)
        edges = np.exp(np.linspace(-3, 7, 41) * 1.0)
        counts = expected_counts(m, edges, 1000)
        mass = m.cdf(edges[-1]) - m.cdf(edges[0])
        assert counts.sum() == pytest.approx(1000 * mass, rel=1e-12)

    def test_matches_manual_cdf_difference(self):
        m = LognormalModel(0.0, 1.0)
        edges = np.array([0.5, 1.0, 2.0])
        counts = expected_counts(m, edges, 10)
        assert counts[0] == pytest.approx(10 * (m.cdf(1.0) - m.cdf(0.5)), rel=1e-12)

    def test_rejects_bad_edges(self):
        m = LognormalModel(0.0, 1.0)
        with pytest.raises(ValueError):
            expected_counts(m, np.array([2.0, 1.0]), 10)


class TestDeformation:
    def test_binned_lognormal_keeps_sigma_shifts_mu(self):
        # Expressing durations in hours instead of seconds shifts the
        # log-moment mu by -ln(3600) and leaves sigma untouched.
        s = sample_lognormal(LognormalModel(10.0, 2.0), 50_000, SeededGenerator(8))
        hours = rescale(s, 1.0 / 3600.0)
        logs_s, logs_h = np.log(s.values), np.log(hours.values)
        assert float(np.std(logs_h)) == pytest.approx(float(np.std(logs_s)), abs=1e-10)
        assert float(np.mean(logs_h)) == pytest.approx(
            float(np.mean(logs_s)) - math.log(3600.0), abs=1e-10
        )
