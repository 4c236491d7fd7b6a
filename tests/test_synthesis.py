"""Seeded-generation behavior: determinism, distributional correctness,
and the multiplicative growth process.
"""

import numpy as np
import pytest
from scipy import stats

from tailfit import (
    GibratProcess,
    LognormalModel,
    PowerLawModel,
    SeededGenerator,
    run_gibrat,
    sample_exp_of_exponential,
    sample_lognormal,
    sample_powerlaw,
)


class TestSeededGenerator:
    def test_same_seed_same_stream(self):
        a = SeededGenerator(42).rng().random(100)
        b = SeededGenerator(42).rng().random(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededGenerator(1).rng().random(10)
        b = SeededGenerator(2).rng().random(10)
        assert not np.array_equal(a, b)

    def test_substreams_are_deterministic_and_distinct(self):
        g = SeededGenerator(7)
        a1 = g.substream(0).random(10)
        a2 = g.substream(0).random(10)
        b = g.substream(1).random(10)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_substream_differs_from_main_stream(self):
        g = SeededGenerator(7)
        assert not np.array_equal(g.rng().random(10), g.substream(0).random(10))


class TestSamplers:
    def test_lognormal_sample_is_sorted_and_reproducible(self):
        m = LognormalModel(10.0, 2.0)
        s1 = sample_lognormal(m, 1000, SeededGenerator(3))
        s2 = sample_lognormal(m, 1000, SeededGenerator(3))
        np.testing.assert_array_equal(s1.values, s2.values)
        assert np.all(np.diff(s1.values) >= 0)

    def test_lognormal_sample_distribution(self):
        m = LognormalModel(10.0, 2.0)
        s = sample_lognormal(m, 200_000, SeededGenerator(11))
        _, p = stats.kstest(np.log(s.values), "norm", args=(10.0, 2.0))
        assert p > 0.01

    def test_powerlaw_sample_distribution(self):
        m = PowerLawModel(1.53, 59.0)
        s = sample_powerlaw(m, 200_000, SeededGenerator(12))
        assert s.x_min >= 59.0
        _, p = stats.kstest(s.values, m.cdf)
        assert p > 0.01

    def test_exp_of_exponential_matches_powerlaw_law(self):
        # exp of a rate-(gamma-1) exponential, scaled by tau, has the
        # power-law cdf 1 - (t/tau)**(1-gamma).
        m = PowerLawModel(2.03, 12.0)
        s = sample_exp_of_exponential(2.03, 12.0, 200_000, SeededGenerator(13))
        assert s.x_min >= 12.0
        _, p = stats.kstest(s.values, m.cdf)
        assert p > 0.01

    def test_sampler_parameter_validation(self):
        g = SeededGenerator(0)
        with pytest.raises(ValueError):
            sample_lognormal(LognormalModel(0, 1), 0, g)
        with pytest.raises(ValueError):
            sample_exp_of_exponential(1.0, 1.0, 10, g)
        with pytest.raises(ValueError):
            sample_exp_of_exponential(2.0, -1.0, 10, g)


class TestGibrat:
    def test_shape_and_initial_column(self):
        p = GibratProcess(s0=2.0, steps=5, agents=3)
        sizes = run_gibrat(p, SeededGenerator(1))
        assert sizes.shape == (3, 6)
        np.testing.assert_array_equal(sizes[:, 0], 2.0)

    def test_log_sizes_are_cumulative_sums(self):
        # ln S_t must equal ln S_0 plus the running sum of log-factors.
        p = GibratProcess(s0=1.0, steps=50, agents=4, xi_mean=0.02, xi_std=0.3)
        g = SeededGenerator(9)
        sizes = run_gibrat(p, g)
        xi = g.rng().normal(0.02, 0.3, size=(4, 50))
        np.testing.assert_allclose(
            np.log(sizes[:, 1:]), np.cumsum(xi, axis=1), rtol=0, atol=1e-12
        )

    def test_clt_limit(self):
        # After t steps ln S_t ~ N(ln S0 + t mu, t sigma^2).
        p = GibratProcess(s0=1.0, steps=400, agents=5000, xi_mean=0.01, xi_std=0.1)
        sizes = run_gibrat(p, SeededGenerator(21))
        final_logs = np.log(sizes[:, -1])
        _, pval = stats.kstest(final_logs, "norm", args=(4.0, 2.0))
        assert pval > 0.01

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GibratProcess(s0=0.0, steps=1, agents=1)
        with pytest.raises(ValueError):
            GibratProcess(s0=1.0, steps=0, agents=1)
        with pytest.raises(ValueError):
            GibratProcess(s0=1.0, steps=1, agents=0)
