"""Closed-form checks for the analytic models.

Expected values are either hand-derivable or frozen from independent
numerical oracles (scipy.stats, mpmath quadrature) at write time.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from tailfit import LognormalModel, PowerLawModel
from tailfit.distributions import _LOG_SQRT_2PI


def reference_lognormal_logpdf(t, mu, sigma):
    """LognormalModel.logpdf as first written: the same four terms as the
    shared log-density, summed in another order.
    """
    log_t = np.log(t)
    z = (log_t - mu) / sigma
    return -0.5 * z * z - log_t - math.log(sigma) - _LOG_SQRT_2PI


class TestPowerLaw:
    def test_pdf_normalization_constant(self):
        # c = (gamma-1) * tau**(gamma-1); at gamma=2, tau=3: c = 3.
        m = PowerLawModel(2.0, 3.0)
        assert m.pdf(3.0) == pytest.approx(3.0 / 3.0**2)
        assert m.pdf(6.0) == pytest.approx(3.0 / 36.0)

    def test_pdf_integrates_to_one(self):
        m = PowerLawModel(1.53, 59.0)
        total, err = integrate.quad(m.pdf, m.tau, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_scipy_pareto(self):
        # Same law as scipy's pareto with b = gamma-1, scale = tau.
        m = PowerLawModel(2.03, 12.0)
        ref = stats.pareto(b=1.03, scale=12.0)
        t = np.array([12.0, 15.0, 40.0, 1e4])
        np.testing.assert_allclose(m.pdf(t), ref.pdf(t), rtol=1e-12)
        np.testing.assert_allclose(m.cdf(t), ref.cdf(t), rtol=1e-12)

    def test_cdf_below_tau_is_zero(self):
        m = PowerLawModel(2.0, 5.0)
        assert m.cdf(1.0) == 0.0
        assert m.cdf(5.0) == 0.0

    def test_tail_probability(self):
        # (kappa/tau)**(1-gamma); gamma=2, tau=1, kappa=100 -> 0.01.
        m = PowerLawModel(2.0, 1.0)
        assert m.tail_probability(100.0) == pytest.approx(0.01, rel=1e-12)

    def test_quantile_inverts_cdf(self):
        m = PowerLawModel(1.7, 8.0)
        p = np.array([0.0, 0.1, 0.5, 0.99, 0.999999])
        np.testing.assert_allclose(m.cdf(m.quantile(p)), p, atol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PowerLawModel(1.0, 1.0)
        with pytest.raises(ValueError):
            PowerLawModel(2.0, 0.0)

    def test_rejects_points_below_tau(self):
        m = PowerLawModel(2.0, 5.0)
        with pytest.raises(ValueError):
            m.logpdf(4.0)
        with pytest.raises(ValueError):
            m.tail_probability(1.0)

    def test_scalar_in_scalar_out(self):
        m = PowerLawModel(2.0, 1.0)
        assert isinstance(m.pdf(2.0), float)
        assert isinstance(m.cdf(np.array([2.0, 3.0])), np.ndarray)


class TestLognormal:
    def test_pdf_matches_scipy(self):
        m = LognormalModel(10.45, 2.75)
        ref = stats.lognorm(s=2.75, scale=math.exp(10.45))
        t = np.array([1.0, 60.0, 3600.0, 1e6, 1e9])
        np.testing.assert_allclose(m.pdf(t), ref.pdf(t), rtol=1e-12)
        np.testing.assert_allclose(m.cdf(t), ref.cdf(t), rtol=1e-12)

    def test_pdf_at_median(self):
        # f(e^mu) = e^(-mu) / (sigma sqrt(2 pi)).
        m = LognormalModel(2.0, 0.5)
        expected = math.exp(-2.0) / (0.5 * math.sqrt(2 * math.pi))
        assert m.pdf(math.exp(2.0)) == pytest.approx(expected, rel=1e-14)

    def test_cdf_at_median_is_half(self):
        m = LognormalModel(10.0, 2.0)
        assert m.cdf(math.exp(10.0)) == pytest.approx(0.5, abs=1e-15)

    def test_extreme_parameters_do_not_overflow(self):
        # Seconds-scale duration parameters stay finite in log-space.
        m = LognormalModel(10.0, 2.0)
        assert np.isfinite(m.logpdf(1e300))
        assert np.isfinite(m.logsf(1e300))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-30.0, 30.0),
        st.floats(1e-3, 20.0),
        st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=50),
    )
    def test_logpdf_within_six_ulps_of_first_version(self, mu, sigma, ts):
        # Both orders add the same four floats with three roundings each,
        # so they differ by at most 6 ulps of the sum of the terms' sizes.
        t = np.array(ts)
        log_t = np.log(t)
        z = (log_t - mu) / sigma
        size = 0.5 * z * z + np.abs(log_t) + abs(math.log(sigma)) + _LOG_SQRT_2PI
        got = LognormalModel(mu, sigma).logpdf(t)
        want = reference_lognormal_logpdf(t, mu, sigma)
        assert np.all(np.abs(got - want) <= 6 * np.spacing(size))

    def test_logsf_deep_tail(self):
        m = LognormalModel(0.0, 1.0)
        # ln Pr[X > e^40] = ln(1 - Phi(40)); frozen from scipy.stats.norm.logsf(40).
        assert m.logsf(math.exp(40.0)) == pytest.approx(-804.608442013754, rel=1e-12)

    def test_moments(self):
        m = LognormalModel(1.0, 0.5)
        assert m.mean() == pytest.approx(math.exp(1.125), rel=1e-14)
        expected_var = math.exp(2.0) * math.exp(0.25) * (math.exp(0.25) - 1.0)
        assert m.variance() == pytest.approx(expected_var, rel=1e-13)

    def test_from_moments_roundtrip(self):
        m = LognormalModel(10.45, 2.75)
        back = LognormalModel.from_moments(*m.moments())
        assert back.mu == pytest.approx(m.mu, rel=1e-10)
        assert back.sigma == pytest.approx(m.sigma, rel=1e-10)

    def test_quantile_inverts_cdf(self):
        m = LognormalModel(10.0, 2.0)
        p = np.array([0.001, 0.25, 0.5, 0.75, 0.999])
        np.testing.assert_allclose(m.cdf(m.quantile(p)), p, atol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LognormalModel(0.0, 0.0)
        with pytest.raises(ValueError):
            LognormalModel.from_moments(-1.0, 1.0)


class TestEffectiveExponent:
    def test_closed_form(self):
        # alpha(t) = 1 + (ln t - 2 mu) / (2 sigma^2).
        m = LognormalModel(2.0, 1.0)
        assert m.effective_exponent(math.exp(2.0)) == pytest.approx(0.0)
        assert m.effective_exponent(math.exp(4.0)) == pytest.approx(1.0)
        assert m.effective_exponent(math.exp(6.0)) == pytest.approx(2.0)

    def test_prefactor_identity_exact(self):
        # prefactor * t**(-alpha(t)) equals the pdf for every t.
        m = LognormalModel(10.45, 2.75)
        pref = m.powerlaw_prefactor()
        t = np.exp(np.linspace(-3.0, 25.0, 97))
        alpha = m.effective_exponent(t)
        reconstructed = pref * t**(-alpha)
        np.testing.assert_allclose(reconstructed, m.pdf(t), rtol=1e-12)

    def test_three_decade_variation(self):
        # Over a factor 10^3 the exponent changes by 3 ln(10) / (2 sigma^2).
        m = LognormalModel(5.0, 3.4)
        delta = m.effective_exponent(1e5) - m.effective_exponent(1e2)
        assert delta == pytest.approx(3.0 * math.log(10.0) / (2.0 * 3.4**2), rel=1e-12)

    def test_window_bounds_satisfy_epsilon(self):
        m = LognormalModel(10.0, 2.0)
        lo, hi = m.power_law_window(0.25)
        assert m.effective_exponent(lo) == pytest.approx(0.75, rel=1e-9)
        assert m.effective_exponent(hi) == pytest.approx(1.25, rel=1e-9)
        mid = math.exp(2.0 * m.mu)
        assert m.effective_exponent(mid) == pytest.approx(1.0, rel=1e-12)

    def test_loglog_coefficients(self):
        # ln f(t) is an exact quadratic in ln t.
        m = LognormalModel(3.7, 1.9)
        a2, a1, a0 = m.loglog_coefficients()
        t = np.exp(np.linspace(-5.0, 20.0, 51))
        x = np.log(t)
        np.testing.assert_allclose(
            a2 * x**2 + a1 * x + a0, m.logpdf(t), rtol=0, atol=1e-12
        )
        assert a2 == pytest.approx(-1.0 / (2.0 * 1.9**2), rel=1e-14)
