"""Analytic power-law and lognormal models.

All densities are evaluated in log-space internally so that parameter
ranges like mu ~ 10, sigma ~ 3 (seconds-scale duration data) never
overflow; exponentiation happens only at the boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .normal import log_ndtr, ndtr, ndtri

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PowerLawModel:
    """Density c * t**(-gamma) on [tau, inf) with c = (gamma-1) * tau**(gamma-1)."""

    gamma: float
    tau: float

    def __post_init__(self):
        if not self.gamma > 1:
            raise ValueError("gamma must exceed 1 for a normalizable density")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    def logpdf(self, t):
        t = _check_domain(t, self.tau, "t must be >= tau")
        out = powerlaw_logpdf_of_log(np.log(t), self.gamma, self.tau)
        return out if out.ndim else float(out)

    def pdf(self, t):
        return np.exp(self.logpdf(t))

    def cdf(self, t):
        """Pr[X <= t] = 1 - (t/tau)**(1-gamma) for t >= tau, 0 below."""
        t = np.asarray(t, dtype=float)
        out = -np.expm1((1.0 - self.gamma) * np.log(np.maximum(t, self.tau) / self.tau))
        out = np.where(t < self.tau, 0.0, out)
        return out if out.ndim else float(out)

    def tail_probability(self, kappa):
        """Pr[X > kappa] = (kappa/tau)**(1-gamma)."""
        kappa = _check_domain(kappa, self.tau, "kappa must be >= tau")
        out = np.exp((1.0 - self.gamma) * np.log(kappa / self.tau))
        return out if out.ndim else float(out)

    def quantile(self, p):
        """Inverse cdf: tau * (1-p)**(-1/(gamma-1))."""
        p = np.asarray(p, dtype=float)
        out = self.tau * (1.0 - p) ** (-1.0 / (self.gamma - 1.0))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class LognormalModel:
    """Law of exp(N(mu, sigma**2)); mu and sigma are mean and std of ln X."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive (sigma=0 is a point mass)")

    @classmethod
    def from_moments(cls, mean: float, variance: float) -> "LognormalModel":
        """Recover (mu, sigma) from E[X] and Var[X]."""
        if mean <= 0 or variance <= 0:
            raise ValueError("mean and variance must be positive")
        sigma2 = math.log1p(variance / mean**2)
        mu = math.log(mean) - sigma2 / 2.0
        return cls(mu, math.sqrt(sigma2))

    def logpdf(self, t):
        t = _check_domain(t, 0.0, "t must be positive", strict=True)
        out = lognormal_logpdf_of_log(np.log(t), self.mu, self.sigma)
        return out if out.ndim else float(out)

    def pdf(self, t):
        return np.exp(self.logpdf(t))

    def cdf(self, t):
        """Pr[X <= t] = Phi((ln t - mu) / sigma); 0 at t = 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be non-negative")
        with np.errstate(divide="ignore"):
            z = (np.log(t) - self.mu) / self.sigma
        out = ndtr(z)
        return out if out.ndim else float(out)

    def logsf(self, t):
        """log Pr[X > t], stable far in the tail."""
        t = _check_domain(t, 0.0, "t must be positive", strict=True)
        out = lognormal_logsf_of_log(np.log(t), self.mu, self.sigma)
        return out if out.ndim else float(out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        out = np.exp(self.mu + self.sigma * ndtri(p))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def variance(self) -> float:
        s2 = self.sigma**2
        return math.exp(2.0 * self.mu) * math.exp(s2) * math.expm1(s2)

    def moments(self) -> tuple[float, float]:
        return self.mean(), self.variance()

    def mode(self) -> float:
        return math.exp(self.mu - self.sigma**2)

    def effective_exponent(self, t):
        """Local power-law slope alpha(t) = 1 + (ln t - 2 mu) / (2 sigma**2).

        Together with ``powerlaw_prefactor`` this rewrites the density as
        prefactor * t**(-alpha(t)), exactly.
        """
        t = _check_domain(t, 0.0, "t must be positive", strict=True)
        out = 1.0 + (np.log(t) - 2.0 * self.mu) / (2.0 * self.sigma**2)
        return out if out.ndim else float(out)

    def powerlaw_prefactor(self) -> float:
        return math.exp(-self.mu**2 / (2.0 * self.sigma**2)) / (
            self.sigma * math.sqrt(2.0 * math.pi)
        )

    def power_law_window(self, epsilon: float) -> tuple[float, float]:
        """Interval where |alpha(t) - 1| <= epsilon, i.e. the density is
        near-indistinguishable from a power-law with exponent ~ 1.
        """
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        half = 2.0 * self.sigma**2 * epsilon
        return math.exp(2.0 * self.mu - half), math.exp(2.0 * self.mu + half)

    def loglog_coefficients(self) -> tuple[float, float, float]:
        """Coefficients (a2, a1, a0) with ln f(t) = a2*(ln t)**2 + a1*ln t + a0."""
        s2 = self.sigma**2
        a2 = -1.0 / (2.0 * s2)
        a1 = self.mu / s2 - 1.0
        a0 = -math.log(math.sqrt(2.0 * math.pi) * self.sigma) - self.mu**2 / (2.0 * s2)
        return a2, a1, a0

    def rescaled(self, b: float) -> "LognormalModel":
        """Model of b*X: mu shifts by ln b, sigma is invariant."""
        if b <= 0:
            raise ValueError("scale factor must be positive")
        return LognormalModel(self.mu + math.log(b), self.sigma)


def powerlaw_logpdf_of_log(y, gamma: float, tau: float):
    """Power-law log-density log f(x) at y = ln x, for x >= tau; no domain check."""
    return math.log(gamma - 1.0) + (gamma - 1.0) * math.log(tau) - gamma * y


def lognormal_logpdf_of_log(y, mu: float, sigma: float, out=None):
    """Lognormal log-density log phi(z) - log sigma - y at y = ln x, with
    z = (y - mu) / sigma; no domain check.

    The float operations run in the order of that formula, in two arrays
    shaped like y: ``out``, a pair of float64 arrays that are then
    overwritten (z goes to the first, the result to the second, which is
    returned), or two new ones.
    """
    if out is None:
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y), np.empty_like(y)
    z, r = out
    np.subtract(y, mu, out=z)
    np.divide(z, sigma, out=z)
    np.multiply(-0.5, z, out=r)
    np.multiply(r, z, out=r)
    np.subtract(r, _LOG_SQRT_2PI, out=r)
    np.subtract(r, math.log(sigma), out=r)
    np.subtract(r, y, out=r)
    return r


def lognormal_logsf_of_log(y, mu: float, sigma: float):
    """Lognormal log Pr[X > x] at y = ln x, stable far in the tail."""
    return log_ndtr(-(y - mu) / sigma)


def _check_domain(t, lower, message, strict=False):
    t = np.asarray(t, dtype=float)
    bad = (t <= lower) if strict else (t < lower)
    if np.any(bad):
        raise ValueError(message)
    return t
