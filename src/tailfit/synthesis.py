"""Seeded random generation: lognormal / power-law samples, the
exponential-of-exponential construction and the multiplicative
(Gibrat) growth process.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import LognormalModel, PowerLawModel
from .sample import DurationSample


@dataclass(frozen=True)
class SeededGenerator:
    """Deterministic random source on numpy's PCG64: same (seed,
    parameters, n) gives a bit-identical sample sequence. Substreams
    derived from (seed, index) are independent, for parallel or repeated
    use.
    """

    seed: int

    # numpy.random is imported by the first draw, not at start-up: it
    # costs about 6 MB and 15 ms, and only commands that draw need it.
    # The bootstrap loads it before forking its workers (see
    # ``estimation._bootstrap``).
    def rng(self) -> np.random.Generator:
        from numpy.random import PCG64, Generator

        return Generator(PCG64(self.seed))

    def substream(self, index: int) -> np.random.Generator:
        from numpy.random import PCG64, Generator, SeedSequence

        # spawn_key keeps substream 0 distinct from the root stream
        # (appending the index to the entropy would not: trailing zeros
        # are absorbed by the seed-sequence pool).
        seq = SeedSequence(entropy=self.seed, spawn_key=(index,))
        return Generator(PCG64(seq))


@dataclass(frozen=True)
class GibratProcess:
    """Multiplicative growth S_t = a_t * S_{t-1} with log-factors
    xi_t = ln a_t drawn i.i.d. from N(xi_mean, xi_std**2).
    """

    s0: float
    steps: int
    agents: int
    xi_mean: float = 0.0
    xi_std: float = 1.0

    def __post_init__(self):
        if self.s0 <= 0:
            raise ValueError("initial size must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")
        if self.agents < 1:
            raise ValueError("need at least one agent")
        if not np.isfinite(self.xi_mean):
            raise ValueError(f"xi_mean must be finite, got {self.xi_mean!r}")
        if not (np.isfinite(self.xi_std) and self.xi_std >= 0):
            raise ValueError(f"xi_std must be finite and non-negative, got {self.xi_std!r}")


def sample_lognormal(m: LognormalModel, n: int, g: SeededGenerator) -> DurationSample:
    """n i.i.d. draws of exp(N(mu, sigma**2))."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    with np.errstate(over="ignore"):
        values = np.exp(g.rng().normal(m.mu, m.sigma, size=n))
    return DurationSample(_in_range(values, m))


def sample_powerlaw(m: PowerLawModel, n: int, g: SeededGenerator) -> DurationSample:
    """Inverse-transform draws tau * (1-U)**(-1/(gamma-1)).

    U is uniform on [0, 1); U = 1 never occurs, so draws are finite.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    with np.errstate(over="ignore"):
        values = m.quantile(g.rng().random(n))
    return DurationSample(_in_range(values, m))


def sample_exp_of_exponential(
    gamma: float, tau: float, n: int, g: SeededGenerator
) -> DurationSample:
    """X = exp(Y) with Y exponential(rate gamma-1) shifted by ln tau.

    Distributionally identical to a power-law sample with the same
    (gamma, tau): Pr[X <= t] = 1 - (t/tau)**(1-gamma).
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if n < 1:
        raise ValueError("sample size must be at least 1")
    y = g.rng().exponential(scale=1.0 / (gamma - 1.0), size=n)
    with np.errstate(over="ignore"):
        values = tau * np.exp(y)
    return DurationSample(_in_range(values, f"exp-of-exponential(gamma={gamma!r}, tau={tau!r})"))


def run_gibrat(p: GibratProcess, g: SeededGenerator) -> np.ndarray:
    """Run the multiplicative process for every agent.

    Returns sizes of shape (agents, steps + 1); column 0 is S_0.
    Sizes are accumulated in log-space, so ln S_t is exactly
    ln S_0 + sum of the log-factors.
    """
    xi = g.rng().normal(p.xi_mean, p.xi_std, size=(p.agents, p.steps))
    log_sizes = np.empty((p.agents, p.steps + 1))
    log_sizes[:, 0] = np.log(p.s0)
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(xi, axis=1, out=log_sizes[:, 1:])
        log_sizes[:, 1:] += np.log(p.s0)
        sizes = np.exp(log_sizes)
    return _in_range(sizes, p)


def _in_range(values: np.ndarray, model) -> np.ndarray:
    """``values``, or a ValueError naming ``model`` and its parameters if one
    of them overflowed float64 or underflowed to 0."""
    if not (np.isfinite(values).all() and values.min() > 0):
        raise ValueError(f"draws of {model} pass the largest float64 or round to 0")
    return values
