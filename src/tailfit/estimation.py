"""Maximum-likelihood fitting, tail-cutoff selection, goodness of fit and
family discrimination for duration samples.

Power-law tails are fitted with the closed-form exponent estimate and a
KS scan over candidate cutoffs; lognormals with the closed-form log-moment
estimate (or a truncated-likelihood optimizer above a cutoff). Bootstrap
p-values use the semi-parametric scheme: synthetic tails from the fitted
model, synthetic bodies resampled from the empirical data below the cutoff;
their replicates can run in forked worker processes without changing p.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import erfc, log_ndtr, ndtr, ndtri, ndtri_exp

from .binning import Histogram
from .distributions import _LOG_SQRT_2PI, LognormalModel, PowerLawModel
from .sample import DurationSample, _is_sorted

DEFAULT_MIN_TAIL = 50
DEFAULT_MAX_CANDIDATES = 1000
VERDICT_THRESHOLD = 0.1


class DegenerateSampleError(ValueError):
    """Sample cannot support the requested fit (too few / identical values)."""


class FitConvergenceError(RuntimeError):
    """Numerical optimizer failed to converge; message carries diagnostics."""


@dataclass(frozen=True)
class FitReport:
    """One fitted family on one sample (one row of a results table)."""

    family: str  # "powerlaw" | "lognormal"
    params: tuple[float, float]  # (gamma, tau) or (mu, sigma)
    xmin: float | None
    n_tail: int
    ks: float
    loglik: float
    n_total: int
    p_value: float | None = None

    def model(self):
        if self.family == "powerlaw":
            return PowerLawModel(*self.params)
        return LognormalModel(*self.params)

    def to_json_dict(self, dist: str | None = None) -> dict:
        """Columns dist, gamma, p, xmin, mu, sigma, loglik_p, LR, n; absent
        fields null. ``p`` is the power-law bootstrap p, ``loglik_p`` the
        lognormal-side one; LR is filled by the comparison stage, not here.
        """
        row = {
            "dist": dist or self.family,
            "gamma": None,
            "p": None,
            "xmin": self.xmin,
            "mu": None,
            "sigma": None,
            "loglik_p": None,
            "LR": None,
            "n": self.n_total,
        }
        if self.family == "powerlaw":
            row["gamma"], _ = self.params
            row["p"] = self.p_value
        else:
            row["mu"], row["sigma"] = self.params
            row["loglik_p"] = self.p_value
        return row


@dataclass(frozen=True)
class ComparisonReport:
    """Log-likelihood ratio between the fitted power-law and lognormal on a
    common tail. Positive lr favors the power-law.
    """

    lr: float
    normalized: float
    p_value: float
    verdict: str  # "powerlaw" | "lognormal" | "undecided"
    xmin: float
    n_tail: int
    powerlaw: FitReport
    lognormal: FitReport


@dataclass(frozen=True)
class EdfNormalFit:
    """Least-squares fit of a normal cdf to the EDF of the log-durations."""

    mu: float
    sigma: float
    mle_mu: float
    mle_sigma: float
    deviation: float
    misfit: bool
    low_confidence: bool


class Edf:
    """Empirical distribution function; right-continuous step function."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("empty sample")
        self.values = np.sort(values)
        self.n = values.size

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.searchsorted(self.values, t, side="right") / self.n
        return out if out.ndim else float(out)

    def left_limit(self, t):
        """EDF(t-), the value just below t."""
        t = np.asarray(t, dtype=float)
        out = np.searchsorted(self.values, t, side="left") / self.n
        return out if out.ndim else float(out)


def edf(s: DurationSample) -> Edf:
    return Edf(s.values)


def ks_distance(sample, cdf) -> float:
    """sup over sample points of max(|EDF(x-) - F(x)|, |EDF(x) - F(x)|).

    A ``DurationSample``, or an array already in ascending order, is used
    as it is; any other array is sorted first. Besides the cdf values, the
    two deviations take one n-sized buffer each, computed in place.
    """
    if isinstance(sample, DurationSample):
        values = sample.values
    else:
        values = np.asarray(sample, dtype=float)
        if not _is_sorted(values):
            values = np.sort(values)
    n = values.size
    if n < 1:
        raise ValueError("need at least one point")
    f = np.asarray(cdf(values), dtype=float)
    hi = np.arange(1, n + 1, dtype=float)
    hi /= n
    hi -= f
    np.abs(hi, out=hi)
    lo = np.arange(0, n, dtype=float)
    lo /= n
    lo -= f
    np.abs(lo, out=lo)
    np.maximum(hi, lo, out=hi)
    return float(hi.max())


def _powerlaw_tail_ks(values, below, upto, xmin, gamma) -> float:
    """KS distance between the EDF of a sorted tail and the power-law cdf
    1 - (x/xmin)**(1-gamma).

    The tail comes as runs of equal values: each run's value, and the
    number of tail points below the run and up to its end (the last of
    which is the tail size). Within a run the cdf is constant while the
    EDF steps through consecutive levels, so the largest deviation sits at
    one of the run's two ends, and the result equals the maximum over
    every point bit for bit. Passing every point as a run of one is exact
    too.
    """
    m = upto[-1]
    f = -np.expm1((1.0 - gamma) * np.log(values / xmin))
    return float(max(np.max(np.abs(below / m - f)), np.max(np.abs(upto / m - f))))


# The cutoff scan bounds every candidate's KS from below on a grid made of
# every KS_GRID_STRIDE-th run of equal values, KS_BOUND_BLOCK (candidate,
# grid run) pairs at a time, so that memory does not grow with the sample
# and each block stays in cache.
KS_GRID_STRIDE = 16
KS_BOUND_BLOCK = 1 << 15


def _ks_lower_bounds(x, starts, ends, cand, m, gamma) -> np.ndarray:
    """For each candidate cutoff x[cand[k]] with tail size m[k] and exponent
    gamma[k], the largest of its exact KS terms at the grid runs in its
    tail. These are the float operations of ``_powerlaw_tail_ks`` on a
    subset of its runs, so each bound is at most the candidate's KS.
    """
    g_starts = starts[::KS_GRID_STRIDE]
    g_ends = ends[::KS_GRID_STRIDE]
    g_x = x[g_starts]
    lb = np.empty(cand.size)
    k0 = 0
    while k0 < cand.size:
        # Candidates ascend, so grid runs below the block's first cutoff
        # lie below every cutoff of the block.
        c0 = int(np.searchsorted(g_starts, cand[k0]))
        k1 = min(cand.size, k0 + max(1, KS_BOUND_BLOCK // max(1, g_starts.size - c0)))
        i = cand[k0:k1, None]
        mk = m[k0:k1, None]
        # Clipping leaves grid runs in a tail as they are (their ratio is
        # >= 1 and their counts >= 0) and turns the others into zero terms.
        e = np.maximum(g_x[c0:] / x[i], 1.0)
        np.log(e, out=e)
        np.multiply(1.0 - gamma[k0:k1, None], e, out=e)
        np.expm1(e, out=e)  # the cdf is -e, and lo - (-e) == lo + e exactly
        lo = np.maximum(g_starts[c0:] - i, 0) / mk
        hi = np.maximum(g_ends[c0:] - i, 0) / mk
        lo += e
        hi += e
        np.abs(lo, out=lo)
        np.abs(hi, out=hi)
        np.maximum(lo, hi, out=lo)
        lb[k0:k1] = lo.max(axis=1, initial=0.0)
        k0 = k1
    return lb


def fit_powerlaw_tail(
    s: DurationSample,
    xmin: float | None = None,
    min_tail: int = DEFAULT_MIN_TAIL,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> FitReport:
    """Fit a power-law to the tail of the sample.

    Without a fixed ``xmin`` every distinct sample value (subject to
    n_tail >= min_tail, decimated to at most ``max_candidates``) is tried
    as the cutoff; the candidate minimizing the tail KS distance wins,
    ties broken toward the smallest cutoff (largest tail).

    The scan is pruned but exact. The KS distance is a maximum over the
    tail's runs of equal values; the same terms, taken on every
    ``KS_GRID_STRIDE``-th run only, give each candidate a lower bound.
    Candidates are then scored in full in ascending bound order until a
    bound exceeds the best KS found: such a candidate, and every later
    one, has a KS above the best and cannot win or tie. Bounds and full
    scores share every float operation, so the winner, its KS and the
    tie-break are those of scoring every candidate.
    """
    x = s.values
    n = x.size
    if xmin is not None:
        i = int(np.searchsorted(x, xmin, side="left"))
        return _powerlaw_fit_at(x, i, float(xmin), n)

    first = np.flatnonzero(np.diff(x, prepend=np.nan) != 0)  # distinct starts
    if first.size < 2:
        raise DegenerateSampleError("all sample values are equal")
    if first.size < min_tail:
        raise DegenerateSampleError(
            f"need at least {min_tail} distinct values for cutoff selection "
            f"(got {first.size})"
        )
    candidates = first[first <= n - min_tail]
    if candidates.size == 0:
        raise DegenerateSampleError("no cutoff candidate leaves a large enough tail")
    if candidates.size > max_candidates:
        pick = np.linspace(0, candidates.size - 1, max_candidates).astype(int)
        candidates = candidates[np.unique(pick)]

    log_x = np.log(x)
    suffix = np.concatenate([np.cumsum(log_x[::-1])[::-1], [0.0]])

    m = n - candidates
    denom = suffix[candidates] - m * log_x[candidates]
    keep = denom > 0  # otherwise all tail values equal the cutoff
    if not keep.any():
        raise DegenerateSampleError("no valid cutoff candidate")
    candidates, m = candidates[keep], m[keep]
    gammas = 1.0 + m / denom[keep]

    ends = np.append(first[1:], n)
    run_x = x[first]
    runs = np.searchsorted(first, candidates)
    lb = _ks_lower_bounds(x, first, ends, candidates, m, gammas)
    best_ks, best = np.inf, -1
    for k in np.argsort(lb):
        if lb[k] > best_ks:
            break
        r, i = runs[k], candidates[k]
        ks = _powerlaw_tail_ks(run_x[r:], first[r:] - i, ends[r:] - i, run_x[r], gammas[k])
        if ks < best_ks or (ks == best_ks and k < best):
            best_ks, best = ks, k
    i = int(candidates[best])
    gamma = float(gammas[best])
    xmin_c = float(x[i])
    m = n - i
    loglik = m * math.log(gamma - 1.0) + m * (gamma - 1.0) * math.log(xmin_c) - gamma * suffix[i]
    return FitReport(
        family="powerlaw",
        params=(gamma, xmin_c),
        xmin=xmin_c,
        n_tail=m,
        ks=best_ks,
        loglik=float(loglik),
        n_total=n,
    )


def _powerlaw_fit_at(x: np.ndarray, i: int, xmin: float, n: int) -> FitReport:
    tail = x[i:]
    m = tail.size
    if m < 1:
        raise DegenerateSampleError("no values at or above the requested cutoff")
    log_ratio_sum = float(np.sum(np.log(tail / xmin)))
    if log_ratio_sum <= 0:
        raise DegenerateSampleError("tail has no spread above the cutoff")
    gamma = 1.0 + m / log_ratio_sum
    ks = _powerlaw_tail_ks(tail, np.arange(m), np.arange(1, m + 1), xmin, gamma)
    loglik = m * math.log(gamma - 1.0) + m * (gamma - 1.0) * math.log(xmin) - gamma * float(
        np.sum(np.log(tail))
    )
    return FitReport(
        family="powerlaw",
        params=(float(gamma), float(xmin)),
        xmin=float(xmin),
        n_tail=m,
        ks=ks,
        loglik=loglik,
        n_total=n,
    )


def fit_lognormal(s: DurationSample, xmin: float | None = None) -> FitReport:
    """Fit a lognormal; closed-form log-moment MLE without a cutoff, truncated
    maximum likelihood on [xmin, inf) with one.
    """
    x = s.values
    n = x.size
    if xmin is None:
        if n < 2:
            raise DegenerateSampleError("need at least two values")
        logs = np.log(x)
        mu = float(np.mean(logs))
        sigma = float(np.sqrt(np.mean((logs - mu) ** 2)))
        if sigma == 0:
            raise DegenerateSampleError("all sample values are equal")
        model = LognormalModel(mu, sigma)
        ks = ks_distance(s, model.cdf)
        loglik = float(np.sum(model.logpdf(x)))
        return FitReport("lognormal", (mu, sigma), None, n, ks, loglik, n)

    tail = x[int(np.searchsorted(x, xmin, side="left")):]
    m = tail.size
    if m < 2:
        raise DegenerateSampleError("need at least two tail values")
    y = np.log(tail)
    w = math.log(xmin)
    mu, sigma, loglik = _truncated_lognormal_mle(y, w)
    model = LognormalModel(mu, sigma)
    # Conditional cdf via survival logs; the direct 1 - cdf(xmin) can
    # underflow to zero when the fitted body sits far below the cutoff.
    log_sf_xmin = model.logsf(xmin)
    ks = ks_distance(tail, lambda t: -np.expm1(model.logsf(t) - log_sf_xmin))
    return FitReport("lognormal", (mu, sigma), float(xmin), m, ks, loglik, n)


def _truncated_lognormal_loglik(y: np.ndarray, w: float, mu: float, sigma: float) -> float:
    z = (y - mu) / sigma
    # log f_X(x) = log phi(z) - log sigma - y; tail renormalizer log Sf(w).
    per_point = -0.5 * z * z - _LOG_SQRT_2PI - math.log(sigma) - y
    return float(np.sum(per_point) - y.size * log_ndtr(-(w - mu) / sigma))


# Upper bound on sigma in the truncated fit. On data that is genuinely
# power-law the truncated-lognormal likelihood has no interior maximum
# (it keeps rising along a mu -> -inf, sigma -> inf ridge that mimics the
# power-law ever better), so the parameter space is clipped. The cap sits
# well above any sigma observed for human duration data (<= ~3.5) while
# keeping the mimic distinguishable from a true power-law tail.
SIGMA_MAX = 5.0


def _truncated_lognormal_mle(y: np.ndarray, w: float) -> tuple[float, float, float]:
    mu0 = float(np.mean(y))
    sigma0 = min(max(float(np.std(y)), 1e-6), SIGMA_MAX)
    if np.std(y) == 0:
        raise DegenerateSampleError("tail has no spread")

    m = y.size

    def negloglik(theta):
        mu, log_sigma = theta
        # Mean (not sum) keeps the objective O(1) for the line search.
        return -_truncated_lognormal_loglik(y, w, mu, math.exp(log_sigma)) / m

    mu_lo = w - 5.0 * SIGMA_MAX**2
    mu_hi = float(np.max(y)) + 10.0
    bounds = [(mu_lo, mu_hi), (math.log(1e-6), math.log(SIGMA_MAX))]
    res = optimize.minimize(
        negloglik,
        x0=np.array([mu0, math.log(sigma0)]),
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 500, "ftol": 1e-12},
    )
    if not res.success:
        # Line searches can stall on the near-flat ridge; polish from the
        # best point found with a simplex that respects the bounds.
        res = optimize.minimize(
            negloglik,
            x0=res.x,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 2000},
        )
    if not np.all(np.isfinite(res.x)) or not math.isfinite(res.fun):
        raise FitConvergenceError(
            f"truncated lognormal optimizer failed: {res.message} "
            f"(start mu={mu0:.4g} sigma={sigma0:.4g})"
        )
    mu, log_sigma = res.x
    return float(mu), float(math.exp(log_sigma)), float(-res.fun) * m


@dataclass(frozen=True)
class BootstrapResult:
    """Outcome of a bootstrap goodness-of-fit test.

    ``ks`` holds each replicate's refit KS distance in replicate order,
    ``inf`` for a replicate whose refit raised ``DegenerateSampleError`` or
    ``FitConvergenceError``; ``failed`` counts those replicates. They count
    as at least as discrepant as the observed fit, so they raise p.
    """

    p: float
    ks: tuple[float, ...]
    failed: int


def bootstrap_pvalue(
    s: DurationSample,
    fit: FitReport,
    reps: int,
    g,
    fit_options: dict | None = None,
    quantize_step: float | None = None,
    workers: int = 1,
) -> BootstrapResult:
    """Semi-parametric bootstrap goodness-of-fit probability.

    Each replicate draws n_total points: with probability n_tail/n_total
    from the fitted tail model, otherwise resampled from the empirical
    body below the cutoff; the full fit (including cutoff re-selection
    for the power-law) is re-run and its KS recorded. p is the fraction
    of replicates at least as discrepant as the observed fit, with
    precision 1/(2*sqrt(reps)).

    ``quantize_step`` applies the same provider-resolution truncation to
    every replicate, for samples that were themselves quantized. A
    replicate that keeps fewer than two values is a failed replicate.
    ``workers`` > 1 runs the replicates in forked worker processes; the
    result does not depend on it.
    """
    fit_options = fit_options or {}
    n = fit.n_total
    xmin = fit.xmin if fit.xmin is not None else 0.0
    body = s.values[s.values < xmin]
    p_tail = fit.n_tail / n
    model = fit.model()

    def replicate(rng: np.random.Generator) -> float:
        k = int(rng.binomial(n, p_tail))
        parts = []
        if k > 0:
            parts.append(_draw_tail(model, fit, k, rng))
        if n - k > 0:
            parts.append(rng.choice(body, size=n - k, replace=True))
        values = np.concatenate(parts)
        if quantize_step is not None:
            values = np.floor(values / quantize_step) * quantize_step
            values = values[values > 0]
            if values.size < 2:
                raise DegenerateSampleError("quantized replicate keeps fewer than two values")
        synthetic = DurationSample(values)
        if fit.family == "powerlaw":
            return fit_powerlaw_tail(synthetic, **fit_options).ks
        return fit_lognormal(synthetic, xmin=fit.xmin, **fit_options).ks

    return _bootstrap(replicate, fit.ks, reps, g, workers)


def _draw_tail(model, fit: FitReport, k: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(k)
    if fit.family == "powerlaw":
        return model.quantile(u)
    if fit.xmin is None:
        return np.exp(model.mu + model.sigma * ndtri(u))
    # Truncated lognormal tail: solve S(x) = (1 - u) * S(xmin) for the
    # survival function S in log space, since 1 - cdf(xmin) rounds to 0
    # when the cutoff sits far above the body. Rounding can put a draw
    # for u near 0 an ulp below the cutoff; clip it back.
    log_sf = model.logsf(fit.xmin) + np.log1p(-u)
    return np.maximum(np.exp(model.mu - model.sigma * ndtri_exp(log_sf)), fit.xmin)


def bootstrap_pvalue_binned(
    h: Histogram, fit: FitReport, reps: int, g, fit_options: dict | None = None,
    workers: int = 1,
) -> BootstrapResult:
    """Bootstrap goodness-of-fit probability for a binned fit.

    Synthetic histograms are multinomial draws over the observed bins:
    below the fitted cutoff the empirical bin probabilities are used,
    above it the fitted model's (tail-conditioned, weighted by the
    observed tail share). Each replicate is refitted with the same
    binned pipeline and its binned KS recorded. ``workers`` is as for
    ``bootstrap_pvalue``.
    """
    fit_options = fit_options or {}
    edges = h.edges
    counts = h.counts
    n = h.n
    probs = counts / n
    if fit.xmin is not None:
        # The fitted cutoff is one of the histogram edges.
        j = int(np.searchsorted(edges, fit.xmin))
        model = fit.model()
        cdf = model.cdf(edges[j:])
        tail_probs = np.diff(cdf) / (cdf[-1] - cdf[0])
        probs = probs.copy()
        probs[j:] = tail_probs * (fit.n_tail / n)
        probs /= probs.sum()

    def replicate(rng: np.random.Generator) -> float:
        counts_rep = rng.multinomial(n, probs)
        return fit_binned(
            Histogram(edges, counts_rep, h.scheme, h.unit), fit.family, **fit_options
        ).ks

    return _bootstrap(replicate, fit.ks, reps, g, workers)


# Replicate index ranges handed to the pool per worker; more than one
# lets a worker that finishes early take over the work of a slow one.
RANGES_PER_WORKER = 4


def _bootstrap(replicate, observed_ks: float, reps: int, g, workers: int) -> BootstrapResult:
    """Run ``replicate(g.substream(rep))`` for every rep in range(reps) and
    score each refit KS against the observed one.

    With ``workers`` > 1 (capped by the usable CPUs and by ``reps``),
    contiguous ranges of replicate indices run in a pool of forked
    processes, which inherit ``replicate`` and everything it refers to.
    Every replicate draws from its own substream and p is a hit count
    over ``reps``, so the result is the same for any worker count.
    """
    if reps < 100:
        raise ValueError("need at least 100 bootstrap replicates")
    if workers < 1:
        raise ValueError("need at least one worker")
    workers = min(workers, _usable_cpus(), reps)
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        parts = [_replicates(replicate, g, 0, reps)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        n_ranges = min(reps, workers * RANGES_PER_WORKER)
        bounds = [reps * i // n_ranges for i in range(n_ranges + 1)]
        # The executor forks every worker before it starts its own thread,
        # and raises BrokenProcessPool if a worker dies, where a
        # multiprocessing.Pool would wait for its lost results forever.
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_set_worker_task,
            initargs=((replicate, g),),
        )
        try:
            parts = list(pool.map(_worker_replicates, zip(bounds[:-1], bounds[1:])))
        finally:
            pool.shutdown(cancel_futures=True)
    ks = tuple(k for part in parts for k in part)
    hits = sum(k >= observed_ks for k in ks)
    return BootstrapResult(hits / reps, ks, ks.count(math.inf))


def _replicates(replicate, g, start: int, stop: int) -> list[float]:
    """The refit KS of replicates start..stop-1; inf where the refit raised."""
    ks = []
    for rep in range(start, stop):
        try:
            ks.append(float(replicate(g.substream(rep))))
        except (DegenerateSampleError, FitConvergenceError):
            ks.append(math.inf)
    return ks


# Set in each pool worker, from the parent's memory, before any range runs.
_worker_task = None


def _set_worker_task(task) -> None:
    global _worker_task
    _worker_task = task


def _worker_replicates(bounds: tuple[int, int]) -> list[float]:
    return _replicates(*_worker_task, *bounds)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def compare_families(
    s: DurationSample,
    xmin: float,
    threshold: float = VERDICT_THRESHOLD,
    powerlaw: FitReport | None = None,
    lognormal: FitReport | None = None,
) -> ComparisonReport:
    """Vuong-style log-likelihood ratio between power-law and lognormal,
    both fitted to (and normalized on) the tail x >= xmin.

    ``powerlaw`` and ``lognormal`` may pass in the caller's own
    ``fit_powerlaw_tail(s, xmin=xmin)`` and ``fit_lognormal(s, xmin=xmin)``,
    which are then not computed again.
    """
    tail = s.values[s.values >= xmin]
    m = tail.size
    if m < 2:
        raise DegenerateSampleError("need at least two tail values to compare")
    for given, family in ((powerlaw, "powerlaw"), (lognormal, "lognormal")):
        if given is not None and (given.family != family or given.xmin != xmin):
            raise ValueError(f"the {family} fit passed in is not a {family} fit at xmin={xmin}")
    pl = powerlaw if powerlaw is not None else fit_powerlaw_tail(s, xmin=xmin)
    ln = lognormal if lognormal is not None else fit_lognormal(s, xmin=xmin)

    pl_model = pl.model()
    ln_model = ln.model()
    log_pl = pl_model.logpdf(tail)
    y = np.log(tail)
    z = (y - ln_model.mu) / ln_model.sigma
    log_ln = (
        -0.5 * z * z
        - _LOG_SQRT_2PI
        - math.log(ln_model.sigma)
        - y
        - log_ndtr(-(math.log(xmin) - ln_model.mu) / ln_model.sigma)
    )
    terms = log_pl - log_ln
    lr = float(np.sum(terms))
    sigma_lr = float(np.std(terms))
    if sigma_lr == 0:
        normalized, p_value = 0.0, 1.0
    else:
        normalized = lr / (sigma_lr * math.sqrt(m))
        p_value = float(erfc(abs(normalized) / math.sqrt(2.0)))
    if p_value < threshold and lr > 0:
        verdict = "powerlaw"
    elif p_value < threshold and lr < 0:
        verdict = "lognormal"
    else:
        verdict = "undecided"
    return ComparisonReport(lr, float(normalized), p_value, verdict, float(xmin), m, pl, ln)


def fit_binned(
    h: Histogram,
    family: str,
    min_tail: int = DEFAULT_MIN_TAIL,
    min_tail_bins: int = 3,
) -> FitReport:
    """Multinomial maximum-likelihood fit to binned data.

    This is the correct route for provider-quantized samples: the
    likelihood is over bin occupation probabilities, not raw points.
    For the power-law the cutoff is scanned over bin edges, minimizing
    the binned KS distance.
    """
    counts = h.counts
    edges = h.edges
    if int(np.count_nonzero(counts)) < 3:
        raise DegenerateSampleError("need at least three non-empty bins")
    n = h.n
    if family == "lognormal":
        return _fit_binned_lognormal(edges, counts, n)
    if family == "powerlaw":
        return _fit_binned_powerlaw(edges, counts, n, min_tail, min_tail_bins)
    raise ValueError(f"unknown family {family!r}")


def _binned_negloglik(log_probs: np.ndarray, counts: np.ndarray) -> float:
    mask = counts > 0
    return float(-np.sum(counts[mask] * log_probs[mask]))


def _fit_binned_lognormal(edges, counts, n) -> FitReport:
    centers = np.sqrt(edges[:-1] * edges[1:])  # geometric centers
    log_c = np.log(centers)
    w = counts / counts.sum()
    mu0 = float(np.sum(w * log_c))
    sigma0 = float(np.sqrt(np.sum(w * (log_c - mu0) ** 2)))
    sigma0 = max(sigma0, 1e-3)

    z_edges = np.log(edges)

    def negloglik(theta):
        mu, log_sigma = theta
        if not (-20.0 < log_sigma < 20.0):
            return np.inf
        sigma = math.exp(log_sigma)
        cdf = ndtr((z_edges - mu) / sigma)
        probs = np.diff(cdf)
        total = cdf[-1] - cdf[0]
        if total <= 0 or np.any(probs[counts > 0] <= 0):
            return np.inf
        # Empty bins may have zero probability; they are masked out of the
        # likelihood, so silence the log(0).
        with np.errstate(divide="ignore"):
            log_probs = np.log(probs)
        return _binned_negloglik(log_probs - math.log(total), counts)

    res = optimize.minimize(
        negloglik,
        x0=np.array([mu0, math.log(sigma0)]),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000},
    )
    if not res.success:
        raise FitConvergenceError(f"binned lognormal optimizer failed: {res.message}")
    mu, sigma = float(res.x[0]), float(math.exp(res.x[1]))
    model = LognormalModel(mu, sigma)
    cdf = model.cdf(edges)
    total = cdf[-1] - cdf[0]
    model_cum = (cdf - cdf[0]) / total
    emp_cum = np.concatenate([[0.0], np.cumsum(counts)]) / n
    ks = float(np.max(np.abs(emp_cum - model_cum)))
    return FitReport("lognormal", (mu, sigma), None, n, ks, float(-res.fun), n)


def _fit_binned_powerlaw(edges, counts, n, min_tail, min_tail_bins) -> FitReport:
    m_bins = counts.size
    tail_counts = np.concatenate([np.cumsum(counts[::-1])[::-1], [0]])
    best = None
    for j in range(m_bins - min_tail_bins + 1):
        n_tail = int(tail_counts[j])
        if n_tail < min_tail:
            break
        if counts[j] == 0:
            continue
        xmin = float(edges[j])
        sub_edges = edges[j:]
        sub_counts = counts[j:]
        fit = _binned_powerlaw_gamma(sub_edges, sub_counts, xmin)
        if fit is None:
            continue
        gamma, loglik, ks = fit
        if best is None or ks < best[0]:
            best = (ks, j, gamma, loglik, n_tail, xmin)
    if best is None:
        raise DegenerateSampleError("no viable cutoff for the binned power-law fit")
    ks, j, gamma, loglik, n_tail, xmin = best
    return FitReport("powerlaw", (gamma, xmin), xmin, n_tail, ks, loglik, n)


def _binned_powerlaw_gamma(edges, counts, xmin):
    log_edges = np.log(edges / xmin)

    def cum(gamma):
        # Conditional cdf on [xmin, top edge].
        raw = -np.expm1((1.0 - gamma) * log_edges)
        return raw / raw[-1]

    def negloglik(gamma):
        c = cum(gamma)
        probs = np.diff(c)
        if np.any(probs[counts > 0] <= 0):
            return 1e300  # finite so the bounded scalar search stays defined
        return _binned_negloglik(np.log(np.maximum(probs, 1e-300)), counts)

    # Coarse grid first: the objective saturates (tail probabilities
    # underflow) for large gamma, which defeats a bare bracketed search.
    grid = 1.0 + np.geomspace(1e-3, 24.0, 80)
    grid_vals = np.array([negloglik(gv) for gv in grid])
    k = int(np.argmin(grid_vals))
    if grid_vals[k] >= 1e300:
        return None
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    res = optimize.minimize_scalar(
        negloglik, bounds=(lo, hi), method="bounded", options={"xatol": 1e-8}
    )
    if not res.success or not np.isfinite(res.fun):
        return None
    gamma = float(res.x)
    model_cum = cum(gamma)
    emp_cum = np.concatenate([[0.0], np.cumsum(counts)]) / counts.sum()
    ks = float(np.max(np.abs(emp_cum - model_cum)))
    return gamma, float(-res.fun), ks


def fit_edf_normal(s: DurationSample, tolerance: float = 0.05) -> EdfNormalFit:
    """Least-squares fit of a normal cdf to the EDF of ln(values).

    On well-specified lognormal data this agrees with the closed-form MLE;
    a deviation above ``tolerance`` flags model misfit (e.g. a small-value
    excess the MLE absorbs but the EDF shape exposes).
    """
    if s.n < 2:
        raise DegenerateSampleError("need at least two values")
    logs = np.log(s.values)
    mle_mu = float(np.mean(logs))
    mle_sigma = float(np.sqrt(np.mean((logs - mle_mu) ** 2)))
    if mle_sigma == 0:
        raise DegenerateSampleError("all sample values are equal")
    targets = (np.arange(1, s.n + 1) - 0.5) / s.n

    def residuals(theta):
        mu, log_sigma = theta
        return ndtr((logs - mu) / math.exp(log_sigma)) - targets

    res = optimize.least_squares(
        residuals, x0=np.array([mle_mu, math.log(mle_sigma)]), method="lm"
    )
    if not res.success:
        raise FitConvergenceError(f"EDF least-squares failed: {res.message}")
    mu, sigma = float(res.x[0]), float(math.exp(res.x[1]))
    deviation = max(abs(mu - mle_mu), abs(sigma - mle_sigma))
    return EdfNormalFit(
        mu=mu,
        sigma=sigma,
        mle_mu=mle_mu,
        mle_sigma=mle_sigma,
        deviation=deviation,
        misfit=deviation > tolerance,
        low_confidence=s.n < 10,
    )
