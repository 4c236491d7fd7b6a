"""Maximum-likelihood fitting, tail-cutoff selection, goodness of fit and
family discrimination for duration samples.

Power-law tails are fitted with the closed-form exponent estimate and a
KS scan over candidate cutoffs; lognormals with the closed-form log-moment
estimate, or above a cutoff by Newton's method on the truncated
likelihood, which is concave in the natural parameters and needs only the
tail's size, mean and mean square; a fit the Newton decrement does not
certify raises FitConvergenceError. Bootstrap p-values use the
semi-parametric scheme: synthetic tails from the fitted model, synthetic
bodies resampled from the empirical data below the cutoff; their
replicates can run in forked worker processes without changing p.

The normal cdf, its logarithm and its inverse come from ``tailfit.normal``
(numpy only). scipy is imported only by the binned fits, which need
``scipy.optimize``, when they run; no command-line path calls them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import binning
from .binning import Histogram
from .distributions import (
    _LOG_SQRT_2PI,
    LognormalModel,
    PowerLawModel,
    lognormal_logpdf_of_log,
    lognormal_logsf_of_log,
    powerlaw_logpdf_of_log,
)
from .normal import log_ndtr_float, ndtr, ndtri_exp
from .pool import RANGES_PER_WORKER, even_ranges, run_ranges, usable_workers
from .sample import DurationSample, _is_sorted
from .synthesis import SeededGenerator

DEFAULT_MIN_TAIL = 50
DEFAULT_MAX_CANDIDATES = 1000
VERDICT_THRESHOLD = 0.1
# The binned power-law cutoff scan leaves at least this many bins in the tail.
_MIN_TAIL_BINS = 3


class DegenerateSampleError(ValueError):
    """Sample cannot support the requested fit (too few / identical values)."""


class FitConvergenceError(RuntimeError):
    """A fit did not converge, or could not be certified to have; the
    message carries diagnostics."""


@dataclass(frozen=True)
class FitReport:
    """One fitted family on one sample."""

    family: str  # "powerlaw" | "lognormal"
    params: tuple[float, float]  # (gamma, tau) or (mu, sigma)
    xmin: float | None
    n_tail: int
    ks: float
    loglik: float
    n_total: int

    def model(self):
        if self.family == "powerlaw":
            return PowerLawModel(*self.params)
        return LognormalModel(*self.params)


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


def _edf_gap(levels: np.ndarray, f: np.ndarray) -> tuple[float, int]:
    """The KS kernel: max |levels - f| over EDF levels and cdf values, and its
    first index. ``levels`` is overwritten.
    """
    np.subtract(levels, f, out=levels)
    np.abs(levels, out=levels)
    k = int(levels.argmax())
    return float(levels[k]), k


# ks_distance scores the cdf at every KS_BLOCK_RUNS-th run of equal values
# first, then in full only the runs between two such grid runs whose
# bound (see _pruned_ks) comes within the slack of the largest term found.
# The cdf must be nondecreasing up to that slack: a value below an earlier
# one by more could hide a larger term. KS_SLACK is 16 units in the last
# place of 1; ndtr falls below its running maximum by at most one, and
# fit_lognormal widens it for the rounding of its cdfs' logarithms (see
# _lognormal_ks_slack).
KS_BLOCK_RUNS = 16
KS_SLACK = 2.0**-48


def ks_distance(sample, cdf, slack: float = KS_SLACK) -> float:
    """sup over sample points of max(|EDF(x-) - F(x)|, |EDF(x) - F(x)|).

    ``sample`` is a ``DurationSample`` or a nonempty 1-d array of finite
    values, used as it is if already in ascending order and sorted first
    otherwise. ``cdf`` acts elementwise and is nondecreasing up to
    ``slack``. The sample is taken as runs of equal values (``_runs``):
    the cdf is evaluated at most once per run, and the result is the
    maximum over every point bit for bit (see ``_runs_ks``), and the cdf
    is evaluated only where that maximum can be (see ``_pruned_ks``).
    """
    if isinstance(sample, DurationSample):
        values = sample.values
    else:
        values = np.asarray(sample, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"need a 1-d sample, got shape {values.shape}")
        if not _is_sorted(values):
            values = np.sort(values)
    if values.size < 1:
        raise ValueError("need at least one point")
    # Sorted, a NaN or +inf comes last and -inf first.
    if not (math.isfinite(values[0]) and math.isfinite(values[-1])):
        raise ValueError("sample values must be finite")
    return _pruned_ks(_runs(values), cdf, slack)


def _runs(x: np.ndarray):
    """The runs of equal values of the nonempty ascending array x, as
    (values, first, ends, n): each run's value, the indices into x where
    the runs start and end, and x's size. ``first`` and ``ends`` are None
    when every value is distinct: run r is then x[r] alone, and the three
    arrays would be n-sized copies of x and of two aranges.
    """
    n = x.size
    new_run = x[1:] != x[:-1]
    if np.count_nonzero(new_run) == n - 1:
        return x, None, None, n
    first = np.flatnonzero(np.concatenate(([True], new_run)))
    del new_run
    return x[first], first, np.append(first[1:], n), n


def _run_bounds(view, r) -> tuple[np.ndarray, np.ndarray]:
    """The start and end indices into x of the runs r of ``_runs(x)``:
    the number of points below each run and up to its end."""
    _, first, ends, _ = view
    return (r, r + 1) if first is None else (first[r], ends[r])


def _tail_counts(view, r: int) -> tuple[np.ndarray, np.ndarray]:
    """``_run_bounds`` of every run from run r on, counted from run r's
    start: the tail at that run as runs, taken by slicing."""
    _, first, ends, n = view
    if first is None:
        below = np.arange(n - r)
        return below, below + 1
    i = first[r]
    return first[r:] - i, ends[r:] - i


def _pruned_ks(view, cdf, slack, block: int = KS_BLOCK_RUNS) -> float:
    """``_runs_ks`` of the runs ``view`` (see ``_runs``), with the cdf
    evaluated only where its largest term can be.

    The grid is every ``block``-th run and the last. Between grid runs g
    and h, every run r holds F(g) <= F(r) <= F(h) and
    upto(g) <= below(r) < upto(r) <= below(h); so each of its terms
    |below(r)/m - F(r)| and |upto(r)/m - F(r)| is at most
    max(below(h)/m - F(g), F(h) - upto(g)/m), with the same roundings, all
    monotone. The cdf is evaluated at the grid, then at the runs between
    grid runs whose bound is at least the largest grid term less
    ``slack``, which covers a cdf that falls below its running maximum by
    up to ``slack``. The largest term, of the grid or of those runs, is
    the largest of all, bit for bit.
    """
    x, n = view[0], view[3]
    runs = x.size
    g = np.arange(0, runs + block - 1, block)
    g[-1] = runs - 1
    f = np.asarray(cdf(x[g]), dtype=float)
    below, upto = _run_bounds(view, g)
    lo, hi = below / n, upto / n
    bound = np.maximum(lo[1:] - f[:-1], f[1:] - hi[:-1])
    best = max(_edf_gap(lo, f)[0], _edf_gap(hi, f)[0])
    gaps = np.flatnonzero((bound >= best - slack) & (np.diff(g) > 1))
    if gaps.size:
        # The runs strictly between the grid runs of each such gap.
        starts, sizes = g[gaps] + 1, g[gaps + 1] - g[gaps] - 1
        offsets = np.cumsum(sizes) - sizes
        r = np.arange(int(sizes.sum())) + np.repeat(starts - offsets, sizes)
        f = np.asarray(cdf(x[r]), dtype=float)
        best = max(best, _runs_ks(f, *_run_bounds(view, r), n)[0])
    return best


def _runs_ks(f, below, upto, m) -> tuple[float, int, int]:
    """The KS kernel on runs of equal values: the largest deviation of the
    cdf values ``f`` (one per run) from the EDF levels below/m and upto/m,
    where ``below`` and ``upto`` count the points below each run and up to
    its end, and m is the number of points; with the runs where the lower
    and upper deviations peak.

    Within a run the cdf is constant while the EDF steps through
    consecutive levels, so the largest deviation sits at one of the run's
    two ends, and the result equals the maximum over every point bit for
    bit. Passing every point as a run of one is exact too.
    """
    d_lo, p_lo = _edf_gap(below / m, f)
    d_hi, p_hi = _edf_gap(upto / m, f)
    return max(d_lo, d_hi), p_lo, p_hi


def _powerlaw_tail_ks(values, below, upto, xmin, gamma) -> tuple[float, int, int]:
    """KS distance between the EDF of a sorted tail and the power-law cdf
    1 - (x/xmin)**(1-gamma), and the runs where its lower and upper
    deviations peak.

    The tail comes as runs of equal values (see ``_runs_ks``): each run's
    value, and the number of tail points below the run and up to its end
    (the last of which is the tail size). The two runs are indices into
    the arrays passed in.
    """
    f = -np.expm1((1.0 - gamma) * np.log(values / xmin))
    return _runs_ks(f, below, upto, upto[-1])


# The cutoff scan bounds every candidate's KS from below, first on a grid
# of about KS_GRID_RUNS evenly spaced runs of equal values, then at the
# runs where each exactly scored candidate's deviations peak. The bound
# kernel takes KS_BOUND_BLOCK (candidate, grid run) pairs at a time, so
# that memory does not grow with the sample and each block stays in cache.
KS_GRID_RUNS = 16
KS_BOUND_BLOCK = 1 << 15


def _ks_lower_bounds(x, g_starts, g_ends, cand, m, gamma) -> np.ndarray:
    """For each candidate cutoff x[cand[k]] with tail size m[k] and exponent
    gamma[k], the largest of its exact KS terms at the grid runs (given by
    their ascending start and end indices into x) in its tail. These are
    the float operations of ``_powerlaw_tail_ks`` on a subset of its runs,
    so each bound is at most the candidate's KS.
    """
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

    The scan is pruned but exact. The KS distance is a maximum of terms,
    two per run of equal values in the tail; any subset of those terms
    gives a lower bound. Every candidate is first bounded on about
    ``KS_GRID_RUNS`` evenly spaced runs. Then, repeatedly, the open
    candidate with the smallest bound is scored in full, and every open
    candidate's terms at the two runs where that score's deviations peak
    raise its bound; a candidate whose bound exceeds the best KS found is
    closed, since it cannot win or tie. The scan stops when every open
    bound exceeds the best KS. Deviation curves of neighbouring cutoffs
    peak at nearly the same runs, so a few such columns prune most
    candidates. Bounds and full scores share every float operation, so
    the winner, its KS and the tie-break are those of scoring every
    candidate.
    """
    x = s.values
    n = x.size
    if xmin is not None:
        _check_xmin(xmin)
        return _powerlaw_fit_at(x, int(np.searchsorted(x, xmin)), float(xmin), n)

    view = _runs(x)
    run_x, first, _, _ = view
    n_runs = run_x.size
    if n_runs < 2:
        raise DegenerateSampleError("all sample values are equal")
    if n_runs < min_tail:
        raise DegenerateSampleError(
            f"need at least {min_tail} distinct values for cutoff selection "
            f"(got {n_runs})"
        )

    # Candidate cutoffs are the starts of the runs that leave a tail of
    # at least min_tail values.
    if first is None:
        eligible = n - min_tail + 1
    else:
        eligible = int(np.searchsorted(first, n - min_tail, side="right"))
    if eligible <= 0:
        raise DegenerateSampleError("no cutoff candidate leaves a large enough tail")
    runs = np.arange(eligible)
    if eligible > max_candidates:
        pick = np.linspace(0, eligible - 1, max_candidates).astype(int)
        runs = pick[np.diff(pick, prepend=-1) != 0]  # pick ascends
    candidates = _run_bounds(view, runs)[0]

    log_x = np.log(x)
    suffix = np.concatenate([np.cumsum(log_x[::-1])[::-1], [0.0]])

    m = n - candidates
    denom = suffix[candidates] - m * log_x[candidates]
    keep = denom > 0  # otherwise all tail values equal the cutoff
    if not keep.any():
        raise DegenerateSampleError("no valid cutoff candidate")
    candidates, m, runs = candidates[keep], m[keep], runs[keep]
    gammas = 1.0 + m / denom[keep]

    stride = max(1, n_runs // KS_GRID_RUNS)
    lb = _ks_lower_bounds(
        x, *_run_bounds(view, np.arange(0, n_runs, stride)), candidates, m, gammas
    )
    best_ks, best = np.inf, -1
    for _ in range(candidates.size):
        k = int(np.argmin(lb))  # scored candidates hold an infinite bound
        if lb[k] > best_ks:
            break
        r = runs[k]
        ks, p_lo, p_hi = _powerlaw_tail_ks(
            run_x[r:], *_tail_counts(view, r), run_x[r], gammas[k]
        )
        if ks < best_ks or (ks == best_ks and k < best):
            best_ks, best = ks, k
        lb[k] = np.inf
        # Raise the bounds of the candidates that can still win or tie
        # (a bound equal to best_ks may belong to a smaller cutoff's tie).
        open_ = np.flatnonzero(lb <= best_ks)
        cols = np.array(sorted({int(r) + p_lo, int(r) + p_hi}))
        lb[open_] = np.maximum(
            lb[open_],
            _ks_lower_bounds(
                x, *_run_bounds(view, cols), candidates[open_], m[open_], gammas[open_]
            ),
        )
    i = int(candidates[best])
    return _powerlaw_report(float(gammas[best]), float(x[i]), n - i, n, best_ks, suffix[i])


def _check_xmin(xmin: float) -> None:
    if not (xmin > 0 and math.isfinite(xmin)):
        raise ValueError(f"xmin must be finite and positive, got {xmin!r}")


def _powerlaw_fit_at(x: np.ndarray, i: int, xmin: float, n: int) -> FitReport:
    tail = x[i:]
    m = tail.size
    if m < 1:
        raise DegenerateSampleError("no values at or above the requested cutoff")
    log_ratio_sum = float(np.sum(np.log(tail / xmin)))
    if log_ratio_sum <= 0:
        raise DegenerateSampleError("tail has no spread above the cutoff")
    gamma = 1.0 + m / log_ratio_sum
    view = _runs(tail)
    ks, _, _ = _powerlaw_tail_ks(view[0], *_tail_counts(view, 0), xmin, gamma)
    return _powerlaw_report(gamma, xmin, m, n, ks, float(np.sum(np.log(tail))))


def _powerlaw_report(gamma, xmin, m, n, ks, sum_log_x) -> FitReport:
    """The power-law fit to the m of n values at or above xmin, with its
    closed-form log-likelihood from the sum of their logs.
    """
    loglik = m * math.log(gamma - 1.0) + m * (gamma - 1.0) * math.log(xmin) - gamma * sum_log_x
    return FitReport("powerlaw", (gamma, xmin), xmin, m, ks, float(loglik), n)


def fit_lognormal(s: DurationSample, xmin: float | None = None) -> FitReport:
    """Fit a lognormal; closed-form log-moment MLE without a cutoff, truncated
    maximum likelihood on [xmin, inf) with one.
    """
    x = s.values
    n = x.size
    if xmin is None:
        logs, mu, sigma = _log_moments(x)
        slack = _lognormal_ks_slack(logs[0], logs[-1], mu, sigma)
        ks = ks_distance(s, LognormalModel(mu, sigma).cdf, slack=slack)
        loglik = float(np.sum(lognormal_logpdf_of_log(logs, mu, sigma)))
        return FitReport("lognormal", (mu, sigma), None, n, ks, loglik, n)

    _check_xmin(xmin)
    tail = x[int(np.searchsorted(x, xmin)):]
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
    slack = _lognormal_ks_slack(y[0], y[-1], mu, sigma, log_sf_xmin, (w - mu) / sigma)
    ks = ks_distance(tail, lambda t: -np.expm1(model.logsf(t) - log_sf_xmin), slack=slack)
    return FitReport("lognormal", (mu, sigma), float(xmin), m, ks, loglik, n)


def _lognormal_ks_slack(
    y_lo: float, y_hi: float, mu: float, sigma: float, log_sf_xmin: float = 0.0,
    z_xmin: float = 0.0,
) -> float:
    """How far fit_lognormal's cdf can fall below its running maximum on
    ascending t with ln t in [y_lo, y_hi]: Phi((ln t - mu)/sigma), or with
    a cutoff 1 - S(t)/S(xmin) from log-survivals, z_xmin = (ln xmin - mu)/sigma.

    Two roundings can break its order. The kernel's: ndtr by at most one
    unit in the last place of 1, the log-survivals by a few of their own
    size, which is about |log S(xmin)| where the cdf can still move. And
    numpy's log, which rounds to a few units in the last place of |ln t|
    and need not be monotone: the cdf's slope in z is at most
    1 + |z_xmin| (phi(z)/S(z_xmin), below the inverse Mills ratio at
    z_xmin plus one), and z moves 1/sigma times as far as ln t - mu. Each
    term is KS_SLACK, 16 units in the last place of 1, times that size.
    """
    spread = (max(abs(y_lo), abs(y_hi)) + abs(mu)) / sigma
    return KS_SLACK * (4.0 * (1.0 + abs(log_sf_xmin)) + (1.0 + abs(z_xmin)) * spread)


def _log_moments(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """ln x, its mean and its RMS deviation: the closed-form lognormal MLE."""
    if x.size < 2:
        raise DegenerateSampleError("need at least two values")
    logs = np.log(x)
    mu = float(np.mean(logs))
    sigma = float(np.sqrt(np.mean((logs - mu) ** 2)))
    if sigma == 0:
        raise DegenerateSampleError("all sample values are equal")
    return logs, mu, sigma


# Bounds on the truncated fit. On data that is genuinely power-law the
# truncated-lognormal likelihood has no interior maximum (it keeps rising
# along a mu -> -inf, sigma -> inf ridge that mimics the power-law ever
# better), so sigma is capped. The cap sits well above any sigma observed
# for human duration data (<= ~3.5) while keeping the mimic
# distinguishable from a true power-law tail. mu is kept within
# [w - 5 SIGMA_MAX**2, max(ln x) + 10], w the log-cutoff.
SIGMA_MAX = 5.0
SIGMA_MIN = 1e-6

# The truncated fit stops when the Newton decrement certifies the point:
# the gain its quadratic model predicts for the mean log-likelihood, in
# units of the tail's own log spread, is at most NEWTON_TOL. Failing that
# within NEWTON_MAX_STEPS steps raises FitConvergenceError. Steps whose
# predicted gain is above _DAMPED_GAIN are backtracked until they gain a
# quarter of their first-order prediction; smaller ones are taken whole,
# as rounding would swamp the comparison.
NEWTON_TOL = 1e-20
NEWTON_MAX_STEPS = 50
_DAMPED_GAIN = 1e-12
# From this cutoff z-score on, the truncated moments come from _CF_TERMS
# terms of Laplace's continued fraction, where the recursion from the
# inverse Mills ratio would lose digits to cancellation.
_CF_FROM = 2.0
_CF_TERMS = 100


def _truncated_lognormal_mle(y: np.ndarray, w: float) -> tuple[float, float, float]:
    """(mu, sigma, log-likelihood) of the lognormal truncated to [e^w, inf)
    that is most likely for the log-values ``y``, within the bounds above.

    One pass over y takes its sufficient statistics; the fit works on
    those alone, in O(1) a step. The log-likelihood is evaluated once,
    elementwise, at the result.
    """
    mu, sigma = _truncated_lognormal_newton(w, _tail_statistics(y))
    log_sf = lognormal_logsf_of_log(w, mu, sigma)
    return mu, sigma, float(np.sum(lognormal_logpdf_of_log(y, mu, sigma)) - y.size * log_sf)


def _tail_statistics(y: np.ndarray) -> tuple[float, float, float, float, float]:
    """(origin, top, mean, shift, sd): the smallest and largest of y, the
    mean of y - origin, the mean that rounding leaves of the deviations
    from it, and their root mean square. Taken about the smallest value,
    so that rounding stays relative to the spread, not to y.
    """
    origin, top = float(np.min(y)), float(np.max(y))
    if origin == top:
        raise DegenerateSampleError("tail has no spread")
    dev = y - origin
    mean = float(np.mean(dev))
    dev -= mean
    shift = float(np.mean(dev))
    np.square(dev, out=dev)
    sd = math.sqrt(float(np.mean(dev)))
    if sd < SIGMA_MIN:
        raise DegenerateSampleError(
            f"the tail's log spread {sd:.3g} is below the smallest sigma fitted ({SIGMA_MIN:g})"
        )
    return origin, top, mean, shift, sd


def _truncated_lognormal_newton(w: float, stats) -> tuple[float, float]:
    """(mu, sigma) of ``_truncated_lognormal_mle`` from the tail's
    ``_tail_statistics`` alone, by Newton steps within the bounds.

    In units u = (y - origin - mean) / sd the tail has mean u1 = shift / sd
    and mean square 1, and the log-likelihood is concave in the natural
    parameters eta = (nu / tau**2, -1 / (2 tau**2)) of the normal N(nu,
    tau**2) truncated to [wz, inf) (see ``_truncated_normal_terms``). Each
    bound is a line in eta: sigma's fix eta2, and mu >= b reads
    eta1 + 2 b' eta2 >= 0, b' being b in u units. Each step minimizes the
    quadratic model within the bounds exactly (``_bounded_newton_step``);
    the gain it predicts is half the square of the Newton decrement.
    """
    origin, top, mean, shift, sd = stats

    def standard(v):
        return ((v - origin) - mean) / sd

    mu_lo, mu_hi = w - 5.0 * SIGMA_MAX**2, top + 10.0
    wz, u1 = standard(w), shift / sd
    nu_lo, nu_hi = standard(mu_lo), standard(mu_hi)
    tau_lo, tau_hi = SIGMA_MIN / sd, SIGMA_MAX / sd
    e2_lo, e2_hi = -0.5 / tau_lo**2, -0.5 / tau_hi**2

    def clip(e1, e2):
        """The nearest point within the bounds, for steps that rounding
        takes an ulp past one."""
        e2 = min(max(e2, e2_lo), e2_hi)
        return min(max(e1, -2.0 * nu_lo * e2), -2.0 * nu_hi * e2), e2

    def cone(sign, b):
        """sign * (eta1 + 2 b eta2) <= 0 as a unit row."""
        norm = math.hypot(1.0, 2.0 * b)
        return sign / norm, sign * 2.0 * b / norm

    # The bounds as rows . eta <= rhs: sigma <= SIGMA_MAX, sigma >= SIGMA_MIN,
    # mu >= mu_lo, mu <= mu_hi.
    rows = [(0.0, 1.0), (0.0, -1.0), cone(-1.0, nu_lo), cone(1.0, nu_hi)]
    rhs = [e2_hi, -e2_lo, 0.0, 0.0]
    tau = min(1.0, tau_hi)  # the tail's own spread; tau_lo <= 1 by _tail_statistics
    eta = clip(u1 / tau**2, -0.5 / tau**2)
    held = frozenset()  # the bounds the last step moved onto or along
    for step in range(NEWTON_MAX_STEPS + 1):
        f, g, h = _truncated_normal_terms(*eta, wz, u1)
        slack = [
            0.0 if i in held else max(r - c[0] * eta[0] - c[1] * eta[1], 0.0)
            for i, (c, r) in enumerate(zip(rows, rhs))
        ]
        gain, p, active = _bounded_newton_step(g, h, rows, slack)
        if gain <= NEWTON_TOL:
            break
        if step == NEWTON_MAX_STEPS:
            raise FitConvergenceError(
                f"truncated lognormal fit not certified after {step} Newton steps "
                f"(predicted gain {gain:.3g} a point, tolerance {NEWTON_TOL:g})"
            )
        t = 1.0
        if gain > _DAMPED_GAIN:
            slope = g[0] * p[0] + g[1] * p[1]
            while True:
                trial = clip(eta[0] + t * p[0], eta[1] + t * p[1])
                if _truncated_normal_terms(*trial, wz, u1)[0] <= f + 0.25 * t * slope:
                    break
                t *= 0.5
                if t < 1e-12:
                    raise FitConvergenceError(
                        "truncated lognormal fit: no step along the Newton direction "
                        f"gains (predicted gain {gain:.3g} a point)"
                    )
        held = frozenset(i for i in active if t == 1.0 or i in held)
        eta = clip(eta[0] + t * p[0], eta[1] + t * p[1])
    # Held bounds are met exactly; the rest can be off by rounding.
    mu = origin + (mean + sd * -eta[0] / (2.0 * eta[1]))
    sigma = sd / math.sqrt(-2.0 * eta[1])
    mu = mu_lo if 2 in held else mu_hi if 3 in held else min(max(mu, mu_lo), mu_hi)
    sigma = (
        SIGMA_MAX if 0 in held else SIGMA_MIN if 1 in held
        else min(max(sigma, SIGMA_MIN), SIGMA_MAX)
    )
    return mu, sigma


def _truncated_normal_terms(eta1: float, eta2: float, wz: float, u1: float):
    """The mean negative log-likelihood f of a normal truncated to [wz, inf)
    with natural parameters (eta1, eta2) = (nu / tau**2, -1 / (2 tau**2)),
    for standardized data of mean u1 and mean square 1; with its gradient
    (E Y - u1, E Y**2 - 1) and Hessian Cov(Y, Y**2) in eta.

    The family is exponential in eta, so f is convex there. With Z
    standard normal truncated to [a, inf), a = (wz - nu) / tau the
    cutoff's z-score and lambda the inverse Mills ratio, the moments are
    those of X = Z below _CF_FROM and of the excess X = Z - a from there
    on, so that the mean excess lambda - a and the variance
    1 - lambda (lambda - a) keep their digits when the cutoff lies far
    above the body, where 1 - Phi(a) underflows.
    """
    tau = 1.0 / math.sqrt(-2.0 * eta2)
    nu = -eta1 / (2.0 * eta2)
    a = (wz - nu) / tau
    if a < _CF_FROM:
        # M_k = a^(k-1) lambda + (k-1) M_(k-2), the moments of Z.
        log_sf = log_ndtr_float(-a)
        lam = math.exp(-0.5 * a * a - _LOG_SQRT_2PI - log_sf)
        m1, m2 = lam, 1.0 + a * lam
        m3, m4 = (a * a + 2.0) * lam, a * a * a * lam + 3.0 * m2
        base = nu
        f = 0.5 * nu * nu / (tau * tau) + math.log(tau) + _LOG_SQRT_2PI + log_sf
    else:
        # The moments of the excess X = Z - a, from the ratios
        # E X^k / E X^(k-1) = k / (a + E X^(k+1) / E X^k) of Laplace's
        # continued fraction, evaluated from its tail.
        ratios = [0.0] * 5
        r = math.sqrt(_CF_TERMS + 1.0)
        for k in range(_CF_TERMS, 0, -1):
            r = k / (a + r)
            if k < 5:
                ratios[k] = r
        m1 = ratios[1]  # lambda - a
        m2 = m1 * ratios[2]
        m3 = m2 * ratios[3]
        m4 = m3 * ratios[4]
        base = wz
        # log of the Mills ratio 1 / lambda
        f = eta1 * wz + eta2 * wz * wz + math.log(tau) - math.log(a + m1)
    f -= eta1 * u1 + eta2
    # Y = base + tau X.
    mean_y = base + tau * m1
    mean_y2 = base * base + 2.0 * base * tau * m1 + tau * tau * m2
    c11, c12, c22 = m2 - m1 * m1, m3 - m1 * m2, m4 - m2 * m2
    t2 = tau * tau
    h11 = t2 * c11
    h12 = 2.0 * base * t2 * c11 + t2 * tau * c12
    h22 = 4.0 * base * base * t2 * c11 + 4.0 * base * t2 * tau * c12 + t2 * t2 * c22
    return f, (mean_y - u1, mean_y2 - 1.0), (h11, h12, h22)


def _bounded_newton_step(g, h, rows, slack):
    """(gain, p, active): the step p minimizing the quadratic model
    g . p + p . H p / 2 subject to rows[i] . p <= slack[i], the model's
    gain -(g . p + p . H p / 2), and the indices of the rows held with
    equality. H is (h11, h12, h22), positive definite.

    The minimizer is unique, and lies where no row, one row or two rows
    hold with equality; the feasible candidate of least model value is it.
    """
    h11, h12, h22 = h
    det = h11 * h22 - h12 * h12
    if not (det > 0 and h11 > 0):
        raise FitConvergenceError(f"truncated lognormal fit: Hessian not positive definite {h}")

    def solve(b1, b2):
        return (h22 * b1 - h12 * b2) / det, (h11 * b2 - h12 * b1) / det

    hg = solve(*g)
    candidates = [((-hg[0], -hg[1]), ())]
    for i, (c1, c2) in enumerate(rows):
        # Along the line of row i, from its point nearest the origin.
        t1, t2 = -c2, c1
        p1, p2 = slack[i] * c1, slack[i] * c2
        d1, d2 = g[0] + h11 * p1 + h12 * p2, g[1] + h12 * p1 + h22 * p2
        s = -(t1 * d1 + t2 * d2) / (h11 * t1 * t1 + 2.0 * h12 * t1 * t2 + h22 * t2 * t2)
        candidates.append(((p1 + s * t1, p2 + s * t2), (i,)))
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            (a1, a2), (b1, b2) = rows[i], rows[j]
            d = a1 * b2 - a2 * b1
            if d != 0:
                p = ((slack[i] * b2 - a2 * slack[j]) / d, (a1 * slack[j] - slack[i] * b1) / d)
                candidates.append((p, (i, j)))
    best = None
    for p, active in candidates:
        size = abs(p[0]) + abs(p[1])
        if all(
            c[0] * p[0] + c[1] * p[1] <= r + 1e-12 * size
            for k, (c, r) in enumerate(zip(rows, slack)) if k not in active
        ):
            value = g[0] * p[0] + g[1] * p[1] + 0.5 * (
                h11 * p[0] * p[0] + 2.0 * h12 * p[0] * p[1] + h22 * p[1] * p[1]
            )
            if best is None or value < best[0]:
                best = (value, p, active)
    if best is None:
        raise FitConvergenceError("truncated lognormal fit: no feasible Newton step")
    return -best[0], best[1], frozenset(best[2])


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
    replicate that keeps fewer than two values is a failed replicate, as
    is one with a tail draw past the largest float64. A fit whose tail
    would draw past it in one replicate or more of ``reps``, on average,
    cannot be bootstrapped: DegenerateSampleError is raised before any
    replicate runs.
    ``workers`` > 1 runs the replicates in forked worker processes; the
    result does not depend on it.
    """
    fit_options = fit_options or {}
    n = fit.n_total
    xmin = fit.xmin if fit.xmin is not None else 0.0
    body = s.values[:int(np.searchsorted(s.values, xmin))]
    p_tail = fit.n_tail / n
    model = fit.model()
    _check_tail_fits_float64(model, fit, reps)

    def replicate(rng: np.random.Generator) -> float:
        k = int(rng.binomial(n, p_tail))
        parts = []
        if k > 0:
            with np.errstate(over="ignore"):
                tail = _draw_tail(model, fit, k, rng)
            if not np.isfinite(tail).all():
                raise DegenerateSampleError("a tail draw passes the largest float64")
            parts.append(tail)
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


def _check_tail_fits_float64(model, fit: FitReport, reps: int) -> None:
    """Raise DegenerateSampleError if, on average, one or more of ``reps``
    bootstrap replicates would draw a tail value past the largest float64."""
    top = float(np.finfo(float).max)
    if fit.family == "powerlaw":
        log_p = (1.0 - model.gamma) * math.log(top / model.tau)
    else:
        log_p = model.logsf(top) - (model.logsf(fit.xmin) if fit.xmin is not None else 0.0)
    # A replicate draws about n_tail tail values.
    with np.errstate(divide="ignore"):
        expected = reps * -float(np.expm1(fit.n_tail * np.log1p(-math.exp(log_p))))
    if expected >= 1:
        raise DegenerateSampleError(
            f"the fitted {fit.family} tail passes the largest float64 in about "
            f"{expected:.3g} of {reps} bootstrap replicates; it is too heavy to bootstrap"
        )


def _draw_tail(model, fit: FitReport, k: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(k)
    if fit.family == "powerlaw":
        return model.quantile(u)
    if fit.xmin is None:
        # The replicate is this tail alone, taken as a sorted sample, so
        # the draws' order is free: ascending u gives its values sorted
        # already, in place of DurationSample's sort, and puts each branch
        # of the normal quantile in one contiguous block.
        u.sort()
        return model.quantile(u)
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
        return fit_binned(Histogram(edges, counts_rep), fit.family, **fit_options).ks

    return _bootstrap(replicate, fit.ks, reps, g, workers)


def _bootstrap(replicate, observed_ks: float, reps: int, g, workers: int) -> BootstrapResult:
    """Run ``replicate(g.substream(rep))`` for every rep in range(reps) and
    score each refit KS against the observed one.

    With ``workers`` > 1, contiguous ranges of replicate indices run in
    forked processes (``pool.run_ranges``), which inherit ``replicate``
    and everything it refers to. Every replicate draws from its own
    substream and p is a hit count over ``reps``, so the result is the
    same for any worker count.
    """
    if reps < 100:
        raise ValueError("need at least 100 bootstrap replicates")
    # Loaded here, once, so that the forked workers inherit it rather than
    # each importing it on its first replicate.
    import numpy.random  # noqa: F401

    workers = usable_workers(workers)
    ranges = even_ranges(reps, workers * RANGES_PER_WORKER)
    parts = run_ranges(partial(_replicates, replicate, g), ranges, workers)
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
    which are then not computed again. ``threshold`` is as for ``verdict``.
    """
    _check_xmin(xmin)
    _check_threshold(threshold)
    tail = s.values[int(np.searchsorted(s.values, xmin)):]
    m = tail.size
    if m < 2:
        raise DegenerateSampleError("need at least two tail values to compare")
    for given, family in ((powerlaw, "powerlaw"), (lognormal, "lognormal")):
        if given is not None and (given.family != family or given.xmin != xmin):
            raise ValueError(f"the {family} fit passed in is not a {family} fit at xmin={xmin}")
    pl = powerlaw if powerlaw is not None else fit_powerlaw_tail(s, xmin=xmin)
    ln = lognormal if lognormal is not None else fit_lognormal(s, xmin=xmin)

    y = np.log(tail)
    mu, sigma = ln.params
    log_sf = lognormal_logsf_of_log(math.log(xmin), mu, sigma)
    log_ln = lognormal_logpdf_of_log(y, mu, sigma) - log_sf
    terms = powerlaw_logpdf_of_log(y, *pl.params) - log_ln
    lr = float(np.sum(terms))
    sigma_lr = float(np.std(terms))
    if sigma_lr == 0:
        normalized, p_value = 0.0, 1.0
    else:
        normalized = lr / (sigma_lr * math.sqrt(m))
        p_value = math.erfc(abs(normalized) / math.sqrt(2.0))
    return ComparisonReport(
        lr, float(normalized), p_value, verdict(lr, p_value, threshold), float(xmin), m, pl, ln
    )


def verdict(lr: float | None, p: float | None, threshold: float = VERDICT_THRESHOLD) -> str:
    """The family a log-likelihood ratio lr favors when its Vuong p is below
    ``threshold``, by the sign of lr; "undecided" otherwise or if either is None.
    The threshold is a probability strictly between 0 and 1.
    """
    _check_threshold(threshold)
    if lr is not None and p is not None and p < threshold:
        if lr > 0:
            return "powerlaw"
        if lr < 0:
            return "lognormal"
    return "undecided"


def _check_threshold(threshold: float) -> None:
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must lie strictly between 0 and 1, got {threshold!r}")


def fit_sample(
    s: DurationSample, dist: str = "both", xmin: float | None = None, bootstrap: int = 0,
    seed: int = 0, quantize_step: float | None = None, workers: int = 1, label: str | None = None,
) -> dict:
    """The row ``tailfit fit`` writes for ``s``; each argument is one of
    fit's options (``workers`` is --threads, ``quantize_step`` --quantize).

    The sample is quantized first. The row has the keys dist, gamma, p,
    xmin, mu, sigma, loglik_p, LR, LR_p and n, null where they do not
    apply, and quantize_dropped when the sample was quantized. gamma and
    xmin come from ``fit_powerlaw_tail``, mu and sigma from
    ``fit_lognormal``, both at ``xmin`` (None: the scan's cutoff, and the
    whole sample for the lognormal); p and loglik_p from
    ``bootstrap_pvalue`` with ``bootstrap`` replicates, when nonzero; LR and
    LR_p, with dist "both", from ``compare_families`` at the power law's
    cutoff. dist is ``label``, else the first family fitted.
    """
    if dist not in ("powerlaw", "lognormal", "both"):
        raise ValueError(f"dist must be powerlaw, lognormal or both, got {dist!r}")
    dropped = None
    if quantize_step is not None:
        s, dropped = binning.quantize(s, quantize_step)
    g = SeededGenerator(seed)
    row = {
        "dist": None,
        "gamma": None,
        "p": None,
        "xmin": None,
        "mu": None,
        "sigma": None,
        "loglik_p": None,
        "LR": None,
        "LR_p": None,
        "n": s.n,
    }

    pl = ln = None
    if dist in ("powerlaw", "both"):
        pl = fit_powerlaw_tail(s, xmin=xmin)
        row["dist"] = label or "powerlaw"
        row["gamma"], _ = pl.params
        row["xmin"] = pl.xmin
        if bootstrap:
            row["p"] = bootstrap_pvalue(
                s, pl, bootstrap, g, quantize_step=quantize_step, workers=workers
            ).p
    if dist in ("lognormal", "both"):
        ln = fit_lognormal(s, xmin=xmin)
        row["mu"], row["sigma"] = ln.params
        if pl is None:
            row["dist"] = label or "lognormal"
            row["xmin"] = ln.xmin
        if bootstrap:
            row["loglik_p"] = bootstrap_pvalue(
                s, ln, bootstrap, g, quantize_step=quantize_step, workers=workers
            ).p
    if dist == "both":
        # With xmin both fits are the ones compare_families would make; the
        # scan's power-law fit is not (its gamma comes from suffix sums).
        fixed = xmin is not None
        comparison = compare_families(
            s, pl.xmin, powerlaw=pl if fixed else None, lognormal=ln if fixed else None
        )
        row["LR"], row["LR_p"] = comparison.lr, comparison.p_value
    if dropped is not None:
        row["quantize_dropped"] = dropped
    return row


def fit_binned(h: Histogram, family: str, min_tail: int = DEFAULT_MIN_TAIL) -> FitReport:
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
        return _fit_binned_powerlaw(edges, counts, n, min_tail)
    raise ValueError(f"unknown family {family!r}")


def _binned_negloglik(log_probs: np.ndarray, counts: np.ndarray) -> float:
    mask = counts > 0
    return float(-np.sum(counts[mask] * log_probs[mask]))


def _fit_binned_lognormal(edges, counts, n) -> FitReport:
    from scipy import optimize

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
    ks = _binned_ks(LognormalModel(mu, sigma), edges, counts)
    return FitReport("lognormal", (mu, sigma), None, n, ks, float(-res.fun), n)


def _binned_ks(model, edges, counts) -> float:
    """KS distance between binned counts and the model conditioned on the
    histogram's range: the KS kernel at the bin edges, where the EDF is known.
    """
    cdf = model.cdf(edges)
    model_cum = (cdf - cdf[0]) / (cdf[-1] - cdf[0])
    emp_cum = np.concatenate([[0.0], np.cumsum(counts)]) / counts.sum()
    return _edf_gap(emp_cum, model_cum)[0]


def _fit_binned_powerlaw(edges, counts, n, min_tail) -> FitReport:
    m_bins = counts.size
    tail_counts = np.concatenate([np.cumsum(counts[::-1])[::-1], [0]])
    best = None
    for j in range(m_bins - _MIN_TAIL_BINS + 1):
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
    from scipy import optimize

    log_edges = np.log(edges / xmin)

    def negloglik(gamma):
        raw = -np.expm1((1.0 - gamma) * log_edges)
        probs = np.diff(raw / raw[-1])  # of the cdf conditioned on [xmin, top edge]
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
    return gamma, float(-res.fun), _binned_ks(PowerLawModel(gamma, xmin), edges, counts)

