"""Estimator behavior: EDF/KS machinery, tail-cutoff selection,
maximum-likelihood recovery, bootstrap calibration and family
discrimination.
"""
import dataclasses
import json
import math
import os
import re
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from tailfit import (
    DegenerateSampleError,
    DurationSample,
    LognormalModel,
    PowerLawModel,
    SeededGenerator,
    bin_log,
    bootstrap_pvalue,
    compare_families,
    expected_counts,
    fit_binned,
    fit_lognormal,
    fit_powerlaw_tail,
    fit_sample,
    ks_distance,
    sample_lognormal,
    sample_powerlaw,
)
from tailfit.binning import Histogram
from tailfit import estimation, pool
from tailfit.binning import floor_to_step, quantize
from tailfit.distributions import _LOG_SQRT_2PI
from tailfit.estimation import (
    FitConvergenceError,
    FitReport,
    _bootstrap,
    _draw_tail,
    bootstrap_pvalue_binned,
    verdict,
)
from tailfit.normal import log_ndtr, ndtri_exp


def reference_tail_ks(tail, xmin, gamma):
    """Tail KS distance point by point."""
    m = tail.size
    f = -np.expm1((1.0 - gamma) * np.log(tail / xmin))
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return float(np.max(np.maximum(np.abs(hi - f), np.abs(lo - f))))


def reference_ks(sample, cdf):
    """KS distance as first written: sort, then every deviation at once."""
    values = np.sort(np.asarray(sample, dtype=float))
    n = values.size
    f = np.asarray(cdf(values), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(hi - f), np.abs(lo - f))))


def reference_scan(s, min_tail=50, max_candidates=1000):
    """The unpruned cutoff scan: every candidate scored point by point, in
    ascending order, the first strictly smallest KS winning.
    """
    x = s.values
    n = x.size
    first = np.flatnonzero(np.diff(x, prepend=np.nan) != 0)
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
    best = None
    for i in candidates:
        m = n - i
        denom = suffix[i] - m * log_x[i]
        if denom <= 0:
            continue
        gamma = 1.0 + m / denom
        ks = reference_tail_ks(x[i:], x[i], gamma)
        if best is None or ks < best[0]:
            best = (ks, i, gamma)
    if best is None:
        raise DegenerateSampleError("no valid cutoff candidate")
    ks, i, gamma = best
    xmin = float(x[i])
    return FitReport(
        "powerlaw", (float(gamma), xmin), xmin, n - i, ks, n, min_tail, max_candidates
    )


def reference_truncated_lognormal_loglik(y, w, mu, sigma):
    """The truncated-lognormal tail log-likelihood as first written, on the
    log-values y and the log-cutoff w.
    """
    z = (y - mu) / sigma
    per_point = -0.5 * z * z - _LOG_SQRT_2PI - math.log(sigma) - y
    return float(np.sum(per_point) - y.size * log_ndtr(-(w - mu) / sigma))


def statistics_loglik(y, w, mu, sigma):
    """The truncated-lognormal tail log-likelihood as the Newton fit sees
    it: from the tail's sufficient statistics, in units of its spread."""
    origin, _, mean, shift, sd = estimation._tail_statistics(y)
    nu, tau = ((mu - origin) - mean) / sd, sigma / sd
    f, _, _ = estimation._truncated_normal_terms(
        nu / tau**2, -0.5 / tau**2, ((w - origin) - mean) / sd, shift / sd
    )
    return -y.size * (f + math.log(sd) + origin + mean + shift)


def reference_vuong(tail, xmin, powerlaw, lognormal):
    """compare_families' (lr, normalized, p) as first written, with both
    families' log-densities inline.
    """
    gamma, tau = powerlaw.params
    log_pl = math.log(gamma - 1.0) + (gamma - 1.0) * math.log(tau) - gamma * np.log(tail)
    mu, sigma = lognormal.params
    y = np.log(tail)
    z = (y - mu) / sigma
    log_ln = (
        -0.5 * z * z
        - _LOG_SQRT_2PI
        - math.log(sigma)
        - y
        - log_ndtr(-(math.log(xmin) - mu) / sigma)
    )
    terms = log_pl - log_ln
    lr = float(np.sum(terms))
    sigma_lr = float(np.std(terms))
    if sigma_lr == 0:
        return lr, 0.0, 1.0
    normalized = lr / (sigma_lr * math.sqrt(tail.size))
    return lr, float(normalized), math.erfc(abs(normalized) / math.sqrt(2.0))


def reference_binned_lognormal_ks(edges, counts, mu, sigma):
    """The binned lognormal fit's KS block as first written."""
    cdf = LognormalModel(mu, sigma).cdf(edges)
    total = cdf[-1] - cdf[0]
    model_cum = (cdf - cdf[0]) / total
    emp_cum = np.concatenate([[0.0], np.cumsum(counts)]) / counts.sum()
    return float(np.max(np.abs(emp_cum - model_cum)))


def reference_binned_powerlaw_ks(edges, counts, xmin, gamma):
    """The binned power-law fit's KS block as first written."""
    raw = -np.expm1((1.0 - gamma) * np.log(edges / xmin))
    model_cum = raw / raw[-1]
    emp_cum = np.concatenate([[0.0], np.cumsum(counts)]) / counts.sum()
    return float(np.max(np.abs(emp_cum - model_cum)))


def reference_binned_lognormal(edges, counts):
    """The binned lognormal fit as first written, by scipy's Nelder-Mead in
    (mu, ln sigma): its result, its objective, the negative log-likelihood
    of (mu, sigma), and the cdf at the edges that the objective takes."""
    from scipy import optimize
    from scipy.special import ndtr

    log_edges = np.log(edges)

    def edge_cdf(mu, sigma):
        return ndtr((log_edges - mu) / sigma)

    def negloglik(mu, sigma):
        cdf = edge_cdf(mu, sigma)
        probs, total = np.diff(cdf), cdf[-1] - cdf[0]
        if total <= 0 or np.any(probs[counts > 0] <= 0):
            return np.inf
        with np.errstate(divide="ignore"):
            return estimation._binned_negloglik(np.log(probs) - math.log(total), counts)

    centers = np.log(np.sqrt(edges[:-1] * edges[1:]))
    w = counts / counts.sum()
    mu0 = float(np.sum(w * centers))
    sigma0 = max(float(np.sqrt(np.sum(w * (centers - mu0) ** 2))), 1e-3)
    res = optimize.minimize(
        lambda t: negloglik(t[0], math.exp(t[1])) if -20.0 < t[1] < 20.0 else np.inf,
        x0=np.array([mu0, math.log(sigma0)]), method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000},
    )
    return res, negloglik, edge_cdf


def reference_binned_powerlaw(edges, counts, xmin):
    """The binned power-law exponent at xmin as first written, by the grid
    and scipy's bounded Brent in its bracket, or None where the grid finds
    no gamma; with the objective both share, the negative log-likelihood,
    and the conditioned cdf at the edges that it takes."""
    from scipy import optimize

    log_edges = np.log(edges / xmin)

    def edge_cdf(gamma):
        raw = -np.expm1((1.0 - gamma) * log_edges)
        return raw / raw[-1]

    def negloglik(gamma):
        probs = np.diff(edge_cdf(gamma))
        if np.any(probs[counts > 0] <= 0):
            return 1e300
        return estimation._binned_negloglik(np.log(np.maximum(probs, 1e-300)), counts)

    grid = 1.0 + np.geomspace(1e-3, 24.0, 80)
    values = np.array([negloglik(g) for g in grid])
    k = int(np.argmin(values))
    if values[k] >= 1e300:
        return None, negloglik, edge_cdf
    bounds = (grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])
    res = optimize.minimize_scalar(
        negloglik, bounds=bounds, method="bounded", options={"xatol": 1e-8}
    )
    return float(res.x), negloglik, edge_cdf


def nll_rounding(cdf, counts, nll) -> float:
    """How far rounding can move a binned negative log-likelihood ``nll``
    whose cell masses are differences of the cdf values ``cdf`` at the
    edges. Each value is within two units in the last place of 1, so a
    mass P is off by up to 4 eps, and the term of a cell of c counts,
    c log P, by 4 eps c / P; the range's mass weighs the n counts. Summing
    the J cells' terms adds up to J eps nll."""
    eps = np.finfo(float).eps
    full = counts > 0
    masses = np.sum(counts[full] / np.diff(cdf)[full]) + counts.sum() / (cdf[-1] - cdf[0])
    return 4.0 * eps * masses + counts.size * eps * abs(nll)


def same_float(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def record_scored_cutoffs(monkeypatch) -> list:
    """Patch the scan's exact KS kernel to record the cutoff of every call."""
    kernel = estimation._powerlaw_tail_ks
    scored = []
    monkeypatch.setattr(
        estimation, "_powerlaw_tail_ks", lambda *a: scored.append(a[3]) or kernel(*a)
    )
    return scored


@st.composite
def scan_inputs(draw):
    """Samples the pruned scan must get exactly right: all-distinct values,
    tie-heavy lattices floor(x/step)*step, a long run of equal top values
    (candidates in it have no spread above the cutoff), and few distinct
    values (fewer runs than ``KS_GRID_RUNS``).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3000))
    x = np.exp(rng.normal(draw(st.floats(-5.0, 12.0)), draw(st.floats(0.05, 3.0)), n))
    shape = draw(st.sampled_from(["distinct", "lattice", "top_run", "few_values"]))
    if shape == "lattice":
        step = float(np.quantile(x, draw(st.floats(0.0, 0.9))))
        x = np.floor(x / step) * step
    elif shape == "top_run":
        x = np.concatenate([x, np.full(draw(st.integers(1, 400)), 2.0 * x.max())])
    elif shape == "few_values":
        x = rng.choice(np.exp(rng.normal(0.0, 1.0, draw(st.integers(2, 20)))), n)
    x = x[x > 0]
    if x.size == 0:
        x = np.array([1.0])
    options = {
        "min_tail": draw(st.integers(1, 80)),
        "max_candidates": draw(st.integers(1, 1500)),
    }
    return DurationSample(x), options


class TestEdf:
    def test_ks_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = np.exp(rng.normal(0, 1, 500))
        m = LognormalModel(0.0, 1.0)
        ours = ks_distance(x, m.cdf)
        ref = stats.kstest(x, m.cdf).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_ks_on_exact_quantiles(self):
        # Points at the (i-0.5)/n quantiles give KS of exactly 1/(2n).
        m = LognormalModel(2.0, 1.0)
        n = 100
        x = m.quantile((np.arange(1, n + 1) - 0.5) / n)
        assert ks_distance(x, m.cdf) == pytest.approx(0.5 / n, abs=1e-10)


    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=200),
        st.floats(0.1, 3.0),
    )
    def test_ks_equals_first_version(self, ints, sigma):
        # Unsorted, sorted, tied and DurationSample inputs all give the
        # bits of the sort-then-compare version.
        x = np.array(ints, dtype=float) / 4.0
        cdf = LognormalModel(1.0, sigma).cdf
        want = reference_ks(x, cdf)
        assert ks_distance(x, cdf) == want
        assert ks_distance(np.sort(x), cdf) == want
        assert ks_distance(DurationSample(x), cdf) == want

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 50_000),
        st.floats(0.5, 3.0),
        st.sampled_from(["lattice", "all_tied", "top_tied"]),
        st.floats(-3.0, 0.5),
    )
    def test_run_ks_equals_first_version(self, seed, n, sigma, shape, log_step):
        # Lognormal values floored onto a lattice of step 10**log_step
        # times their median, all equal, or with a tied top of any size.
        # The cdf sees each run of equal values at most once, and only
        # where the maximum can be.
        rng = np.random.default_rng(seed)
        x = rng.lognormal(3.0, sigma, n)
        if shape == "lattice":
            step = float(np.median(x)) * 10.0**log_step
            x = np.floor(x / step) * step
            x = x[x > 0]
            assume(x.size > 0)
        elif shape == "all_tied":
            x[:] = x[0]
        else:
            x.sort()
            x[rng.integers(0, n):] = x[-1]
        model = LognormalModel(3.1, sigma * 1.05)
        seen = []

        def cdf(t):
            seen.append(t.copy())
            return model.cdf(t)

        want = reference_ks(x, model.cdf)
        runs = np.unique(x)
        for sample in (rng.permutation(x), DurationSample(x)):
            seen.clear()
            assert ks_distance(sample, cdf) == want
            evaluated = np.sort(np.concatenate(seen))
            assert np.all(evaluated[1:] > evaluated[:-1])
            assert np.isin(evaluated, runs).all()

    @pytest.mark.parametrize(
        "values, problem",
        [
            ([1.0, np.nan], "finite"),
            ([np.nan, 1.0], "finite"),
            ([np.nan], "finite"),
            ([2.0, np.inf, 1.0], "finite"),
            ([-np.inf, 1.0], "finite"),
            ([[1.0, 2.0], [3.0, 4.0]], "1-d"),
            ([[1.0]], "1-d"),
            (1.0, "1-d"),
            ([], "at least one point"),
        ],
    )
    def test_ks_rejects_bad_arrays(self, values, problem):
        # A NaN once came back as the distance, and a 2-d array leaked
        # numpy's message on mismatched dimensions.
        with pytest.raises(ValueError, match=re.escape(problem)):
            ks_distance(values, LognormalModel(0.0, 1.0).cdf)

    @settings(max_examples=200, deadline=None)
    @given(scan_inputs())
    def test_runs_view_rebuilds_sample(self, case):
        # The one runs-of-ties view that ks_distance, the cutoff scan and
        # the fixed-cutoff fit read: ascending run values whose bounds
        # rebuild x, and no index arrays when every value is distinct.
        s, _ = case
        x = s.values
        view = estimation._runs(x)
        values, first, ends, n = view
        assert n == x.size
        distinct = np.unique(x).size == x.size
        assert (first is None) == distinct and (ends is None) == distinct
        starts, stops = estimation._run_bounds(view, np.arange(values.size))
        assert np.array_equal(np.repeat(values, stops - starts), x)
        assert np.array_equal(values, x[starts])
        assert np.all(values[1:] > values[:-1])
        for r in {0, values.size // 2, values.size - 1}:
            below, upto = estimation._tail_counts(view, r)
            assert np.array_equal(below, starts[r:] - starts[r])
            assert np.array_equal(upto, stops[r:] - starts[r])

    def test_ks_does_not_modify_input(self):
        x = np.array([3.0, 1.0, 2.0])
        ks_distance(x, lambda t: t / 3.0)
        assert x.tolist() == [3.0, 1.0, 2.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6000),
        st.sampled_from(
            ["untied", "tied", "single_run", "lattice", "exact_quantiles", "top_run"]
        ),
        st.integers(1, 40),
        st.floats(-1.0, 1.0),
        st.floats(-30.0, 30.0),
        st.floats(1e-4, 3.0),
        st.sampled_from(["cdf", "tail_survival"]),
    )
    def test_pruned_ks_equals_full_runs_ks(self, seed, n, shape, block, shift, mu, sigma, kind):
        # The block bounds never hide the largest term: the pruned KS is
        # the full _runs_ks bit for bit, for the plain lognormal cdf and
        # for the truncated fit's conditional cdf from log-survivals, each
        # with the slack fit_lognormal gives it; also where every term
        # ties (points at the model's own midpoint quantiles), where the
        # largest sits in a tied top run, and at small spreads and large
        # log-locations, where the rounding of ln t moves the cdf most.
        rng = np.random.default_rng(seed)
        model = LognormalModel(mu + shift * sigma, sigma)
        if shape == "exact_quantiles":
            x = model.quantile((np.arange(1, n + 1) - 0.5) / n)
        else:
            x = rng.lognormal(mu, sigma, n)
            if shape == "tied":
                x = rng.choice(x, n)
            elif shape == "single_run":
                x[:] = x[0]
            elif shape == "lattice":
                step = 0.25 * sigma * math.exp(mu)
                x = np.floor(x / step) * step + step
            elif shape == "top_run":
                x.sort()
                x[rng.integers(0, n):] = x[-1]
        x = np.sort(x)
        y_lo, y_hi = math.log(x[0]), math.log(x[-1])
        if kind == "cdf":
            cdf = model.cdf
            slack = estimation._lognormal_ks_slack(y_lo, y_hi, model.mu, sigma)
        else:
            xmin = float(x[0])
            log_sf_xmin = model.logsf(xmin)
            slack = estimation._lognormal_ks_slack(
                y_lo, y_hi, model.mu, sigma, log_sf_xmin, (y_lo - model.mu) / sigma
            )

            def cdf(t):
                return -np.expm1(model.logsf(t) - log_sf_xmin)

        first = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
        below, upto = first, np.append(first[1:], n)
        full = estimation._runs_ks(cdf(x[first]), below, upto, n)[0]
        pruned = estimation._pruned_ks(estimation._runs(x), cdf, slack, block)
        assert pruned == full

    def test_ks_peak_memory_on_sorted_input(self):
        # On a sorted array of distinct values the one n-sized allocation
        # is the mask of run starts (n bytes): no sorted copy, and the cdf
        # is evaluated on the grid of every KS_BLOCK_RUNS-th run and the
        # blocks that can hold the maximum, with temporaries of that size
        # (measured 4.0 n bytes). Evaluating it at every point would take
        # 8 n bytes for its values alone.
        n = 10**6
        x = np.sort(SeededGenerator(118).rng().lognormal(0.0, 1.0, n))
        cdf = LognormalModel(0.0, 1.0).cdf
        tracemalloc.start()
        try:
            ks_distance(x, cdf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n + 8 * 8 * n / estimation.KS_BLOCK_RUNS


class TestPowerlawFit:
    def test_recovers_gamma_fixed_xmin(self):
        m = PowerLawModel(1.53, 59.0)
        s = sample_powerlaw(m, 100_000, SeededGenerator(100))
        fit = fit_powerlaw_tail(s, xmin=59.0)
        assert fit.params[0] == pytest.approx(1.53, abs=0.01)
        assert fit.n_tail == s.n

    def test_scan_selects_near_true_cutoff(self):
        # Body: lognormal below 100; tail: power-law above. The KS scan
        # should land near the splice point.
        g = SeededGenerator(101)
        body = sample_lognormal(LognormalModel(3.0, 0.7), 20_000, g)
        body_vals = body.values[body.values < 100.0]
        tail = sample_powerlaw(PowerLawModel(2.2, 100.0), 20_000, SeededGenerator(102))
        s = DurationSample(np.concatenate([body_vals, tail.values]))
        fit = fit_powerlaw_tail(s)
        assert 50.0 <= fit.xmin <= 200.0
        assert fit.params[0] == pytest.approx(2.2, abs=0.05)

    def test_closed_form_estimate(self):
        # gamma_hat = 1 + n / sum(ln(x/xmin)), checked by hand.
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_powerlaw_tail(DurationSample(x), xmin=1.0)
        expected = 1.0 + 4.0 / (3.0 * math.log(2.0) + 2.0 * math.log(2.0) + math.log(2.0))
        assert fit.params[0] == pytest.approx(expected, rel=1e-12)

    def test_min_tail_floor(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 500, SeededGenerator(104))
        fit = fit_powerlaw_tail(s, min_tail=50)
        assert fit.n_tail >= 50

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSampleError):
            fit_powerlaw_tail(DurationSample(np.full(100, 3.0)))
        with pytest.raises(DegenerateSampleError):
            fit_powerlaw_tail(DurationSample(np.array([1.0, 2.0, 3.0])))

    @settings(max_examples=300, deadline=None)
    @given(scan_inputs())
    def test_pruned_scan_equals_brute_force(self, case):
        s, options = case
        try:
            expected = reference_scan(s, **options)
        except DegenerateSampleError as exc:
            with pytest.raises(DegenerateSampleError, match=re.escape(str(exc))):
                fit_powerlaw_tail(s, **options)
            return
        fit = fit_powerlaw_tail(s, **options)
        assert fit.ks == expected.ks
        assert fit.xmin == expected.xmin
        assert fit.params == expected.params
        assert fit.n_tail == expected.n_tail

    def test_ks_tie_goes_to_smallest_cutoff(self):
        # Cutoffs 1, 2 and 3 all have KS exactly 0.5 (their first run holds
        # half their tail); the pruned scan scores 2 and 3 first.
        s = DurationSample(np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0]))
        expected = reference_scan(s, min_tail=1)
        fit = fit_powerlaw_tail(s, min_tail=1)
        for cutoff in (1.0, 2.0, 3.0):
            tail_fit = fit_powerlaw_tail(s, xmin=cutoff)
            assert tail_fit.ks == 0.5
        assert (fit.xmin, fit.ks, fit.params) == (1.0, 0.5, expected.params)

    def test_ks_tie_kept_open_on_one_grid_run(self, monkeypatch):
        # With one grid run only cutoff 1 bounds above 0 (at 0.5), so
        # cutoff 2 is scored first with KS 0.5; cutoff 1, whose bound
        # equals that KS, must still be scored and win the tie.
        monkeypatch.setattr(estimation, "KS_GRID_RUNS", 1)
        s = DurationSample(np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0]))
        scored = record_scored_cutoffs(monkeypatch)
        fit = fit_powerlaw_tail(s, min_tail=1)
        assert scored[:2] == [2.0, 1.0]
        assert fit == reference_scan(s, min_tail=1)

    # One grid run leaves the pruning to the peak-run columns alone; more
    # grid runs than any sample has put every run on the grid.
    @pytest.mark.parametrize("grid_runs", [1, 10**9])
    @settings(max_examples=300, deadline=None)
    @given(case=scan_inputs())
    def test_pruned_scan_equals_brute_force_at_grid_extremes(self, grid_runs, case):
        s, options = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "KS_GRID_RUNS", grid_runs)
            try:
                expected = reference_scan(s, **options)
            except DegenerateSampleError as exc:
                with pytest.raises(DegenerateSampleError, match=re.escape(str(exc))):
                    fit_powerlaw_tail(s, **options)
                return
            assert fit_powerlaw_tail(s, **options) == expected

    def test_readme_lattice_scores_few_candidates(self, monkeypatch):
        # The README sample on the hour lattice: the exact answer from a
        # handful of full scorings out of 1000 candidates.
        s, _ = quantize(
            sample_lognormal(LognormalModel(10.45, 2.75), 41184, SeededGenerator(1)), 3600.0
        )
        scored = record_scored_cutoffs(monkeypatch)
        assert fit_powerlaw_tail(s) == reference_scan(s)
        assert len(scored) <= 10

    @settings(max_examples=100, deadline=None)
    @given(scan_inputs(), st.floats(0.0, 0.99))
    def test_fixed_cutoff_ks_equals_pointwise(self, case, q):
        s, _ = case
        xmin = float(np.quantile(s.values, q))
        tail = s.values[s.values >= xmin]
        try:
            fit = fit_powerlaw_tail(s, xmin=xmin)
        except DegenerateSampleError:
            assert np.all(tail == xmin)
            return
        assert fit.ks == reference_tail_ks(tail, xmin, fit.params[0])

    def test_scanned_fit_is_plain_json(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 500, SeededGenerator(106))
        fit = fit_powerlaw_tail(s)
        json.dumps(dataclasses.asdict(fit))
        assert type(fit.n_tail) is int
        assert all(type(v) is float for v in (*fit.params, fit.ks))

    def test_decimation_keeps_result_close(self):
        s = sample_powerlaw(PowerLawModel(1.8, 5.0), 20_000, SeededGenerator(105))
        full = fit_powerlaw_tail(s, max_candidates=10_000)
        thin = fit_powerlaw_tail(s, max_candidates=200)
        assert thin.params[0] == pytest.approx(full.params[0], abs=0.05)


class TestLognormalFit:
    def test_recovers_parameters(self):
        s = sample_lognormal(LognormalModel(10.0, 2.0), 100_000, SeededGenerator(110))
        fit = fit_lognormal(s)
        assert fit.params[0] == pytest.approx(10.0, abs=0.02)
        assert fit.params[1] == pytest.approx(2.0, abs=0.02)

    def test_closed_form_is_log_moment_mle(self):
        x = np.array([1.0, math.e, math.e**2])
        fit = fit_lognormal(DurationSample(x))
        assert fit.params[0] == pytest.approx(1.0, rel=1e-12)
        assert fit.params[1] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_truncated_fit_recovers_parameters(self):
        # Fitting only above the median must still find (mu, sigma).
        m = LognormalModel(5.0, 1.5)
        s = sample_lognormal(m, 50_000, SeededGenerator(111))
        fit = fit_lognormal(s, xmin=math.exp(5.0))
        assert fit.params[0] == pytest.approx(5.0, abs=0.05)
        assert fit.params[1] == pytest.approx(1.5, abs=0.05)
        assert fit.n_tail < s.n

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 400),
        st.floats(-8.0, 8.0),
        st.floats(math.log(estimation.SIGMA_MIN), math.log(estimation.SIGMA_MAX)),
    )
    def test_truncated_loglik_equals_first_version(self, seed, m, mu, log_sigma):
        # The log-likelihood the Newton fit maximizes, taken from the
        # tail's sufficient statistics, equals the first version at any
        # point up to rounding; by the first version, the fit is at least
        # as likely as any point within the bounds.
        rng = np.random.default_rng(seed)
        y = np.sort(rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 3.0), m))
        w = float(y[0])
        sigma = math.exp(log_sigma)
        want = reference_truncated_lognormal_loglik(y, w, mu, sigma)
        z = (y - mu) / sigma
        # The size of the terms the first version sums, which sets its rounding.
        scale = float(np.sum(0.5 * z * z + np.abs(y))) + m * (
            abs(log_sigma) + 1.0 - float(log_ndtr(-(w - mu) / sigma))
        )
        assert abs(statistics_loglik(y, w, mu, sigma) - want) <= 1e-13 * scale
        mu_hat, sigma_hat = estimation._truncated_lognormal_newton(
            w, estimation._tail_statistics(y)
        )
        loglik = reference_truncated_lognormal_loglik(y, w, mu_hat, sigma_hat)
        if w - 5.0 * estimation.SIGMA_MAX**2 <= mu <= float(y[-1]) + 10.0:
            assert loglik >= want - 1e-13 * scale

    def test_truncated_newton_allocates_no_tail_sized_array(self):
        # After one pass over the tail, the Newton steps work on its
        # sufficient statistics alone.
        m = 100_000
        y = np.sort(np.random.default_rng(5).normal(3.0, 1.0, m))
        w = float(y[0])
        tail_stats = estimation._tail_statistics(y)
        tracemalloc.start()
        try:
            estimation._truncated_lognormal_newton(w, tail_stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m / 10

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSampleError):
            fit_lognormal(DurationSample(np.array([2.0])))
        with pytest.raises(DegenerateSampleError):
            fit_lognormal(DurationSample(np.full(10, 2.0)))


class TestBootstrap:
    def test_well_specified_model_not_rejected(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 2_000, SeededGenerator(120))
        fit = fit_powerlaw_tail(s, max_candidates=100)
        p = bootstrap_pvalue(s, fit, 100, SeededGenerator(121)).p
        assert p > 0.05

    def test_reproducible(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 1_000, SeededGenerator(122))
        fit = fit_powerlaw_tail(s, max_candidates=50)
        p1 = bootstrap_pvalue(s, fit, 100, SeededGenerator(123)).p
        p2 = bootstrap_pvalue(s, fit, 100, SeededGenerator(123)).p
        assert p1 == p2

    def test_rejects_too_few_reps(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 200, SeededGenerator(124))
        fit = fit_powerlaw_tail(s, xmin=1.0)
        with pytest.raises(ValueError):
            bootstrap_pvalue(s, fit, 99, SeededGenerator(125))

    def test_truncated_lognormal_cutoff_far_above_body(self):
        # cdf(1e4) rounds to 1 for the (0, 1) model; tail draws must still
        # be finite and at or above the cutoff.
        body = sample_lognormal(LognormalModel(0.0, 1.0), 1_000, SeededGenerator(128))
        s = DurationSample(np.concatenate([body.values, 1e4 * np.linspace(1.0, 1.2, 20)]))
        fit = FitReport("lognormal", (0.0, 1.0), 1e4, 20, 0.5, s.n)
        assert fit.model().cdf(1e4) == 1.0
        draws = _draw_tail(fit.model(), fit, 10_000, np.random.default_rng(129))
        assert np.all(np.isfinite(draws))
        assert np.all(draws >= 1e4)
        p = bootstrap_pvalue(s, fit, 100, SeededGenerator(130)).p
        assert 0.0 <= p <= 1.0

    def test_replicate_drawing_past_float_max_is_a_failed_replicate(self, monkeypatch):
        # The first replicate's tail draws overflow, as a rare one of a
        # heavy tail may; no numpy warning, and the others still count.
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 500, SeededGenerator(131))
        fit = fit_powerlaw_tail(s, xmin=1.0)
        real = estimation._draw_tail
        calls = []

        def draw(*args):
            calls.append(1)
            values = real(*args)
            return values * 1e308 if len(calls) == 1 else values

        monkeypatch.setattr(estimation, "_draw_tail", draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = bootstrap_pvalue(s, fit, 100, SeededGenerator(132))
        assert result.failed == 1
        assert result.ks[0] == math.inf

    def test_tail_too_heavy_to_bootstrap_is_rejected_before_any_replicate(self, monkeypatch):
        s = DurationSample(np.geomspace(1e300, 1.7e308, 300))
        fit = fit_powerlaw_tail(s)
        monkeypatch.setattr(estimation, "_draw_tail", None)  # never reached
        with pytest.raises(DegenerateSampleError, match="passes the largest float64"):
            bootstrap_pvalue(s, fit, 100, SeededGenerator(133))

    def test_tail_too_heavy_is_rejected_before_the_lognormal_fit(self, monkeypatch):
        # fit --dist both checks the power law's tail before it fits the
        # lognormal, as when each family's bootstrap ran right after its fit.
        s = DurationSample(np.geomspace(1e300, 1.7e308, 300))

        def never(*args, **kwargs):
            raise AssertionError("the lognormal was fitted")

        monkeypatch.setattr(estimation, "fit_lognormal", never)
        monkeypatch.setattr(estimation, "run_ranges", None)  # never reached
        with pytest.raises(DegenerateSampleError, match="passes the largest float64"):
            fit_sample(s, "both", bootstrap=100)

    def test_uncertified_truncated_fit_raises_and_counts_as_failed(self, monkeypatch):
        # A tolerance no Newton decrement can meet: the fit takes every step
        # it may and then raises rather than return an uncertified point,
        # and every bootstrap refit counts as failed.
        s = sample_lognormal(LognormalModel(3.0, 1.0), 500, SeededGenerator(171))
        xmin = float(np.median(s.values))
        fit = fit_lognormal(s, xmin=xmin)
        monkeypatch.setattr(estimation, "NEWTON_TOL", -1.0)
        steps = estimation.NEWTON_MAX_STEPS
        with pytest.raises(FitConvergenceError, match=f"not certified after {steps} Newton steps"):
            fit_lognormal(s, xmin=xmin)
        result = bootstrap_pvalue(s, fit, 100, SeededGenerator(172))
        assert result.failed == 100
        assert result.ks == (math.inf,) * 100

    @pytest.mark.parametrize("dist", ["powerlaw", "both"])
    def test_fixed_cutoff_powerlaw_is_refitted_at_its_cutoff(self, monkeypatch, dist):
        # Each replicate is refitted as the data was: at the given cutoff,
        # not by the cutoff scan, which would pick each replicate's own.
        s = sample_powerlaw(PowerLawModel(2.5, 1.0), 500, SeededGenerator(134))
        real = estimation.fit_powerlaw_tail
        cutoffs = []

        def spy(sample, **options):
            cutoffs.append(options.get("xmin"))
            return real(sample, **options)

        monkeypatch.setattr(estimation, "fit_powerlaw_tail", spy)
        fit_sample(s, dist, xmin=1.5, bootstrap=100)
        assert cutoffs == [1.5] * 101  # the fit, then 100 refits

    def test_lognormal_bootstrap_runs(self):
        s = sample_lognormal(LognormalModel(3.0, 1.0), 1_000, SeededGenerator(126))
        fit = fit_lognormal(s)
        p = bootstrap_pvalue(s, fit, 100, SeededGenerator(127)).p
        assert 0.0 <= p <= 1.0
        assert p > 0.05


class TestReplicateDraws:
    """Replicates are drawn in ascending order: the draws, and the state
    the generator is left in, are those of drawing unsorted and sorting."""

    @pytest.mark.parametrize("ties", [True, False])
    def test_body_is_the_sorted_choice(self, ties):
        # Fails first if numpy's Generator.choice ever changes its stream.
        s = sample_lognormal(LognormalModel(8.0, 2.0), 5_000, SeededGenerator(190))
        body = quantize(s, 600.0)[0].values if ties else s.values
        assert (np.unique(body).size < body.size) == ties
        rng, expected_rng = np.random.default_rng(191), np.random.default_rng(191)
        draws = estimation._sorted_resampler(body)(7_000, rng)
        expected = np.sort(expected_rng.choice(body, 7_000, replace=True))
        assert draws.dtype == expected.dtype and draws.tobytes() == expected.tobytes()
        assert rng.random() == expected_rng.random()

    @pytest.mark.parametrize(
        "xmin", [None, 8.0, 1e4], ids=["powerlaw", "lognormal-8", "lognormal-1e4"]
    )
    def test_tail_from_sorted_u_is_the_sorted_tail(self, xmin):
        # A power law, and lognormals truncated where most of the mass lies
        # above the cutoff and where almost none does (every branch of the
        # normal quantile).
        k = 20_000
        if xmin is None:
            fit = FitReport("powerlaw", (2.2, 3.0), 3.0, k, 0.1, 2 * k)
            model = fit.model()

            def unsorted(u):
                return model.quantile(u)
        else:
            fit = FitReport("lognormal", (2.0, 1.5), xmin, k, 0.1, 2 * k)
            model = fit.model()

            def unsorted(u):
                log_sf = model.logsf(xmin) + np.log1p(-u)
                return np.maximum(np.exp(model.mu - model.sigma * ndtri_exp(log_sf)), xmin)

        rng, expected_rng = np.random.default_rng(192), np.random.default_rng(192)
        tail = _draw_tail(model, fit, k, rng)
        assert tail.tobytes() == np.sort(unsorted(expected_rng.random(k))).tobytes()
        assert rng.random() == expected_rng.random()


class TestBootstrapRefitsAsFitted:
    """Every replicate is refitted by the rule that made the fit, which the
    FitReport records, and quantized to the lattice the sample records."""

    def calls(self, monkeypatch, name):
        """The (arguments, keyword arguments) of every later call of
        ``estimation.<name>``."""
        real = getattr(estimation, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(estimation, name, spy)
        return calls

    def test_scan_keeps_its_min_tail_and_max_candidates(self, monkeypatch):
        s = sample_powerlaw(PowerLawModel(2.5, 1.0), 500, SeededGenerator(180))
        fit = fit_powerlaw_tail(s, min_tail=80, max_candidates=30)
        assert (fit.min_tail, fit.max_candidates) == (80, 30)
        calls = self.calls(monkeypatch, "fit_powerlaw_tail")
        bootstrap_pvalue(s, fit, 100, SeededGenerator(181))
        scan = {"min_tail": 80, "max_candidates": 30}
        assert [(a[1:], k) for a, k in calls] == [((), scan)] * 100

    def test_powerlaw_at_a_given_cutoff_is_refitted_at_it(self, monkeypatch):
        s = sample_powerlaw(PowerLawModel(2.5, 1.0), 500, SeededGenerator(182))
        fit = fit_powerlaw_tail(s, xmin=1.5)
        assert (fit.min_tail, fit.max_candidates) == (None, None)
        calls = self.calls(monkeypatch, "fit_powerlaw_tail")
        bootstrap_pvalue(s, fit, 100, SeededGenerator(183))
        assert [(a[1:], k) for a, k in calls] == [((), {"xmin": 1.5})] * 100

    def test_truncated_lognormal_is_refitted_at_its_cutoff(self, monkeypatch):
        s = sample_lognormal(LognormalModel(3.0, 1.0), 400, SeededGenerator(184))
        xmin = float(np.median(s.values))
        fit = fit_lognormal(s, xmin=xmin)
        assert (fit.min_tail, fit.max_candidates) == (None, None)
        calls = self.calls(monkeypatch, "fit_lognormal")
        bootstrap_pvalue(s, fit, 100, SeededGenerator(185))
        assert [(a[1:], k) for a, k in calls] == [((), {"xmin": xmin})] * 100

    def test_binned_scan_keeps_its_min_tail(self, monkeypatch):
        edges = np.exp(np.linspace(0.0, 8.0, 25))
        probs = np.diff(PowerLawModel(1.8, 1.0).cdf(edges))
        counts = SeededGenerator(186).rng().multinomial(2_000, probs / probs.sum())
        h = Histogram(edges, counts)
        fit = fit_binned(h, "powerlaw", min_tail=350)
        assert (fit.min_tail, fit.max_candidates) == (350, None)
        calls = self.calls(monkeypatch, "fit_binned")
        bootstrap_pvalue_binned(h, fit, 100, SeededGenerator(187))
        assert [(a[1:], k) for a, k in calls] == [(("powerlaw", 350), {})] * 100

    def test_quantized_body_is_not_floored_again(self, monkeypatch):
        # floor(q / step) * step is not idempotent when step is not exact in
        # float64: on a lattice of 0.7 a second floor moves the cells 2.1,
        # 4.2 and 8.4 one cell down. The body draws are values of the sample
        # and stay so; only the model's tail draws, at or above a cutoff
        # that is a fixed cell, are floored.
        raw = np.concatenate([
            np.repeat([2.15, 4.25, 8.45], 100),
            sample_powerlaw(PowerLawModel(2.5, 9.1), 300, SeededGenerator(188)).values,
        ])
        s, _ = quantize(DurationSample(raw), 0.7)
        body = s.values[:300]
        assert not np.isin(floor_to_step(body, 0.7), body).any()
        calls = self.calls(monkeypatch, "fit_powerlaw_tail")
        fit_sample(DurationSample(raw), "powerlaw", xmin=9.1, bootstrap=100, quantize_step=0.7)
        assert len(calls) == 101  # the fit, then 100 refits
        for (sample,), _ in calls:
            below = sample.values[sample.values < 9.1]
            assert below.size and np.isin(below, body).all()


class TestBootstrapWorkers:
    """The replicate pool: results equal for every worker count, with the
    CPU cap lifted so that three workers really run on any host."""

    REPS = 101  # uneven over 2 and 3 workers and their index ranges

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 3)

    def by_workers(self, run):
        results = [run(w) for w in (1, 2, 3)]
        assert results[1] == results[0]
        assert results[2] == results[0]
        assert len(results[0].ks) == self.REPS
        return results[0]

    def test_powerlaw_quantized(self):
        s = sample_lognormal(LognormalModel(3.0, 1.5), 600, SeededGenerator(160))
        q, _ = quantize(s, 2.0)
        fit = fit_powerlaw_tail(q, max_candidates=40)
        result = self.by_workers(lambda w: bootstrap_pvalue(
            q, fit, self.REPS, SeededGenerator(161), workers=w
        ))
        assert 0.0 <= result.p <= 1.0

    def test_truncated_lognormal(self):
        s = sample_lognormal(LognormalModel(3.0, 1.0), 400, SeededGenerator(162))
        fit = fit_lognormal(s, xmin=float(np.median(s.values)))
        result = self.by_workers(lambda w: bootstrap_pvalue(
            s, fit, self.REPS, SeededGenerator(163), workers=w
        ))
        assert result.p == sum(k >= fit.ks for k in result.ks) / self.REPS

    def test_binned(self):
        edges = np.exp(np.linspace(0.0, 8.0, 25))
        probs = np.diff(PowerLawModel(1.8, 1.0).cdf(edges))
        counts = SeededGenerator(164).rng().multinomial(2_000, probs / probs.sum())
        h = Histogram(edges, counts)
        fit = fit_binned(h, "powerlaw")
        self.by_workers(lambda w: bootstrap_pvalue_binned(
            h, fit, self.REPS, SeededGenerator(165), workers=w
        ))

    @pytest.mark.parametrize("cutoff", ["truncated", "untruncated"])
    def test_two_jobs_in_one_pool_equal_each_alone(self, cutoff):
        # fit --dist both runs both families' replicates in one pool; each
        # job keeps its own replicates, substreams and hit count.
        s = sample_lognormal(LognormalModel(3.0, 1.5), 600, SeededGenerator(173))
        q, _ = quantize(s, 2.0)
        pl = fit_powerlaw_tail(q, max_candidates=40)
        ln = fit_lognormal(q, xmin=float(np.median(q.values)) if cutoff == "truncated" else None)
        jobs = [estimation._bootstrap_job(q, fit, self.REPS) for fit in (pl, ln)]
        for w in (1, 2, 3):
            alone = [_bootstrap([job], self.REPS, SeededGenerator(174), w)[0] for job in jobs]
            assert _bootstrap(jobs, self.REPS, SeededGenerator(174), w) == alone
        assert alone[0] != alone[1]

    def test_replicates_run_outside_the_caller(self):
        [result] = _bootstrap(
            [(lambda rng: float(os.getpid()), 0.0)], self.REPS, SeededGenerator(0), 2
        )
        assert os.getpid() not in result.ks

    def test_failed_refits_counted_and_scored_as_hits(self):
        def replicate(rng):
            if rng.random() < 0.3:
                raise DegenerateSampleError("too few values")
            return 0.0

        result = self.by_workers(
            lambda w: _bootstrap([(replicate, 0.5)], self.REPS, SeededGenerator(166), w)[0]
        )
        assert 0 < result.failed < self.REPS
        assert result.ks.count(math.inf) == result.failed
        assert result.p == result.failed / self.REPS

    def test_worker_exception_reaches_caller(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ArithmeticError("refit broke")

        s = sample_lognormal(LognormalModel(3.0, 1.0), 200, SeededGenerator(167))
        fit = fit_lognormal(s)
        monkeypatch.setattr(estimation, "fit_lognormal", broken)
        with pytest.raises(ArithmeticError, match="refit broke"):
            bootstrap_pvalue(s, fit, 100, SeededGenerator(168), workers=2)

    def test_dead_worker_raises(self):
        parent = os.getpid()

        def replicate(rng):
            if os.getpid() != parent:
                os._exit(3)  # as if the worker had been killed
            return 0.0

        with pytest.raises(BrokenProcessPool):
            _bootstrap([(replicate, 0.0)], self.REPS, SeededGenerator(0), 2)

    def test_nonconverged_refits_counted(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise FitConvergenceError("stalled")

        s = sample_lognormal(LognormalModel(3.0, 1.0), 200, SeededGenerator(169))
        fit = fit_lognormal(s)
        monkeypatch.setattr(estimation, "fit_lognormal", stalled)
        result = bootstrap_pvalue(s, fit, 100, SeededGenerator(170), workers=2)
        assert result.failed == 100
        assert result.p == 1.0

    def test_rejects_no_workers(self):
        with pytest.raises(ValueError):
            _bootstrap([(lambda rng: 0.0, 0.0)], 100, SeededGenerator(0), 0)


class TestCompareFamilies:
    def test_fit_sample_at_a_cutoff_reports_the_comparison(self):
        # fit --dist both --xmin reports the fits its LR was computed from.
        s = sample_lognormal(LognormalModel(5.0, 1.5), 3_000, SeededGenerator(133))
        xmin = float(np.median(s.values))
        row = fit_sample(s, "both", xmin=xmin)
        report = compare_families(s, xmin)
        assert (row["gamma"], row["xmin"]) == report.powerlaw.params
        assert (row["mu"], row["sigma"]) == report.lognormal.params
        assert (row["LR"], row["LR_p"]) == (report.lr, report.p_value)

    @pytest.mark.parametrize(
        "xmin, message",
        [
            (10.0, "no values at or above the requested cutoff"),
            (3.0, "tail has no spread above the cutoff"),
            (2.5, "need at least two tail values"),
        ],
    )
    def test_tail_too_small_raises_the_fits_message(self, xmin, message):
        s = DurationSample(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateSampleError, match=f"^{message}$"):
            compare_families(s, xmin)

    def test_sign_on_powerlaw_data(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 20_000, SeededGenerator(130))
        report = compare_families(s, xmin=float(np.median(s.values)))
        # The bounded truncated lognormal can mimic a clean power-law tail
        # closely, so only the sign of the ratio is asserted here.
        assert report.lr > 0

    def test_sign_on_lognormal_data(self):
        s = sample_lognormal(LognormalModel(10.0, 2.0), 20_000, SeededGenerator(131))
        report = compare_families(s, xmin=float(np.median(s.values)))
        assert report.lr < 0
        assert report.verdict == "lognormal"

    def test_degenerate_tail(self):
        s = DurationSample(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateSampleError):
            compare_families(s, xmin=10.0)

    @settings(max_examples=100, deadline=None)
    @given(scan_inputs(), st.floats(0.0, 0.95))
    def test_ratio_equals_first_version(self, case, q):
        s, _ = case
        xmin = float(np.quantile(s.values, q))
        try:
            report = compare_families(s, xmin)
        except (DegenerateSampleError, FitConvergenceError):
            return
        tail = s.values[s.values >= xmin]
        lr, normalized, p = reference_vuong(tail, xmin, report.powerlaw, report.lognormal)
        assert (report.lr, report.normalized, report.p_value) == (lr, normalized, p)
        assert report.verdict == verdict(lr, p)

    @pytest.mark.parametrize(
        "lr, p, want",
        [
            (2.0, 0.05, "powerlaw"),
            (-2.0, 0.05, "lognormal"),
            (-2.0, 0.1, "undecided"),  # p must be below the threshold
            (-2.0, 0.5, "undecided"),
            (0.0, 0.01, "undecided"),
            (-2.0, None, "undecided"),
            (None, None, "undecided"),
        ],
    )
    def test_verdict(self, lr, p, want):
        assert verdict(lr, p) == want

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0, -1.0, math.nan])
    def test_threshold_outside_unit_interval(self, threshold):
        s = sample_lognormal(LognormalModel(2.0, 1.0), 200, SeededGenerator(133))
        with pytest.raises(ValueError, match="threshold must lie strictly between 0 and 1"):
            verdict(-2.0, 0.5, threshold)
        with pytest.raises(ValueError, match="threshold must lie strictly between 0 and 1"):
            compare_families(s, float(np.median(s.values)), threshold=threshold)


class TestBinnedFit:
    def binned_from_model(self, model, edges, n, seed):
        probs = np.diff(model.cdf(edges))
        probs = probs / probs.sum()
        counts = SeededGenerator(seed).rng().multinomial(n, probs)
        return Histogram(edges, counts)

    def test_lognormal_recovery(self):
        edges = np.exp(np.linspace(-4.0, 10.0, 71))
        h = self.binned_from_model(LognormalModel(2.0, 0.8), edges, 100_000, 140)
        fit = fit_binned(h, "lognormal")
        assert fit.params[0] == pytest.approx(2.0, abs=0.02)
        assert fit.params[1] == pytest.approx(0.8, abs=0.02)

    def test_powerlaw_recovery(self):
        edges = np.exp(np.linspace(0.0, 12.0, 61))
        h = self.binned_from_model(PowerLawModel(1.8, 1.0), edges, 100_000, 141)
        fit = fit_binned(h, "powerlaw")
        assert fit.params[0] == pytest.approx(1.8, abs=0.05)

    def test_powerlaw_cutoff_scan_skips_lognormal_body(self):
        s = sample_lognormal(LognormalModel(10.45, 2.75), 50_000, SeededGenerator(142))
        h = bin_log(s, 10)
        fit = fit_binned(h, "powerlaw")
        # The selected cutoff must sit beyond the density mode, where the
        # lognormal looks locally straight on log-log axes.
        assert fit.xmin > math.exp(10.45 - 2.75**2)
        assert fit.n_tail >= 50

    def test_ks_equals_first_version(self):
        s, _ = quantize(
            sample_lognormal(LognormalModel(10.45, 2.75), 5_000, SeededGenerator(145)), 3600.0
        )
        h = bin_log(s, 5)
        ln = fit_binned(h, "lognormal")
        assert ln.ks == reference_binned_lognormal_ks(h.edges, h.counts, *ln.params)
        pl = fit_binned(h, "powerlaw")
        j = int(np.searchsorted(h.edges, pl.xmin))
        assert pl.ks == reference_binned_powerlaw_ks(
            h.edges[j:], h.counts[j:], pl.xmin, pl.params[0]
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 40),
        st.floats(-10.0, 10.0),
        st.floats(0.05, 5.0),
        st.floats(1.01, 8.0),
    )
    def test_binned_ks_kernel_equals_first_version(self, seed, bins, mu, sigma, gamma):
        rng = np.random.default_rng(seed)
        edges = np.exp(rng.uniform(-5.0, 5.0) + np.cumsum(rng.uniform(0.05, 2.0, bins + 1)))
        counts = rng.integers(0, 50, bins)
        counts[0] += 1
        # Edges far out in one tail give a zero conditioning mass, and NaN.
        with np.errstate(invalid="ignore", divide="ignore"):
            self.check_binned_ks(edges, counts, mu, sigma, gamma)

    def check_binned_ks(self, edges, counts, mu, sigma, gamma):
        assert same_float(
            estimation._binned_ks(LognormalModel(mu, sigma), edges, counts),
            reference_binned_lognormal_ks(edges, counts, mu, sigma),
        )
        assert same_float(
            estimation._binned_ks(PowerLawModel(gamma, edges[0]), edges, counts),
            reference_binned_powerlaw_ks(edges, counts, edges[0], gamma),
        )

    @pytest.fixture(scope="class")
    def criterion2_histograms(self):
        """The histograms of acceptance criterion 2: hour-quantized
        lognormal samples in 5 log bins a decade."""
        hists = []
        for seed in range(20):
            s = sample_lognormal(
                LognormalModel(10.45, 2.75), 41184, SeededGenerator(1000 + seed)
            )
            hists.append(bin_log(quantize(s, 3600.0)[0], 5))
        return hists

    def check_against_reference(self, counts, negloglik, edge_cdf, new, old):
        """The new fit's negative log-likelihood is at most the old one's,
        within the rounding of both evaluations."""
        bound = sum(nll_rounding(edge_cdf(*p), counts, negloglik(*p)) for p in (new, old))
        assert negloglik(*new) <= negloglik(*old) + bound

    def check_lognormal_against_reference(self, h):
        res, negloglik, edge_cdf = reference_binned_lognormal(h.edges, h.counts)
        old = (res.x[0], math.exp(res.x[1]))
        self.check_against_reference(
            h.counts, negloglik, edge_cdf, fit_binned(h, "lognormal").params, old
        )

    def check_powerlaw_against_reference(self, h, j):
        edges, counts, xmin = h.edges[j:], h.counts[j:], float(h.edges[j])
        gamma, negloglik, edge_cdf = reference_binned_powerlaw(edges, counts, xmin)
        fit = estimation._binned_powerlaw_gamma(edges, counts, xmin)
        if gamma is None:
            assert fit is None
            return
        self.check_against_reference(counts, negloglik, edge_cdf, fit[:1], (gamma,))

    def test_lognormal_as_likely_as_nelder_mead(self, criterion2_histograms):
        for h in criterion2_histograms:
            self.check_lognormal_against_reference(h)

    def test_powerlaw_as_likely_as_brent_at_every_cutoff(self, criterion2_histograms):
        for h in criterion2_histograms:
            for j in range(h.counts.size - 2):
                if h.counts[j] > 0 and h.counts[j:].sum() >= 350:
                    self.check_powerlaw_against_reference(h, j)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-5.0, 15.0),
        st.floats(0.2, 4.0),
        st.integers(200, 50_000),
        st.integers(1, 12),
    )
    def test_drawn_histograms_as_likely_as_references(self, seed, mu, sigma, n, per_decade):
        values = np.exp(np.random.default_rng(seed).normal(mu, sigma, n))
        h = bin_log(DurationSample(values), per_decade)
        assume(np.count_nonzero(h.counts) >= 3)
        self.check_lognormal_against_reference(h)
        self.check_powerlaw_against_reference(h, int(np.argmax(h.counts)))

    def test_lognormal_on_binned_power_law_raises_without_warning(self):
        # The likelihood rises toward a lognormal far in its own upper tail.
        # On seed 4 the fit does not certify within its 50 steps (12 ms);
        # Nelder-Mead took its 4000 iterations there (1.3-1.6 s), with a
        # RuntimeWarning from inside scipy, before it raised. On seed 0 it
        # certifies a fit whose float64 cdf gives the range no mass.
        for seed, message in [(4, "not certified"), (0, "leaves the range no mass")]:
            s = sample_powerlaw(PowerLawModel(1.8, 1.0), 20_000, SeededGenerator(seed))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FitConvergenceError, match=message):
                    fit_binned(bin_log(s, 5), "lognormal")

    def test_log_uniform_histogram(self):
        # Log-uniform data sit on the edge of the lognormal family (sigma
        # to infinity), so the fit's optimum is finite or not by the
        # sample's curvature. Seed 8 has one, where Nelder-Mead ends too;
        # seed 3 has none, and Nelder-Mead reported (mu, sigma) =
        # (-12835, 3462), where it stopped on the flat ridge, as a success.
        def histogram(seed):
            values = 10 ** np.random.default_rng(seed).uniform(0, 6, 20_000)
            return bin_log(DurationSample(values), 5)

        mu, sigma = fit_binned(histogram(8), "lognormal").params
        assert mu == pytest.approx(7.88946, abs=1e-5)
        assert sigma == pytest.approx(25.2852, abs=1e-4)
        with pytest.raises(FitConvergenceError, match="not certified"):
            fit_binned(histogram(3), "lognormal")

    def test_uncertified_binned_lognormal_raises_and_counts_as_failed(self, monkeypatch):
        # No step allowed: the fit raises rather than return its start, and
        # every bootstrap refit counts as failed.
        values = sample_lognormal(LognormalModel(3.0, 1.0), 5_000, SeededGenerator(173))
        h = bin_log(values, 5)
        fit = fit_binned(h, "lognormal")
        monkeypatch.setattr(estimation, "NEWTON_MAX_STEPS", 0)
        with pytest.raises(FitConvergenceError, match="not certified after 0 Newton steps"):
            fit_binned(h, "lognormal")
        result = bootstrap_pvalue_binned(h, fit, 100, SeededGenerator(174))
        assert result.failed == 100
        assert result.ks == (math.inf,) * 100

    def test_needs_three_nonempty_bins(self):
        h = Histogram(np.array([1.0, 2.0, 4.0]), np.array([10, 20]))
        with pytest.raises(DegenerateSampleError):
            fit_binned(h, "lognormal")

    def test_unknown_family(self):
        # The family is checked first: with two non-empty bins this once
        # raised DegenerateSampleError, a ValueError, for the bin count.
        for edges, counts in [([1.0, 2.0, 4.0, 8.0], [1, 2, 3]), ([1.0, 2.0, 4.0], [10, 20])]:
            h = Histogram(np.array(edges), np.array(counts))
            with pytest.raises(ValueError, match="unknown family 'weibull'"):
                fit_binned(h, "weibull")

    def test_binned_bootstrap_well_specified(self):
        edges = np.exp(np.linspace(0.0, 12.0, 61))
        h = self.binned_from_model(PowerLawModel(1.8, 1.0), edges, 20_000, 143)
        fit = fit_binned(h, "powerlaw")
        p = bootstrap_pvalue_binned(h, fit, 100, SeededGenerator(144)).p
        assert p > 0.05

    def test_binned_lognormal_bootstrap_draws_from_the_fit(self):
        # A fit without a cutoff once kept the empirical bin probabilities,
        # so every replicate redrew the data's own histogram: p 0.58 here,
        # with a median replicate KS of 0.084 against the observed 0.083.
        values = np.random.default_rng(11).gamma(0.5, 1.0, 20_000) * 100.0
        h = bin_log(DurationSample(values), 5)
        fit = fit_binned(h, "lognormal")
        result = bootstrap_pvalue_binned(h, fit, 100, SeededGenerator(145))
        assert result.p < 0.05
        assert np.median(result.ks) < fit.ks / 4


class TestReportSchema:
    def test_powerlaw_row(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 500, SeededGenerator(160))
        row = fit_sample(s, "powerlaw", xmin=1.0)
        assert set(row) == {
            "dist", "gamma", "p", "xmin", "mu", "sigma", "loglik_p", "LR", "LR_p", "n"
        }
        assert row["dist"] == "powerlaw"
        assert row["mu"] is None and row["sigma"] is None
        assert row["n"] == 500

    def test_lognormal_row(self):
        s = sample_lognormal(LognormalModel(2.0, 1.0), 500, SeededGenerator(161))
        row = fit_sample(s, "lognormal", label="emails")
        assert row["dist"] == "emails"
        assert row["gamma"] is None and row["p"] is None
        assert row["mu"] is not None and row["sigma"] is not None

    def test_unknown_family_is_rejected(self):
        s = sample_lognormal(LognormalModel(2.0, 1.0), 500, SeededGenerator(161))
        with pytest.raises(ValueError, match="weibull"):
            fit_sample(s, "weibull")
