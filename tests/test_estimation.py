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
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
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
    edf,
    expected_counts,
    fit_binned,
    fit_edf_normal,
    fit_lognormal,
    fit_powerlaw_tail,
    ks_distance,
    sample_lognormal,
    sample_powerlaw,
)
from tailfit.binning import Histogram
from tailfit import estimation
from tailfit.binning import quantize
from tailfit.estimation import (
    FitConvergenceError,
    FitReport,
    _bootstrap,
    _draw_tail,
    bootstrap_pvalue_binned,
)


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
    m = n - i
    loglik = m * math.log(gamma - 1.0) + m * (gamma - 1.0) * math.log(xmin) - gamma * suffix[i]
    return FitReport("powerlaw", (float(gamma), xmin), xmin, m, ks, float(loglik), n)


@st.composite
def scan_inputs(draw):
    """Samples the pruned scan must get exactly right: all-distinct values,
    tie-heavy lattices floor(x/step)*step, a long run of equal top values
    (candidates in it have no spread above the cutoff), and few distinct
    values (tails shorter than one grid stride).
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
    def test_step_values(self):
        f = edf(DurationSample(np.array([1.0, 2.0, 2.0, 4.0])))
        assert f(0.5) == 0.0
        assert f(1.0) == 0.25
        assert f(2.0) == 0.75
        assert f(3.0) == 0.75
        assert f(4.0) == 1.0
        assert f.left_limit(2.0) == 0.25

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

    def test_ks_does_not_modify_input(self):
        x = np.array([3.0, 1.0, 2.0])
        ks_distance(x, lambda t: t / 3.0)
        assert x.tolist() == [3.0, 1.0, 2.0]

    def test_ks_peak_memory_on_sorted_input(self):
        # On a sorted array the cdf values and the two deviation buffers
        # are the only n-sized allocations: no sorted copy, no temporaries.
        n = 10**6
        x = np.sort(SeededGenerator(118).rng().lognormal(0.0, 1.0, n))
        cdf = LognormalModel(0.0, 1.0).cdf
        tracemalloc.start()
        try:
            ks_distance(x, cdf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n * 1.02


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

    def test_loglik_matches_model(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 500, SeededGenerator(103))
        fit = fit_powerlaw_tail(s, xmin=1.0)
        direct = float(np.sum(fit.model().logpdf(s.values)))
        assert fit.loglik == pytest.approx(direct, rel=1e-10)

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
        assert fit.loglik == expected.loglik

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
        assert all(type(v) is float for v in (*fit.params, fit.ks, fit.loglik))

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

    def test_truncated_loglik_is_tail_normalized(self):
        m = LognormalModel(2.0, 1.0)
        s = sample_lognormal(m, 5_000, SeededGenerator(112))
        xmin = float(np.median(s.values))
        fit = fit_lognormal(s, xmin=xmin)
        model = fit.model()
        tail = s.values[s.values >= xmin]
        direct = float(
            np.sum(model.logpdf(tail)) - tail.size * np.log1p(-model.cdf(xmin))
        )
        assert fit.loglik == pytest.approx(direct, rel=1e-6)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSampleError):
            fit_lognormal(DurationSample(np.array([2.0])))
        with pytest.raises(DegenerateSampleError):
            fit_lognormal(DurationSample(np.full(10, 2.0)))


class TestBootstrap:
    def test_well_specified_model_not_rejected(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 2_000, SeededGenerator(120))
        fit = fit_powerlaw_tail(s, max_candidates=100)
        p = bootstrap_pvalue(
            s, fit, 100, SeededGenerator(121), fit_options={"max_candidates": 100}
        ).p
        assert p > 0.05

    def test_reproducible(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 1_000, SeededGenerator(122))
        fit = fit_powerlaw_tail(s, max_candidates=50)
        opts = {"fit_options": {"max_candidates": 50}}
        p1 = bootstrap_pvalue(s, fit, 100, SeededGenerator(123), **opts).p
        p2 = bootstrap_pvalue(s, fit, 100, SeededGenerator(123), **opts).p
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
        fit = FitReport("lognormal", (0.0, 1.0), 1e4, 20, 0.5, 0.0, s.n)
        assert fit.model().cdf(1e4) == 1.0
        draws = _draw_tail(fit.model(), fit, 10_000, np.random.default_rng(129))
        assert np.all(np.isfinite(draws))
        assert np.all(draws >= 1e4)
        p = bootstrap_pvalue(s, fit, 100, SeededGenerator(130)).p
        assert 0.0 <= p <= 1.0

    def test_lognormal_bootstrap_runs(self):
        s = sample_lognormal(LognormalModel(3.0, 1.0), 1_000, SeededGenerator(126))
        fit = fit_lognormal(s)
        p = bootstrap_pvalue(s, fit, 100, SeededGenerator(127)).p
        assert 0.0 <= p <= 1.0
        assert p > 0.05


class TestBootstrapWorkers:
    """The replicate pool: results equal for every worker count, with the
    CPU cap lifted so that three workers really run on any host."""

    REPS = 101  # uneven over 2 and 3 workers and their index ranges

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(estimation, "_usable_cpus", lambda: 3)

    def by_workers(self, run):
        results = [run(w) for w in (1, 2, 3)]
        assert results[1] == results[0]
        assert results[2] == results[0]
        assert len(results[0].ks) == self.REPS
        return results[0]

    def test_powerlaw_quantized(self):
        s = sample_lognormal(LognormalModel(3.0, 1.5), 600, SeededGenerator(160))
        q, _ = quantize(s, 2.0)
        opts = {"max_candidates": 40}
        fit = fit_powerlaw_tail(q, **opts)
        result = self.by_workers(lambda w: bootstrap_pvalue(
            q, fit, self.REPS, SeededGenerator(161), fit_options=opts,
            quantize_step=2.0, workers=w,
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
        h = Histogram(edges, counts, "log")
        fit = fit_binned(h, "powerlaw")
        self.by_workers(lambda w: bootstrap_pvalue_binned(
            h, fit, self.REPS, SeededGenerator(165), workers=w
        ))

    def test_replicates_run_outside_the_caller(self):
        result = _bootstrap(lambda rng: float(os.getpid()), 0.0, self.REPS, SeededGenerator(0), 2)
        assert os.getpid() not in result.ks

    def test_failed_refits_counted_and_scored_as_hits(self):
        def replicate(rng):
            if rng.random() < 0.3:
                raise DegenerateSampleError("too few values")
            return 0.0

        result = self.by_workers(
            lambda w: _bootstrap(replicate, 0.5, self.REPS, SeededGenerator(166), w)
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
            _bootstrap(replicate, 0.0, self.REPS, SeededGenerator(0), 2)

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
            _bootstrap(lambda rng: 0.0, 0.0, 100, SeededGenerator(0), 0)


class TestCompareFamilies:
    def test_passed_fits_give_equal_report(self):
        s = sample_lognormal(LognormalModel(5.0, 1.5), 3_000, SeededGenerator(133))
        xmin = float(np.median(s.values))
        pl = fit_powerlaw_tail(s, xmin=xmin)
        ln = fit_lognormal(s, xmin=xmin)
        assert compare_families(s, xmin, powerlaw=pl, lognormal=ln) == compare_families(s, xmin)

    def test_rejects_fit_at_other_cutoff(self):
        s = sample_lognormal(LognormalModel(5.0, 1.5), 3_000, SeededGenerator(134))
        xmin = float(np.median(s.values))
        with pytest.raises(ValueError):
            compare_families(s, xmin, powerlaw=fit_powerlaw_tail(s, xmin=2 * xmin))
        with pytest.raises(ValueError):
            compare_families(s, xmin, lognormal=fit_powerlaw_tail(s, xmin=xmin))

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

    def test_lr_equals_loglik_difference(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 2_000, SeededGenerator(132))
        xmin = float(np.median(s.values))
        report = compare_families(s, xmin)
        assert report.lr == pytest.approx(
            report.powerlaw.loglik - report.lognormal.loglik, rel=1e-6
        )

    def test_degenerate_tail(self):
        s = DurationSample(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateSampleError):
            compare_families(s, xmin=10.0)


class TestBinnedFit:
    def binned_from_model(self, model, edges, n, seed):
        probs = np.diff(model.cdf(edges))
        probs = probs / probs.sum()
        counts = SeededGenerator(seed).rng().multinomial(n, probs)
        return Histogram(edges, counts, "log")

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

    def test_needs_three_nonempty_bins(self):
        h = Histogram(np.array([1.0, 2.0, 4.0]), np.array([10, 20]), "log")
        with pytest.raises(DegenerateSampleError):
            fit_binned(h, "lognormal")

    def test_unknown_family(self):
        h = Histogram(np.array([1.0, 2.0, 4.0, 8.0]), np.array([1, 2, 3]), "log")
        with pytest.raises(ValueError):
            fit_binned(h, "weibull")

    def test_binned_bootstrap_well_specified(self):
        edges = np.exp(np.linspace(0.0, 12.0, 61))
        h = self.binned_from_model(PowerLawModel(1.8, 1.0), edges, 20_000, 143)
        fit = fit_binned(h, "powerlaw")
        p = bootstrap_pvalue_binned(h, fit, 100, SeededGenerator(144)).p
        assert p > 0.05


class TestEdfNormalFit:
    def test_agrees_with_mle_on_clean_data(self):
        s = sample_lognormal(LognormalModel(4.0, 1.2), 5_000, SeededGenerator(150))
        fit = fit_edf_normal(s)
        assert not fit.misfit
        assert not fit.low_confidence
        assert fit.mu == pytest.approx(fit.mle_mu, abs=0.05)
        assert fit.sigma == pytest.approx(fit.mle_sigma, abs=0.05)

    def test_flags_contaminated_data(self):
        # A heavy small-value excess drags the MLE away from the EDF shape.
        g = SeededGenerator(151)
        clean = sample_lognormal(LognormalModel(4.0, 0.5), 4_000, g)
        excess = np.full(2_000, 1e-4)
        s = DurationSample(np.concatenate([clean.values, excess]))
        fit = fit_edf_normal(s)
        assert fit.misfit

    def test_low_confidence_flag(self):
        s = DurationSample(np.array([1.0, 2.0, 4.0, 9.0]))
        fit = fit_edf_normal(s)
        assert fit.low_confidence


class TestReportSchema:
    def test_powerlaw_row(self):
        s = sample_powerlaw(PowerLawModel(2.0, 1.0), 500, SeededGenerator(160))
        row = fit_powerlaw_tail(s, xmin=1.0).to_json_dict()
        assert set(row) == {"dist", "gamma", "p", "xmin", "mu", "sigma", "loglik_p", "LR", "n"}
        assert row["dist"] == "powerlaw"
        assert row["mu"] is None and row["sigma"] is None
        assert row["n"] == 500

    def test_lognormal_row(self):
        s = sample_lognormal(LognormalModel(2.0, 1.0), 500, SeededGenerator(161))
        row = fit_lognormal(s).to_json_dict(dist="emails")
        assert row["dist"] == "emails"
        assert row["gamma"] is None and row["p"] is None
        assert row["mu"] is not None and row["sigma"] is not None
