"""Acceptance gate: nine end-to-end statistical criteria.

Each test prints one PASS line with its headline numbers (run with -s
to see them). These are the binding checks for the package: estimator
recovery at stated tolerances, seeded multi-run discrimination rates,
closed-form identities, deformation of a lognormal under quantization,
and a 10^7-event scale/determinism run.
"""
import csv
import hashlib
import json
import math
import resource
import time

import numpy as np
import pytest
from scipy import stats

from tailfit import (
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
    interevent_durations,
    parse_events,
    quantize,
    rescale,
    sample_exp_of_exponential,
    sample_lognormal,
    sample_powerlaw,
)
from tailfit.estimation import bootstrap_pvalue_binned
from tailfit.synthesis import run_gibrat, GibratProcess


def test_sigma_invariance_under_rescaling():
    # Criterion 1: expressing a lognormal sample in minutes or hours must
    # leave sigma-hat untouched (1e-12) and shift mu-hat by ln b (1e-3).
    t0 = time.time()
    s = sample_lognormal(LognormalModel(10.0, 2.0), 10**6, SeededGenerator(201))
    base = fit_lognormal(s)
    for b in (1.0 / 60.0, 1.0 / 3600.0):
        fit = fit_lognormal(rescale(s, b))
        assert abs(fit.params[1] - base.params[1]) < 1e-12
        assert fit.params[0] - base.params[0] == pytest.approx(math.log(b), abs=1e-3)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(
        f"PASS sigma-invariance: sigma drift < 1e-12, mu shifts ln(1/60), "
        f"ln(1/3600) within 1e-3 at n=1e6 ({elapsed:.1f}s)"
    )


def test_binning_deformation():
    # Criterion 2: hour-quantizing a lognormal duration sample must make
    # the binned power-law fit land in the apparent-exponent band
    # [1.5, 2.1] and raise the bootstrap p-value above the
    # seconds-resolution power-law p-value, in >= 18 of 20 seeded runs.
    t0 = time.time()
    successes = 0
    details = []
    for seed in range(20):
        s = sample_lognormal(
            LognormalModel(10.45, 2.75), 41184, SeededGenerator(1000 + seed)
        )
        # Seconds side: the cutoff scan must keep at least ~5% of the
        # sample in the tail, so the fit cannot retreat into a deep tail
        # where any smooth density looks locally straight.
        scan = {"max_candidates": 150, "min_tail": 2000}
        seconds_fit = fit_powerlaw_tail(s, **scan)
        p_seconds = bootstrap_pvalue(
            s, seconds_fit, 100, SeededGenerator(2000 + seed), fit_options=scan
        ).p
        q, _ = quantize(s, 3600.0)
        h = bin_log(q, 5)
        binned = {"min_tail": 350}
        quantized_fit = fit_binned(h, "powerlaw", **binned)
        p_quantized = bootstrap_pvalue_binned(
            h, quantized_fit, 100, SeededGenerator(3000 + seed), fit_options=binned
        ).p
        gamma = quantized_fit.params[0]
        ok = 1.5 <= gamma <= 2.1 and p_quantized > p_seconds
        successes += ok
        details.append((seed, round(gamma, 3), p_seconds, p_quantized, ok))
    elapsed = time.time() - t0
    gammas = [d[1] for d in details]
    status = "PASS" if successes >= 18 and elapsed < 300.0 else "FAIL"
    print(
        f"{status} binning-deformation: {successes}/20 runs with gamma in "
        f"[1.5, 2.1] (range {min(gammas)}..{max(gammas)}) and "
        f"p_quantized > p_seconds ({elapsed:.0f}s)"
    )
    assert successes >= 18, details
    assert elapsed < 300.0


def test_effective_exponent_three_decade_bound():
    # Criterion 3: for sigma = 3.4 the local exponent of a lognormal
    # changes by 3 ln(10) / (2 sigma^2) < 0.3 over any three decades.
    m = LognormalModel(7.0, 3.4)
    closed_form = 3.0 * math.log(10.0) / (2.0 * 3.4**2)
    for t in (1.0, 50.0, 1e4, 1e8):
        delta = m.effective_exponent(t * 1000.0) - m.effective_exponent(t)
        assert delta == pytest.approx(closed_form, rel=1e-12)
    assert closed_form < 0.3
    print(
        f"PASS effective-exponent-bound: variation over three decades "
        f"= {closed_form:.6f} < 0.3 for sigma=3.4"
    )


def test_estimator_recovery():
    # Criterion 4: gamma-hat within +-0.01 at n=1e5 for two power-law
    # parameter sets; (mu, sigma) within +-0.03 for the lognormal.
    t0 = time.time()
    recovered = []
    for gamma, tau, seed in ((1.53, 59.0, 211), (2.03, 12.0, 212)):
        s = sample_powerlaw(PowerLawModel(gamma, tau), 10**5, SeededGenerator(seed))
        fit = fit_powerlaw_tail(s, xmin=tau)
        assert fit.params[0] == pytest.approx(gamma, abs=0.01)
        recovered.append(round(fit.params[0], 4))
    s = sample_lognormal(LognormalModel(10.45, 2.75), 10**5, SeededGenerator(213))
    fit = fit_lognormal(s)
    assert fit.params[0] == pytest.approx(10.45, abs=0.03)
    assert fit.params[1] == pytest.approx(2.75, abs=0.03)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"PASS estimator-recovery: gamma {recovered} for (1.53, 2.03), "
        f"lognormal ({fit.params[0]:.3f}, {fit.params[1]:.3f}) for (10.45, 2.75) "
        f"({elapsed:.1f}s)"
    )


def test_family_discrimination():
    # Criterion 5: the log-likelihood ratio on a common tail must be
    # negative on lognormal data and positive on power-law data in
    # >= 19 of 20 seeded runs at n=1e5.
    t0 = time.time()
    correct = 0
    lrs = []
    for seed in range(20):
        ln_s = sample_lognormal(
            LognormalModel(10.45, 2.75), 10**5, SeededGenerator(4000 + seed)
        )
        pl_s = sample_powerlaw(
            PowerLawModel(2.03, 12.0), 10**5, SeededGenerator(4100 + seed)
        )
        ln_rep = compare_families(ln_s, xmin=float(np.median(ln_s.values)))
        pl_rep = compare_families(pl_s, xmin=float(np.median(pl_s.values)))
        correct += ln_rep.lr < 0 and pl_rep.lr > 0
        lrs.append((round(ln_rep.lr, 1), round(pl_rep.lr, 1)))
    elapsed = time.time() - t0
    assert correct >= 19, lrs
    assert elapsed < 120.0
    print(
        f"PASS family-discrimination: {correct}/20 runs with LR<0 on lognormal "
        f"and LR>0 on power-law data ({elapsed:.0f}s)"
    )


def test_gibrat_clt():
    # Criterion 6: after 400 multiplicative steps with xi ~ N(0.01, 0.1^2)
    # the log-sizes are N(ln S0 + 4, 4); the lognormal MLE on the final
    # sizes recovers (4, 2) within three standard errors.
    t0 = time.time()
    p = GibratProcess(s0=1.0, steps=400, agents=10**4, xi_mean=0.01, xi_std=0.1)
    sizes = run_gibrat(p, SeededGenerator(221))
    final = sizes[:, -1]
    _, ks_p = stats.kstest(np.log(final), "norm", args=(4.0, 2.0))
    assert ks_p > 0.01
    fit = fit_lognormal(DurationSample(np.sort(final)))
    mu_hat, sigma_hat = fit.params
    se_mu = 2.0 / math.sqrt(10**4)
    se_sigma = 2.0 / math.sqrt(2 * 10**4)
    assert abs(mu_hat - 4.0) < 3 * se_mu
    assert abs(sigma_hat - 2.0) < 3 * se_sigma
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(
        f"PASS gibrat-clt: KS p={ks_p:.3f} vs N(4, 4), MLE ({mu_hat:.3f}, "
        f"{sigma_hat:.3f}) within 3 SE of (4, 2) ({elapsed:.1f}s)"
    )


def test_powerlaw_from_exponential():
    # Criterion 7: exponentiating an exponential with rate gamma-1 gives
    # the same law as inverse-transform power-law sampling.
    t0 = time.time()
    a = sample_exp_of_exponential(1.53, 59.0, 10**5, SeededGenerator(231))
    b = sample_powerlaw(PowerLawModel(1.53, 59.0), 10**5, SeededGenerator(232))
    # Compare in log space; the KS statistic is invariant but the
    # two-sample machinery is happier without 1e80-scale values.
    _, p = stats.ks_2samp(np.log(a.values), np.log(b.values))
    assert p > 0.01
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"PASS powerlaw-from-exponential: two-sample KS p={p:.3f} ({elapsed:.1f}s)")


def test_analytic_identity_suite():
    # Criterion 8: moment round-trip, effective-exponent pdf identity,
    # log-log quadratic, tail probability vs Monte-Carlo, histogram
    # expected counts vs observed.
    t0 = time.time()
    m = LognormalModel(10.45, 2.75)
    back = LognormalModel.from_moments(*m.moments())
    assert abs(back.mu - m.mu) < 1e-10 and abs(back.sigma - m.sigma) < 1e-10

    t = np.exp(np.linspace(-2.0, 24.0, 101))
    alpha = m.effective_exponent(t)
    np.testing.assert_allclose(
        m.powerlaw_prefactor() * t**(-alpha), m.pdf(t), rtol=1e-12
    )
    a2, a1, a0 = m.loglog_coefficients()
    x = np.log(t)
    np.testing.assert_allclose(a2 * x**2 + a1 * x + a0, m.logpdf(t), atol=1e-12)

    pl = PowerLawModel(2.0, 1.0)
    s = sample_powerlaw(pl, 10**6, SeededGenerator(241))
    for kappa in (10.0, 100.0):
        mc = float(np.mean(s.values > kappa))
        assert mc == pytest.approx(pl.tail_probability(kappa), abs=0.003)

    ln_s = sample_lognormal(LognormalModel(3.0, 1.0), 10**5, SeededGenerator(242))
    h = bin_log(ln_s, 5)
    exp_counts = expected_counts(LognormalModel(3.0, 1.0), h.edges, ln_s.n)
    mask = exp_counts >= 10
    dev = np.abs(h.counts[mask] - exp_counts[mask]) / np.sqrt(exp_counts[mask])
    assert float(np.max(dev)) < 4.0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"PASS analytic-identities: moments 1e-10, alpha/log-log 1e-12, "
        f"tail MC within 0.003, histogram max dev {float(np.max(dev)):.2f} sigma "
        f"({elapsed:.1f}s)"
    )


def _generate_event_csv(path, n_events, seed):
    # 200 actors, lognormal gaps, cumulative timestamps; written in
    # bounded-size chunks so generation itself stays in bounded memory.
    actors = 200
    per_actor = n_events // actors
    rng = SeededGenerator(seed).rng()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["actor", "timestamp"])
        for a in range(actors):
            gaps = np.exp(rng.normal(4.0, 1.0, size=per_actor))
            ts = np.cumsum(gaps)
            name = f"u{a}"
            writer.writerows(zip([name] * per_actor, (f"{t:.6f}" for t in ts)))


def _ingest_and_fit(path):
    with open(path) as fh:
        sample, summary = interevent_durations(parse_events(fh))
    payload = {
        "summary": summary.to_dict(),
        "lognormal": fit_sample(sample, "lognormal"),
        "powerlaw": fit_sample(sample, "powerlaw", xmin=math.exp(5.0)),
        "sha256": hashlib.sha256(sample.values.tobytes()).hexdigest(),
    }
    return json.dumps(payload, sort_keys=True).encode()


def test_pipeline_determinism_and_scale(tmp_path):
    # Criterion 9: a 10^7-event log ingests and fits byte-reproducibly
    # under a fixed seed, in bounded memory and bounded time.
    t0 = time.time()
    outputs = []
    for run in range(2):
        path = tmp_path / f"events_{run}.csv"
        _generate_event_csv(path, 10**7, seed=251)
        outputs.append(_ingest_and_fit(path))
        path.unlink()  # bounded disk as well
    assert outputs[0] == outputs[1]
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    assert peak_gb < 4.0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(
        f"PASS pipeline-determinism: two runs byte-identical "
        f"({len(outputs[0])} bytes), peak RSS {peak_gb:.2f} GB, {elapsed:.0f}s"
    )
