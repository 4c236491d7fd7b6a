"""The numpy normal kernels: edge values, agreement with scipy.special and
with 50-digit values, and the monotonicity the pruned KS relies on."""
import math

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfit import estimation, normal
from tailfit.distributions import LognormalModel

SQRT2 = math.sqrt(2.0)
E2 = math.exp(-2.0)
LOG1P_M_E2 = math.log1p(-E2)


def ulps(a, b) -> np.ndarray:
    """|a - b| in units in the last place of the larger; 0 where equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        d = np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.where(same, 0.0, d)


def around(*points, k=3):
    """Each point and its k float64 neighbours on either side."""
    out = []
    for p in points:
        v = p
        for _ in range(k):
            v = np.nextafter(v, -np.inf)
        for _ in range(2 * k + 1):
            out.append(v)
            v = np.nextafter(v, np.inf)
    return np.array(out)


# Both sides of every branch point: erf/erfc at |x| = 1/sqrt(2), 1 and 8
# (a = +-1, +-sqrt(2), +-8 sqrt(2)), erfc's underflow, the deep log tail
# at -sqrt(2), the old log_ndtr branches at 6 and -20, ndtri's exp(-2),
# 1 - exp(-2) and exp(-32), ndtri_exp's -2 and log1p(-exp(-2)).
BRANCH_POINTS = {
    "ndtr": around(-1.0, 1.0, -SQRT2, SQRT2, -8 * SQRT2, 8 * SQRT2, -37.5, -37.67, 6.0, -20.0),
    "log_ndtr": around(-SQRT2, SQRT2, -8 * SQRT2, 0.0, 6.0, -20.0, -1e8 * SQRT2, -37.5),
    "ndtri": around(E2, 1.0 - E2, math.exp(-32.0), 0.5),
    "ndtri_exp": around(-2.0, LOG1P_M_E2, -32.0),
}


@pytest.mark.parametrize("name", sorted(BRANCH_POINTS))
def test_both_sides_of_each_branch_point_match_scipy(name):
    x = BRANCH_POINTS[name]
    assert ulps(getattr(normal, name)(x), getattr(sc, name)(x)).max() <= 8


@pytest.mark.parametrize(
    "name, x, want",
    [
        ("ndtr", [np.inf, -np.inf, np.nan, 0.0, -0.0], [1.0, 0.0, np.nan, 0.5, 0.5]),
        ("log_ndtr", [np.inf, -np.inf, np.nan, 0.0, -0.0],
         [-0.0, -np.inf, np.nan, math.log(0.5), math.log(0.5)]),
        ("ndtri", [0.0, -0.0, 1.0, 0.5, np.nan, -1e-300, 1.0 + 2**-52, np.inf, -np.inf],
         [-np.inf, -np.inf, np.inf, 0.0, np.nan, np.nan, np.nan, np.nan, np.nan]),
        ("ndtri_exp", [-np.inf, 0.0, -0.0, np.nan, 1e-300, np.inf],
         [-np.inf, np.inf, np.inf, np.nan, np.nan, np.nan]),
    ],
)
def test_special_values(name, x, want):
    got = getattr(normal, name)(np.array(x))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, getattr(sc, name)(np.array(x)))
    # log Phi(inf) is -0.0, as log1p(-0.0) is.
    if name == "log_ndtr":
        assert np.signbit(got[0])


def test_ndtr_tail_edges():
    # Below -37.5 Phi is subnormal until erfc's exp(-x^2) passes Cephes'
    # MAXLOG, where it is 0; above 8.3 it rounds to 1.
    x = np.array([-37.5, -37.6, -37.67, -37.7, -38.5, -40.0, 8.3, 40.0])
    got = normal.ndtr(x)
    assert 0.0 < got[1] < np.finfo(float).tiny
    assert got[3] == got[4] == got[5] == 0.0
    assert got[6] == got[7] == 1.0
    assert ulps(got, sc.ndtr(x)).max() <= 4


def test_log_ndtr_far_tails():
    x = np.array([-1e5, -1e8, -1e10, -1.8e154, -1.9e154, -1e300, 40.0, 10.0])
    got = normal.log_ndtr(x)
    # -1e5: -a^2/2 - log(-a) - log(sqrt(2 pi)) to 50 digits (mpmath).
    assert got[0] == pytest.approx(-5000000012.43186399827490116184528700984, rel=2.3e-16)
    assert ulps(got[:5], sc.log_ndtr(x[:5])).max() <= 4
    assert got[5] == -np.inf
    assert got[6] == -0.0 and np.signbit(got[6])
    assert ulps(got[7], sc.log_ndtr(10.0)) <= 8


def test_ndtri_edges():
    p = np.array([5e-324, 2.2e-308, 1e-300, 1.0 - 2**-53, 2**-53, 0.5 - 2**-54, 0.5 + 2**-53])
    got = normal.ndtri(p)
    assert ulps(got, sc.ndtri(p)).max() <= 4
    # 50-digit values (mpmath).
    assert got[0] == pytest.approx(-38.4674056171443462507843621685, rel=4.5e-16)
    assert got[3] == pytest.approx(8.20953615160138685563076877867, rel=4.5e-16)


def test_ndtri_exp_edges():
    y = np.array([-2.0, np.nextafter(-2.0, 0.0), LOG1P_M_E2, np.nextafter(LOG1P_M_E2, 0.0),
                  -1e300, -1e-300, -745.0, -0.5])
    got = normal.ndtri_exp(y)
    assert ulps(got, sc.ndtri_exp(y)).max() <= 4
    assert got[4] == pytest.approx(-1.41421356237309508592816074524e150, rel=4.5e-16)


def test_shapes_and_scalars():
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    for name in ("ndtr", "log_ndtr"):
        f = getattr(normal, name)
        assert f(x).shape == (3, 4)
        assert isinstance(f(0.25), np.float64)
        assert f(0.25) == f(np.array([0.25]))[0]
    assert normal.ndtri(np.array([[0.1, 0.9]])).shape == (1, 2)
    assert normal.ndtri_exp(np.zeros((0,))).shape == (0,)
    # The input is never written to.
    big = np.linspace(-40.0, 40.0, 100_005)
    keep = big.copy()
    for f in (normal.ndtr, normal.log_ndtr):
        f(big)
    np.testing.assert_array_equal(big, keep)


def test_values_do_not_depend_on_the_rest_of_the_array():
    # Random order, so each part mixes branches.
    x = np.random.default_rng(4).uniform(-40.0, 10.0, 100_003)
    for name in ("ndtr", "log_ndtr"):
        f = getattr(normal, name)
        whole = f(x)
        parts = np.concatenate([f(x[i:i + 1000]) for i in range(0, x.size, 1000)])
        np.testing.assert_array_equal(whole, parts)
    p = np.random.default_rng(5).random(100_007)
    parts = np.concatenate([normal.ndtri(p[:9]), normal.ndtri(p[9:])])
    np.testing.assert_array_equal(normal.ndtri(p), parts)


@settings(max_examples=300, deadline=None)
@given(st.floats(-37.0, 37.0))
def test_log_ndtr_float(a):
    # By math.erfc: as near scipy's log_ndtr and the kernel as the rounding
    # of their exp(-a^2/2) allows.
    got = normal.log_ndtr_float(a)
    assert isinstance(got, float)
    for want in (float(sc.log_ndtr(a)), float(normal.log_ndtr(a))):
        assert abs(got - want) <= 4.0 * (1.0 + a * a) * 2.0**-52 * abs(want)


def sorted_arguments():
    """Sorted arrays around a random centre: consecutive floats and nearby
    random ones, so each kernel meets neighbours within its last bits."""
    return st.builds(
        lambda seed, centre, width: np.sort(np.concatenate([
            centre + np.arange(-300, 300) * np.spacing(abs(centre) + 1e-300),
            centre + np.random.default_rng(seed).uniform(-width, width, 600),
        ])),
        st.integers(0, 2**32 - 1), st.floats(-38.0, 38.0), st.floats(1e-12, 2.0),
    )


@settings(max_examples=300, deadline=None)
@given(sorted_arguments())
def test_ndtr_monotone_on_sorted_input_within_slack(x):
    # The pruned KS bounds runs between two grid runs by the cdf at those
    # two; that needs the cdf to fall below its running maximum by at most
    # KS_SLACK (it does by at most one unit in the last place of 1).
    f = normal.ndtr(x)
    assert np.max(np.maximum.accumulate(f) - f) <= estimation.KS_SLACK / 8


@settings(max_examples=300, deadline=None)
@given(sorted_arguments(), st.floats(-1.5, 40.0))
def test_tail_survival_monotone_on_sorted_input_within_slack(z, z0):
    # The truncated fit's conditional cdf 1 - S(t)/S(xmin) from
    # log-survivals log_ndtr(-z): nondecreasing in z up to the part of
    # fit_lognormal's slack that is the kernel's, 4 KS_SLACK (1 + |log S(xmin)|).
    z = z[z >= z0]
    if z.size == 0:
        return
    log_sf0 = float(normal.log_ndtr(-z0))
    f = -np.expm1(normal.log_ndtr(-z) - log_sf0)
    slack = 4.0 * estimation.KS_SLACK * (1.0 + abs(log_sf0))
    assert np.max(np.maximum.accumulate(f) - f) <= slack / 8


def sorted_durations():
    """(mu, sigma, t): sorted t around a random centre exp(y), consecutive
    floats and nearby random ones, with the centre at z-score z of a
    lognormal of log-location mu and spread sigma."""
    def build(seed, y, z, sigma, width):
        t = np.exp(y)
        near = t * np.exp(np.random.default_rng(seed).uniform(-width, width, 600) * sigma)
        x = np.concatenate([t + np.arange(-300, 300) * np.spacing(t), near])
        return y - z * sigma, sigma, np.sort(x)

    return st.builds(
        build, st.integers(0, 2**32 - 1), st.floats(-30.0, 30.0), st.floats(-8.0, 8.0),
        st.floats(1e-4, 3.0), st.floats(1e-12, 2.0),
    )


@settings(max_examples=300, deadline=None)
@given(sorted_durations())
def test_lognormal_cdf_monotone_on_sorted_input_within_slack(case):
    # Phi((ln t - mu)/sigma) as LognormalModel.cdf takes it, numpy's log
    # included, against the slack fit_lognormal gives the untruncated fit.
    mu, sigma, t = case
    f = LognormalModel(mu, sigma).cdf(t)
    y = np.log(t)
    slack = estimation._lognormal_ks_slack(y[0], y[-1], mu, sigma)
    assert np.max(np.maximum.accumulate(f) - f) <= slack / 4


@settings(max_examples=300, deadline=None)
@given(sorted_durations(), st.floats(-1.5, 40.0))
def test_truncated_lognormal_cdf_monotone_on_sorted_input_within_slack(case, z0):
    # 1 - S(t)/S(xmin) from LognormalModel.logsf, as the truncated fit
    # takes it, with xmin at z-score z0, against its slack.
    mu, sigma, t = case
    xmin = math.exp(mu + z0 * sigma)
    t = t[t >= xmin]
    if t.size == 0:
        return
    model = LognormalModel(mu, sigma)
    log_sf0 = model.logsf(xmin)
    f = -np.expm1(model.logsf(t) - log_sf0)
    y = np.log(t)
    z_xmin = (math.log(xmin) - mu) / sigma
    slack = estimation._lognormal_ks_slack(y[0], y[-1], mu, sigma, log_sf0, z_xmin)
    assert np.max(np.maximum.accumulate(f) - f) <= slack / 4
