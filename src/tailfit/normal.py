"""The standard normal cdf, its logarithm and its inverse, with numpy alone.

``ndtr``, ``log_ndtr``, ``ndtri`` and ``ndtri_exp`` act elementwise on
float64 arrays (a numpy scalar for a 0-d input), as the ``scipy.special``
functions of the same names do, and use the same approximations:

- Phi and its complement through Cephes' erf and erfc (Moshier 1989,
  *Methods and Programs for Mathematical Functions*; rational
  approximations after Cody 1969, Math. Comp. 23:631-637): an odd
  rational function of x for |x| < 1, and erfc(x) = exp(-x^2) P(x)/Q(x)
  from x = 1 on, with one pair of polynomials below 8 and another above.
- ``log_ndtr(a)`` below -sqrt(2) as log(erfcx(t) / 2) - a^2/2, t = -a/sqrt(2),
  with erfcx(t) = erfc(t) exp(t^2) the rational part of that erfc, so
  that the deep tail keeps its digits where Phi underflows; log Phi(a)
  up to 0 and log1p(-Phi(-a)) above it.
- ``ndtri`` is Cephes' inverse: a rational function of p - 1/2 for
  exp(-2) < p <= 1 - exp(-2), and of 1/x with x = sqrt(-2 log p) in the
  tails, one pair of polynomials for x < 8 and another from there on.
- ``ndtri_exp(y)``, the inverse of ``log_ndtr``, is scipy's: the tail
  expression of ``ndtri`` on x = sqrt(-2 y) below -2,
  -ndtri(-expm1(y)) above log1p(-exp(-2)), and ndtri(exp(y)) between.

The coefficients are Cephes' own, digit for digit. Outputs agree with
scipy's to a few units in the last place, but not always bit for bit,
since numpy's exp and log can round differently from the C library's
(``tools/check_normal.py`` sweeps both against scipy and against
50-digit reference values).

``log_ndtr_float`` is log Phi of one float by ``math.erfc``, for callers
that take one value at a time away from the deep lower tail, such as the
Newton steps of the truncated lognormal fit.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT2 = 1.41421356237309504880
_SQRT1_2 = 0.70710678118654752440
_SQRT_2PI = 2.50662827463100050242
_RSQRT_PI = 0.56418958354775628695  # 1 / sqrt(pi)
# Cephes' MAXLOG: erfc(x) is 0 once x^2 exceeds it.
_MAXLOG = 7.09782712893383996843e2
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_ONE_M_EXP_M2 = 1.0 - _EXP_M2
_LOG1P_M_EXP_M2 = math.log1p(-math.exp(-2.0))
# From here on erfcx(t) is 1 / (t sqrt(pi)) to float64 precision, and the
# polynomials below would overflow long before float64 does.
_ERFCX_ASYMPTOTIC = 1e8
# erfc(z) is 0 from here on (z^2 > _MAXLOG); Phi's rational part needs no
# larger argument.
_ERFC_ZERO = 27.0
_HALF_MAX = 0.5 * np.finfo(float).max

# erf(x) = x T(x^2) / U(x^2) on |x| <= 1.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8 ...
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# ... and exp(-x^2) R(x) / S(x) from 8 on.
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# ndtri(p) = sqrt(2 pi) (y + y y^2 P0(y^2) / Q0(y^2)), y = p - 1/2, for
# exp(-2) < p <= 1 - exp(-2) ...
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# ... and x - log(x)/x - z P(z) / Q(z), z = 1/x, x = sqrt(-2 log p) in the
# tails: P1/Q1 for 2 <= x < 8 ...
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# ... and P2/Q2 from 8 on.
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coefs):
    """coefs[0] x^N + ... + coefs[N] by Horner's rule, in Cephes' order of
    operations (a new array)."""
    r = x * coefs[0]
    r += coefs[1]
    for c in coefs[2:]:
        r *= x
        r += c
    return r


def _p1evl(x, coefs):
    """The same with a leading coefficient 1 that ``coefs`` leaves out."""
    r = x + coefs[0]
    for c in coefs[1:]:
        r *= x
        r += c
    return r


def _erf_small(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    r = x * _polevl(z, _T)
    r /= _p1evl(z, _U)
    return r


def _erfc_terms(t):
    """(P(t), Q(t)) with erfc(t) = exp(-t^2) P(t) / Q(t), for 1 <= t <
    _ERFCX_ASYMPTOTIC."""
    far = _positions(t >= 8.0)
    if far is None:
        return _polevl(t, _P), _p1evl(t, _Q)
    p, q = np.empty_like(t), np.empty_like(t)
    near = _positions(t < 8.0)
    if near is not None:
        p[near], q[near] = _polevl(t[near], _P), _p1evl(t[near], _Q)
    p[far], q[far] = _polevl(t[far], _R), _p1evl(t[far], _S)
    return p, q


def _positions(mask):
    """Where ``mask`` holds: a slice if that is one run of positions (as on
    sorted input), else their indices; None where it holds nowhere."""
    count = int(np.count_nonzero(mask))
    if count == 0:
        return None
    lo = int(mask.argmax())
    if mask[lo:lo + count].all():
        return slice(lo, lo + count)
    return np.flatnonzero(mask)


def _apply(formula, x, mask, out):
    """out[mask] = formula(x[mask]), for flat arrays."""
    sel = _positions(mask)
    if sel is not None:
        out[sel] = formula(x[sel])


def _elementwise(kernel, a):
    """``kernel`` on ``a`` as a flat float64 array, shaped like ``a`` (a
    numpy float64 scalar for a 0-d ``a``), floating-point warnings off."""
    a = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        out = kernel(a.reshape(-1))
    return out.reshape(a.shape) if a.ndim else out[0]


def ndtr(a):
    """Phi(a), the standard normal cdf, elementwise."""
    return _elementwise(_ndtr, a)


def _ndtr(a):
    x = a * _SQRT1_2
    out = np.empty_like(x)
    outer = np.abs(x) >= 1.0
    _apply(_ndtr_inner, x, ~outer, out)
    _apply(_ndtr_outer, x, outer, out)
    return out


def _ndtr_inner(x):
    """Phi for |x| < 1 (and nan), x = a/sqrt(2): 1/2 + erf(x)/2. Cephes
    writes it as erfc(|x|)/2, or 1 minus that, from |x| = 1/sqrt(2) on,
    with erfc = 1 - erf there; both round to the same float64, as
    1 - erf(|x|) is exact there."""
    r = _erf_small(x)
    r *= 0.5
    r += 0.5
    return r


def _ndtr_outer(x):
    """Phi for |x| >= 1: erfc(|x|)/2, or 1 minus it for x > 0, with
    erfc(z) = (exp(-z^2) P(z)) / Q(z), and 0 once z^2 exceeds _MAXLOG."""
    z = np.abs(x)
    e = z * -z
    e[e < -_MAXLOG] = -np.inf
    np.exp(e, out=e)
    p, q = _erfc_terms(np.minimum(z, _ERFC_ZERO))
    e *= p
    e /= q
    e *= 0.5
    np.subtract(1.0, e, out=e, where=x > 0.0)
    return e


def log_ndtr(a):
    """log Phi(a), elementwise."""
    return _elementwise(_log_ndtr, a)


def log_ndtr_float(a: float) -> float:
    """log Phi(a) for one float a > -37, by ``math.erfc``: without numpy's
    per-call cost, for callers that take one value at a time. erfc(-a/sqrt(2))
    underflows below about -37.5, where ``log_ndtr`` still holds its digits."""
    if a > 0.0:
        return math.log1p(-0.5 * math.erfc(a * _SQRT1_2))
    return math.log(0.5 * math.erfc(a * -_SQRT1_2))


def _log_ndtr(a):
    out = np.empty_like(a)
    deep = a < -_SQRT2
    _apply(_log_ndtr_deep, a, deep, out)
    _apply(_log_ndtr_rest, a, ~deep, out)
    return out


def _log_ndtr_deep(a):
    """log Phi(a) below -sqrt(2): log(erfcx(t)/2) - a^2/2, t = -a/sqrt(2)."""
    t = a * -_SQRT1_2
    huge = _positions(t >= _ERFCX_ASYMPTOTIC)
    if huge is None:
        r, q = _erfc_terms(t)
        r /= q
    else:
        r = _RSQRT_PI / t
        rest = _positions(t < _ERFCX_ASYMPTOTIC)
        if rest is not None:
            p, q = _erfc_terms(t[rest])
            r[rest] = p / q
    r *= 0.5
    np.log(r, out=r)
    sq = a * 0.5  # exact; a^2/2 overflows only where it must
    sq *= a
    r -= sq
    return r


def _log_ndtr_rest(a):
    """log Phi(a) from -sqrt(2) up (and nan): log Phi(a) to 0,
    log1p(-Phi(-a)) above."""
    r = _ndtr(-np.abs(a))
    upper = a > 0.0
    np.log(r, out=r, where=~upper)
    np.negative(r, out=r, where=upper)
    np.log1p(r, out=r, where=upper)
    return r


def ndtri(p):
    """The standard normal quantile Phi^-1(p), elementwise: -inf at 0, inf
    at 1 and nan outside [0, 1]."""
    return _elementwise(_ndtri, p)


def _ndtri(p):
    out = np.empty_like(p)
    upper = p > _ONE_M_EXP_M2
    central = (p > _EXP_M2) & ~upper
    _apply(_ndtri_central, p, central, out)
    _apply(_ndtri_upper, p, upper, out)
    _apply(_ndtri_lower, p, ~(central | upper), out)
    return out


def _ndtri_central(p):
    """Phi^-1(p) for exp(-2) < p <= 1 - exp(-2): a rational function of
    y = p - 1/2."""
    y = p - 0.5
    y2 = y * y
    r = _polevl(y2, _P0)
    r *= y2
    r /= _p1evl(y2, _Q0)
    r *= y
    r += y
    r *= _SQRT_2PI
    return r


def _ndtri_lower(p):
    """Phi^-1(p) for p <= exp(-2) (and nan): -(the tail expression of
    x = sqrt(-2 log p)); -inf at 0, nan below."""
    r = _ndtri_tail(p)
    return np.negative(r, out=r)


def _ndtri_upper(p):
    """Phi^-1(p) for p > 1 - exp(-2): the tail expression of
    x = sqrt(-2 log(1 - p)); inf at 1, nan above."""
    return _ndtri_tail(1.0 - p)


def _ndtri_tail(y):
    """x - log(x)/x - z P(z)/Q(z), z = 1/x, x = sqrt(-2 log y), for
    y <= exp(-2): -Phi^-1(y); inf at 0."""
    x = np.log(y)
    x *= -2.0
    np.sqrt(x, out=x)
    r = _ndtri_tail_of(x)
    r[y == 0.0] = np.inf
    return r


def _ndtri_tail_of(x):
    """x - log(x)/x - z P(z)/Q(z), z = 1/x, for x >= 2: -Phi^-1(p) for
    p = exp(-x^2/2)."""
    z = 1.0 / x
    r = np.log(x)
    r /= x
    np.subtract(x, r, out=r)
    far = _positions(x >= 8.0)
    if far is None:
        x1 = _polevl(z, _P1)
        x1 *= z
        x1 /= _p1evl(z, _Q1)
    else:
        x1 = np.empty_like(z)
        near = _positions(x < 8.0)
        if near is not None:
            zn = z[near]
            x1[near] = zn * _polevl(zn, _P1) / _p1evl(zn, _Q1)
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    r -= x1
    return r


def ndtri_exp(y):
    """The inverse of ``log_ndtr``: Phi^-1(exp(y)), elementwise, for y <= 0."""
    return _elementwise(_ndtri_exp, y)


def _ndtri_exp(y):
    out = np.empty_like(y)
    small = y < -2.0
    big = y > _LOG1P_M_EXP_M2
    _apply(_ndtri_exp_small, y, small, out)
    _apply(lambda v: -_ndtri(-np.expm1(v)), y, big, out)
    _apply(lambda v: _ndtri(np.exp(v)), y, ~(small | big), out)
    return out


def _ndtri_exp_small(y):
    """Phi^-1(exp(y)) below -2: the tail expression of ndtri on
    x = sqrt(-2 y), as sqrt(2) sqrt(-y) where -2 y would overflow."""
    x = y * -2.0
    np.sqrt(x, out=x)
    huge = _positions(y < -_HALF_MAX)
    if huge is not None:
        x[huge] = _SQRT2 * np.sqrt(-y[huge])
    r = _ndtri_tail_of(x)
    r[y == -np.inf] = np.inf
    return np.negative(r, out=r)
