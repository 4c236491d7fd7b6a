"""Check the numpy normal kernels of tailfit.normal against scipy.special
and against frozen 50-digit values.

    PYTHONPATH=src python3 tools/check_normal.py
    PYTHONPATH=src python3 tools/check_normal.py --freeze   # rewrites REFERENCE, needs mpmath

``ndtr``, ``log_ndtr``, ``ndtri`` and ``ndtri_exp`` use Cephes' rational
approximations, as scipy does, but numpy's exp and log, which can round
otherwise than the C library's; so outputs may differ from scipy's in
their last bits. Two checks, from seed ``SEED``:

- A sweep of ``SWEEP`` random points on each branch of each kernel (and
  its edges), compared with the scipy.special function of the same name.
  It prints the count of values that differ and the largest difference
  in units in the last place of the larger value, or of ``floor`` where
  the kernel's values cross zero; more than ``limit`` of those, or a
  different nan, infinity or zero, fails.
- ``REFERENCE`` holds a few hundred arguments per kernel, grouped by
  branch, with their values to 50 significant digits (mpmath 1.3.0 at 60
  digits; ``--freeze`` writes it). Per branch, the largest relative error
  of tailfit.normal may be at most twice scipy's at the same points (or
  two units in the last place, where scipy's is below one).

It prints what it checked and exits 1 on any failure.
"""
from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy.special as sc

from tailfit import normal

SEED = 18
SWEEP = 1_000_000
POINTS = 40
REFERENCE = Path(__file__).with_name("normal_reference.txt")
SQRT2 = math.sqrt(2.0)
LOG1P_M_E2 = math.log1p(-math.exp(-2.0))


def uniform(lo, hi):
    return lambda rng, n: rng.uniform(lo, hi, n)


def log_uniform(lo, hi, sign=1.0):
    """sign * exp(U(lo, hi)): spread over the binades."""
    return lambda rng, n: sign * np.exp(rng.uniform(lo, hi, n))


def one_minus(lo, hi):
    """1 - exp(U(lo, hi)), rounded: p just below 1."""
    return lambda rng, n: 1.0 - np.exp(rng.uniform(lo, hi, n))


# kernel -> [(branch, draw, limit in ulps, floor)]. Branch edges: |a| = sqrt(2)
# and 8 sqrt(2) (erfc's |x| = 1 and 8), erfc's underflow near -37.5 and the
# deep tail's asymptotic form; ndtri's exp(-2) and exp(-32); ndtri_exp's -2
# and log1p(-exp(-2)).
BRANCHES = {
    "ndtr": [
        ("[-37.68, -37.5] subnormal", uniform(-37.68, -37.5), 8, 0.0),
        ("[-37.5, -8 sqrt2]", uniform(-37.5, -8 * SQRT2), 8, 0.0),
        ("[-8 sqrt2, -sqrt2]", uniform(-8 * SQRT2, -SQRT2), 8, 0.0),
        ("[-sqrt2, sqrt2]", uniform(-SQRT2, SQRT2), 8, 0.0),
        ("[sqrt2, 8 sqrt2]", uniform(SQRT2, 8 * SQRT2), 8, 0.0),
        ("[8 sqrt2, 40]", uniform(8 * SQRT2, 40.0), 8, 0.0),
    ],
    "log_ndtr": [
        ("[-1.8e154, -1e8]", log_uniform(math.log(1e8), math.log(1.8e154), -1.0), 8, 0.0),
        ("[-1e8, -8 sqrt2]", log_uniform(math.log(8 * SQRT2), math.log(1e8), -1.0), 8, 0.0),
        ("[-8 sqrt2, -sqrt2]", uniform(-8 * SQRT2, -SQRT2), 8, 0.0),
        ("[-sqrt2, 0]", uniform(-SQRT2, 0.0), 16, 0.0),
        ("[0, 6]", uniform(0.0, 6.0), 16, 0.0),
        ("[6, 37]", uniform(6.0, 37.0), 16, 0.0),
    ],
    "ndtri": [
        ("(0, exp(-32)]", log_uniform(math.log(5e-324), -32.0), 8, 0.0),
        ("(exp(-32), exp(-2)]", log_uniform(-32.0, -2.0), 8, 0.0),
        ("(exp(-2), 1 - exp(-2)]", uniform(math.exp(-2.0), 1.0 - math.exp(-2.0)), 8, 0.0),
        ("(1 - exp(-2), 1)", one_minus(math.log(2.0**-53), -2.0), 8, 0.0),
        ("uniform [0, 1)", lambda rng, n: rng.random(n), 8, 0.0),
    ],
    "ndtri_exp": [
        ("[-1e300, -32]", log_uniform(math.log(32.0), math.log(1e300), -1.0), 8, 0.0),
        ("[-32, -2]", uniform(-32.0, -2.0), 8, 0.0),
        ("[-2, log1p(-exp(-2))]", uniform(-2.0, LOG1P_M_E2), 8, 1.0),
        ("[log1p(-exp(-2)), 0]", uniform(LOG1P_M_E2, 0.0), 16, 0.0),
        ("[-1e-300, -1e-20]", log_uniform(math.log(1e-300), math.log(1e-20), -1.0), 16, 0.0),
    ],
}

EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0 - 2.0**-53, 1.0, 2.0, -1.0,
    math.exp(-2.0), 1.0 - math.exp(-2.0), LOG1P_M_E2, -2.0, -SQRT2, SQRT2, -8 * SQRT2,
    -37.5, -37.7, -40.0, 40.0, -1e5, -1.8e154, -1.9e154, -1e300, 1e300, 6.0, -20.0,
    math.exp(-32.0),
])


def ulps(a: np.ndarray, b: np.ndarray, floor: float) -> np.ndarray:
    """|a - b| in units in the last place of max(|a|, |b|, floor); 0 where
    both are the same, nan included."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        d = np.abs(a - b) / np.spacing(np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))
    d[same] = 0.0
    return d


def sweep(rng: np.random.Generator) -> list[str]:
    bad = []
    for name, branches in BRANCHES.items():
        ours, theirs = getattr(normal, name), getattr(sc, name)
        for branch, draw, limit, floor in branches:
            x = draw(rng, SWEEP)
            a, b = ours(x), theirs(x)
            kind = ~np.isfinite(a) | (a == 0), ~np.isfinite(b) | (b == 0)
            d = ulps(a, b, floor)
            k = int(np.argmax(d))
            print(f"  {name} {branch}: {np.count_nonzero(d)} of {x.size} differ, "
                  f"largest {d[k]:.3g} ulps (at {x[k]!r})")
            if d[k] > limit:
                bad.append(f"{name} {branch}: {d[k]:.3g} ulps at {x[k]!r}: {a[k]!r} vs {b[k]!r}")
            if np.any(kind[0] != kind[1]):
                i = int(np.flatnonzero(kind[0] != kind[1])[0])
                bad.append(f"{name} {branch}: {a[i]!r} vs {b[i]!r} at {x[i]!r}")
    with np.errstate(invalid="ignore"):
        for name in BRANCHES:
            a, b = getattr(normal, name)(EDGES), getattr(sc, name)(EDGES)
            d = ulps(a, b, 0.0)
            kind = ~np.isfinite(a) | (a == 0), ~np.isfinite(b) | (b == 0)
            sign = (np.signbit(a) != np.signbit(b)) & ~np.isnan(a)
            wrong = np.flatnonzero((d > 8) | (kind[0] != kind[1]) | sign)
            bad += [f"{name}({EDGES[i]!r}) = {a[i]!r}, scipy {b[i]!r}" for i in wrong]
    print(f"  edges: {EDGES.size} arguments a kernel")
    return bad


def reference_value(name: str, x: float):
    """The kernel's value at x, by mpmath at the working precision."""
    import mpmath as mp

    def log_ndtr(a):
        a = mp.mpf(a)
        if a < -1e4:
            # Laplace's asymptotic series, past where mpmath's erfc gives up;
            # its k-th term is below 1e-8 ** k here.
            series = mp.fsum(
                (-1) ** k * mp.fac2(2 * k - 1) / a ** (2 * k) for k in range(12)
            )
            return -a * a / 2 - mp.log(-a) - mp.log(mp.sqrt(2 * mp.pi)) + mp.log(series)
        return mp.log(mp.ncdf(a)) if a <= 0 else mp.log1p(-mp.ncdf(-a))

    def inverse(y, t):
        """The t with log Phi(t) = y, by Newton's method from t; below -1e4
        the slope phi/Phi is taken as -t - 1/t, whose relative error
        (below 1e-16) still shrinks the step's error that much a step."""
        t = mp.mpf(t)
        for _ in range(8):
            if t < -1e4:
                slope = -t - 1 / t
            else:
                slope = mp.exp(-t * t / 2 - mp.log(mp.sqrt(2 * mp.pi)) - log_ndtr(t))
            t -= (log_ndtr(t) - y) / slope
        return t

    if name == "ndtr":
        return mp.ncdf(mp.mpf(x))
    if name == "log_ndtr":
        return log_ndtr(x)
    if name == "ndtri":
        return inverse(mp.log(mp.mpf(x)), float(normal.ndtri(x)))
    return inverse(mp.mpf(x), float(normal.ndtri_exp(x)))


def freeze() -> int:
    import mpmath as mp

    mp.mp.dps = 60
    rng = np.random.default_rng(SEED + 1)
    lines = [f"# kernel | branch | argument | value to 50 digits (mpmath {mp.__version__})"]
    for name, branches in BRANCHES.items():
        for branch, draw, _, _ in branches:
            for x in draw(rng, POINTS).tolist():
                value = reference_value(name, x)
                if not mp.isfinite(value) or value == 0:
                    continue
                lines.append(f"{name}|{branch}|{x!r}|{mp.nstr(value, 50)}")
    REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} points to {REFERENCE}")
    return 0


def against_reference() -> tuple[list[str], int]:
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    rows: dict[tuple[str, str], list[tuple[float, Decimal]]] = {}
    for line in REFERENCE.read_text().splitlines():
        if line.startswith("#"):
            continue
        name, branch, x, value = line.split("|")
        rows.setdefault((name, branch), []).append((float(x), Decimal(value)))
    bad = []
    for (name, branch), points in rows.items():
        x = np.array([p[0] for p in points])
        worst = []
        for values in (getattr(normal, name)(x), getattr(sc, name)(x)):
            worst.append(max(
                float(abs((Decimal(v) - ref) / ref)) for v, (_, ref) in zip(values.tolist(), points)
            ))
        ours, scipy = worst
        print(f"  {name} {branch}: largest relative error {ours:.3g} (scipy {scipy:.3g}), "
              f"{len(points)} points")
        if ours > 2.0 * max(scipy, 2.0**-53):
            bad.append(f"{name} {branch}: relative error {ours:.3g} against scipy's {scipy:.3g}")
    return bad, sum(len(p) for p in rows.values())


def main(argv) -> int:
    if argv[1:] == ["--freeze"]:
        return freeze()
    start = time.perf_counter()
    print(f"sweep against scipy {sc.__name__} (seed {SEED}, {SWEEP} points a branch):")
    bad = sweep(np.random.default_rng(SEED))
    print("against the frozen 50-digit values:")
    ref_bad, count = against_reference()
    bad += ref_bad
    print(f"{count} reference points; {time.perf_counter() - start:.1f} s")
    if bad:
        print("MISMATCH", *bad[:20], sep="\n  ")
        return 1
    print("ok: every kernel within its bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
