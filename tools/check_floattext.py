"""Check the numpy float text kernels against repr and float, bit for bit.

    PYTHONPATH=src python3 tools/check_floattext.py

``floattext.shortest_lines`` must write every finite float64 as ``repr``
does, and ``floattext.decimal_values`` must read every field it takes as
``float`` does (and take exactly the ``digits[.digits]`` fields of at most
22 digits and 19 from the first nonzero one on). The sweep, made from
seed ``SEED``:

- ``RANDOM`` float64 values with uniformly random bit patterns, so every
  binade and both signs, and for the reader every fourth value above and
  below as ``repr`` writes it;
- every power of two and its two neighbours, zeros, and every subnormal
  below 2**16 * 5e-324;
- the values around 1e-4 and 1e16, where ``repr`` switches layout;
- the integers 1..10**5, random integers up to 2**53 and the ones next
  to it;
- ``MIDPOINTS`` decimal strings at, and one unit in the last digit
  either side of, the exact midpoint of two neighbouring float64 values,
  where ``float`` rounds a tie to the even significand; and the values
  just below the powers of two 2**50..2**63.

It prints what it checked and exits 1 on the first kind of mismatch.
"""
from __future__ import annotations

import re
import sys
import time

import numpy as np

from tailfit.floattext import decimal_values, shortest_lines

SEED = 12
RANDOM = 1_000_000
MIDPOINTS = 150_000
BLOCK = 8192
KERNEL_FIELD = re.compile(r"\d*\.?\d*")


def write_mismatches(values: np.ndarray) -> list[str]:
    """Values whose shortest_lines text is not their repr."""
    bad = []
    for lo in range(0, values.size, BLOCK):
        block = values[lo : lo + BLOCK]
        finite = np.isfinite(block)
        got = shortest_lines(block[finite])
        want = "".join(f"{v!r}\n" for v in block[finite].tolist()).encode()
        if got != want:
            bad += [
                f"{g!r} for {w!r}"
                for g, w in zip(got.split(b"\n"), want.split(b"\n"))
                if g != w
            ][:5]
        if not finite.all() and shortest_lines(block) is not None:
            bad.append("a block with a non-finite value was not declined")
    return bad


def takes(field: str) -> bool:
    digits = field.replace(".", "", 1)
    return (
        KERNEL_FIELD.fullmatch(field) is not None
        and bool(digits)
        and len(digits) <= 22
        and len(digits.lstrip("0")) <= 19
    )


def read_mismatches(fields: list[str]) -> tuple[list[str], int]:
    """Fields that decimal_values reads otherwise than float, or takes or
    declines otherwise than ``takes``: blocks of the fields it should take,
    and each of the first 5000 others on its own."""
    bad = []
    taken = [f for f in fields if takes(f)]
    for lo in range(0, len(taken), BLOCK):
        block = taken[lo : lo + BLOCK]
        raw = np.frombuffer("".join(f"{f}\n" for f in block).encode(), np.uint8)
        ends = np.flatnonzero(raw == 10)
        starts = np.concatenate([[0], ends[:-1] + 1])
        got = decimal_values(raw, starts, ends - starts)
        if got is None:
            bad.append(f"a block of fields such as {block[0]!r} was declined")
            continue
        want = np.array([float(f) for f in block])
        wrong = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        bad += [f"{block[i]!r} read as {got[i]!r}, not {want[i]!r}" for i in wrong[:5]]
    declined = [f for f in fields if not takes(f)][:5000]
    for f in declined:
        raw = np.frombuffer(f.encode(), np.uint8)
        if decimal_values(raw, np.array([0]), np.array([raw.size])) is not None:
            bad.append(f"{f!r} was taken")
    return bad, len(taken)


def point(n: int, k: int) -> str:
    """n / 10**k written out in full."""
    digits = str(n).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}" if k else digits


def last_digit_moved(text: str, by: int) -> str:
    digit = int(text[-1]) + by
    if 0 <= digit <= 9:
        return text[:-1] + str(digit)
    return text


def midpoint_fields(rng: np.random.Generator, count: int) -> list[str]:
    """Exact midpoints m * 2**e + 2**(e - 1) of neighbouring float64 values
    with 53-bit m and e in [-4, 11], which have at most 19 digits, each
    with its last digit moved down and up by one."""
    m = rng.integers(2**52, 2**53, count // 3)
    e = rng.integers(-4, 12, count // 3)
    fields = []
    for mi, ei in zip(m.tolist(), e.tolist()):
        if ei < 1:
            text = point((2 * mi + 1) * 5 ** (1 - ei), 1 - ei)
        else:
            text = str((2 * mi + 1) << (ei - 1))
        fields += [text, last_digit_moved(text, -1), last_digit_moved(text, 1)]
    return fields


def below_powers_of_two() -> list[str]:
    """2**p minus 1..99 units in the last of 0..3 fraction digits."""
    fields = []
    for p in range(50, 64):
        for k in range(4):
            for d in range(1, 100):
                fields.append(point(2**p * 10**k - d, k))
    return fields


def main() -> int:
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()

    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    special = np.concatenate([
        rng.integers(0, 2**64, RANDOM, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.nan],
        np.arange(1, 2**16, dtype=np.uint64).view(np.float64),
        np.concatenate([
            v + np.arange(-2000, 2001) * np.spacing(v) for v in (1e-4, 1e16, 1e-5, 1e15)
        ]),
        np.arange(1, 10**5 + 1, dtype=np.float64),
        rng.integers(1, 2**53, 100_000).astype(np.float64),
        2.0**53 + np.arange(-1000, 1001),
    ])
    written = special.size
    bad = write_mismatches(special)

    # The reader: the repr text of every fourth value above (those in
    # positional form are the kernel's), integers without ".0", and the
    # fields next to binary midpoints.
    # The edges first: 2**64 + 5 wraps a uint64 to 5, and numbers of 20
    # to 22 digits must be declined unless their leading zeros make up.
    fields = ["18446744073709551621", "9007199254740993", "1014403211915866.5",
              "0" * 22, "0" * 23, "0." + "0" * 21 + "1"]
    fields += [point(int(n) * 10**j, j) for n, j in zip(
        rng.integers(10**19, 2**64, 1000, dtype=np.uint64).tolist(),
        rng.integers(0, 3, 1000).tolist())]
    fields += [repr(v) for v in np.abs(special[np.isfinite(special)][::4]).tolist()]
    fields += [f[:-2] for f in fields if f.endswith(".0")]
    fields += midpoint_fields(rng, MIDPOINTS) + below_powers_of_two()
    read_bad, taken = read_mismatches(fields)
    bad += read_bad
    print(f"shortest_lines: {written} values; decimal_values: {len(fields)} fields, "
          f"{taken} of the kernel's form; {time.perf_counter() - start:.1f} s")
    if bad:
        print("MISMATCH", *bad[:20], sep="\n  ")
        return 1
    print("ok: every output equals repr and float")
    return 0


if __name__ == "__main__":
    sys.exit(main())
