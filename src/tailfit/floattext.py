"""Exact float64 <-> decimal text kernels in numpy.

``shortest_lines`` writes a block of float64 values one per line, byte
for byte as ``repr`` writes them. The digits are the shortest decimal
that reads back to the value, the closest one on a tie in length, found
with 64-bit integer arithmetic by Giulietti's Schubfach method (2020,
"The Schubfach way to render doubles"), then laid out as ``repr`` does:
positional for decimal exponents from -4 to 15, else ``d.ddde+XX``.

``decimal_values`` reads ``digits[.digits]`` fields exactly as ``float``
does, when the digit string M, with k fraction digits, fits in a uint64.
For M <= 2**53 one correctly rounded division of two exact doubles,
M / 10**k, is that value (Clinger 1990, "How to read floating point
numbers accurately"). Past 2**53 the division is less than 1.5 steps
from it, and the exact residual M * 2**a - 2 * m * 5**k * 2**b against
half a step says which way to step, ties going to the even significand:
the residual is small, so its low 64 bits, which numpy computes, are
all of it.

Each kernel returns None for a block it does not take: ``shortest_lines``
a block holding a non-finite value, which no ``DurationSample`` holds,
and ``decimal_values`` one with a field of another form, which the
caller reads with ``float``.
"""
from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(2**63 - 1)
# float64: 52 stored significand bits, and the decimal exponents
# K_MIN..K_MAX of Schubfach's table of 10**-k.
_C_MIN = 1 << 52
_K_MIN, _K_MAX = -324, 292
# The longest output line: a sign, 17 digits, a point, "e-308" and "\n".
_WIDTH = 25


def _floor_log10_pow2(q, three_quarters):
    """floor(log10(2**q)), or of 3/4 * 2**q where ``three_quarters``, for
    the exponents of float64."""
    return (q * 661_971_961_083 - three_quarters * 274_743_187_321) >> 41


def _floor_log2_pow10(e):
    """floor(log2(10**e)) for the decimal exponents of float64."""
    return (e * 913_124_641_741) >> 38


@cache
def _tables():
    """Schubfach's g = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1
    for k in K_MIN..K_MAX, 126 bits each, as four arrays of the 32-bit
    limbs of its high and low 63 bits; and the 4 ASCII digits of every
    group 0..9999 as a (4, 10000) array."""
    limbs = np.empty((4, _K_MAX - _K_MIN + 1), np.uint64)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        shift = 125 - _floor_log2_pow10(-k)
        if k <= 0:
            g = (10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1
        else:
            g = (1 << shift) // 10**k + 1
        hi, lo = g >> 63, g & (2**63 - 1)
        limbs[:, i] = hi & 0xFFFFFFFF, hi >> 32, lo & 0xFFFFFFFF, lo >> 32
    places = np.array([1000, 100, 10, 1])[:, None]
    groups = (np.arange(10_000) // places % 10 + ord("0")).astype(np.uint8)
    return list(limbs), groups


def _mulhi(a_lo, a_hi, b_lo, b_hi, work):
    """floor(a * b / 2**64) for a, b < 2**64 given as 32-bit limbs, with an
    array like b_lo to work in. Operations run in place: numpy is about
    twice as fast so on arrays of this size."""
    low = a_lo * b_lo
    low >>= _U(32)
    cross = a_lo * b_hi
    low += np.bitwise_and(cross, _M32, out=work)
    cross >>= _U(32)
    high = a_hi * b_hi
    high += cross
    np.multiply(a_hi, b_lo, out=cross)
    low += np.bitwise_and(cross, _M32, out=work)
    cross >>= _U(32)
    high += cross
    low >>= _U(32)
    high += low
    return high


def _round_to_odd(g, cp):
    """Schubfach's rop(g, cp): g * cp / 2**127 rounded down, with the low
    bit set when the part it drops from the middle word is not zero."""
    g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _M32, cp >> _U(32)
    work = np.empty_like(cp)
    x1 = _mulhi(g0_lo, g0_hi, cp_lo, cp_hi, work)
    y1 = _mulhi(g1_lo, g1_hi, cp_lo, cp_hi, work)
    z = (g1_hi << _U(32) | g1_lo) * cp  # y0, the low word of g1 * cp
    z >>= _U(1)
    z += x1
    dropped = np.bitwise_and(z, _M63, out=x1) != 0
    z >>= _U(63)
    y1 += z
    y1 |= dropped
    return y1


def _shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal f * 10**e that reads back to each finite value
    (nearest to it on a tie in length, then even), f = 0 for zeros, as
    int64 arrays."""
    bits = values.view(np.int64) & (2**63 - 1)
    exponent = bits >> 52
    t = bits & (_C_MIN - 1)
    # value = c * 2**q; below a power of two (not the least normal) the
    # spacing halves.
    c = t + (exponent != 0) * _C_MIN
    q = np.maximum(exponent, 1) - 1075
    irregular = (t == 0) & (exponent > 1)
    k = _floor_log10_pow2(q, irregular)
    h = q + _floor_log2_pow10(-k) + 2
    row = k - _K_MIN
    limbs, _ = _tables()
    g = [limb.take(row) for limb in limbs]
    # 4 * value / 10**k and its rounding interval's bounds, times 2**h.
    unit = np.left_shift(1, h)
    cps = np.empty((3, values.size), np.int64)
    np.left_shift(c, h + 2, out=cps[0])
    np.subtract(cps[0], (2 - irregular) * unit, out=cps[1])
    np.add(cps[0], unit << 1, out=cps[2])
    vb, vbl, vbr = _round_to_odd(g, cps.view(np.uint64)).view(np.int64)
    # An odd significand's interval leaves out its bounds.
    vbl += c & 1
    vbr -= c & 1
    s = vb >> 2
    # At most one multiple of 10 * 10**k lies in the interval; if one
    # does, it is the shortest.
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = sp10 + 10 << 2 <= vbr
    # Else the nearer of s and s + 1 in it, the even one on a tie; one of
    # them at least is in.
    below = vb - (4 * s + 2)
    rounds_up = (below > 0) | ((below == 0) & (s & 1 == 1))
    f = s + ((s + 1 << 2 <= vbr) & ((vbl > s << 2) | rounds_up))
    f = np.where(upin != wpin, sp10 + 10 * wpin, f)
    # The two least subnormals, below Schubfach's range of c; and zeros.
    tiny = np.flatnonzero(c < 3)
    if tiny.size:
        f[tiny] = c[tiny] * 5 - (c[tiny] == 2) * 9
        k[tiny] = np.where(c[tiny] == 2, -323, -324)
    return f, k


_POW10 = np.array([10**i for i in range(18)], np.int64)
# The places of the 17 digits, counted from 1.
_DIGIT_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]
_PLACES = np.arange(_WIDTH - 1, dtype=np.uint8)[:, None]


def _divmod(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod for non-negative x; numpy divides by a scalar several
    times faster in floor_divide than in divmod."""
    quotient = x // d
    return quotient, x - quotient * d


def shortest_lines(values: np.ndarray) -> bytes | None:
    """``"".join(f"{v!r}\\n" for v in values)`` as ASCII bytes, or None if
    a value is not finite."""
    values = np.ascontiguousarray(values, np.float64)
    if not np.isfinite(values).all():
        return None
    n = values.size
    f, e = _shortest(values)
    _, groups = _tables()
    # Arrays hold one value per column. chars[:, r] is "0000000", then the
    # 17 digits of f (zeros after its own), in 4-digit groups.
    length = np.searchsorted(_POW10, f, side="right")
    f17 = f * _POW10[17 - length]
    head, tail = _divmod(f17, 10**16)
    high, low = _divmod(tail, 10**8)
    chars = np.empty((32, n), np.uint8)
    chars[:4] = ord("0")
    for i, group in enumerate(_divmod(high, 10**4) + _divmod(low, 10**4)):
        np.take(groups, group, axis=1, out=chars[4 * i + 8 : 4 * i + 12])
    np.take(groups, head, axis=1, out=chars[4:8])
    chars[24:] = ord("0")
    # Significant digits, and the decimal point's place: the value is
    # 0.d1d2... * 10**point.
    digits = np.multiply(chars[7:24] != ord("0"), _DIGIT_PLACES, dtype=np.uint8).max(axis=0)
    zero = f == 0
    digits[zero] = 1
    point = np.where(zero, 1, e + length)

    positional = (point > -4) & (point <= 16)
    whole = positional & (point > 0)
    fraction = positional & ~whole  # 0.000ddd
    # The text after the sign's place holds, at place j, chars[7 + j]
    # before the point, the point at place dot, then chars[6 + j]; a
    # suffix, if any, and "\n" at place end. For 0.000ddd the digits move
    # down so that chars[7] and the zeros after the point come first.
    dot = np.where(whole, point, np.where(fraction | (digits > 1), 1, 255)).astype(np.uint8)
    end = np.where(whole, np.maximum(digits, point + 1) + 1, digits + (digits > 1))
    for zeros in range(4):
        rows = np.flatnonzero(fraction & (point == -zeros))
        if rows.size:
            moved = chars[7:24, rows]
            chars[7 : 8 + zeros, rows] = ord("0")
            chars[8 + zeros : 25 + zeros, rows] = moved
            end[rows] = 2 + zeros + digits[rows]
    rows = np.flatnonzero(~positional)
    exp = point[rows] - 1
    size = np.abs(exp)
    three = size >= 100
    at = end[rows]
    end[rows] += 4 + three
    end = end.astype(np.uint8)
    # Selections as uint8 arithmetic, which numpy does faster than masked
    # copies; NUL fills the places after "\n", and the sign's place of a
    # value that is not negative.
    before, after = chars[7 : 7 + _WIDTH - 1], chars[6 : 6 + _WIDTH - 1]
    body = after + (_PLACES < dot) * (before - after)
    body += (_PLACES == dot) * (ord(".") - after)
    body *= _PLACES < end
    body += (_PLACES == end) * np.uint8(ord("\n"))
    if rows.size:
        # "e", the exponent's sign and its two or three digits.
        body[at, rows] = ord("e")
        body[at + 1, rows] = np.where(exp < 0, ord("-"), ord("+"))
        body[at[three] + 2, rows[three]] = size[three] // 100 + ord("0")
        body[at + 2 + three, rows] = size // 10 % 10 + ord("0")
        body[at + 3 + three, rows] = size % 10 + ord("0")
    text = np.empty((_WIDTH, n), np.uint8)
    np.multiply(np.signbit(values), np.uint8(ord("-")), out=text[0])
    text[1:] = body
    return text.T.tobytes().translate(None, b"\0")


# 10**k and 5**k for k fraction digits; 10**k is exact in float64 up to
# k = 22.
_MAX_FRACTION = 22
_POW10_FLOAT = np.array([float(10**k) for k in range(_MAX_FRACTION + 1)])
_POW5 = np.array([5**k for k in range(_MAX_FRACTION + 1)], np.uint64)


def field_chars(raw: np.ndarray, starts: np.ndarray, widths: np.ndarray, width: int) -> np.ndarray:
    """A (width, rows) uint8 array whose column r holds the field
    raw[starts[r] : starts[r] + widths[r]], zero past its end."""
    chars = np.empty((width, starts.size), np.uint8)
    for position in range(width):
        np.take(raw, starts + position, out=chars[position], mode="clip")
    # Compared in the narrowest type that holds the widths: numpy
    # broadcasts uint8 several times faster than int64.
    small = np.uint8 if width < 256 else np.intp
    chars *= np.arange(width, dtype=small)[:, None] < widths.astype(small)
    return chars


def decimal_values(raw: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray | None:
    """``float`` of each field raw[starts[r] : starts[r] + widths[r]] of the
    uint8 array ``raw``, as float64; or None unless every field is ASCII
    digits with at most one "." among them, at most 22 digits and 19 from
    the first nonzero one on (so that they fit in a uint64)."""
    n = starts.size
    if n == 0:
        return np.empty(0)
    width = int(widths.max())
    if widths.min() == 0 or width > _MAX_FRACTION + 1:
        return None
    chars = field_chars(raw, starts, widths, width)
    digits = chars - np.uint8(ord("0"))
    is_digit = digits < 10
    is_dot = chars == ord(".")
    dots = is_dot.sum(0, dtype=np.uint8)
    n_digits = is_digit.sum(0, dtype=np.uint8)
    if np.any(n_digits + dots != widths) or dots.max() > 1 or n_digits.min() == 0:
        return None
    most = n_digits.max()
    if most > _MAX_FRACTION:
        return None
    dot_at = (is_dot * np.arange(width, dtype=np.uint8)[:, None]).sum(0, dtype=np.uint8)
    if most > 19:
        # At most 19 digits from the first nonzero one on, so that the
        # digit string is below 10**19 and wraps no uint64.
        nonzero = is_digit & (digits != 0)
        first = np.argmax(nonzero, axis=0)
        significant = n_digits - first + (dots & (dot_at < first))
        if np.any(nonzero.any(axis=0) & (significant > 19)):
            return None
    # Horner's rule over pairs of character positions, passing over the
    # dot and the zero padding (scale 1, digit 0): a pair's digits and its
    # power of ten fit in a uint8, which halves the uint64 steps.
    if width % 2:
        pad = np.zeros((1, n), np.uint8)
        digits, is_digit = np.vstack([pad, digits]), np.vstack([pad, is_digit])
    digits *= is_digit
    scale = is_digit * np.uint8(9)
    scale += np.uint8(1)
    fraction = (dots * (widths - 1 - dot_at)).astype(np.intp)
    del chars, is_digit, is_dot
    value = digits[::2] * scale[1::2]
    value += digits[1::2]
    power = scale[::2] * scale[1::2]
    mantissa = np.zeros(n, np.uint64)
    for pair in range(value.shape[0]):
        mantissa *= power[pair]
        mantissa += value[pair]
    values = mantissa.astype(np.float64) / _POW10_FLOAT[fraction]
    big = mantissa > _U(2**53)
    if big.all():
        values = _nearest(mantissa, fraction, values)
    elif big.any():
        big = np.flatnonzero(big)
        values[big] = _nearest(mantissa[big], fraction[big], values[big])
    return values


def _nearest(mantissa, fraction, approx):
    """The float64 nearest to mantissa / 10**fraction (ties to even), given
    ``approx``, their float64 quotient, which is less than 1.5 steps from
    it and normal."""
    bits = approx.view(np.int64)
    m = bits & (_C_MIN - 1) | _C_MIN
    # approx = m * 2**(t - fraction). The residual (value - approx) *
    # 10**fraction * 2**(1 - t) is mantissa * 2**a - 2 * m * 5**fraction *
    # 2**b with a - b = 1 - t, an integer well inside int64, and half a
    # step is 5**fraction * 2**b.
    t = (bits >> 52) - 1075 + fraction
    a = np.maximum(1 - t, 0).astype(np.uint64)
    b = np.maximum(t - 1, 0).astype(np.uint64)
    five = _POW5[fraction]
    residual = ((mantissa << a) - ((m.view(np.uint64) << _U(1)) * five << b)).view(np.int64)
    half = (five << b).view(np.int64)
    odd = (m & 1).astype(bool)
    up = (residual > half) | ((residual == half) & odd)
    # Below a power of two the step down is half as long.
    down = np.where(
        m == _C_MIN,
        2 * residual < -half,
        (residual < -half) | ((residual == -half) & odd),
    )
    # A step is one unit of a positive float64's bits.
    return (bits + up - down).view(np.float64)
