"""CSV text of float64 tables, exactly as '%.17g' writes each field.

_csv_text turns a 2-D float64 block into its CSV text: each field byte
for byte '%.17g' % v, ',' between fields and '\\n' after each row. It
works in numpy, in the manner of fixed-precision printf by scaled
multiplication (Adams, "Ryu revisited", OOPSLA 2019).

For a finite v with _FAST_MIN <= |v| < _FAST_MAX and decimal exponent X:
- |v| * 10**(16 - X) is taken in long double, in at most two roundings
  (_power_tables), so its integer part has 17 digits and its fraction is
  exact. Rounded half to even, the integer is v's 17 significant digits,
  unless the fraction lies within the rounding-error bound of .5.
- Tables of four-digit ASCII words spell the digits out; trailing zeros
  become pad bytes 0 (_digit_tables).
- %g's layout follows: fixed notation when -4 <= X < 17, otherwise
  d.ddd e+XX. Each value's text takes a slot of _SLOT bytes, and one mask
  removes the pad bytes at the end.

Every other value takes '%.17g' % v itself, which is exact: a fraction
near .5 (ties among them), digits that round up to the next power of
ten, an exponent that log10 put one off next to a power of ten (its
scaled value leaves [1e16, 1e17)), zero, a subnormal or other value
outside the range, nan and inf. Where long double is plain double the
rounding bound exceeds .5, so every value takes that path and the text
stays exact.

The tables are built at import from short byte strings and Python lists,
and integers are 64-bit throughout: each numpy loop a process runs for
the first time adds its code to the process's memory.
"""

from __future__ import annotations

import numpy as np

FLOAT_FMT = "%.17g"

# |v| in [_FAST_MIN, _FAST_MAX) has its decimal exponent X in [-37, 42],
# or one off from log10, so |v| * 10**(16 - X) multiplies by a power of
# ten up to 10**54 or divides by one up to 10**27
_FAST_MIN, _FAST_MAX = 1e-37, 1e43
_LD = np.longdouble
_SLOT = 28  # bytes of text per value: sign, 22 of digits and dot, e+XX, sep


def _power_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiplier, divisor and fraction limit at each scale index
    i = 43 - X, that is for the scale 10**k with k = 16 - X = i - 27.

    10**k is exact in an x87 long double up to k = 27 (5**27 < 2**63):
    up to 10**22 it is a double, and up to 10**27 a product of two exact
    ones. Above, 10**27 * 10**(k - 27) is rounded once. So a scaled value
    takes one rounding, or two for k > 27, and lies within that many
    units of long double precision of the exact |v| * 10**k < 1e17. A
    fraction whose distance from .5 is not more than that is unsafe to
    round; the limit is .5 less that bound.
    """
    power = np.array([10.0 ** k for k in range(23)]).astype(_LD)
    power = np.concatenate([power, power[22] * power[1:6]])
    power = np.concatenate([power, power[27] * power[1:]])  # 10**0..10**54
    one = power[:1]
    mul = np.concatenate([one.repeat(27), power])
    div = np.concatenate([power[27:0:-1], one.repeat(55)])
    unit = float(np.finfo(_LD).eps) / 2
    limit = np.array([0.5 - 1.01e17 * unit * (2 if k > 27 else 1)
                      for k in range(-27, 55)])
    return mul, div, limit


def _digit_tables() -> tuple[np.ndarray, ...]:
    """The tables the digits and the layout are read from.

    Z is a value's 4 lead bytes and its 17 digits. The tables are:
    - quads[g], g < 10**4, is g in four ASCII digits, as one uint32 word;
      quads[g + 10**4] is the same with its trailing zeros as pads.
    - lead[50 * m + 10 * c + d] is 2 pads, '-' if m else a pad, c '0's
      right-aligned in 4 bytes, and digit d: the start of -0.000ddd.
    - zero[g] is whether g == 0.
    - upto[q, p] is whether p <= q, for the bytes p of Z with its dot.
    At X + 50, for each decimal exponent X in [-50, 50):
    - dot_after[X] is the byte of Z after which the dot goes: the units
      digit in fixed notation (-4 <= X < 17), the first digit otherwise;
    - lead_row[X] is 10 * c, with c = -X leading '0's for X in [-4, 0);
    - exponent[X] is e+XX or e-XX outside fixed notation, else 4 pads.
    """
    pairs = [b"%02d" % g for g in range(100)]
    two = np.frombuffer(b"".join(pairs), np.uint16)
    cut = np.frombuffer(b"".join(p.rstrip(b"0").ljust(2, b"\0")
                                 for p in pairs), np.uint16)
    quads = np.empty((2, 100, 100, 2), np.uint16)
    quads[0, :, :, 1] = two
    quads[1, :, :, 1] = cut
    quads[0, :, :, 0] = two[:, None]
    quads[1, :, 1:, 0] = two[:, None]
    quads[1, :, 0, 0] = cut  # low pair 00: the high pair ends the digits
    lead = b"".join(b"\0\0" + sign + b"\0" * (4 - c) + b"0" * c + b"%d" % d
                    for sign in (b"\0", b"-") for c in range(5)
                    for d in range(10))
    zero = np.zeros(10 ** 4, bool)
    zero[0] = True
    upto = [[p <= q for p in range(22)] for q in range(21)]
    exponents = range(-50, 50)
    fixed = [-4 <= X < 17 for X in exponents]
    dot_after = [X + 4 if f else 4 for X, f in zip(exponents, fixed)]
    lead_row = [-10 * X if f and X < 0 else 0
                for X, f in zip(exponents, fixed)]
    exponent = b"".join(b"\0" * 4 if f else b"e%+03d" % X
                        for X, f in zip(exponents, fixed))
    return (quads.view(np.uint32).ravel(), np.frombuffer(lead, np.uint64),
            zero, np.array(upto), np.array(dot_after), np.array(lead_row),
            np.frombuffer(exponent, np.uint32))


_MUL, _DIV, _LIMIT = _power_tables()
_QUADS, _LEAD, _ZERO, _UPTO, _DOT_AFTER, _LEAD_ROW, _EXPONENT = \
    _digit_tables()


def _scaled(a: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - X) in long double, and its scale index."""
    i = 43 - X
    s = a.astype(_LD)
    s *= _MUL[i]
    s /= _DIV[i]
    return s, i


def _csv_text(block: np.ndarray) -> np.ndarray:
    """The CSV text of block, a 2-D float64 array with at least one row,
    as ASCII bytes in a uint8 array: '%.17g' % v for each field, ','
    between fields, '\\n' after each row."""
    rows, cols = block.shape
    v = block.ravel()
    n = v.size
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0
    # the decimal exponent; log10 may put it one off next to a power of
    # ten, and such a value falls back
    X = np.floor(np.log10(a)).astype(np.intp)
    s, i = _scaled(a, X)
    fast &= (s >= 1e16) & (s < 1e17)
    del a
    whole = np.rint(s)
    s -= whole
    fast &= np.abs(s, out=s) < _LIMIT[i]
    fast &= whole < 1e17  # rounded up to the next power of ten
    N = whole.astype(np.int64)
    del s, whole, i
    N[~fast] = 10 ** 16
    X[~fast] = 0
    X += 50

    # A[:, 3:24] is Z; A[:, 2] is the sign. The 17 digits are d and four
    # groups of four, each read from the stripped half of _QUADS when
    # every later group is 0.
    A = np.zeros((n, 32), np.uint8)
    words = A.view(np.uint32)
    high, low = np.divmod(N, 10 ** 8)
    del N
    d, high = np.divmod(high, 10 ** 8)
    later_zero = np.ones(n, bool)
    for j, eight in ((5, low), (3, high)):
        upper, lower = np.divmod(eight, 10 ** 4)
        for k, group in ((j, lower), (j - 1, upper)):
            zero = _ZERO[group]
            group[later_zero] += 10 ** 4
            words[:, k] = _QUADS[group]
            later_zero &= zero
    del high, low, upper, lower, group, later_zero, zero
    d += _LEAD_ROW[X]
    d[v < 0] += 50
    A.view(np.uint64)[:, 0] = _LEAD[d]
    del d, words

    # %g writes Z up to Z[q], a dot if a digit follows, then the rest of Z
    text = np.empty((n, _SLOT), np.uint8)
    text[:, 23:27] = _EXPONENT[X].view(np.uint8).reshape(n, 4)
    q = _DOT_AFTER[X]
    del X
    text[:, 0] = A[:, 2]
    text[:, 1:23] = A[:, 2:24]
    np.copyto(text[:, 1:23], A[:, 3:25], where=_UPTO[q])
    # A's byte at Z[q] is 0 where an integer's last digits went with the
    # trailing zeros; the dot after it needs a digit after it. (Tests for
    # 0 take ~(x != 0): the final mask runs that loop anyway.)
    at = np.arange(3, 32 * n, 32) + q
    after = A.ravel()[at + 1] != 0
    cut = np.flatnonzero(~(A.ravel()[at] != 0))
    del A
    at = np.arange(2, _SLOT * n, _SLOT) + q
    text.ravel()[at] = np.where(after, ord("."), 0)
    del at, after
    if cut.size:
        digits = text[cut, 5:23]
        digits[~(digits != 0) & _UPTO[q[cut], 4:]] = ord("0")
        text[cut, 5:23] = digits
    text[:, 27] = ord(",")
    text.reshape(rows, cols, _SLOT)[:, -1, 27] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        fmt = FLOAT_FMT.encode()
        text[slow, :27] = np.frombuffer(b"".join(
            (fmt % x).ljust(27, b"\0") for x in v[slow].tolist()),
            np.uint8).reshape(-1, 27)
    return text[text != 0]
