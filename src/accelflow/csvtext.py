"""CSV text of float64 tables, exactly as '%.17g' writes each field, and
the tables back from such text, bit for bit as np.loadtxt reads them.

_csv_text turns a 2-D float64 block into its CSV text: each field byte
for byte '%.17g' % v, ',' between fields and '\\n' after each row. It
works in numpy, in the manner of fixed-precision printf by scaled
multiplication (Adams, "Ryu revisited", OOPSLA 2019).

For a finite v with _FAST_MIN <= |v| < _FAST_MAX and decimal exponent X:
- s = |v| * 10**(16 - X) is taken in long double, |v| * _POWERS[16 - X]
  or, in a block with some X > 16, |v| / _POWERS[X - 16]: its integer part
  has 17 digits and its fraction is exact. N, the integer part of s + .5,
  is s rounded and v's 17 digits unless s lies within the bound of a tie.
- A value's text is built in a slot of four uint64 words. Tables of
  ASCII words spell out the sign, leading zeros and digits in the first
  three, with trailing zeros as pad bytes 0 (_digit_tables); the last is
  e+XX or pads, and the separator.
- %g's layout follows: fixed notation when -4 <= X < 17, otherwise
  d.ddd e+XX. The dot goes in by word operations on the slot's words
  read one and two bytes on, that is (W_j >> 8) | (W_j+1 << 56) and
  (W_j >> 16) | (W_j+1 << 48) on a little-endian machine: a mask per
  word, _SELECT[j][q], takes the bytes up to the dot from the second.
  One pass removes the pad bytes at the end.

The rounding bound: s lies within 1.01e17 u of |v| * 10**k, u a unit of
long double precision, after its one rounding where 10**k is exact (k <=
27), and within twice that where 10**k is itself rounded (k > 27). A
fraction of s + .5 within the bound of 0 or 1 falls back; _LIMIT is .5
less the bound. On x87 (u = 2**-64) the one-rounding bound holds at every
scale: at s >= 2**56, s and each tie are multiples of 2**-7, and two
roundings err by at most 0.0075 < 2**-7; below, by 2**56 * 0.67 u + 2**-9
< 1.01e17 u at most (0.67 u: _POWERS' worst error). Elsewhere it is the
two-rounding bound, over .5 for a plain double: every value falls back.

Every other value takes '%.17g' % v itself, which is exact: a fraction
near .5 (ties among them), digits that round up to the next power of
ten, an exponent that log10 put one off next to a power of ten (its
scaled value leaves [1e16, 1e17)), an integer of 10 or more that ends
in 0 (its stripped trailing zeros reach the units digit), zero, a
subnormal or other value outside the range, nan and inf.

The tables are built at import from short byte strings and Python lists,
and integers are 64-bit throughout: each numpy loop a process runs for
the first time adds its code to the process's memory.

_csv_values reads whole rows of such text back, in the manner of fast
float parsers (Lemire, "Number Parsing at a Gigabyte per Second", 2021):
- A field of at most _FIELD bytes, [-]digits[.digits][e+DD[D]] (or
  e-, and a dot may lead or end the digits, as float() takes it), is read
  without its exponent, right-aligned in a slot of three uint64 words.
  The bytes before it and its sign become 0, and the bytes before its dot
  move up one, over the dot, by masks taken one word at a time.
- Three multiply-shift steps per word turn its eight ASCII digits into
  an integer, so a field is M * 10**E with M < 10**19.
- M * 10**E is taken in long double, in one rounding for |E| <= 27
  (_POWERS) and in two up to 54, so it lies within two units of long
  double precision of the exact value. Rounded to double it is the
  correctly rounded value unless the 11 bits below a double's read
  within 3 of 1024, a midpoint.
Every other field takes float() of its bytes, the strtod np.loadtxt
calls: a field near a midpoint, one with |E| > 54, and every field where
long double is plain double. Text outside the grammar, nan and inf among
it, gives None, and the caller reads it some other way.
"""

from __future__ import annotations

import numpy as np

FLOAT_FMT = "%.17g"

# |v| in [_FAST_MIN, _FAST_MAX) has its decimal exponent X in [-37, 42],
# or one off from log10, so |v| * 10**(16 - X) multiplies by a power of
# ten up to 10**54 or divides by one up to 10**27
_FAST_MIN, _FAST_MAX = 1e-37, 1e43
_LD = np.longdouble
#: x87 long double: the writer's one-rounding bound holds at every scale,
#: and the reader rounds where 11 bits below a double's are off a midpoint
_WIDE = np.finfo(_LD).nmant == 63
_SLOT = 32  # bytes of a value's text slot, four uint64 words


def _powers() -> np.ndarray:
    """10**0 .. 10**54 in long double: exact up to 10**27, and above that
    10**27 * 10**(k - 27), rounded once."""
    power = np.array([10.0 ** k for k in range(23)]).astype(_LD)
    power = np.concatenate([power, power[22] * power[1:6]])
    return np.concatenate([power, power[27] * power[1:]])


_POWERS = _powers()
_LIMIT = _LD(0.5 - 1.01e17 * float(np.finfo(_LD).eps) / (2 if _WIDE else 1))


def _digit_tables() -> tuple[np.ndarray, ...]:
    """The tables the digits and the layout are read from.

    Z is a value's 4 lead bytes and its 17 digits. The tables are:
    - quads[g], g < 10**4, is g in four ASCII digits, as one uint32 word;
      quads[g + 10**4] is the same with its trailing zeros as pads.
    - lead[50 * m + 10 * c + d] is 2 pads, '-' if m else a pad, c '0's
      right-aligned in 4 bytes, and digit d: the start of -0.000ddd.
    - zero[g] is whether g == 0.
    - select[j, q] is word j of the mask that is 0xff at the bytes
      b <= q + 1 of a slot's first three words.
    At X + 50, for each decimal exponent X in [-50, 50):
    - dot_after[X] is the byte of Z after which the dot goes: the units
      digit in fixed notation (-4 <= X < 17), the first digit otherwise;
    - lead_row[X] is 10 * c, with c = -X leading '0's for X in [-4, 0);
    - comma[X] and newline[X] are a slot's last word: e+XX or e-XX
      outside fixed notation, else 4 pads, then the separator and pads.
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
    select = b"".join(b"\xff" * (q + 2) + b"\0" * (22 - q)
                      for q in range(21))
    exponents = range(-50, 50)
    fixed = [-4 <= X < 17 for X in exponents]
    dot_after = [X + 4 if f else 4 for X, f in zip(exponents, fixed)]
    lead_row = [-10 * X if f and X < 0 else 0
                for X, f in zip(exponents, fixed)]
    exponent = [b"\0" * 4 if f else b"e%+03d" % X
                for X, f in zip(exponents, fixed)]
    comma, newline = (np.frombuffer(b"".join(e + sep + b"\0" * 3
                                             for e in exponent), np.uint64)
                      for sep in (b",", b"\n"))
    return (quads.view(np.uint32).ravel(), np.frombuffer(lead, np.uint64),
            zero, np.frombuffer(select, np.uint64).reshape(21, 3).T.copy(),
            np.array(dot_after), np.array(lead_row), comma, newline)


(_QUADS, _LEAD, _ZERO, _SELECT, _DOT_AFTER, _LEAD_ROW, _COMMA,
 _NEWLINE) = _digit_tables()


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
    s = a.astype(_LD)
    del a
    s *= _POWERS[np.maximum(16 - X, 0)]
    if X.max() > 16:
        s /= _POWERS[np.maximum(X - 16, 0)]
    # N, the integer part of s + .5, is s rounded; where the fraction left
    # lies within .5 - _LIMIT of 0 or 1, s lies near a tie and falls back
    fast &= s >= 1e16
    s += 0.5
    fast &= s < 1e17  # rounds to 10**17: log10 read X one low
    N = s.astype(np.int64)
    s -= N
    fast &= (s > 0.5 - _LIMIT) & (s < 0.5 + _LIMIT)
    del s
    N[~fast] = 10 ** 16
    X[~fast] = 0
    X += 50

    # W0 is 2 pads, the sign, 4 lead bytes and the first digit d, so Z is
    # bytes 3 to 23 of a slot, and W3 is 0. The 17 digits are d and four
    # groups of four, each read from the stripped half of _QUADS when
    # every later group is 0. A spare word of pads ends the slots.
    buf = bytearray(_SLOT * n + 8)
    words = np.frombuffer(buf, np.uint64)
    quads = words[:-1].view(np.uint32).reshape(n, 8)
    high = N // 10 ** 8
    N -= high * 10 ** 8
    d = high // 10 ** 8
    high -= d * 10 ** 8
    later = np.full(n, 10 ** 4)  # 10**4 while every later group is 0
    for j, eight in ((5, N), (3, high)):
        upper = eight // 10 ** 4
        eight -= upper * 10 ** 4
        for k, group in ((j, eight), (j - 1, upper)):
            zero = _ZERO[group]
            group += later
            quads[:, k] = _QUADS[group]
            later *= zero
    del N, high, upper, group, later, zero, quads
    d += _LEAD_ROW[X]
    d += (v < 0) * 50
    words[:-1:4] = _LEAD[d]
    del d

    # %g writes Z up to Z[q], a dot if a digit follows, then the rest of
    # Z: text bytes b <= q + 1 are slot bytes b + 2, later ones are slot
    # bytes b + 1, and byte q + 2 is the dot. Text word j reads only slot
    # words j and j + 1, so it takes word j's place, from j = 0 up.
    q = _DOT_AFTER[X]
    for j in range(3):
        one, two = (np.ndarray(n, np.uint64, buf, 8 * j + b, (_SLOT,))
                    for b in (1, 2))
        word = one ^ two
        word &= _SELECT[j][q]
        word ^= one
        words[j:-1:4] = word
    del one, two, word
    words[3:-1:4] = _COMMA[X]
    words[:-1].reshape(rows, cols, 4)[:, -1, 3] = _NEWLINE[X[cols - 1::cols]]
    del X
    # the dot needs a digit after it; Z[q] is 0 where an integer's last
    # digits went with the trailing zeros, and such a value falls back
    chars = words[:-1].view(np.uint8).reshape(n, _SLOT)
    flat = chars.reshape(-1)
    at = np.arange(2, _SLOT * n, _SLOT) + q
    fast &= flat[at - 1] != 0
    flat[at] = np.where(flat[at + 1] != 0, ord("."), 0)
    del at
    slow = np.flatnonzero(~fast)
    if slow.size:  # in the first three words: '%.17g' is at most 24 bytes
        fmt = FLOAT_FMT.encode()
        chars[slow, :24] = np.frombuffer(b"".join(
            (fmt % x).ljust(24, b"\0") for x in v[slow].tolist()),
            np.uint8).reshape(-1, 24)
    return np.frombuffer(buf.translate(None, b"\0"), np.uint8)


# ---------------------------------------------------------------------------
# read side
# ---------------------------------------------------------------------------

_FIELD = 24  # most bytes of a field the reader takes: -d.16 digits e-XXX
_WORDS = _FIELD // 8


def _byte_masks() -> tuple[np.ndarray, np.ndarray]:
    """Masks of a slot's bytes at g * 25 + q, g < 24 and q < 25, a row
    per uint64 word: high has 0xff at bytes j >= max(g, q), move at bytes
    g < j < q. Word k holds bytes 8k to 8k + 7, the first in its lowest."""
    def run(start: int, stop: int) -> bytes:
        stop = max(start, stop)
        return (b"\0" * start + b"\xff" * (stop - start)
                + b"\0" * (_FIELD - stop))

    pairs = [(g, q) for g in range(_FIELD) for q in range(25)]
    return tuple(np.frombuffer(b"".join(rows), np.uint64)
                 .reshape(-1, _WORDS).T.copy()
                 for rows in ([run(max(g, q), _FIELD) for g, q in pairs],
                              [run(g + 1, q) for g, q in pairs]))


_HIGH, _MOVE = _byte_masks()
#: minus the digits after a dot that is slot byte q - 1, 0 for q = 0
_FRACTION = np.array([0] + list(range(1 - _FIELD, 1)))
_ZERO_BYTES, _HIGH_NIBBLES, _SIX = (np.uint64(int(b * 8, 16)) for b in
                                    ("30", "f0", "06"))
#: (multiplier, shift, mask) of the steps that turn a word's eight digits
#: 0-9, the first in its lowest byte, into their integer
_EIGHT_DIGITS = tuple(tuple(map(np.uint64, step)) for step in (
    (2561, 8, 0x00ff00ff00ff00ff), (6553601, 16, 0x0000ffff0000ffff),
    (42949672960001, 32, 0xffffffff)))


def _csv_values(text: np.ndarray, cols: int) -> np.ndarray | None:
    """The float64 table of text, whole CSV rows of cols fields each as
    uint8 bytes, bit-equal to np.loadtxt's; None when a field is not
    [-]digits[.digits][e+DD[D]] with e-DD[D] too (a dot may lead or end
    the digits) in at most _FIELD bytes, or the rows are not whole or not
    of cols fields."""
    if not text.size or text[-1] != ord("\n"):
        return None
    # the separators and the dots: ',' and '.' are the bytes b with b | 2
    # == '.'; the field's digit check finds every other byte
    marks = np.bitwise_or(text, 2)
    marks = np.equal(marks, ord("."), out=marks.view(np.bool_))
    marks |= text == ord("\n")
    marks = np.flatnonzero(marks)
    is_dot = text[marks] == ord(".")
    seps = np.compress(~is_dot, marks)
    n = seps.size
    if n % cols:
        return None
    newline = (text[seps] == ord("\n")).reshape(-1, cols)
    if newline[:, :-1].any() or not newline[:, -1].all():
        return None
    dots = np.flatnonzero(is_dot)
    owner = dots - np.arange(dots.size)  # the seps before a dot: its field
    if np.any(owner[1:] == owner[:-1]):  # two dots in one field
        return None
    dots = marks[dots]
    del marks, is_dot
    lens = np.diff(seps, prepend=-1) - 1
    if lens.min() < 1 or lens.max() > _FIELD:
        return None
    negative = text[seps - lens] == ord("-")

    # the exponent: e, a sign and two or three digits end the field, and
    # a digit comes before them (bytes clipped to the text's first are
    # never in the field); a uint8 digit below '0' wraps past 9
    elen = np.where(text.take(seps - 5, mode="clip") == ord("e"), 5,
                    4 * (text.take(seps - 4, mode="clip") == ord("e")))
    elen *= elen < lens
    E = np.zeros(n, np.int64)
    ie = np.flatnonzero(elen)
    if ie.size:
        end = seps[ie]
        three = elen[ie] == 5
        sign = text[end - 3 - three]
        d = [text[end - k] - np.uint8(ord("0")) for k in (1, 2, 3)]
        d[2] *= three
        if (np.any((sign != ord("+")) & (sign != ord("-")))
                or any(np.any(x > 9) for x in d)):
            return None
        value = 100 * d[2].astype(np.int64) + 10 * d[1] + d[0]
        E[ie] = np.where(sign == ord("-"), -value, value)
        del end, three, sign, d, value
    del ie

    # each field's mantissa right-aligned in a slot of _FIELD bytes, its
    # digits and dot xor '0' (digits become 0-9): at is the text byte of
    # its slot's first, gq indexes its masks, and a spare slot leads,
    # which only the first field's masked bytes read
    at = seps - elen - _FIELD
    q = np.zeros(n, np.int64)  # 1 + the slot byte of the field's dot
    q[owner] = dots - at[owner] + 1
    del owner, dots
    E += _FRACTION[q]
    lens -= elen + negative  # the digits and the dot
    del elen
    if (lens - (q > 0)).min() < 1:
        return None
    gq = (_FIELD - lens) * 25 + q
    del q, lens
    head = int(np.searchsorted(at, 0))
    slots = np.empty((n + 1, _WORDS), np.uint64)
    windows = np.ndarray((max(text.size - _FIELD + 1, 0),), f"V{_FIELD}",
                         text, strides=(1,))
    slots[1 + head:].view(f"V{_FIELD}")[:, 0] = windows[at[head:]]
    for i in range(head):
        slots[1 + i] = np.frombuffer(
            text[:at[i] + _FIELD].tobytes().rjust(_FIELD, b"\0"), np.uint64)
    del at
    slots ^= _ZERO_BYTES
    # the bytes before the first digit become 0, and those before the dot
    # move one up, over it: word k takes _MOVE's bytes from the slot read
    # a byte back, so the words go from the last down, one at a time
    for k in range(_WORDS - 1, -1, -1):
        back = np.ndarray(n, np.uint64, slots, _FIELD + 8 * k - 1, (_FIELD,))
        moved = np.take(_MOVE[k], gq, mode="clip")
        moved &= back
        word = slots[1:, k]
        word &= np.take(_HIGH[k], gq, mode="clip")
        word |= moved
    del gq, moved, back, word  # and with them their hold on slots
    # every byte is a digit: its high nibble is 0, and stays 0 plus 6
    flat = slots[1:].reshape(-1)
    if ((np.bitwise_or.reduce(flat) | np.bitwise_or.reduce(flat + _SIX))
            & _HIGH_NIBBLES):
        return None

    # eight digits to an integer in three multiply-shift steps per word
    for multiplier, shift, mask in _EIGHT_DIGITS:
        flat *= multiplier
        flat >>= shift
        flat &= mask
    if slots[1:, 0].max() >= 1000:  # more than 19 digits
        return None
    M = (slots[1:, 0] * np.uint64(10 ** 16)
         + slots[1:, 1] * np.uint64(10 ** 8) + slots[1:, 2])
    r = M.astype(_LD)
    del slots, M, flat

    # M * 10**E in long double, and to double where that rounds as M
    # * 10**E does: |E| <= 54 and off a midpoint by more than the error
    r /= _POWERS[np.minimum(np.maximum(-E, 0), 54)]
    up = np.flatnonzero(E > 0)
    r[up] *= _POWERS[np.minimum(E[up], 54)]
    fast = np.abs(E) <= 54
    if _WIDE:
        bits = (r.view(np.uint64)[::2] & np.uint64(0x7ff)).astype(np.int64)
        fast &= np.abs(bits - 1024) > 3
    else:
        fast[:] = False
    values = r.astype(np.float64)
    values.view(np.uint64)[...] |= negative.astype(np.uint64) << np.uint64(63)
    for i in np.flatnonzero(~fast).tolist():
        start = seps[i - 1] + 1 if i else 0
        values[i] = float(text[start:seps[i]].tobytes())
    return values.reshape(-1, cols)
