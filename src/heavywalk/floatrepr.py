"""repr of many floats at once, with the same characters, as a byte matrix.

Python's repr of a float is the shortest decimal string that reads back as
the same float, the nearest such string when several are that short.
`repr_floats` builds it with array arithmetic for every finite x with
1e-4 <= |x| < 1e16 that is not a power of two, and calls repr for the rest
and for the rare x whose digits it cannot settle exactly.  It returns a
uint8 matrix with one row per value: the row's non-NUL bytes, in order, are
repr's characters, so a writer drops the NULs of many rows in one pass.  An
integer-valued x skips the digit search: below 1e16 its integer digits are
already the shortest, and repr writes them with ".0".

The digits are found exactly.  With E = floor(log10 |x|), V = |x| * 10^(16 - E)
lies in [1e16, 1e17); 10^(16 - E) <= 10^20 is an exact double, so Dekker's
product gives V as big + f, big an int64 and |f| <= 1/2, with no rounding.
The neighbours of x are 2H away, H half a unit in its last place times
10^(16 - E), and the interval is symmetric because x is not a power of two.
The 17 - m digit candidate is V rounded half-even to a multiple of 10^m; it
reads back as x when it lies within H of V.  The shortest candidate that
does is repr's.  The one comparison that float rounding could decide
wrongly, a distance equal to H, sends x to repr.  repr writes |x| >= 1 with
the '.' after the first E + 1 digits, and |x| < 1 as "0.", -E - 1 zeros and
the digits.
"""

from __future__ import annotations

import numpy as np

from .specialfn import _two_product

_P10 = 10 ** np.arange(18, dtype=np.int64)
_F10 = np.array([float(10 ** k) for k in range(22)])   # exact doubles
# V's range: the margin exceeds |f| <= 8 (see below) plus H < 12, so every
# candidate that reads back has 17 digits; a log10 off by one lands outside
_V_LO, _V_HI = float(10 ** 16 + 32), float(10 ** 17 - 32)
_MANTISSA = np.uint64(2 ** 52 - 1)
_CHAR = np.arange(18, dtype=np.int8)[:, None]   # positions in the digit rows
# |x| < 1 starts with "0." and -E - 1 zeros: the character at prefix
# position j, written when -E reaches _PREFIX_FROM[j]
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_PREFIX_FROM = np.array([1, 1, 2, 3, 4], dtype=np.int8)[:, None]
_WIDTH = 24   # the longest repr: '-', 17 digits, '.', 'e', '-' and 3 exponent digits


def repr_floats(col: np.ndarray) -> np.ndarray:
    """The bytes of repr(v) for each v of a 1-d float array, as the non-NUL
    bytes of the rows of an (n, 24) uint8 matrix."""
    x = np.ascontiguousarray(col, dtype=np.float64)
    n = x.size
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16) & ((x.view(np.uint64) & _MANTISSA) != 0)
    ax = np.where(fast, ax, 1.0)   # integer-valued: the digit search skips it
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    scale = _F10[16 - e10]
    p, err = _two_product(ax, scale)
    fast &= (p >= _V_LO) & (p < _V_HI)
    # V = big + f exactly, with |err| <= 8 (p < 2^57) and err - rint(err)
    # exact (Sterbenz).  big is V rounded half-even: p >= 2^53 is even, and
    # rint rounds err's halves to even
    r = np.rint(err)
    big = np.where(fast, p, _V_LO).astype(np.int64) + r.astype(np.int64)
    f = err - r
    h = np.spacing(ax) * 0.5 * scale   # a power of two times an exact double: exact
    # 17 digits always read back (|f| <= 1/2 < H)
    digits = big.copy()
    # an integer-valued x needs no search: below 1e16 its integer digits are
    # repr's, and the layout prints them and ".0" whatever ndig says.  It is
    # the x the search would keep longest (30.0 reads back down to 2 digits)
    whole = np.rint(ax) == ax
    ndig = np.where(whole, np.int8(1), np.int8(17))
    at = np.flatnonzero(~whole)
    big, f, h = big[at], f[at], h[at]
    # fewer digits read back only where one more does, so each pass keeps
    # the entries whose candidate still reads back
    for m in range(1, 17):
        pm = _P10[m]
        q = big // pm
        t = (big - q * pm - pm // 2).astype(np.float64) + f   # sign of V mod 10^m - 10^m / 2
        up = t > 0.0
        tie = t == 0.0
        if tie.any():
            up |= tie & (q & 1 == 1)
        cand = (q + up) * pm
        dist = np.abs((cand - big).astype(np.float64) - f)
        edge = dist == h
        if edge.any():
            fast[at[edge]] = False
        keep = np.flatnonzero(dist < h)
        if not keep.size:
            break
        at, big, f, h, cand = at[keep], big[keep], f[keep], h[keep], cand[keep]
        digits[at] = cand
        ndig[at] = 17 - m
    digits = np.where(fast, digits, _P10[16])
    e10 = np.where(fast, e10, 0).astype(np.int8)
    ndig = np.where(fast, ndig, 1)
    # rows, one column per value: the sign, the prefix of |x| < 1, then the
    # digits with the '.' among them; a NUL where a value has no character
    out = np.empty((_WIDTH, n), dtype=np.uint8)
    out[0] = (x < 0).view(np.uint8) * ord("-")
    small = e10 < 0
    out[1:6] = _PREFIX * (_PREFIX_FROM <= -e10).view(np.uint8)
    # src row k + 1 - o feeds digit character k, o = 1 past the '.': a spare
    # row, the 17 digits, a spare row
    src = np.full((19, n), ord("0"), dtype=np.uint8)
    hi = (digits // 10 ** 9).astype(np.uint32)
    for v, rows in (((digits - hi.astype(np.int64) * 10 ** 9).astype(np.uint32), range(17, 8, -1)),
                    (hi, range(8, 0, -1))):
        for j in rows:
            q = v // 10
            src[j] += (v - q * 10).astype(np.uint8)
            v = q
    # the last integer digit of |x| >= 1; |x| < 1 has its "0." in the prefix.
    # uint8 arithmetic (wrapping) selects without masked copies, which are slow
    point = np.where(small, np.int8(17), e10)
    a0, a1 = src[1:19], src[0:18]
    dig = out[6:]
    np.subtract(a0, (_CHAR > point).view(np.uint8) * (a0 - a1), out=dig)
    dig += (_CHAR == point + 1).view(np.uint8) * (ord(".") - dig)
    # the fraction runs to the last significant digit, or is one '0'
    dig *= (_CHAR <= np.where(small, ndig - 1, np.maximum(ndig, e10 + 2))).view(np.uint8)
    out = out.T
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(repr(v).encode().ljust(_WIDTH, b"\0") for v in x[slow].tolist())
        out[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _WIDTH)
    return out
