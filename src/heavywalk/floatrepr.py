"""repr of many floats at once, with the same characters, as ASCII bytes.

Python's repr of a float is the shortest decimal string that reads back as
the same float, the nearest such string when several are that short.
`repr_floats` builds it with array arithmetic for every finite x with
1 <= |x| < 1e16 that is not a power of two, and calls repr for the rest
and for the rare x whose digits it cannot settle exactly.  An
integer-valued x skips the digit search: below 1e16 its integer digits are
already the shortest, and repr writes them with ".0".

The digits are found exactly.  With E = floor(log10 |x|), V = |x| * 10^(16 - E)
lies in [1e16, 1e17), and Dekker's product gives it as big + f, big an int64
and |f| <= 1/2, with no rounding.  The neighbours of x are 2H away, H half a
unit in its last place times 10^(16 - E), and the interval is symmetric
because x is not a power of two.  The 17 - m digit candidate is V rounded
half-even to a multiple of 10^m; it reads back as x when it lies within H of
V.  The shortest candidate that does is repr's.  The one comparison that
float rounding could decide wrongly, a distance equal to H, sends x to repr.
"""

from __future__ import annotations

import numpy as np

from .specialfn import _two_product

_P10 = 10 ** np.arange(18, dtype=np.int64)
_F10 = np.array([float(10 ** k) for k in range(17)])   # exact doubles
# V's range: the margin exceeds |f| <= 8 (see below) plus H < 12, so every
# candidate that reads back has 17 digits; a log10 off by one lands outside
_V_LO, _V_HI = float(10 ** 16 + 32), float(10 ** 17 - 32)
_MANTISSA = np.uint64(2 ** 52 - 1)
_TEN = np.uint32(10)
_CHAR = np.arange(20, dtype=np.int8)[:, None]   # character positions
_WIDTH = 20   # '-', 17 digits, '.', and one '0' past a 16-digit integer part


def repr_floats(col: np.ndarray) -> list[bytes]:
    """[repr(v).encode() for v in col.tolist()], for a 1-d float array."""
    x = np.ascontiguousarray(col, dtype=np.float64)
    n = x.size
    ax = np.abs(x)
    fast = (ax >= 1.0) & (ax < 1e16) & ((x.view(np.uint64) & _MANTISSA) != 0)
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
        keep = dist < h
        if not keep.any():
            break
        at, big, f, h, cand = at[keep], big[keep], f[keep], h[keep], cand[keep]
        digits[at] = cand
        ndig[at] = 17 - m
    digits = np.where(fast, digits, _P10[16])
    e10 = np.where(fast, e10, 0).astype(np.int8)
    ndig = np.where(fast, ndig, 1)
    # src row k + 2 - o feeds character k, o in {0, 1, 2}: a spare row, '-',
    # the 17 digits, then '0's past them
    src = np.full((22, n), ord("0"), dtype=np.uint8)
    src[1] = ord("-")
    hi = (digits // 10 ** 9).astype(np.uint32)
    for v, rows in (((digits - hi.astype(np.int64) * 10 ** 9).astype(np.uint32), range(18, 9, -1)),
                    (hi, range(9, 1, -1))):
        for j in rows:
            q = v // _TEN
            src[j] += (v - q * _TEN).astype(np.uint8)
            v = q
    # o counts the '-' and, past the last integer digit, the '.'; uint8
    # arithmetic (wrapping) selects without masked copies, which are slow
    neg = (x < 0).view(np.uint8)
    point = e10 + neg.view(np.int8)     # position of the last integer digit
    past = (_CHAR > point).view(np.uint8)
    a0, a1, a2 = src[2:22], src[1:21], src[0:20]
    out = a0 - (past | neg) * (a0 - a1) - (past & neg) * (a1 - a2)
    out += (_CHAR == point + 1).view(np.uint8) * (ord(".") - out)
    # the fraction runs to the last significant digit, or is one '0'
    out *= (_CHAR <= np.maximum(ndig, e10 + 2) + neg.view(np.int8)).view(np.uint8)
    cells = np.ascontiguousarray(out.T).view(f"S{_WIDTH}").ravel().tolist()
    for i in np.flatnonzero(~fast).tolist():
        cells[i] = repr(float(x[i])).encode()
    return cells
