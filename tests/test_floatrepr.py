import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heavywalk.floatrepr import repr_floats


def _same(x):
    # each matrix row, its NULs dropped, is repr's bytes
    x = np.asarray(x, dtype=np.float64)
    got, want = repr_floats(x), [repr(v).encode() for v in x.tolist()]
    assert got.dtype == np.uint8 and len(got) == len(want)
    bad = [(g, w) for g, w in zip((r.tobytes().replace(b"\0", b"") for r in got), want)
           if g != w]
    assert not bad, bad[:5]


def test_random_bit_patterns():
    # every exponent, sign and special value: the array path and repr's
    rng = np.random.default_rng(1)
    _same(rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64))
    # the array path's range, 1 <= |x| < 1e16, densely
    bits = rng.integers(0x3FF0000000000000, 0x4341C37937E08000, 200_000, dtype=np.int64)
    _same(bits.view(np.float64) * rng.choice([-1.0, 1.0], bits.size))


def test_short_decimals_and_their_neighbours():
    # values repr writes with few digits, and the floats next to them, which
    # need 16 or 17
    rng = np.random.default_rng(2)
    parts = []
    for ndig in range(1, 18):
        m = rng.integers(10 ** (ndig - 1), 10 ** ndig, 4000, dtype=np.int64)
        v = m.astype(np.float64) * 10.0 ** (rng.integers(-3, 17, m.size) - ndig)
        parts += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf), -v]
    _same(np.concatenate(parts))


def test_edges():
    # powers of two (an asymmetric rounding interval) and ten, halves, the
    # ends of the array path's range, zeros and non-finite values
    k = np.arange(-60, 60)
    p2, p10 = 2.0 ** k, 10.0 ** np.arange(-6, 18)
    near = [np.nextafter(v, d) for v in (p2, p10) for d in (0.0, np.inf)]
    halves = (np.arange(1, 20_001) + 0.5) * 2.0 ** (np.arange(20_000) % 60 - 30)
    _same(np.concatenate([p2, p10, *near, halves, -halves,
                          [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 1e16, 9999999999999998.0,
                           30.0, -30.0, 0.1, 5e-324, 1.7976931348623157e308]]))


def test_below_one():
    # |x| < 1 in the array path down to 1e-4, and repr's scientific form
    # below it: every binade from 2^-20 to 1, the boundaries and their
    # neighbours, and short decimals at each exponent
    rng = np.random.default_rng(4)
    bits = rng.integers(0x3EB0000000000000, 0x3FF0000000000000, 200_000, dtype=np.int64)
    x = bits.view(np.float64)
    p10 = 10.0 ** np.arange(-6, 1)
    short = rng.integers(1, 10 ** 6, 20_000) * 10.0 ** rng.integers(-10, -6, 20_000)
    ends = np.concatenate([p10, 5 * p10, 1.5 * p10, 0.999 * p10, [0.1, 0.5, 1e-5, 0.3, 0.7]])
    near = [np.nextafter(ends, d) for d in (0.0, np.inf)]
    _same(np.concatenate([x, -x, short, -short, ends, -ends, *near]))


def test_integer_valued_floats():
    # the digit search is skipped for these: every magnitude from 1 to 1e16
    # on both signs, the ends of the exact-integer range and the start levels
    # the tests and the benchmark use
    mags = np.append(np.arange(1, 10) * 10.0 ** np.arange(16)[:, None], 1e16)
    _same(np.concatenate([mags, -mags, [2.0 ** 52 - 1, 2.0 ** 52 + 1, 2.0 ** 53 - 1,
                                        2.0 ** 53 + 2, 2.0 - 2.0 ** 53, 9999999999999998.0,
                                        30.0, 50.0]]))
    rng = np.random.default_rng(3)
    _same(np.arange(-3000.0, 3001.0))
    _same(rng.integers(-2 ** 53, 2 ** 53, 20_000).astype(np.float64))
    _same(np.rint(rng.normal(size=20_000) * 1e6))


def test_empty_and_strided():
    assert repr_floats(np.array([], dtype=np.float64)).size == 0
    x = np.linspace(-50.0, 50.0, 1001)
    _same(x[::3])
    _same(x.astype(np.float32))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_any_floats(values):
    _same(values)
