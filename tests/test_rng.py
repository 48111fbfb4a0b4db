"""Stream quality of the counter-based uniforms, registered with its
thresholds before the streams were run.

Two samples of seed 1's key: across 2^18 trajectories at each of the
counters 0, 1, 1000 and 2^32 - 1 (the "wide" samples), and along 4096
counters of 64 trajectories (the "long" sample, trajectory by trajectory).
On each: the chi-square of 1024 equal bins, a serial-pair chi-square of
32 x 32 bins on disjoint pairs (adjacent trajectories, adjacent counters,
and draw 0 against draw 1 of each trajectory), the lag-1 correlation of the
same pairs, and the frequency of each of a uniform's 53 bits.  Every
p-value must be at least 1e-6 and every correlation within 6 / sqrt(N) of 0.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from heavywalk.rng import seed_key, stream_starts, uniform_array

KEY = seed_key(1)
N_WIDE = 2 ** 18
WIDE_COUNTERS = (0, 1, 1000, 2 ** 32 - 1)
LONG_TRAJ, LONG_COUNTERS = 64, 4096
P_MIN = 1e-6
SAMPLES = [f"wide-c{c}" for c in WIDE_COUNTERS] + ["long"]
PAIRS = [f"adjacent_trajectories-c{c}" for c in WIDE_COUNTERS] + ["adjacent_counters",
                                                                     "draw0_draw1"]


@functools.lru_cache(maxsize=None)
def _wide(counter: int) -> np.ndarray:
    return uniform_array(KEY, stream_starts(KEY, np.arange(N_WIDE, dtype=np.int64)), counter)


@functools.lru_cache(maxsize=None)
def _long() -> np.ndarray:
    """(trajectory, counter) array of the long sample."""
    starts = stream_starts(KEY, np.arange(LONG_TRAJ, dtype=np.int64))
    return np.stack([uniform_array(KEY, starts, c) for c in range(LONG_COUNTERS)], axis=1)


def _sample(name: str) -> np.ndarray:
    return _long().ravel() if name == "long" else _wide(int(name.split("-c")[1]))


def _pair(name: str) -> tuple:
    """Disjoint (first, second) pairs."""
    if name == "adjacent_counters":
        x = _long()
        return x[:, 0::2].ravel(), x[:, 1::2].ravel()
    if name == "draw0_draw1":
        return _wide(0), _wide(1)
    u = _wide(int(name.split("-c")[1]))
    return u[0::2], u[1::2]


def _chi2_p(counts: np.ndarray) -> float:
    """Upper-tail p-value of the chi-square of equal-probability cells."""
    expect = counts.sum() / counts.size
    stat = float(((counts - expect) ** 2).sum() / expect)
    return float(mp.gammainc((counts.size - 1) / 2.0, stat / 2.0, mp.inf, regularized=True))


@pytest.mark.parametrize("name", SAMPLES)
def test_uniform_chi_square(name):
    u = _sample(name)
    assert 0.0 <= u.min() and u.max() < 1.0
    counts = np.bincount((u * 1024).astype(np.int64), minlength=1024)
    assert _chi2_p(counts) >= P_MIN


@pytest.mark.parametrize("name", PAIRS)
def test_serial_pair_chi_square(name):
    x, y = _pair(name)
    cells = (x * 32).astype(np.int64) * 32 + (y * 32).astype(np.int64)
    assert _chi2_p(np.bincount(cells, minlength=32 * 32)) >= P_MIN


@pytest.mark.parametrize("name", PAIRS)
def test_lag1_correlation(name):
    x, y = _pair(name)
    assert abs(np.corrcoef(x, y)[0, 1]) <= 6.0 / math.sqrt(x.size)


@pytest.mark.parametrize("name", SAMPLES)
def test_bit_frequencies(name):
    # u * 2^53 is the uniform's 53-bit integer, exactly
    words = (_sample(name) * 2.0 ** 53).astype(np.uint64)
    n = words.size
    for bit in range(53):
        ones = int(np.count_nonzero((words >> np.uint64(bit)) & np.uint64(1)))
        z = abs(ones - n / 2.0) / math.sqrt(n / 4.0)
        assert math.erfc(z / math.sqrt(2.0)) >= P_MIN, bit
