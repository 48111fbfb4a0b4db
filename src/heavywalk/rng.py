"""Counter-based uniform streams for reproducible parallel simulation.

Every uniform is a pure function of (master_seed, trajectory_index,
draw_counter), so results are bit-identical however trajectories are
partitioned across workers.  The mixing is a double splitmix64 finalizer on
a Weyl-spread counter word; the scalar and vectorized paths share the exact
same arithmetic (mod 2^64).
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError

_MASK = (1 << 64) - 1
# a uniform's counter fills the low 32 bits of its stream word (uniform_at),
# and the trajectory index the high 32
_COUNTER_SPAN = 2 ** 32
_PHI = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_INV_2_53 = 2.0 ** -53


def _mix_int(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * _M1) & _MASK
    z ^= z >> 27
    z = (z * _M2) & _MASK
    return z ^ (z >> 31)


def integer_in(name: str, v, low: int, high: float) -> int:
    """v as an int if it is an integer (numpy's too, not a bool) in [low, high];
    otherwise a DomainError naming name and the range."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool) or not low <= int(v) <= high:
        raise DomainError(f"{name} must be an integer in [{low}, {high}], got {v!r}")
    return int(v)


def checked_seed(seed, name: str = "seed") -> int:
    """The seed rule of every stream: a seed is the stream's 64-bit key, so it
    is an integer in [0, 2^64) and no two accepted seeds share a stream."""
    return integer_in(name, seed, 0, _MASK)


def seed_key(master_seed: int) -> int:
    """The 64-bit stream key of a seed that keeps the seed rule."""
    return _mix_int((checked_seed(master_seed) + _PHI) * _PHI)


def uniform_at(key: int, traj: int, counter: int) -> float:
    """The counter-th uniform of trajectory traj, in [0, 1)."""
    z = ((traj << 32) | counter) & _MASK
    h = _mix_int(_mix_int((z * _PHI + key) & _MASK))
    return (h >> 11) * _INV_2_53


def _const(value, dtype=np.float64) -> np.ndarray:
    """A read-only 0-d array operand: numpy dispatches a ufunc on one faster
    than on a Python or numpy scalar, with the same result."""
    c = np.array(value, dtype=dtype)
    c.flags.writeable = False
    return c


_U30, _U27, _U31, _U11 = (_const(k, np.uint64) for k in (30, 27, 31, 11))
_UM1, _UM2 = _const(_M1, np.uint64), _const(_M2, np.uint64)
# the stream word ((traj << 32) | counter) * PHI + key, split into a
# trajectory part and a counter part: exact because counter < 2^32 (SimConfig
# enforces it), so the or is a sum
_UPHI32 = _const((_PHI << 32) & _MASK, np.uint64)
_FINV_2_53 = _const(_INV_2_53)


def _mix_vec(z: np.ndarray) -> np.ndarray:
    """_mix_int in place on a uint64 array."""
    z ^= z >> _U30
    z *= _UM1
    z ^= z >> _U27
    z *= _UM2
    z ^= z >> _U31
    return z


def uniform_array(key: int, traj: np.ndarray, counter: int) -> np.ndarray:
    """Vectorized uniform_at over an int64 array of trajectory indices, for a
    counter below 2^32 (the low half of the stream word)."""
    z = traj.astype(np.uint64)
    z *= _UPHI32
    z += np.array((counter * _PHI + key) & _MASK, dtype=np.uint64)
    h = _mix_vec(_mix_vec(z))
    h >>= _U11
    u = h.astype(np.float64)
    u *= _FINV_2_53
    return u


class CounterStream:
    """Scalar stream view: .random() walks one trajectory's counter."""

    def __init__(self, master_seed: int, traj_index: int = 0):
        self.key = seed_key(master_seed)
        self.traj = integer_in("traj_index", traj_index, 0, _COUNTER_SPAN - 1)
        self.counter = 0

    def random(self) -> float:
        if self.counter >= _COUNTER_SPAN:   # counter 2^32 is the next trajectory's counter 0
            raise DomainError(f"trajectory {self.traj}'s stream is spent: 2^32 uniforms drawn")
        u = uniform_at(self.key, self.traj, self.counter)
        self.counter += 1
        return u
