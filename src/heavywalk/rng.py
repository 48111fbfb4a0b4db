"""Counter-based uniform streams for reproducible parallel simulation.

Every uniform is a pure function of (master_seed, trajectory_index,
draw_counter), so results are bit-identical however trajectories are
partitioned across workers.  Each trajectory t has its own splitmix64
stream (Steele, Lea & Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014): its start word S_t = mix64(t * PHI + key) is
itself a splitmix64 output, taken once per trajectory, and its uniform c is
the top 53 bits of mix64(S_t + c * PHI + key), one finalizer per uniform.
The scalar and vectorized paths share the exact same arithmetic (mod 2^64).

Trajectory indices and counters are each capped at 2^32, so a stream is
at most 2^32 words of the Weyl sequence.  Streams are disjoint with high
probability rather than by construction: n trajectories of at most L draws
each overlap somewhere with probability at most n^2 L / 2^64 (2.8e-7 at
16000 trajectories of 2 x 10^4 draws, about 0.1 at 10^6 trajectories of
10^6 two-draw steps).
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError

_MASK = (1 << 64) - 1
# the cap on a trajectory index and on a uniform's counter: a stream is at
# most 2^32 words long, the L of the overlap bound
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


def stream_start(key: int, traj: int) -> int:
    """The start word of trajectory traj's stream, mix64(traj * PHI + key): a
    bijection of the index, so no two trajectories share a start."""
    return _mix_int(traj * _PHI + key)


def uniform_at(key: int, start: int, counter: int) -> float:
    """The counter-th uniform, in [0, 1), of the stream that starts at word
    start (trajectory traj's is stream_start(key, traj))."""
    return (_mix_int(start + counter * _PHI + key) >> 11) * _INV_2_53


def _const(value, dtype=np.float64) -> np.ndarray:
    """A read-only 0-d array operand: numpy dispatches a ufunc on one faster
    than on a Python or numpy scalar, with the same result."""
    c = np.array(value, dtype=dtype)
    c.flags.writeable = False
    return c


_U30, _U27, _U31, _U11 = (_const(k, np.uint64) for k in (30, 27, 31, 11))
_UM1, _UM2, _UPHI = (_const(k, np.uint64) for k in (_M1, _M2, _PHI))
_FINV_2_53 = _const(_INV_2_53)


def _mix_vec(z: np.ndarray) -> np.ndarray:
    """_mix_int in place on a uint64 array."""
    z ^= z >> _U30
    z *= _UM1
    z ^= z >> _U27
    z *= _UM2
    z ^= z >> _U31
    return z


def stream_starts(key: int, traj: np.ndarray) -> np.ndarray:
    """Vectorized stream_start over an int64 array of trajectory indices: the
    uint64 start words uniform_array takes."""
    z = traj.astype(np.uint64)
    z *= _UPHI
    z += np.array(key, dtype=np.uint64)
    return _mix_vec(z)


def uniform_array(key: int, start: np.ndarray, counter: int) -> np.ndarray:
    """Vectorized uniform_at over a uint64 array of start words (stream_starts
    of the trajectory indices), for one counter."""
    h = _mix_vec(start + np.array((counter * _PHI + key) & _MASK, dtype=np.uint64))
    h >>= _U11
    u = h.astype(np.float64)
    u *= _FINV_2_53
    return u


class CounterStream:
    """Scalar view of one trajectory's stream: its start word is taken once,
    and .random() walks its counter, up to the 2^32 cap."""

    def __init__(self, master_seed: int, traj_index: int = 0):
        self.key = seed_key(master_seed)
        self.traj = integer_in("traj_index", traj_index, 0, _COUNTER_SPAN - 1)
        self.start = stream_start(self.key, self.traj)
        self.counter = 0

    def random(self) -> float:
        if self.counter >= _COUNTER_SPAN:
            raise DomainError(f"trajectory {self.traj}'s stream is spent: 2^32 uniforms drawn")
        u = uniform_at(self.key, self.start, self.counter)
        self.counter += 1
        return u
