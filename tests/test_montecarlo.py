import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heavywalk
from heavywalk import build_law, plane_radial_law, plane_transverse_law, step
from heavywalk.errors import DomainError, InsufficientDataError
from heavywalk.increments import _U_MIN, _quantile
from heavywalk.montecarlo import (TRAJECTORY_COLUMNS, SimConfig, _chunk, _law_constants,
                                  _simulate_batch, estimate_passage_tail, phase_diagnostic,
                                  run_trajectories, survival_curve, survival_grid)
from heavywalk.rng import (CounterStream, _const, seed_key, stream_start, stream_starts,
                           uniform_array, uniform_at)

from conftest import balanced, half_line, line_in, line_out, plane


# ---------------------------------------------------------------------------
# counter-based RNG
# ---------------------------------------------------------------------------

def test_rng_scalar_vector_agreement():
    key = seed_key(42)
    # up to the top of the index and counter caps
    idx = np.array([0, 1, 5, 1000, 2 ** 20, 2 ** 32 - 1], dtype=np.int64)
    starts = stream_starts(key, idx)
    assert starts.dtype == np.uint64
    assert starts.tolist() == [stream_start(key, int(i)) for i in idx]
    for ctr in (0, 1, 77, 199_999, 2 ** 32 - 1):
        vec = uniform_array(key, starts, ctr)
        assert list(vec) == [uniform_at(key, stream_start(key, int(i)), ctr) for i in idx]
        streams = [CounterStream(42, int(i)) for i in idx]
        for stream in streams:
            stream.counter = ctr
        assert [stream.random() for stream in streams] == list(vec)


def test_uniform_at_pinned_values():
    # literal values of the streams: a change of stream design fails here by name
    key = seed_key(42)
    assert [uniform_at(key, stream_start(key, t), c)
            for t, c in ((0, 0), (1, 0), (0, 1), (2 ** 32 - 1, 2 ** 32 - 1))] \
        == [0.9840842582986219, 0.6497955917482233, 0.6885268341329928, 0.13525905084579048]

    def splitmix64(state):
        """Textbook splitmix64 from its state before the first output."""
        mask = 2 ** 64 - 1
        while True:
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            yield z ^ (z >> 31)

    # trajectory t's start word is output t (from 0) of the generator whose
    # first output is at the key, and its uniforms the top 53 bits of the
    # outputs of the generator whose first output is at start + key
    phi = 0x9E3779B97F4A7C15
    starts = splitmix64((key - phi) % 2 ** 64)
    for t in range(3):
        start = next(starts)
        assert start == stream_start(key, t)
        outputs = splitmix64((start + key - phi) % 2 ** 64)
        stream = CounterStream(42, t)
        assert [stream.random() for _ in range(5)] == [(next(outputs) >> 11) * 2.0 ** -53
                                                       for _ in range(5)]


def test_rng_stream_is_pure():
    s1 = CounterStream(7, 3)
    vals1 = [s1.random() for _ in range(10)]
    s2 = CounterStream(7, 3)
    assert vals1 == [s2.random() for _ in range(10)]
    assert CounterStream(8, 3).random() != vals1[0]
    assert CounterStream(7, 4).random() != vals1[0]


@pytest.mark.parametrize("seed, traj", [(2 ** 64, 0), (-1, 0), (True, 0), (1.5, 0),
                                        (5, 2 ** 32), (5, -1), (5, True)],
                         ids=["seed_past_2_64", "seed_negative", "seed_bool", "seed_float",
                              "traj_past_2_32", "traj_negative", "traj_bool"])
def test_counter_stream_refuses_what_would_alias(seed, traj):
    # the seed is the stream's 64-bit key: 2^64 would draw seed 0's uniforms;
    # an index is capped at 2^32 like the engine's n_traj, and -1 would fold
    # onto 2^64 - 1
    with pytest.raises(DomainError, match="must be an integer in"):
        CounterStream(seed, traj)


def test_counter_stream_runs_at_its_edges():
    for seed, traj in ((0, 0), (2 ** 64 - 1, 2 ** 32 - 1), (np.uint64(2 ** 64 - 1), np.int64(7))):
        stream = CounterStream(seed, traj)
        assert type(stream.traj) is int
        key = seed_key(int(seed))
        assert stream.random() == uniform_at(key, stream_start(key, int(traj)), 0)
    with pytest.raises(DomainError):
        seed_key(2 ** 64)


def test_counter_stream_refuses_a_spent_counter():
    # a stream is capped at 2^32 uniforms, the stream length of the bound on
    # two trajectories' streams overlapping
    stream = CounterStream(5, 0)
    stream.counter = 2 ** 32 - 1
    key = seed_key(5)
    assert stream.random() == uniform_at(key, stream_start(key, 0), 2 ** 32 - 1)
    with pytest.raises(DomainError, match="spent"):
        stream.random()


def test_rng_rough_uniformity():
    key = seed_key(1)
    u = uniform_array(key, stream_starts(key, np.arange(100_000, dtype=np.int64)), 5)
    assert abs(u.mean() - 0.5) < 0.005
    assert 0.0 <= u.min() and u.max() < 1.0
    counts, _ = np.histogram(u, bins=20, range=(0, 1))
    chi2 = float(((counts - 5000.0) ** 2 / 5000.0).sum())
    assert chi2 < 45.0   # chi2_{19} at 0.07% is ~46


# ---------------------------------------------------------------------------
# the sampler contract: the engine's mixture is the law's quantile
# ---------------------------------------------------------------------------

def _pieces(law):
    """(weight, signed scale or width, exponent or None) in law order: the
    Pareto side, its mirror image when two-sided, then the light uniform."""
    pieces = [(law.p, law.scale, law.exponent)]
    if law.two_sided:
        pieces.append((law.p, -law.scale, law.exponent))
    return pieces + [(law.light_weight, law.light, None)]


def _piece_loop_quantile(law, u1, u2):
    """Oracle: the quantile as a loop over the pieces, each taking u1 in its
    cumulative-weight band [lo, hi), with no upper bound once hi reaches 1.0."""
    u2 = np.maximum(u2, _U_MIN)
    out = np.zeros(np.broadcast(u1, u2).shape)
    lo = 0.0
    for w, a, e in _pieces(law):
        hi = lo + w
        pick = (u1 >= lo) & (u1 < hi) if hi < 1.0 else (u1 >= lo)
        out = np.where(pick, a * u2 ** (-1.0 / e) if e is not None else a * u2, out)
        lo = hi
    return out


def _sampler_cases():
    for spec in (half_line(), half_line(gamma=0.5, b=-1.0), line_out(), line_out(gamma=0.1, b=1.0),
                 line_in(), line_in(gamma=0.5, b=-0.5), balanced(), balanced(gamma=0.5, b=0.5)):
        xf = spec.x_floor()
        for x in (1.0, 10.0 * xf, 1e4, -1.0, -10.0 * xf, -1e4):
            yield pytest.param(spec, x, build_law(spec, x), id=f"{spec.regime}-b{spec.drift.b}-x{x}")
    spec = plane(p_radial=0.7, c_radial=2.0, c_transverse=0.5)
    yield pytest.param(spec, None, plane_radial_law(spec), id="plane-radial")
    yield pytest.param(spec, None, plane_transverse_law(spec), id="plane-transverse")


@pytest.mark.parametrize("spec, x, law", _sampler_cases())
def test_mixture_is_the_law_quantile(spec, x, law):
    # u1 at every boundary between pieces and its two float neighbours
    bounds = np.cumsum([w for w, _, _ in _pieces(law)])[:-1]
    u1 = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], bounds, np.nextafter(bounds, 0.0),
                         np.nextafter(bounds, 1.0)])
    u2 = np.array([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])
    u1, u2 = (g.ravel() for g in np.meshgrid(u1, u2))
    # as the engine draws: u2 clipped away from 0, the power a 0-d constant
    clipped = np.maximum(u2, _U_MIN)
    pw = clipped ** _const(-1.0 / spec.heavy_exponent)
    constants = _law_constants(law)
    want = _piece_loop_quantile(law, u1, u2)
    assert law.quantile(u1, u2).tobytes() == want.tobytes()
    assert _quantile(u1, clipped, pw, *constants).tobytes() == want.tobytes()
    if x is not None:
        # the engine's per-step light width when b != 0 is the law's
        assert float(spec.light_width(x)) == float(constants[2])
        if spec.drift.b == 0.0:
            # and when b = 0 the law is the one at +-1
            at_sign = _law_constants(build_law(spec, math.copysign(1.0, x)))
            assert [None if c is None else float(c) for c in at_sign] == \
                [None if c is None else float(c) for c in constants]


# ---------------------------------------------------------------------------
# trajectory mechanics
# ---------------------------------------------------------------------------

def _recording(calls: list, seed: int, n_traj: int):
    """A uniform_array stand-in that appends (counter, the trajectory indices
    drawn for, in call order) to calls: stream_starts is a bijection of the
    index, so each start word names one of the run's trajectories."""
    starts = stream_starts(seed_key(seed), np.arange(n_traj, dtype=np.int64))
    index = {s: t for t, s in enumerate(starts.tolist())}

    def counted(key, start, counter):
        calls.append((counter, np.array([index[s] for s in start.tolist()], dtype=np.int64)))
        return uniform_array(key, start, counter)

    return counted


def test_horizon_zero_all_censored():
    out = run_trajectories(SimConfig(half_line(), start=20.0, a=10.0, horizon=0,
                                     n_traj=4, master_seed=1))
    assert all(t.censored and t.tau == -1 and t.final_x == 20.0 for t in out)


def test_start_below_a_returns_immediately():
    out = run_trajectories(SimConfig(half_line(), start=5.0, a=10.0, horizon=50,
                                     n_traj=4, master_seed=1))
    assert all(t.tau == 0 and not t.censored for t in out)
    assert all(t.max_excursion == t.min_excursion == t.final_x == 5.0 for t in out)


@pytest.mark.parametrize("spec, start, a, level",
                         [(balanced(), -5.0, 10.0, -5.0), (line_in(), 10.0, 10.0, 10.0),
                          (plane(), (3.0, -4.0), 5.0, 5.0), (plane(), 2.5, 5.0, 2.5)],
                         ids=["line_negative", "line_at_a", "plane_pair_at_a", "plane_radius"])
@pytest.mark.parametrize("m_level", [math.inf, 60.0], ids=["inf", "finite"])
def test_start_within_a_returns_every_row_at_step_0(monkeypatch, spec, start, a, level, m_level):
    # every trajectory starts at the one start: within a, all rows return at
    # step 0 with the start level as max and min, and nothing is drawn
    monkeypatch.setattr("heavywalk.montecarlo.uniform_array", None)
    cfg = SimConfig(spec, start=start, a=a, horizon=50, n_traj=6, master_seed=1)
    batch = _simulate_batch(cfg, m_level)
    assert batch["tau"].tolist() == [0] * 6 and not batch["censored"].any()
    assert batch["max_excursion"].tolist() == batch["min_excursion"].tolist() == [level] * 6
    assert not (batch["crossed_pos"].any() or batch["crossed_neg"].any())
    assert batch["first_exit"].tolist() == batch["last_sign_change"].tolist() == [-1] * 6
    assert batch["engine"] == {"steps": 0, "traj_steps": 0, "uniforms": 0}


def test_engine_matches_scalar_step_path():
    spec = half_line()
    cfg = SimConfig(spec, start=20.0, a=10.0, horizon=200, n_traj=3, master_seed=7)
    batch = _simulate_batch(cfg)
    for k in range(3):
        stream = CounterStream(7, k)
        x = 20.0
        tau = None
        for n in range(1, 201):
            x = step(spec, x, stream)
            if x <= 10.0:
                tau = n
                break
        want = -1 if tau is None else tau
        assert batch["tau"][k] == want
        assert batch["final_x"][k] == pytest.approx(x, abs=1e-12)


def test_engine_matches_scalar_step_path_plane():
    spec = plane(p_radial=0.7)
    cfg = SimConfig(spec, start=(15.0, 0.0), a=5.0, horizon=100, n_traj=2, master_seed=3)
    batch = _simulate_batch(cfg)
    for k in range(2):
        stream = CounterStream(3, k)
        pos = np.array([15.0, 0.0])
        tau = None
        for n in range(1, 101):
            pos = step(spec, pos, stream)
            if math.hypot(pos[0], pos[1]) <= 5.0:
                tau = n
                break
        assert batch["tau"][k] == (-1 if tau is None else tau)
        assert batch["final_x"][k] == pytest.approx(pos[0], abs=1e-10)
        assert batch["final_y"][k] == pytest.approx(pos[1], abs=1e-10)


@pytest.mark.parametrize("spec", [line_out(gamma=0.1, b=1.0), line_in(beta=1.3, gamma=0.5, b=-0.5),
                                  balanced(gamma=0.5, b=0.5)], ids=lambda s: s.regime)
def test_engine_matches_scalar_step_path_with_drift(spec):
    cfg = SimConfig(spec, start=30.0, a=10.0, horizon=300, n_traj=20, master_seed=5)
    batch = _simulate_batch(cfg, m_level=60.0)
    for k in range(20):
        stream = CounterStream(5, k)
        x = 30.0
        tau = None
        for n in range(1, 301):
            x = step(spec, x, stream)
            if abs(x) <= 10.0:
                tau = n
                break
        assert batch["tau"][k] == (-1 if tau is None else tau)
        assert batch["final_x"][k] == pytest.approx(x, abs=1e-12)


@pytest.mark.parametrize("start", [61.0, -61.0])
def test_crossings_and_exits_follow_the_scalar_path(start):
    # a start beyond m_level counts in the max and min, but a crossing or an
    # exit needs a state beyond +-m_level at a step n >= 1
    spec, m = balanced(), 60.0
    cfg = SimConfig(spec, start=start, a=10.0, horizon=300, n_traj=60, master_seed=5)
    batch = _simulate_batch(cfg, m_level=m)
    for k in range(cfg.n_traj):
        stream = CounterStream(5, k)
        path = [start]
        for n in range(1, 301):
            path.append(step(spec, path[-1], stream))
            if abs(path[-1]) <= 10.0:
                break
        after = np.array(path[1:])
        exits = np.flatnonzero(np.abs(after) > m)
        flips = np.flatnonzero(np.diff(np.array(path) < 0.0))
        assert batch["crossed_pos"][k] == (after > m).any()
        assert batch["crossed_neg"][k] == (after < -m).any()
        assert batch["first_exit"][k] == (exits[0] + 1 if exits.size else -1)
        assert batch["last_sign_change"][k] == (flips[-1] + 1 if flips.size else -1)
        assert batch["max_excursion"][k] == pytest.approx(max(path), abs=1e-12)
        assert batch["min_excursion"][k] == pytest.approx(min(path), abs=1e-12)
    # the case this test is for: beyond m_level only at the start
    if start > 0:
        assert ((batch["max_excursion"] > m) & ~batch["crossed_pos"]).any()
    else:
        assert ((batch["min_excursion"] < -m) & ~batch["crossed_neg"]).any()


@pytest.mark.parametrize("spec, a, n_traj, seed, kinds, width", [
    pytest.param(half_line(), 25.0, 16, 381, {"below", "above", "all"}, None,
                 id="half_line-default_slice"),
    pytest.param(half_line(), 25.0, 16, 3, {"below", "above", "all"}, 3, id="half_line-slice_3"),
    pytest.param(balanced(), 10.0, 20, 1, {"below", "above"}, None,
                 id="line_balanced-default_slice"),
    pytest.param(balanced(), 10.0, 20, 0, {"below", "above"}, 3, id="line_balanced-slice_3")])
def test_swap_fill_follows_the_scalar_path(monkeypatch, spec, a, n_traj, seed, kinds, width):
    # a return step of r out of w live trajectories of a chunk moves the kept
    # rows at or above w - r into the returned rows below it; width 3 cuts
    # the run into chunks of at most 3.  The seeds give steps whose returns
    # lie only below w - r, steps whose returns lie only at or above it, and
    # on the half line a step where all w >= 2 live trajectories of a chunk
    # return.  Each seed is the smallest, at or above the one it replaced
    # when the streams last changed, that shows its case's kinds
    calls = []

    monkeypatch.setattr("heavywalk.montecarlo.uniform_array", _recording(calls, seed, n_traj))
    if width is not None:
        monkeypatch.setattr("heavywalk.montecarlo._CHUNK", width)
    m = 60.0
    cfg = SimConfig(spec, start=30.0, a=a, horizon=300, n_traj=n_traj, master_seed=seed)
    batch = _simulate_batch(cfg, m_level=m)
    seen = set()
    for counter, live in calls[::2]:   # a chunk's live set at a step, in compaction order
        ret = np.flatnonzero(batch["tau"][live] == counter // 2 + 1)
        w, r = live.size, ret.size
        if r == w > 1:
            seen.add("all")
        elif 0 < r < w and ret[-1] < w - r:
            seen.add("below")
        elif 0 < r < w and ret[0] >= w - r:
            seen.add("above")
    assert kinds <= seen
    for k in range(n_traj):
        stream = CounterStream(seed, k)
        path = [30.0]
        for _ in range(cfg.horizon):
            path.append(step(spec, path[-1], stream))
            if abs(path[-1]) <= a:
                break
        after = np.array(path[1:])
        exits = np.flatnonzero(np.abs(after) > m)
        flips = np.flatnonzero(np.diff(np.array(path) < 0.0))
        assert batch["tau"][k] == (len(path) - 1 if abs(path[-1]) <= a else -1)
        assert batch["final_x"][k] == pytest.approx(path[-1], abs=1e-12)
        assert batch["max_excursion"][k] == pytest.approx(max(path), abs=1e-12)
        assert batch["min_excursion"][k] == pytest.approx(min(path), abs=1e-12)
        assert batch["crossed_pos"][k] == (after > m).any()
        assert batch["crossed_neg"][k] == (after < -m).any()
        assert batch["first_exit"][k] == (exits[0] + 1 if exits.size else -1)
        assert batch["last_sign_change"][k] == (flips[-1] + 1 if flips.size else -1)


@pytest.mark.parametrize("spec, start", [(balanced(gamma=0.5, b=0.5), 30.0),
                                         (plane(p_radial=0.7), (30.0, 0.0))],
                         ids=["line_balanced", "plane"])
def test_chunk_partition_is_invisible(spec, start):
    # uneven chunk bounds, whatever the number of cores _simulate_batch may use
    cfg = SimConfig(spec, start=start, a=10.0, horizon=500, n_traj=600, master_seed=11)
    whole, counts = _chunk(cfg, 60.0, 0, 600)
    parts = [_chunk(cfg, 60.0, lo, hi) for lo, hi in ((0, 7), (7, 300), (300, 600))]
    for k, v in whole.items():
        assert np.array_equal(np.concatenate([p[k] for p, _ in parts]), v)
    # the work splits too: each chunk steps until its last trajectory is done
    assert counts["traj_steps"] == sum(c["traj_steps"] for _, c in parts)
    assert counts["uniforms"] == sum(c["uniforms"] for _, c in parts)
    assert counts["steps"] == max(c["steps"] for _, c in parts)


@pytest.mark.parametrize("workers", [2, 4, 16])
def test_worker_count_is_invisible(workers):
    base = SimConfig(half_line(), start=20.0, a=10.0, horizon=2000, n_traj=600,
                     master_seed=11, workers=1)
    alt = SimConfig(half_line(), start=20.0, a=10.0, horizon=2000, n_traj=600,
                    master_seed=11, workers=workers)
    b1 = _simulate_batch(base)
    b2 = _simulate_batch(alt)
    for k in ("tau", "max_excursion", "min_excursion", "final_x", "first_exit", "last_sign_change"):
        assert np.array_equal(b1[k], b2[k])


def test_import_leaves_the_process_pool_unloaded():
    # the pool, and multiprocessing with it, is imported only by a run that
    # starts more than one worker
    src = str(Path(heavywalk.__file__).resolve().parent.parent)
    code = ("import sys, heavywalk, heavywalk.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


REGIME_STARTS = pytest.mark.parametrize(
    "spec, start", [(half_line(), 30.0), (line_out(gamma=0.1, b=1.0), -30.0),
                    (line_in(gamma=1.0), 30.0), (balanced(), 30.0),
                    (plane(p_radial=0.7), (30.0, 0.0))],
    ids=["half_line", "line_out", "line_in", "line_balanced", "plane"])


@pytest.mark.parametrize("m_level", [math.inf, 60.0], ids=["inf", "finite"])
@REGIME_STARTS
def test_one_draw_per_live_trajectory_step(monkeypatch, spec, start, m_level):
    # the engine calls uniform_array once per draw of each step, with counter
    # draws_per_step * (n - 1) + j, on exactly the trajectories live at step n
    calls = []

    monkeypatch.setattr("heavywalk.montecarlo.uniform_array", _recording(calls, 19, 40))
    cfg = SimConfig(spec, start=start, a=10.0, horizon=300, n_traj=40, master_seed=19)
    batch = _simulate_batch(cfg, m_level)
    dps = cfg.draws_per_step
    ran = np.where(batch["tau"] < 0, cfg.horizon, batch["tau"])
    assert sum(len(t) for _, t in calls) == dps * int(ran.sum())
    assert len(calls) == dps * int(ran.max())
    for i, (counter, traj) in enumerate(calls):
        step = i // dps + 1
        assert counter == dps * (step - 1) + i % dps
        assert np.array_equal(np.sort(traj), np.flatnonzero(ran >= step))


@pytest.mark.parametrize("workers", [1, 2])
@REGIME_STARTS
def test_engine_counts_match_tau(spec, start, workers):
    # the counts the engine keeps agree with the return times it reports
    cfg = SimConfig(spec, start=start, a=10.0, horizon=300, n_traj=40, master_seed=19,
                    workers=workers)
    batch = _simulate_batch(cfg, 60.0)
    counts = batch["engine"]
    assert all(type(v) is int for v in counts.values())
    ran = np.where(batch["tau"] < 0, cfg.horizon, batch["tau"])
    assert counts["traj_steps"] == int(ran.sum())
    assert counts["uniforms"] == cfg.draws_per_step * counts["traj_steps"]
    w = batch["workers"]
    bounds = [cfg.n_traj * i // w for i in range(w + 1)]
    assert counts["steps"] == sum(int(ran[lo:hi].max()) for lo, hi in zip(bounds, bounds[1:]))


def _chunk_bounds(n_traj: int, workers: int, width: int) -> list[int]:
    """The partition _simulate_batch makes: max(workers, ceil(n_traj / width))
    even chunks."""
    k = max(workers, -(-n_traj // width))
    return [n_traj * i // k for i in range(k + 1)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("m_level", [math.inf, 60.0], ids=["inf", "finite"])
@REGIME_STARTS
def test_sliced_steps_are_invisible(monkeypatch, spec, start, m_level, workers):
    # a run is sliced into chunks of at most _CHUNK trajectories; forked
    # workers inherit the patched width, no output bit moves, and the steps
    # add up over the chunks, each stepping until its last trajectory is done
    cfg = SimConfig(spec, start=start, a=10.0, horizon=200, n_traj=40, master_seed=23,
                    workers=workers)
    whole = _simulate_batch(dataclasses.replace(cfg, workers=1), m_level)
    ran = np.where(whole["tau"] < 0, cfg.horizon, whole["tau"])
    for width in (1, 3, 7, 16, heavywalk.montecarlo._CHUNK):
        monkeypatch.setattr("heavywalk.montecarlo._CHUNK", width)
        chunked = _simulate_batch(cfg, m_level)
        assert chunked.keys() == whole.keys()
        for k, v in whole.items():
            if isinstance(v, np.ndarray):
                assert np.array_equal(chunked[k], v), (width, k)
        counts = chunked["engine"]
        assert counts["traj_steps"] == whole["engine"]["traj_steps"]
        assert counts["uniforms"] == whole["engine"]["uniforms"]
        bounds = _chunk_bounds(cfg.n_traj, chunked["workers"], width)
        assert counts["steps"] == sum(int(ran[lo:hi].max()) for lo, hi in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("width", [3, 7])
@REGIME_STARTS
def test_sliced_draws_keep_the_draw_contract(monkeypatch, spec, start, width):
    # each draw of step n is one uniform_array call per chunk still out, with
    # counter draws_per_step * (n - 1) + j, on at most _CHUNK trajectories all
    # of one chunk; a counter's calls together draw for exactly the live set
    calls = []

    monkeypatch.setattr("heavywalk.montecarlo.uniform_array", _recording(calls, 19, 40))
    monkeypatch.setattr("heavywalk.montecarlo._CHUNK", width)
    cfg = SimConfig(spec, start=start, a=10.0, horizon=300, n_traj=40, master_seed=19)
    batch = _simulate_batch(cfg, 60.0)
    dps = cfg.draws_per_step
    ran = np.where(batch["tau"] < 0, cfg.horizon, batch["tau"])
    bounds = _chunk_bounds(cfg.n_traj, 1, width)
    by_counter = collections.defaultdict(list)
    for counter, traj in calls:
        assert 0 < len(traj) <= width
        assert np.unique(np.searchsorted(bounds, traj, side="right")).size == 1
        by_counter[counter].append(traj)
    assert sorted(by_counter) == list(range(dps * int(ran.max())))
    for n in range(1, int(ran.max()) + 1):
        live = np.flatnonzero(ran >= n)
        for j in range(dps):
            assert np.array_equal(np.sort(np.concatenate(by_counter[dps * (n - 1) + j])), live)


@pytest.mark.parametrize("m_level", [math.inf, 60.0], ids=["inf", "finite"])
@REGIME_STARTS
def test_engine_steps_count_the_kernel_iterations(monkeypatch, spec, start, m_level):
    # every lockstep step of every chunk makes one draw-0 uniform_array call,
    # and the engine's steps count exactly those calls
    draws0 = []

    def counted(key, start, counter):
        if counter % dps == 0:
            draws0.append(counter)
        return uniform_array(key, start, counter)

    monkeypatch.setattr("heavywalk.montecarlo.uniform_array", counted)
    monkeypatch.setattr("heavywalk.montecarlo._CHUNK", 6)
    cfg = SimConfig(spec, start=start, a=10.0, horizon=300, n_traj=40, master_seed=19)
    dps = cfg.draws_per_step
    batch = _simulate_batch(cfg, m_level)
    assert batch["engine"]["steps"] == len(draws0) > int(batch["tau"].max())


def test_seed_changes_output():
    mk = lambda s: _simulate_batch(SimConfig(half_line(), start=20.0, a=10.0,
                                             horizon=500, n_traj=50, master_seed=s))
    assert not np.array_equal(mk(1)["tau"], mk(2)["tau"])


def test_summary_flags_consistent_with_extrema():
    cfg = SimConfig(balanced(), start=30.0, a=5.0, horizon=3000, n_traj=200,
                    master_seed=13)
    for t in run_trajectories(cfg, m_level=100.0):
        assert t.crossed_pos == (t.max_excursion > 100.0)
        assert t.crossed_neg == (t.min_excursion < -100.0)
        if t.tau >= 0:
            assert abs(t.final_x) <= 5.0


def test_run_trajectories_records_are_the_batch_columns():
    cfg = SimConfig(plane(), start=(3.0, 4.0), a=1.0, horizon=30, n_traj=16, master_seed=5)
    rec, batch = run_trajectories(cfg), _simulate_batch(cfg)
    assert rec.dtype.names == TRAJECTORY_COLUMNS   # final_y on the plane
    for k in TRAJECTORY_COLUMNS:
        assert np.array_equal(rec[k], batch[k])


# ---------------------------------------------------------------------------
# survival estimation
# ---------------------------------------------------------------------------

def test_survival_monotone_and_censoring():
    cfg = SimConfig(half_line(), start=30.0, a=10.0, horizon=20_000, n_traj=800,
                    master_seed=17)
    batch = _simulate_batch(cfg)
    grid = survival_grid(cfg.horizon)
    surv = survival_curve(batch, grid)
    assert all(b <= a for a, b in zip(surv[:-1], surv[1:]))
    # censored trajectories count as tau > n for every n < horizon
    n_cens = int((batch["tau"] < 0).sum())
    assert surv[-1] * cfg.n_traj >= n_cens


@pytest.mark.parametrize("horizon", [0, 1, 2, 2 ** 31 - 1])
@pytest.mark.parametrize("kind", ["all_censored", "none_censored", "mixed"])
def test_survival_curve_is_the_per_point_mean(horizon, kind):
    # the one-pass count against the mean of tau_eff > n at each point, on
    # the integers from below 0 and up to beyond horizon + 1 (every one of
    # them for a short horizon) and at each time and its neighbours
    rng = np.random.default_rng(horizon)
    returned = rng.integers(0, horizon + 1, 37)
    tau = {"all_censored": np.full(37, -1), "none_censored": returned,
           "mixed": np.where(rng.random(37) < 0.4, -1, returned)}[kind]
    ends = np.arange(-3, 5)
    grid = np.unique(np.concatenate([ends, horizon + ends, returned - 1, returned, returned + 1]))
    tau_eff = np.where(tau < 0, horizon + 1, tau)
    want = np.array([(tau_eff > n).mean() for n in grid])
    got = survival_curve({"tau": tau, "horizon": horizon}, grid)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.slow
def test_estimate_passage_tail_half_line():
    cfg = SimConfig(half_line(), start=50.0, a=10.0, horizon=10 ** 5, n_traj=2000,
                    master_seed=23, workers=2)
    est = estimate_passage_tail(cfg)
    assert est.exponent == pytest.approx(2.0 / 3.0, abs=0.12)
    assert est.stderr < 0.05
    assert est.fit_window[0] >= 1 and est.fit_window[1] < cfg.horizon
    assert all(0.0 <= v <= 1.0 for v in est.survival)


def test_insufficient_data_raises():
    cfg = SimConfig(half_line(), start=12.0, a=10.0, horizon=30, n_traj=20, master_seed=3)
    with pytest.raises(InsufficientDataError):
        estimate_passage_tail(cfg)


def test_survival_fit_is_ols_on_its_window():
    # the fit recomputed with plain numpy from the curve it reports: the window
    # keeps survival in (10/n_traj, 0.9), and the stderr has n - 2 degrees of
    # freedom; the rule cuts points at both ends, and some sit exactly at 10/n_traj
    cfg = SimConfig(half_line(), start=30.0, a=10.0, horizon=3000, n_traj=100, master_seed=7)
    est = estimate_passage_tail(cfg)
    grid = survival_grid(cfg.horizon)
    surv = survival_curve(_simulate_batch(cfg), grid)
    assert est.grid == grid.tolist() and est.survival == surv.tolist()
    floor = 10.0 / cfg.n_traj
    use = (surv > floor) & (surv < 0.9)
    assert (surv >= 0.9).any() and (surv == floor).any() and (surv < floor).any()
    assert est.fit_window == (grid[use][0], grid[use][-1])
    lx, ly = np.log(grid[use].astype(float)), np.log(surv[use])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (intercept + slope * lx)
    dx = lx - lx.mean()
    stderr = math.sqrt((resid @ resid) / (use.sum() - 2) / (dx @ dx))
    assert est.slope == pytest.approx(slope, rel=1e-9)
    assert est.stderr == pytest.approx(stderr, rel=1e-9)
    assert est.exponent == -est.slope


@pytest.mark.slow
def test_seed_robustness_of_exponent():
    ests = []
    for seed in (101, 202, 303):
        cfg = SimConfig(half_line(), start=50.0, a=10.0, horizon=3 * 10 ** 4, n_traj=1500,
                        master_seed=seed)
        ests.append(estimate_passage_tail(cfg))
    spread = float(np.std([e.exponent for e in ests]))
    typical_err = float(np.mean([e.stderr for e in ests]))
    assert spread < 3.0 * max(typical_err, 0.02)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_phase_diagnostic_half_line_has_no_oscillation_fields():
    cfg = SimConfig(half_line(), start=30.0, a=10.0, horizon=2000, n_traj=300,
                    master_seed=29)
    d = phase_diagnostic(cfg, m_level=200.0)
    assert d.oscillation_fraction == 0.0
    assert d.directional_fraction == 0.0
    assert 0.0 <= d.return_fraction <= 1.0


def test_phase_diagnostic_requires_m_above_a():
    cfg = SimConfig(half_line(), start=30.0, a=10.0, horizon=100, n_traj=10, master_seed=1)
    with pytest.raises(DomainError):
        phase_diagnostic(cfg, m_level=5.0)


def test_nan_m_level_is_rejected():
    # every comparison with NaN is false: no exits, and no labels
    cfg = SimConfig(balanced(), start=30.0, a=10.0, horizon=100, n_traj=10, master_seed=1)
    with pytest.raises(DomainError):
        phase_diagnostic(cfg, m_level=math.nan)
    with pytest.raises(DomainError):
        run_trajectories(cfg, m_level=math.nan)


@pytest.mark.parametrize("m_level", [10.0, 0.0, -math.inf], ids=["a", "zero", "minus_inf"])
def test_m_level_must_exceed_a(m_level):
    # a state is beyond a level at or below a before it can return: every row
    # would read crossed and exited at step 1
    cfg = SimConfig(balanced(), start=30.0, a=10.0, horizon=100, n_traj=10, master_seed=1)
    with pytest.raises(DomainError, match="must exceed the return level a"):
        _simulate_batch(cfg, m_level)


@pytest.mark.parametrize("a", [-1.0, -5e-324])
def test_return_level_must_be_non_negative(a):
    # no state lies within a negative distance of the origin, so a live plane
    # radius always exceeds a >= 0 and the engine's unit vector is defined
    for spec, start in ((half_line(), 30.0), (plane(), 30.0)):
        with pytest.raises(DomainError, match="a must be finite and >= 0"):
            SimConfig(spec, start=start, a=a, horizon=10, n_traj=2)


def test_plane_start_at_the_origin_returns_at_once_for_a_zero():
    cfg = SimConfig(plane(), start=(0.0, 0.0), a=0.0, horizon=10, n_traj=3)
    assert _simulate_batch(cfg)["tau"].tolist() == [0, 0, 0]


def test_phase_diagnostic_outward_drift_is_directional():
    # outward-heavy walk with positive drift escapes with one fixed sign
    spec = line_out(alpha=1.5, gamma=0.1, b=1.0)
    cfg = SimConfig(spec, start=50.0, a=10.0, horizon=10 ** 4, n_traj=1000,
                    master_seed=3)
    d = phase_diagnostic(cfg, m_level=200.0)
    assert d.escape_fraction > 0.5
    assert d.directional_fraction > d.oscillation_fraction


def test_plane_rotation_equivariance_exact():
    # rotating the start by a quarter turn (exact in floats) rotates every
    # trajectory exactly: same seed, bit-identical rotated finals
    spec = plane(p_radial=0.9)
    k = dict(a=10.0, horizon=2000, n_traj=300, master_seed=37)
    b0 = _simulate_batch(SimConfig(spec, start=(50.0, 0.0), **k))
    b1 = _simulate_batch(SimConfig(spec, start=(0.0, 50.0), **k))
    assert np.array_equal(b0["tau"], b1["tau"])
    assert np.array_equal(b1["final_x"], -b0["final_y"])
    assert np.array_equal(b1["final_y"], b0["final_x"])


@pytest.mark.slow
def test_plane_isotropy_chi_square():
    # the pooled ensemble over 16 rotated starts is invariant under 1/16-turn
    # rotations, so the 16 angular sectors are equally likely; chi-square at 1%
    spec = plane(p_radial=0.9)
    n_angles = 16
    per = 625
    ang_all = []
    for k in range(n_angles):
        phi = 2.0 * math.pi * k / n_angles
        cfg = SimConfig(spec, start=(50.0 * math.cos(phi), 50.0 * math.sin(phi)),
                        a=10.0, horizon=10 ** 4, n_traj=per, master_seed=1000 + k,
                        workers=2)
        batch = _simulate_batch(cfg)
        ang_all.append(np.arctan2(batch["final_y"], batch["final_x"]))
    ang = np.concatenate(ang_all)
    # sector bins aligned with the start-angle orbit
    shifted = np.mod(ang + math.pi / n_angles, 2.0 * math.pi)
    counts, _ = np.histogram(shifted, bins=n_angles, range=(0.0, 2.0 * math.pi))
    expect = len(ang) / n_angles
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    assert chi2 < 30.58   # chi2 quantile, 15 dof, 1%


def test_sim_config_validation():
    with pytest.raises(DomainError):
        SimConfig(half_line(), start=20.0, a=10.0, horizon=-1, n_traj=10, master_seed=1)
    with pytest.raises(DomainError):
        SimConfig(half_line(), start=20.0, a=10.0, horizon=10, n_traj=0, master_seed=1)
    cfg = SimConfig(plane(), start=25.0, a=10.0, horizon=10, n_traj=2, master_seed=1)
    assert cfg.start == (25.0, 0.0)


@pytest.mark.parametrize("spec, field, edge, past", [
    (half_line(), "horizon", 0, -1), (half_line(), "horizon", 2 ** 31, 2 ** 31 + 1),
    (plane(), "horizon", 2 ** 32 // 3, 2 ** 32 // 3 + 1), (half_line(), "n_traj", 1, 0),
    (half_line(), "n_traj", 2 ** 32, 2 ** 32 + 1), (half_line(), "workers", 1, 0),
    (half_line(), "master_seed", 0, -1), (half_line(), "master_seed", 2 ** 64 - 1, 2 ** 64)],
    ids=["horizon_low", "horizon_line_high", "horizon_plane_high", "n_traj_low",
         "n_traj_high", "workers_low", "seed_low", "seed_high"])
def test_sim_config_limit_edges(spec, field, edge, past):
    # a trajectory's counter has 32 bits (2 uniforms per step on the line, 3
    # in the plane), an index too, and the seed is the stream's 64-bit key:
    # one past a limit would alias another run's uniforms.  Only constructed
    args = dict(start=20.0, a=10.0, horizon=10, n_traj=1)
    for v in (edge, np.uint64(edge)):
        cfg = SimConfig(spec, **dict(args, **{field: v}))
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == edge
    with pytest.raises(DomainError, match=f"{field} must be an integer in"):
        SimConfig(spec, **dict(args, **{field: past}))


def test_sim_config_rejects_non_integers():
    kw = dict(start=20.0, a=10.0)
    cfg = SimConfig(half_line(), horizon=np.int64(10), n_traj=np.int32(4), workers=np.uint8(2), **kw)
    assert (cfg.horizon, cfg.n_traj, cfg.workers) == (10, 4, 2)
    assert type(cfg.horizon) is int
    for field in ("horizon", "n_traj", "workers"):
        for bad in (10.5, 4.0, "10", None, True, np.float64(3.0)):
            args = dict(horizon=10, n_traj=4, workers=1, **kw)
            args[field] = bad
            with pytest.raises(DomainError):
                SimConfig(half_line(), **args)


def test_sim_config_seed_must_be_an_integer():
    # a numpy seed is stored as int (seed_key overflowed on it); a bool or a
    # float seed would alias an integer stream or fail mid-run
    kw = dict(start=30.0, a=10.0, horizon=200, n_traj=20)
    cfg = SimConfig(half_line(), master_seed=np.int64(7), **kw)
    assert type(cfg.master_seed) is int and cfg.master_seed == 7
    for k in ("tau", "final_x", "max_excursion", "min_excursion"):
        assert np.array_equal(_simulate_batch(cfg)[k],
                              _simulate_batch(SimConfig(half_line(), master_seed=7, **kw))[k])
    assert SimConfig(half_line(), master_seed=np.uint64(2 ** 63), **kw).master_seed == 2 ** 63
    for bad in (True, False, np.True_, 1.5, 1.0, "1", None):
        with pytest.raises(DomainError, match="master_seed"):
            SimConfig(half_line(), master_seed=bad, **kw)


@pytest.mark.parametrize("spec, field, bad", [
    (half_line(), "a", True), (balanced(), "a", False), (plane(), "a", np.True_),
    (half_line(), "a", "10"), (half_line(), "start", True), (balanced(), "start", False),
    (line_in(), "start", "30"), (line_in(), "start", None), (plane(), "start", True),
    (plane(), "start", (True, 0.0)), (plane(), "start", (30.0, None)),
    (plane(), "start", None), (half_line(), "a", np.array(10.0)),
    (balanced(), "start", np.array(30.0)), (plane(), "start", np.array(30.0)),
    (plane(), "start", np.array([[30.0, 0.0]])), (plane(), "start", {30.0, 4.0})],
    ids=["a_true", "a_false", "plane_a_np_true", "a_string", "start_true", "start_false",
         "start_string", "start_none", "plane_radius_true", "plane_x_true", "plane_y_none",
         "plane_start_none", "a_0d_array", "start_0d_array", "plane_start_0d_array",
         "plane_start_2d_array", "plane_start_set"])
def test_sim_config_rejects_bools_and_non_numbers(spec, field, bad):
    # True ran as a level of 1.0; a string or None failed mid-run; a 0-d array
    # is no number (pass float(v)), and a plane pair is a 1-d sequence
    args = dict(start=30.0, a=10.0, horizon=10, n_traj=4)
    args[field] = bad
    with pytest.raises(DomainError):
        SimConfig(spec, **args)


@pytest.mark.parametrize("pair", [[30.0, 4.0], np.array([30.0, 4.0]),
                                  collections.UserList([30.0, 4.0]), (np.float32(30.0), 4)],
                         ids=["list", "array", "user_sequence", "numpy_scalars"])
def test_sim_config_plane_start_is_any_pair(pair):
    # any length-2 sequence or 1-d array of numbers is an (x, y) start
    kw = dict(a=10.0, horizon=50, n_traj=20, master_seed=5)
    cfg = SimConfig(plane(), start=pair, **kw)
    ref = _simulate_batch(SimConfig(plane(), start=(30.0, 4.0), **kw))
    batch = _simulate_batch(cfg)
    for k in ("tau", "final_x", "final_y", "max_excursion", "min_excursion"):
        assert np.array_equal(batch[k], ref[k]), k


@pytest.mark.parametrize("spec, start, stored", [
    (half_line(), np.float32(30.0), 30.0), (line_in(), np.int64(30), 30.0),
    (plane(), np.array([30.0, 4.0]), (30.0, 4.0)),
    (plane(), np.array([30.0, 4.0], dtype=np.float32), (30.0, 4.0)),
    (plane(), np.float32(30.0), (30.0, 0.0))],
    ids=["float32", "int64", "plane_array", "plane_float32_array", "plane_float32_radius"])
def test_sim_config_stores_python_floats(spec, start, stored):
    # numpy scalars were kept as given, and to_json then failed in json.dumps
    cfg = SimConfig(spec, start=start, a=np.float32(10.0), horizon=10, n_traj=4)
    values = cfg.start if isinstance(stored, tuple) else (cfg.start,)
    assert {type(v) for v in (cfg.a, *values)} == {float} and type(cfg.start) is type(stored)
    assert (cfg.start, cfg.a) == (stored, 10.0)
    assert json.loads(json.dumps(cfg.to_json()))["a"] == 10.0


@pytest.mark.parametrize("spec, field, bad", [
    (half_line(), "a", math.nan), (half_line(), "a", math.inf), (balanced(), "a", -math.inf),
    (half_line(), "start", math.nan), (balanced(), "start", math.inf),
    (line_in(), "start", -math.inf), (plane(), "start", math.nan),
    (plane(), "start", (30.0, math.nan)), (plane(), "start", (math.inf, 0.0)),
    (half_line(), "a", 10 ** 400), (half_line(), "start", 10 ** 400),
    (plane(), "start", (10 ** 400, 0.0))],
    ids=["a_nan", "a_inf", "a_minus_inf", "start_nan", "start_inf", "start_minus_inf",
         "plane_radius_nan", "plane_y_nan", "plane_x_inf", "a_int_past_float",
         "start_int_past_float", "plane_x_int_past_float"])
def test_sim_config_rejects_non_finite(spec, field, bad):
    # a NaN or infinite level would run every trajectory to the horizon as
    # censored; an int past the float range leaked OverflowError
    args = dict(start=30.0, a=10.0, horizon=10, n_traj=4)
    args[field] = bad
    with pytest.raises(DomainError):
        SimConfig(spec, **args)
