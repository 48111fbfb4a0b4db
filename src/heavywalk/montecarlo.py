"""Parallel trajectory simulation and empirical phase diagnostics.

Trajectories are independent units of work: trajectory k draws its uniforms
from the counter stream (master_seed, k), so any partition of the index
range into chunks and over workers produces bit-identical results.  Every
regime draws through `IncrementLaw.quantile`'s sampler,
`increments._quantile`, fed with the fields of the laws `build_law`,
`plane_radial_law` and `plane_transverse_law` build.
The engine splits a run into chunks of at most _CHUNK trajectories, so that
a chunk's columns stay in cache, and runs each chunk in vectorized lockstep
on compacted live columns: each step touches only the trajectories still
out, and draws exactly one uniform per draw counter for each of them, one
uniform_array call per draw (draws_per_step * sum(min(tau, horizon))
uniforms in all).  A return step compacts in O(returns), so the live set is in
compaction order; draws and write-backs go by index.  A live trajectory
carries the max and min of its level over steps >= 1; when it settles
(returns, or reaches the horizon) the start level is folded into them and
its crossings of +-m_level are read off them, so a start beyond m_level is
no crossing.  The scalar step() path in `increments` consumes the same
streams and agrees with it: the same return times, and states equal to
rounding (vectorized and scalar powers may differ in the last bit).
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .errors import DomainError, InsufficientDataError
from .increments import (_U_MIN, ChainSpec, IncrementLaw, _is_finite, _is_real, _quantile,
                         build_law, plane_radial_law, plane_transverse_law)
from .rng import _COUNTER_SPAN, _const, checked_seed, integer_in, seed_key, uniform_array

SURVIVAL_POINTS = 60   # geometric survival grid points, before rounding and deduplication
# a run is split into chunks of at most this many trajectories, so that a
# chunk's live columns and each step's temporaries stay in cache
_CHUNK = 2 ** 15
# a batch's per-trajectory columns in trajectories.csv's order
TRAJECTORY_COLUMNS = ("index", "tau", "censored", "max_excursion", "min_excursion", "final_x",
                      "final_y", "crossed_pos", "crossed_neg", "first_exit", "last_sign_change")


@dataclass(frozen=True)
class SimConfig:
    spec: ChainSpec
    start: Union[float, tuple]
    a: float
    horizon: int
    n_traj: int
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        # (field, low, high): a uniform's counter and a trajectory index each
        # fill 32 bits of the stream word; numpy integers are stored as int,
        # since seed_key's mixing needs Python ints
        limits = (("horizon", 0, _COUNTER_SPAN // self.draws_per_step),
                  ("n_traj", 1, _COUNTER_SPAN), ("workers", 1, math.inf))
        for name, low, high in limits:
            object.__setattr__(self, name, integer_in(name, getattr(self, name), low, high))
        object.__setattr__(self, "master_seed", checked_seed(self.master_seed, "master_seed"))
        start = self.start
        plane = self.spec.regime == "plane"
        if not plane:
            start = (start,)
        elif _is_real(start):
            start = (start, 0.0)   # a radius: start on the positive x axis
        elif not (isinstance(start, Sequence) or np.ndim(start) == 1) or len(start) != 2:
            raise DomainError("plane start must be a radius or an (x, y) pair")
        # with a non-finite a or start the return test means nothing (every
        # trajectory returns at once, or none ever does), and NaN has no sign;
        # no state is within a negative distance of the origin; a bool is no level
        if not (_is_real(self.a) and _is_finite(self.a) and self.a >= 0.0):
            raise DomainError(f"a must be finite and >= 0, got {self.a!r}")
        if not all(_is_real(v) and _is_finite(v) for v in start):
            raise DomainError(f"start must be a finite number, got {self.start!r}")
        # stored as the Python floats to_json writes: a plane start as an (x, y) tuple
        start = tuple(map(float, start))
        object.__setattr__(self, "start", start if plane else start[0])
        object.__setattr__(self, "a", float(self.a))

    @property
    def draws_per_step(self) -> int:
        """Uniforms per step: the plane first picks radial or transverse."""
        return 3 if self.spec.regime == "plane" else 2

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "start": list(self.start) if self.spec.regime == "plane" else self.start,
            "a": self.a,
            "horizon": self.horizon,
            "n_traj": self.n_traj,
            "master_seed": self.master_seed,
            "workers": self.workers,
        }


@dataclass
class SurvivalEstimate:
    grid: list[int]
    survival: list[float]
    slope: float
    stderr: float
    fit_window: tuple[int, int]

    @property
    def exponent(self) -> float:
        return -self.slope


@dataclass
class PhaseDiagnostic:
    n_traj: int
    threshold: float
    return_fraction: float
    escape_fraction: float
    oscillation_fraction: float
    directional_fraction: float


# ---------------------------------------------------------------------------
# vectorized chunk kernel
# ---------------------------------------------------------------------------

def _law_constants(law: IncrementLaw) -> tuple:
    """The law's fields as _quantile's constants (p, scale, light, p_mirror),
    0-d arrays; p_mirror is None on a one-sided law."""
    p = law.p
    return (_const(p), _const(law.scale), _const(law.light),
            _const(p + p) if law.two_sided else None)


def _chunk(cfg: SimConfig, m_level: float, lo: int, hi: int) -> tuple[dict, dict]:
    """Trajectories lo..hi-1 of cfg in vectorized lockstep: the batch columns
    and the engine counts.

    Every trajectory starts at cfg.start, so the start level (x on the line,
    the radius in the plane) is one number: within a, all n rows return at
    step 0 (tau 0, max and min the start level) and none goes live;
    otherwise all n go live.  Step n draws the counters
    draws_per_step * (n - 1) + j, one uniform_array call per draw on the live
    columns, and the step settles and compacts from its return mask: with r
    of w returned, each returned row below w - r takes a kept row from w - r
    or above (swap-fill), and the columns become views of their first w - r
    rows.  The live columns are the trajectory index, the state, the level's
    max and min over steps >= 1, and the first exit and the last sign change
    where they can fire; on the line the law pick and the flip test read the
    sign of the state at the start of the step.  Sign flips and crossings of
    -m_level exist only on the whole line, crossings of +m_level only off
    the plane.  None of the exit work is done when m_level is inf, and first
    exits are looked for only while a live trajectory has none.  Law and
    test constants are 0-d arrays, built once.

    The counts are Python ints: "steps" iterated, "traj_steps" (the live
    trajectories summed over steps) and "uniforms" drawn."""
    spec = cfg.spec
    key = seed_key(cfg.master_seed)
    dps = cfg.draws_per_step
    n = hi - lo
    plane = spec.regime == "plane"
    half = spec.regime == "half_line"
    signed = not (plane or half)
    exits = m_level < math.inf
    a, zero, izero = _const(cfg.a), _const(0.0), _const(0, np.int64)
    m_pos, m_neg = _const(m_level), _const(-m_level)
    u_min = _const(_U_MIN)
    # the Pareto quantile's power; every plane law's heavy exponent is alpha
    power = _const(-1.0 / spec.heavy_exponent)
    if plane:
        radial_law = _law_constants(plane_radial_law(spec))
        transverse_law = _law_constants(plane_transverse_law(spec))
        p_radial = _const(spec.plane.p_radial)
        x0, y0 = map(float, cfg.start)
        start = {"final_x": np.full(n, x0), "final_y": np.full(n, y0)}
        level0 = np.hypot(x0, y0)
    else:
        # (at x >= 0, at x < 0) pairs, looked up by sign where they differ; when
        # b != 0 the light width also depends on |x| and is taken at x per step
        (p, *at_pos, mirror), (_, *at_neg, _) = (_law_constants(build_law(spec, s))
                                                 for s in (1.0, -1.0))
        scale, light = zip(at_pos, at_neg)
        sign_scale, sign_light = (signed and v[0] != v[1] for v in (scale, light))
        drifted = spec.drift.b != 0.0
        level0 = float(cfg.start)
        start = {"final_x": np.full(n, level0)}
    # all n trajectories return at step 0, or none does
    width = 0 if (abs(level0) if signed else level0) <= a else n
    batch = {"index": np.arange(lo, hi, dtype=np.int64),
             "tau": np.full(n, -1 if width else 0, dtype=np.int64),
             "max_excursion": np.full(n, level0), "min_excursion": np.full(n, level0),
             "crossed_pos": np.zeros(n, dtype=bool), "crossed_neg": np.zeros(n, dtype=bool),
             "first_exit": np.full(n, -1, dtype=np.int64),
             "last_sign_change": np.full(n, -1, dtype=np.int64), **start}
    names = ["index", *start] + [k for k, fires in (("first_exit", exits),
                                                     ("last_sign_change", signed)) if fires]
    live = {k: batch[k][:width].copy() for k in names}
    live["max"] = np.full(width, -np.inf)
    live["min"] = np.full(width, np.inf)
    if plane:
        live["radius"] = np.full(width, level0)
    # live trajectories with no first exit yet
    pending = width if exits else 0

    def settle(sel) -> None:
        """Write the live columns at positions sel back to the batch."""
        at = live["index"][sel] - lo
        for k in names[1:]:
            batch[k][at] = live[k][sel]
        top, bottom = live["max"][sel], live["min"][sel]
        # the start level first: numpy resolves a tie (+0.0 against -0.0) by
        # operand position, so this matches a running max and min from the start
        batch["max_excursion"][at] = np.maximum(level0, top)
        batch["min_excursion"][at] = np.minimum(level0, bottom)
        if exits and not plane:
            batch["crossed_pos"][at] = top > m_pos
        if exits and signed:
            batch["crossed_neg"][at] = bottom < m_neg

    steps = traj_steps = 0
    for nstep in range(1, cfg.horizon + 1):
        width = live["index"].size
        if width == 0:
            break
        steps += 1
        traj_steps += width
        base = dps * (nstep - 1)
        u = [uniform_array(key, live["index"], base + j) for j in range(dps)]
        u1, u2 = u[-2], np.maximum(u[-1], u_min, out=u[-1])
        pw = u2 ** power
        x = live["final_x"]
        if plane:
            y, r = live["final_y"], live["radius"]
            radial = u[0] < p_radial
            th_r = _quantile(u1, u2, pw, *radial_law)
            th_t = _quantile(u1, u2, pw, *transverse_law)
            # a live radius exceeds a >= 0, so the unit vector u is defined
            ux, uy = x / r, y / r
            # transverse unit vector: u rotated a quarter turn anticlockwise
            theta = np.where(radial, th_r, th_t)
            x += np.where(radial, ux, -uy) * theta
            y += np.where(radial, uy, ux) * theta
            # carried to the next step: the same hypot of the same inputs
            vn = dist = np.hypot(x, y, out=r)
        else:
            if signed:
                neg = x < zero
            if drifted:
                lw = spec.light_width(x)
            else:
                lw = np.where(neg, light[1], light[0]) if sign_light else light[0]
            sc = np.where(neg, scale[1], scale[0]) if sign_scale else scale[0]
            x += _quantile(u1, u2, pw, p, sc, lw, mirror)
            if half:
                np.maximum(x, zero, out=x)
            vn = dist = x
            if signed:
                # a sign change: x < 0 at the end of the step and not at its
                # start, or the reverse (states are finite, so never NaN)
                live["last_sign_change"][np.not_equal(x < zero, neg)] = nstep
                dist = np.abs(x)
        np.maximum(live["max"], vn, out=live["max"])
        np.minimum(live["min"], vn, out=live["min"])
        if pending:
            fe = live["first_exit"]
            first = (dist > m_pos) & (fe < izero)
            fresh = np.count_nonzero(first)
            if fresh:
                fe[first] = nstep
                pending -= fresh
        ret = dist <= a
        if np.count_nonzero(ret):
            sel = np.flatnonzero(ret)
            batch["tau"][live["index"][sel] - lo] = nstep
            settle(sel)
            if pending:
                pending -= np.count_nonzero(live["first_exit"][sel] < izero)
            # swap-fill the returned rows below the kept width
            kept = width - sel.size
            holes = sel[:np.searchsorted(sel, kept)]
            fill = np.flatnonzero(~ret[kept:]) + kept
            for name, col in live.items():
                col[holes] = col[fill]
                live[name] = col[:kept]
    settle(slice(None))
    return batch, {"steps": steps, "traj_steps": traj_steps, "uniforms": dps * traj_steps}


def _check_exit_level(cfg: SimConfig, m_level: float) -> None:
    if not m_level > cfg.a:   # a state is beyond such a level (or NaN) before it returns
        raise DomainError(f"exit level {m_level!r} must exceed the return level a = {cfg.a!r}")


def _simulate_batch(cfg: SimConfig, m_level: float = math.inf) -> dict:
    """Run all trajectories, merging per-chunk arrays in index order.

    Results do not depend on the partition.  The run is split into
    k = max(w, ceil(n_traj / _CHUNK)) even chunks, w the worker processes:
    never more than the cores, since more only add overhead.  The chunks run
    in turn at w = 1 and over a pool of w processes otherwise.  "workers" is
    w, and "engine" holds the chunks' counts summed (lockstep steps,
    trajectory-steps, uniforms)."""
    _check_exit_level(cfg, m_level)
    w = min(cfg.workers, cfg.n_traj, os.cpu_count() or 1)
    chunks = max(w, -(-cfg.n_traj // _CHUNK))
    bounds = [cfg.n_traj * i // chunks for i in range(chunks + 1)]
    kernel = partial(_chunk, cfg, m_level)
    if w == 1:
        parts = list(map(kernel, bounds[:-1], bounds[1:]))
    else:
        from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing
        with ProcessPoolExecutor(max_workers=w) as ex:
            parts = list(ex.map(kernel, bounds[:-1], bounds[1:]))
    merged = {k: np.concatenate([cols[k] for cols, _ in parts]) for k in parts[0][0]}
    merged["censored"] = merged["tau"] < 0
    merged["horizon"] = cfg.horizon
    merged["workers"] = w
    merged["engine"] = {k: sum(counts[k] for _, counts in parts) for k in parts[0][1]}
    return merged


def run_trajectories(cfg: SimConfig, m_level: float = math.inf) -> np.recarray:
    """One record per trajectory of the batch's columns in TRAJECTORY_COLUMNS
    order (final_y on the plane only), -1 where there is no tau, first exit or
    sign change; bit-identical for any worker count."""
    batch = _simulate_batch(cfg, m_level)
    names = [k for k in TRAJECTORY_COLUMNS if k in batch]
    return np.rec.fromarrays([batch[k] for k in names], names=names)


# ---------------------------------------------------------------------------
# survival exponent
# ---------------------------------------------------------------------------

def survival_grid(horizon: int) -> np.ndarray:
    top = max(horizon - 1, 1)
    return np.unique(np.rint(np.geomspace(1, top, SURVIVAL_POINTS)).astype(np.int64))


def survival_curve(batch: dict, grid: np.ndarray) -> np.ndarray:
    """P[tau_eff > n] at each n of grid, tau_eff = horizon + 1 for a censored
    trajectory: count/N from one sort of the times, the same float as the
    mean of the 0/1 array tau_eff > n, in memory independent of the horizon."""
    t = np.sort(np.where(batch["tau"] < 0, batch["horizon"] + 1, batch["tau"]))
    return (len(t) - np.searchsorted(t, grid, side="right")) / len(t)


def estimate_passage_tail(cfg: SimConfig) -> SurvivalEstimate:
    """log-log OLS slope of the survival curve P[tau_a > n].

    The fit window keeps survival in (10/n_traj, 0.9): the early transient
    and the noise floor are excluded.  Censored trajectories only contribute
    as tau > n, never as returns.
    """
    batch = _simulate_batch(cfg)
    grid = survival_grid(cfg.horizon)
    surv = survival_curve(batch, grid)
    floor = 10.0 / cfg.n_traj
    use = (surv > floor) & (surv < 0.9)
    if use.sum() < 4:
        raise InsufficientDataError(
            f"only {int(use.sum())} usable survival points in ({floor:.2g}, 0.9)")
    ln = np.log(grid[use].astype(float))
    ls = np.log(surv[use])
    dx = ln - ln.mean()
    slope = float((dx * (ls - ls.mean())).sum() / (dx * dx).sum())
    resid = ls - (ls.mean() + slope * dx)
    dof = max(len(ln) - 2, 1)
    stderr = float(math.sqrt((resid * resid).sum() / dof / (dx * dx).sum()))
    window = (int(grid[use][0]), int(grid[use][-1]))
    return SurvivalEstimate(grid=[int(g) for g in grid], survival=[float(s) for s in surv],
                            slope=slope, stderr=stderr, fit_window=window)


# ---------------------------------------------------------------------------
# phase and moment diagnostics
# ---------------------------------------------------------------------------

def phase_diagnostic(cfg: SimConfig, m_level: float) -> PhaseDiagnostic:
    """Per-trajectory labels over the horizon.

    returned: tau <= horizon.  escaped: censored with |final| beyond m_level.
    oscillatory-like: escaped, crossed both +-m_level, and the last sign
    change happened after the first exit beyond m_level.  directional-like:
    escaped with no sign change after the first exit.
    """
    batch = _simulate_batch(cfg, m_level)
    tau = batch["tau"]
    returned = tau >= 0
    fr = (np.hypot(batch["final_x"], batch["final_y"]) if "final_y" in batch
          else np.abs(batch["final_x"]))
    escaped = (~returned) & (fr > m_level)
    # on the half line and the plane no sign changes (lf is -1), so osc is false
    fe, lf = batch["first_exit"], batch["last_sign_change"]
    osc = escaped & batch["crossed_pos"] & batch["crossed_neg"] & (fe >= 0) & (lf > fe)
    direc = escaped & (fe >= 0) & (lf <= fe) & (cfg.spec.regime not in ("half_line", "plane"))
    return PhaseDiagnostic(
        n_traj=cfg.n_traj,
        threshold=m_level,
        return_fraction=float(returned.mean()),
        escape_fraction=float(escaped.mean()),
        oscillation_fraction=float(osc.mean()),
        directional_fraction=float(direc.mean()),
    )


def moment_diagnostic(cfg: SimConfig, q_list: Sequence[float]) -> dict:
    """Capped-moment growth E[min(tau, n)^q] at n = horizon/100, /10, /1.

    flag: "bounded" if the last growth ratio < 1.1, "growing" if > 1.5,
    otherwise "indeterminate".
    """
    if cfg.horizon < 100:
        # the checkpoints horizon // 100, // 10 and horizon would coincide or run backwards
        raise DomainError(f"moment_diagnostic needs horizon >= 100, got {cfg.horizon}")
    for q in q_list:
        # q = 0 makes every moment 1, and a negative q shrinks as tau grows
        if not (_is_real(q) and _is_finite(q) and q > 0.0):
            raise DomainError(f"moment order q must be finite and > 0, got {q!r}")
    batch = _simulate_batch(cfg)
    tau = batch["tau"].astype(float)
    tau[tau < 0] = cfg.horizon
    ns = [cfg.horizon // 100, cfg.horizon // 10, cfg.horizon]
    out = {}
    for q in q_list:
        vals = [float((np.minimum(tau, n) ** q).mean()) for n in ns]
        ratio = vals[-1] / vals[-2] if vals[-2] > 0 else math.inf
        flag = "bounded" if ratio < 1.1 else ("growing" if ratio > 1.5 else "indeterminate")
        out[q] = {"n": ns, "values": vals, "ratio": ratio, "flag": flag}
    return out
