"""Parallel trajectory simulation and empirical phase diagnostics.

Trajectories are independent units of work: trajectory k draws its uniforms
from the counter stream (master_seed, k), so any partition of the index
range over workers produces bit-identical results.  The engine runs chunks
of trajectories in vectorized lockstep on compacted live columns: each step
touches only the trajectories still out, and draws exactly one uniform per
draw counter for each of them (draws_per_step * sum(min(tau, horizon))
uniforms in all).  The scalar step() path in `increments` consumes the same
streams and agrees with it: the same return times, and states equal to
rounding (vectorized and scalar powers may differ in the last bit).
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, InsufficientDataError
from .increments import (_U_MIN, ChainSpec, HeavyPareto, IncrementLaw, plane_radial_law,
                         plane_transverse_law)
from .rng import seed_key, uniform_array

# a uniform's counter fills the low 32 bits of its stream word
# (rng.uniform_at), and the trajectory index the high 32
_COUNTER_SPAN = 2 ** 32


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
        for name in ("horizon", "n_traj", "workers"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise DomainError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.horizon < 0:
            raise DomainError("horizon must be >= 0")
        if self.n_traj < 1:
            raise DomainError("n_traj must be >= 1")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        if self.draws_per_step * self.horizon > _COUNTER_SPAN:
            raise DomainError(f"{self.spec.regime} horizon must be <= {_COUNTER_SPAN // self.draws_per_step}")
        if self.n_traj > _COUNTER_SPAN:
            raise DomainError("n_traj must be <= 2^32")
        if self.spec.regime == "plane":
            s = self.start
            if np.isscalar(s):
                # a radius: start on the positive x axis
                object.__setattr__(self, "start", (float(s), 0.0))
            elif len(s) != 2:
                raise DomainError("plane start must be a radius or an (x, y) pair")
        elif not np.isscalar(self.start):
            raise DomainError(f"{self.spec.regime} start must be a number")

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


@dataclass(frozen=True)
class TrajectorySummary:
    index: int
    tau: Optional[int]
    censored: bool
    max_excursion: float
    min_excursion: float
    final: Union[float, tuple]
    crossed_pos: bool
    crossed_neg: bool
    first_exit: Optional[int]
    last_sign_change: Optional[int]


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

def _mixture(u1: np.ndarray, u2: np.ndarray, pw: np.ndarray, p: float, scale, light,
             two_sided: bool) -> np.ndarray:
    """Increments of the canonical mixture, the order build_law and the plane
    laws use: a Pareto side of weight p with signed support point `scale`,
    then (two_sided) its mirror image with weight p, then a uniform on
    (0, light), `light` a signed width, with the remaining weight.  u1 picks
    the component and u2 (clipped away from 0) inverts its CDF; pw is
    u2 ** (-1 / exponent), the Pareto quantile at support point 1."""
    pareto = scale * pw
    if two_sided:
        return np.where(u1 < p, pareto, np.where(u1 < p + p, -pareto, light * u2))
    return np.where(u1 < p, pareto, light * u2)


def _law_constants(law: IncrementLaw) -> tuple:
    """_mixture's constants for a state-independent law."""
    heavy, light = law.components[0], law.components[-1].kind
    return (heavy.weight, heavy.kind.sign * heavy.kind.scale, light.sign * light.width,
            isinstance(law.components[1].kind, HeavyPareto))


def _chunk(cfg: SimConfig, m_level: float, lo: int, hi: int) -> dict:
    """Trajectories lo..hi-1 of cfg in vectorized lockstep.

    The tracked level is x on the line and the radius in the plane; step n
    draws the uniforms with counters draws_per_step * (n - 1) + j, for
    exactly the trajectories still out at step n: one draw per live
    trajectory-step.  Each step works on compacted live columns (trajectory
    index, state, running max and min, and the exit, crossing and flip
    columns where they can fire); a trajectory's columns are written to the
    batch once, when it returns or at the horizon.  Sign flips and crossings
    of -m_level exist only on the whole line, crossings of +m_level only off
    the plane, and none of the exit work is done when m_level is inf."""
    spec, a = cfg.spec, cfg.a
    key = seed_key(cfg.master_seed)
    dps = cfg.draws_per_step
    n = hi - lo
    plane = spec.regime == "plane"
    half = spec.regime == "half_line"
    signed = not (plane or half)
    exits = m_level < math.inf
    # the Pareto quantile's power; every plane law's heavy exponent is alpha
    power = -1.0 / spec.heavy_exponent
    if plane:
        radial_law = _law_constants(plane_radial_law(spec))
        transverse_law = _law_constants(plane_transverse_law(spec))
        start = {"final_x": np.full(n, float(cfg.start[0])),
                 "final_y": np.full(n, float(cfg.start[1]))}
        level = np.hypot(*start.values())
    else:
        p, y0 = spec.p_heavy, spec.heavy_scale()
        two_sided = spec.regime == "line_balanced"
        # the heavy side's direction depends only on the sign of x, and so does
        # the light width when b = 0: (value at x >= 0, value at x < 0)
        scale = (y0, y0) if two_sided else tuple(float(spec.heavy_sign(s)) * y0
                                                for s in (1.0, -1.0))
        light = None
        if spec.drift.b == 0.0:
            light = tuple(float(spec.light_width(s)) for s in (1.0, -1.0))
        start = {"final_x": np.full(n, float(cfg.start))}
        level = start["final_x"]
    batch = {"index": np.arange(lo, hi, dtype=np.int64), "tau": np.full(n, -1, dtype=np.int64),
             "max": level.copy(), "min": level.copy(), "final_x": start["final_x"],
             "crossed_pos": np.zeros(n, dtype=bool), "crossed_neg": np.zeros(n, dtype=bool),
             "first_exit": np.full(n, -1, dtype=np.int64),
             "last_flip": np.full(n, -1, dtype=np.int64), **start}

    returned0 = (np.abs(level) if signed else level) <= a
    batch["tau"][returned0] = 0
    keep = np.flatnonzero(~returned0)
    names = ["index", "max", "min", *start] + [
        k for k, fires in (("first_exit", exits), ("crossed_pos", exits and not plane),
                           ("crossed_neg", exits and signed), ("last_flip", signed)) if fires]
    live = {k: batch[k][keep] for k in names}
    if plane:
        live["radius"] = level[keep]

    def settle(sel) -> None:
        """Write the live columns at positions sel back to the batch."""
        at = live["index"][sel] - lo
        for k in names[1:]:
            batch[k][at] = live[k][sel]

    for nstep in range(1, cfg.horizon + 1):
        gid = live["index"]
        if gid.size == 0:
            break
        base = dps * (nstep - 1)
        u = [uniform_array(key, gid, base + j) for j in range(dps)]
        u1, u2 = u[-2], np.maximum(u[-1], _U_MIN, out=u[-1])
        pw = u2 ** power
        x = live["final_x"]
        if plane:
            y, r = live["final_y"], live["radius"]
            radial = u[0] < spec.plane.p_radial
            th_r = _mixture(u1, u2, pw, *radial_law)
            th_t = _mixture(u1, u2, pw, *transverse_law)
            # the origin (r = 0) is live only when a < 0: step along the x axis
            off = r > 0.0
            safe = np.where(off, r, 1.0)
            ux = np.where(off, x / safe, 1.0)
            uy = np.where(off, y / safe, 0.0)
            # transverse unit vector: u rotated a quarter turn anticlockwise
            theta = np.where(radial, th_r, th_t)
            x += np.where(radial, ux, -uy) * theta
            y += np.where(radial, uy, ux) * theta
            # carried to the next step: the same hypot of the same inputs
            vn = dist = live["radius"] = np.hypot(x, y)
        else:
            if signed:
                neg = x < 0.0
            if light is None:
                lw = spec.light_width(x)
            else:
                lw = np.where(neg, light[1], light[0]) if signed else light[0]
            sc = np.where(neg, scale[1], scale[0]) if signed and not two_sided else scale[0]
            x += _mixture(u1, u2, pw, p, sc, lw, two_sided)
            if half:
                np.maximum(x, 0.0, out=x)
            vn = x
            dist = np.abs(x) if signed else x
        np.maximum(live["max"], vn, out=live["max"])
        np.minimum(live["min"], vn, out=live["min"])
        if signed:
            # states are finite, so x < 0 is the negation of x >= 0
            live["last_flip"][(x < 0.0) != neg] = nstep
        if exits:
            out = dist > m_level
            if out.any():
                fe = live["first_exit"]
                fe[out & (fe < 0)] = nstep
                if not plane:
                    live["crossed_pos"] |= vn > m_level
                if signed:
                    live["crossed_neg"] |= vn < -m_level
        ret = dist <= a
        if ret.any():
            sel = np.flatnonzero(ret)
            batch["tau"][gid[sel] - lo] = nstep
            settle(sel)
            keep = np.flatnonzero(~ret)
            for k in live:
                live[k] = live[k][keep]
    settle(slice(None))
    return batch


def _simulate_batch(cfg: SimConfig, m_level: float = math.inf) -> dict:
    """Run all trajectories, merging per-chunk arrays in index order.

    Results do not depend on the partition, so chunks never outnumber the
    cores: more worker processes than cores only add overhead.  "workers" is
    the number of chunks (and processes) actually used."""
    w = min(cfg.workers, cfg.n_traj, os.cpu_count() or 1)
    bounds = [cfg.n_traj * i // w for i in range(w + 1)]
    kernel = partial(_chunk, cfg, m_level)
    if w == 1:
        parts = [kernel(0, cfg.n_traj)]
    else:
        with ProcessPoolExecutor(max_workers=w) as ex:
            parts = list(ex.map(kernel, bounds[:-1], bounds[1:]))
    merged = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    merged["horizon"] = cfg.horizon
    merged["n_traj"] = cfg.n_traj
    merged["workers"] = w
    merged["plane"] = cfg.spec.regime == "plane"
    return merged


def _summaries_from_batch(batch: dict) -> list[TrajectorySummary]:
    final = batch["final_x"].tolist()
    if batch["plane"]:
        final = list(zip(final, batch["final_y"].tolist()))
    rows = zip(batch["index"].tolist(), batch["tau"].tolist(), batch["max"].tolist(),
               batch["min"].tolist(), final, batch["crossed_pos"].tolist(),
               batch["crossed_neg"].tolist(), batch["first_exit"].tolist(),
               batch["last_flip"].tolist())
    return [TrajectorySummary(index=k, tau=None if tau < 0 else tau, censored=tau < 0,
                              max_excursion=hi, min_excursion=lo, final=f,
                              crossed_pos=cp, crossed_neg=cn,
                              first_exit=None if fe < 0 else fe,
                              last_sign_change=None if lf < 0 else lf)
            for k, tau, hi, lo, f, cp, cn, fe, lf in rows]


def run_trajectories(cfg: SimConfig, m_level: float = math.inf) -> list[TrajectorySummary]:
    """Simulate n_traj independent trajectories; bit-identical for any worker
    count (trajectory k's stream depends only on (master_seed, k))."""
    return _summaries_from_batch(_simulate_batch(cfg, m_level))


# ---------------------------------------------------------------------------
# survival exponent
# ---------------------------------------------------------------------------

def survival_grid(horizon: int, points: int = 60) -> np.ndarray:
    top = max(horizon - 1, 1)
    return np.unique(np.rint(np.geomspace(1, top, points)).astype(np.int64))


def survival_curve(batch: dict, grid: np.ndarray) -> np.ndarray:
    tau = batch["tau"]
    horizon = batch["horizon"]
    tau_eff = np.where(tau < 0, horizon + 1, tau)
    return np.array([(tau_eff > n).mean() for n in grid])


def estimate_passage_tail(cfg: SimConfig, grid_points: int = 60) -> SurvivalEstimate:
    """log-log OLS slope of the survival curve P[tau_a > n].

    The fit window keeps survival in (10/n_traj, 0.9): the early transient
    and the noise floor are excluded.  Censored trajectories only contribute
    as tau > n, never as returns.
    """
    batch = _simulate_batch(cfg)
    grid = survival_grid(cfg.horizon, grid_points)
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
    if m_level <= cfg.a:
        raise DomainError("m_level must exceed the return level a")
    batch = _simulate_batch(cfg, m_level)
    tau = batch["tau"]
    returned = tau >= 0
    if batch["plane"]:
        fr = np.hypot(batch["final_x"], batch["final_y"])
    else:
        fr = np.abs(batch["final_x"])
    escaped = (~returned) & (fr > m_level)
    n = cfg.n_traj
    osc = np.zeros(n, dtype=bool)
    direc = np.zeros(n, dtype=bool)
    if cfg.spec.regime not in ("half_line", "plane"):
        fe = batch["first_exit"]
        lf = batch["last_flip"]
        osc = escaped & batch["crossed_pos"] & batch["crossed_neg"] & (fe >= 0) & (lf > fe)
        direc = escaped & (fe >= 0) & (lf <= fe)
    return PhaseDiagnostic(
        n_traj=n,
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
    batch = _simulate_batch(cfg)
    tau = batch["tau"].astype(float)
    tau[tau < 0] = cfg.horizon
    ns = [max(cfg.horizon // 100, 1), max(cfg.horizon // 10, 1), cfg.horizon]
    out = {}
    for q in q_list:
        vals = [float((np.minimum(tau, n) ** q).mean()) for n in ns]
        ratio = vals[-1] / vals[-2] if vals[-2] > 0 else math.inf
        flag = "bounded" if ratio < 1.1 else ("growing" if ratio > 1.5 else "indeterminate")
        out[q] = {"n": ns, "values": vals, "ratio": ratio, "flag": flag}
    return out
