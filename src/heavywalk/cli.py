"""Batch command-line front end.

Subcommands: classify, nu-star, drift-verify, simulate, phase-diagram,
selftest.  Configuration is one JSON object (see README for the schema);
--seed/--workers/--out override the config.  JSON out for reports, CSV for
bulk data; exit codes: 0 ok, 1 selftest failure, 2 invalid config.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .classify import classify, nu_star
from .errors import ConfigError, HeavywalkError, NoRootError
from .floatrepr import repr_floats
from .increments import ChainSpec, DriftParams, PlaneParams, TailParams, _real
from .lyapunov import verify_expansion
from .montecarlo import (TRAJECTORY_COLUMNS, SimConfig, _check_exit_level, _simulate_batch,
                         survival_curve, survival_grid)
from .selftest import run_selftest

_PLANE_KEYS = {f.name for f in fields(PlaneParams)}
# the sweep parameters: every numeric spec field
_SWEEPABLE = {"p_heavy", *_PLANE_KEYS,
              *(f.name for rec in (TailParams, DriftParams) for f in fields(rec))}
# rows that simulate's CSV writer converts and writes at once
_CSV_BLOCK = 8192


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError) as ex:   # missing, a directory, not text
        raise ConfigError(f"cannot read config file: {ex}")
    except json.JSONDecodeError as ex:
        raise ConfigError(f"{path}:{ex.lineno}:{ex.colno}: {ex.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    return cfg


@contextmanager
def _reading(field: str):
    """Read the config entries of `field`: a missing entry, a malformed value
    and a spec or run they do not allow are each a ConfigError for it."""
    try:
        yield
    except KeyError as ex:
        raise ConfigError(f"{field}: missing field {ex}")
    except (TypeError, ValueError, OverflowError, OSError, HeavywalkError) as ex:
        raise ConfigError(f"{field}: {ex}")


def spec_from_config(cfg: dict) -> ChainSpec:
    with _reading("spec"):
        return ChainSpec.from_json(cfg)


def _integer(value) -> int:
    """A count from the config: an int, or a float with an integral value
    (1e5).  Booleans, fractions and non-numbers raise ValueError, so a run
    never uses a count other than the one its config states."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def sim_from_config(cfg: dict, spec: ChainSpec, seed: int, workers: int) -> SimConfig:
    sim = cfg.get("sim")
    if not isinstance(sim, dict):
        raise ConfigError("sim: missing sim section")
    with _reading("sim"):
        start = sim["start"]
        start = tuple(map(_real, start)) if isinstance(start, list) else _real(start)
        return SimConfig(spec=spec, start=start, a=_real(sim["a"]),
                         horizon=_integer(sim["horizon"]), n_traj=_integer(sim["n_traj"]),
                         master_seed=seed, workers=workers)


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_classify(cfg: dict, out: Path, _seed: int, _workers: int) -> int:
    spec = spec_from_config(cfg)
    report = classify(spec).to_json()
    _write_json(out / "classify.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_nu_star(cfg: dict, out: Path, _seed: int, _workers: int) -> int:
    spec = spec_from_config(cfg)
    try:
        ns = nu_star(spec)
        report = {"nu_star": ns.nu_star, "bracket": list(ns.bracket),
                  "residual": ns.residual, "iterations": ns.iterations}
    except NoRootError as ex:
        # a valid determination: the spec sits on the transient side
        report = {"no_root": True, "reason": str(ex)}
    _write_json(out / "nu_star.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_drift_verify(cfg: dict, out: Path, _seed: int, _workers: int) -> int:
    spec = spec_from_config(cfg)
    d = cfg.get("drift_verify")
    if not isinstance(d, dict):
        raise ConfigError("drift_verify: missing drift_verify section {i, nu, x_min, x_max, points}")
    with _reading("drift_verify"):
        i = _integer(d["i"])
        nu = _real(d["nu"])
        x_min, x_max = _real(d.get("x_min", 1e2)), _real(d.get("x_max", 1e5))
        if not (math.isfinite(x_min) and math.isfinite(x_max)):
            raise ValueError(f"x_min and x_max must be finite, got {x_min!r}, {x_max!r}")
        if x_min == 0.0 or x_max == 0.0 or (x_min < 0.0) != (x_max < 0.0):
            raise ValueError(f"x_min and x_max must be non-zero and of one sign, "
                             f"got {x_min!r}, {x_max!r}")
        grid = np.geomspace(x_min, x_max, _integer(d.get("points", 4)))
    rep = verify_expansion(spec, i, nu, list(grid))
    _write_csv(out / "drift_report.csv", {
        "x": np.array(rep.x_grid), "numeric": np.array(rep.numeric),
        "predicted": np.array(rep.predicted), "normalized_error": np.array(rep.normalized_error)})
    summary = {"i": i, "nu": nu, "coefficient": rep.coefficient, "converged": rep.converged,
               "final_normalized_error": rep.normalized_error[-1]}
    _write_json(out / "drift_report.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _int_chars(col: np.ndarray) -> np.ndarray:
    """%d of each int as a uint8 matrix, one row per value: the sign, then
    the digits right-aligned, NUL where a value has no character."""
    col = col.astype(np.int64, copy=False)
    a = np.abs(col).view(np.uint64)   # |-2^63| wraps to 2^63, right as unsigned
    out = np.empty((1 + len(str(int(a.max()))), a.size), dtype=np.uint8)
    out[0] = (col < 0).view(np.uint8) * ord("-")
    for j in range(len(out) - 1, 0, -1):
        q = a // 10
        # a digit while the value left is non-zero, and the units digit always
        lit = (a != 0).view(np.uint8) if j < len(out) - 1 else 1
        out[j] = (a - q * 10).astype(np.uint8) + lit * ord("0")
        a = q
    return out.T


def _chars(col: np.ndarray) -> np.ndarray:
    """A column's CSV fields as the ASCII bytes csv.writer writes, as the
    non-NUL bytes of the rows of a uint8 matrix: repr for floats, 0/1 for
    flags, %d for ints, and a bytes column's own bytes (fields that need no
    quoting)."""
    if col.dtype.kind == "S":
        return col.view(np.uint8).reshape(len(col), -1)
    if col.dtype == bool:
        return (col.view(np.uint8) + ord("0"))[:, None]
    if col.dtype.kind == "f":
        return repr_floats(col)
    return _int_chars(col)


def _write_csv(path: Path, cols: dict) -> None:
    """Write equal-length columns under a header of their names, with the
    bytes csv.writer gives (fields joined by ',', rows ended by \\r\\n; no
    field needs quoting).  Each block of _CSV_BLOCK rows is laid out as one uint8
    matrix, each column's characters, a ',' or \\r\\n after it, and written
    without its NULs in one call, so no Python object is made per field."""
    n = len(next(iter(cols.values())))
    with open(path, "wb") as fh:
        fh.write(",".join(cols).encode() + b"\r\n")
        for lo in range(0, n, _CSV_BLOCK):
            fields = [_chars(c[lo:lo + _CSV_BLOCK]) for c in cols.values()]
            comma, end = (np.broadcast_to(np.frombuffer(s, np.uint8), (len(fields[0]), len(s)))
                          for s in (b",", b"\r\n"))
            rows = np.concatenate([p for f in fields for p in (f, comma)][:-1] + [end], axis=1)
            fh.write(rows.tobytes().translate(None, b"\0"))


def cmd_simulate(cfg: dict, out: Path, seed: int, workers: int) -> int:
    spec = spec_from_config(cfg)
    sim = sim_from_config(cfg, spec, seed, workers)
    with _reading("m_level"):
        m_level = _real(cfg.get("m_level", math.inf))
        _check_exit_level(sim, m_level)
    t_simulate = time.perf_counter()
    batch = _simulate_batch(sim, m_level)

    traj_path = out / "trajectories.csv"
    t_write = time.perf_counter()
    _write_csv(traj_path, {k: batch[k] for k in TRAJECTORY_COLUMNS if k in batch})
    grid = survival_grid(sim.horizon)
    surv_path = out / "survival.csv"
    _write_csv(surv_path, {"n": grid, "survival": survival_curve(batch, grid)})
    stage_s = {"simulate": t_write - t_simulate, "write": time.perf_counter() - t_write}

    manifest = {
        "version": __version__,
        "command": "simulate",
        "spec": spec.to_json(),
        "sim": sim.to_json(),
        "master_seed": sim.master_seed,
        "workers": batch["workers"],
        "engine": batch["engine"],
        "m_level": None if math.isinf(m_level) else m_level,
        "outputs": [traj_path.name, surv_path.name],
        "stage_s": stage_s,
    }
    _write_json(out / "manifest.json", manifest)
    returned = float((batch["tau"] >= 0).mean())
    print(json.dumps({"return_fraction": returned, "outputs": manifest["outputs"]},
                     sort_keys=True))
    return 0


def _axis_values(ax: dict) -> np.ndarray:
    """A sweep axis's grid; raises ValueError unless min, max and the span
    between them are finite."""
    lo, hi = _real(ax["min"]), _real(ax["max"])
    if not math.isfinite(hi - lo):
        raise ValueError(f"min and max must be finite, got {lo!r}, {hi!r}")
    return np.linspace(lo, hi, _integer(ax["steps"]))


def _phase_row(cfg: dict, point: dict) -> tuple[bytes, bytes]:
    """The phase and q_crit (its repr, or empty) of the spec at a sweep point:
    cfg with the point's values, a plane parameter's merged into a copy of the
    plane section.  A point with no spec or no phase is an error: row."""
    at = dict(cfg, **point)
    plane = {k: v for k, v in point.items() if k in _PLANE_KEYS}
    if plane:
        at["plane"] = {**cfg.get("plane", {}), **plane}
    try:
        cl = classify(ChainSpec.from_json(at))
    except HeavywalkError as ex:
        return f"error:{type(ex).__name__}".encode(), b""
    q = cl.moment_exponent
    return cl.phase.encode(), b"" if q is None else repr(q).encode()


def cmd_phase_diagram(cfg: dict, out: Path, _seed: int, _workers: int) -> int:
    axes = cfg.get("grid")
    if not axes:
        raise ConfigError("grid: phase-diagram requires grid: [{param, min, max, steps}, ...]")
    if isinstance(axes, dict):
        axes = [axes]
    if not isinstance(axes, list) or len(axes) > 2:
        raise ConfigError("grid: one sweep axis, or a list of at most two")
    with _reading("grid"):
        grids = [_axis_values(ax) for ax in axes]
        names = [str(ax["param"]) for ax in axes]
    for name, g in zip(names, grids):
        if len(g) < 2:
            raise ConfigError("grid: steps must be >= 2")
        if name not in _SWEEPABLE:
            raise ConfigError(f"grid: unknown sweep parameter {name!r}; "
                              f"expected one of {sorted(_SWEEPABLE)}")
    if len(set(names)) < len(names):
        # a point holds one value per parameter: the first axis's would be lost
        raise ConfigError(f"grid: two sweep axes on {names[0]!r}")
    values = list(itertools.product(*(g.tolist() for g in grids)))
    # a spec entry or plane section that cannot be read exits 2, not a row
    with _reading("spec"):
        rows = [_phase_row(cfg, dict(zip(names, v))) for v in values]
    cols = dict(zip(names, np.array(values).T))
    cols["phase"], cols["q_crit"] = (np.array(c, dtype=bytes) for c in zip(*rows))
    path = out / "phase_diagram.csv"
    _write_csv(path, cols)
    print(json.dumps({"rows": len(values), "output": path.name}))
    return 0


def cmd_selftest(_cfg: dict, _out: Path, _seed: int, _workers: int) -> int:
    results = run_selftest()
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{status}  {r.name:28s} max_error={r.max_error:.3e}  tol={r.tolerance:.1e}")
    if not ok:
        failed = ", ".join(r.name for r in results if not r.passed)
        print(f"selftest FAILED: {failed}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "nu-star": cmd_nu_star,
    "drift-verify": cmd_drift_verify,
    "simulate": cmd_simulate,
    "phase-diagram": cmd_phase_diagram,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heavywalk",
        description="Heavy-tailed zero-drift Markov chains: classify, solve, verify, simulate.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config path (see README)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--workers", type=int, default=None, help="worker count (overrides config)")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else {}
        if args.command != "selftest" and not cfg:
            raise ConfigError("--config is required for this command")
        with _reading("seed, workers and out"):
            seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 0))
            workers = args.workers if args.workers is not None else _integer(cfg.get("workers", 1))
            out = Path(args.out if args.out is not None else cfg.get("out", "."))
            out.mkdir(parents=True, exist_ok=True)   # OSError: out is not a usable directory
        return _COMMANDS[args.command](cfg, out, seed, workers)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except (HeavywalkError, OverflowError) as ex:   # OverflowError: past the float range
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
