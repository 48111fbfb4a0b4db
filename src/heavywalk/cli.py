"""Batch command-line front end.

Subcommands: classify, nu-star, drift-verify, simulate, phase-diagram,
selftest.  Configuration is one JSON object (see README for the schema);
--seed/--workers/--out override the config.  JSON out for reports, CSV for
bulk data; exit codes: 0 ok, 1 selftest failure, 2 invalid config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .classify import classify, nu_star
from .errors import ConfigError, HeavywalkError, NoRootError
from .increments import ChainSpec, _real
from .lyapunov import verify_expansion
from .montecarlo import SimConfig, _simulate_batch, survival_curve, survival_grid
from .selftest import run_selftest

_SPEC_KEYS = ("regime", "alpha", "beta", "c", "gamma", "b", "p_heavy", "x0", "plane")
_PLANE_KEYS = ("p_radial", "c_radial", "c_transverse")
# rows per string that simulate's CSV writer converts and writes at once
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


def spec_from_config(cfg: dict) -> ChainSpec:
    if "regime" not in cfg:
        raise ConfigError("missing required field", field="regime")
    try:
        return ChainSpec.from_json({k: cfg[k] for k in _SPEC_KEYS if k in cfg})
    except (KeyError, TypeError, ValueError, OverflowError, HeavywalkError) as ex:
        raise ConfigError(str(ex), field="spec")


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
        raise ConfigError("missing sim section", field="sim")
    try:
        start = sim["start"]
        if isinstance(start, list):
            start = tuple(_real(v) for v in start)
        else:
            start = _real(start)
        return SimConfig(spec=spec, start=start, a=_real(sim["a"]),
                         horizon=_integer(sim["horizon"]), n_traj=_integer(sim["n_traj"]),
                         master_seed=seed, workers=workers)
    except KeyError as ex:
        raise ConfigError(f"missing field {ex}", field="sim")
    except (TypeError, ValueError, OverflowError, HeavywalkError) as ex:
        raise ConfigError(str(ex), field="sim")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_classify(cfg: dict, out: Path, seed: int, workers: int) -> int:
    spec = spec_from_config(cfg)
    report = classify(spec).to_json()
    _write_json(out / "classify.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_nu_star(cfg: dict, out: Path, seed: int, workers: int) -> int:
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


def cmd_drift_verify(cfg: dict, out: Path, seed: int, workers: int) -> int:
    spec = spec_from_config(cfg)
    d = cfg.get("drift_verify")
    if not isinstance(d, dict):
        raise ConfigError("missing drift_verify section {i, nu, x_min, x_max, points}",
                          field="drift_verify")
    try:
        i = _integer(d["i"])
        nu = _real(d["nu"])
        x_min, x_max = _real(d.get("x_min", 1e2)), _real(d.get("x_max", 1e5))
        if not (math.isfinite(x_min) and math.isfinite(x_max)):
            raise ValueError(f"x_min and x_max must be finite, got {x_min!r}, {x_max!r}")
        if x_min == 0.0 or x_max == 0.0 or (x_min < 0.0) != (x_max < 0.0):
            raise ValueError(f"x_min and x_max must be non-zero and of one sign, "
                             f"got {x_min!r}, {x_max!r}")
        grid = np.geomspace(x_min, x_max, _integer(d.get("points", 4)))
    except (KeyError, TypeError, ValueError, OverflowError) as ex:
        raise ConfigError(f"missing or malformed field: {ex}", field="drift_verify")
    rep = verify_expansion(spec, i, nu, list(grid))
    _write_csv(out / "drift_report.csv", {
        "x": np.array(rep.x_grid), "numeric": np.array(rep.numeric),
        "predicted": np.array(rep.predicted), "normalized_error": np.array(rep.normalized_error)})
    summary = {"i": i, "nu": nu, "coefficient": rep.coefficient, "converged": rep.converged,
               "final_normalized_error": rep.normalized_error[-1]}
    _write_json(out / "drift_report.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cells(col: np.ndarray):
    """A column's CSV fields as csv.writer writes them: repr for floats, 0/1
    for flags and str for ints, the last two read from a table of their
    strings where an int column's range is no longer than the column."""
    if col.dtype == bool:
        return np.array(["0", "1"], dtype=object).take(col.view(np.uint8)).tolist()
    if col.dtype.kind == "f":
        return map(repr, col.tolist())   # tolist() yields Python floats
    lo, hi = int(col.min()), int(col.max())
    if hi - lo >= len(col):
        return map(str, col.tolist())
    return np.array([str(v) for v in range(lo, hi + 1)], dtype=object).take(col - lo).tolist()


def _write_csv(path: Path, cols: dict) -> None:
    """Write equal-length columns under a header of their names, with the
    bytes csv.writer gives (fields joined by ',', rows ended by \\r\\n; numbers
    need no quoting).  Each block of _CSV_BLOCK rows is converted column by
    column and written as one string, so only one block's fields are held."""
    n = len(next(iter(cols.values())))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\r\n")
        for lo in range(0, n, _CSV_BLOCK):
            rows = zip(*(_cells(c[lo:lo + _CSV_BLOCK]) for c in cols.values()))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def cmd_simulate(cfg: dict, out: Path, seed: int, workers: int) -> int:
    spec = spec_from_config(cfg)
    sim = sim_from_config(cfg, spec, seed, workers)
    try:
        m_level = _real(cfg.get("m_level", math.inf))
    except (TypeError, ValueError, OverflowError) as ex:
        raise ConfigError(str(ex), field="m_level")
    if math.isnan(m_level):
        raise ConfigError("must be a number, got NaN", field="m_level")
    t_simulate = time.perf_counter()
    batch = _simulate_batch(sim, m_level)

    cols = {"index": batch["index"], "tau": batch["tau"], "censored": batch["tau"] < 0,
            "max_excursion": batch["max"], "min_excursion": batch["min"],
            "final_x": batch["final_x"]}
    if "final_y" in batch:
        cols["final_y"] = batch["final_y"]
    cols.update(crossed_pos=batch["crossed_pos"], crossed_neg=batch["crossed_neg"],
                first_exit=batch["first_exit"], last_sign_change=batch["last_flip"])
    traj_path = out / "trajectories.csv"
    t_write = time.perf_counter()
    _write_csv(traj_path, cols)
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


def cmd_phase_diagram(cfg: dict, out: Path, seed: int, workers: int) -> int:
    axes = cfg.get("grid")
    if not axes:
        raise ConfigError("phase-diagram requires grid: [{param, min, max, steps}, ...]",
                          field="grid")
    if isinstance(axes, dict):
        axes = [axes]
    if not isinstance(axes, list) or len(axes) > 2:
        raise ConfigError("one sweep axis, or a list of at most two", field="grid")
    sweepable = {"alpha", "beta", "c", "gamma", "b", "p_heavy", "x0", *_PLANE_KEYS}
    try:
        grids = [_axis_values(ax) for ax in axes]
        names = [str(ax["param"]) for ax in axes]
    except KeyError as ex:
        raise ConfigError(f"axis missing {ex}", field="grid")
    except (TypeError, ValueError, OverflowError) as ex:
        raise ConfigError(f"malformed axis: {ex}", field="grid")
    for name, g in zip(names, grids):
        if len(g) < 2:
            raise ConfigError("steps must be >= 2", field="grid")
        if name not in sweepable:
            raise ConfigError(f"unknown sweep parameter {name!r}; "
                              f"expected one of {sorted(sweepable)}", field="grid")

    base = {k: cfg[k] for k in _SPEC_KEYS if k in cfg}

    def spec_at(point: dict) -> ChainSpec:
        obj = json.loads(json.dumps(base))
        for name, val in point.items():
            if name in _PLANE_KEYS:
                obj.setdefault("plane", {})[name] = val
            else:
                obj[name] = val
        try:
            return ChainSpec.from_json(obj)
        except (KeyError, TypeError, ValueError, OverflowError) as ex:
            raise ConfigError(f"cannot build a spec at {point}: {ex!r}", field="grid")

    points = [dict(zip(names, [float(v)])) for v in grids[0]] if len(axes) == 1 else [
        {names[0]: float(v0), names[1]: float(v1)} for v0 in grids[0] for v1 in grids[1]]

    path = out / "phase_diagram.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names + ["phase", "q_crit"])
        for pt in points:
            try:
                cl = classify(spec_at(pt))
                row = [pt[n] for n in names] + [cl.phase,
                                                "" if cl.moment_exponent is None else cl.moment_exponent]
            except ConfigError:
                raise
            except HeavywalkError as ex:
                row = [pt[n] for n in names] + [f"error:{type(ex).__name__}", ""]
            w.writerow(row)
    print(json.dumps({"rows": len(points), "output": path.name}))
    return 0


def cmd_selftest(cfg: dict, out: Path, seed: int, workers: int) -> int:
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
        try:
            seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 0))
            workers = args.workers if args.workers is not None else _integer(cfg.get("workers", 1))
            out = Path(args.out if args.out is not None else cfg.get("out", "."))
            out.mkdir(parents=True, exist_ok=True)   # OSError: out is not a usable directory
        except (TypeError, ValueError, OverflowError, OSError) as ex:
            raise ConfigError(f"seed, workers and out: {ex}")
        return _COMMANDS[args.command](cfg, out, seed, workers)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except HeavywalkError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
