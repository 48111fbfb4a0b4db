"""The four benchmark workloads, each driven through heavywalk's public entry points.

A workload builds its inputs from the workload seed alone, and one *pass*
is the unit a user waits for: one survival fit, one three-spec phase scan,
one CLI `simulate` call, or one sweep over the analytic spec set.  A pass is
a list of operations (entry-point calls); the runner times each operation,
checks its output and folds it into the pass digest.  `finish` runs once per
run, untimed: it counts the work a pass does (trajectory-steps need the
`tau` arrays, which the fit and phase entry points do not return) and runs
the checks that need a partner configuration.

Checks reuse the acceptance tolerances unchanged (criteria 3 to 8); every
other check is an exact equality.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from importlib import import_module
from pathlib import Path

import numpy as np

from heavywalk.errors import HeavywalkError
from heavywalk.increments import ChainSpec, DriftParams, PlaneParams, TailParams

cl = import_module("heavywalk.classify")
cli = import_module("heavywalk.cli")
ly = import_module("heavywalk.lyapunov")
mc = import_module("heavywalk.montecarlo")

# acceptance tolerances (tests/test_acceptance.py), reused as they are
EXPONENT_TOL_5A = 0.10      # criterion 5(a)
RETURN_GAP_MIN = 0.3        # criteria 6 and 7
ANCHOR_TOL = 1e-8           # criterion 3
FORM_TOL = 1e-10            # criterion 7, plane equation forms
VERIFY_GRID = [1e2, 1e3, 1e4, 1e5]   # criterion 4


def master_seed(seed: int, workload: str, k: int = 0) -> int:
    """A library master seed derived from the workload seed."""
    h = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    return int.from_bytes(h[:4], "little")


def traj_steps(tau: np.ndarray, horizon: int) -> int:
    """Sum of min(tau, horizon); a censored trajectory (tau < 0) ran horizon steps."""
    tau = np.asarray(tau, dtype=np.int64)
    return int(np.where(tau < 0, horizon, np.minimum(tau, horizon)).sum())


def _tau_of(summaries) -> np.ndarray:
    return np.array([-1 if s.tau is None else s.tau for s in summaries], dtype=np.int64)


def _f64(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def half_line(alpha=1.5, gamma=0.0, b=0.0):
    return ChainSpec("half_line", TailParams(alpha=alpha, beta=2.5), DriftParams(gamma, b), 0.25)


def line_in(beta, alpha=2.5, gamma=1.0, b=0.0, x0=1.0):
    return ChainSpec("line_in", TailParams(alpha=alpha, beta=beta, x0=x0),
                     DriftParams(gamma, b), 0.25)


def plane(p_radial, alpha=1.5, c_radial=1.0, c_transverse=1.0):
    return ChainSpec("plane", TailParams(alpha=alpha), DriftParams(0.0, 0.0), 0.2,
                     PlaneParams(p_radial, c_radial, c_transverse))


class Workload:
    name = ""
    uses_workers = False    # True: timed at --workers; otherwise at one worker

    def __init__(self, seed: int, workers: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.workers = workers
        self.tiny = tiny
        self.out_dir = out_dir

    def ops(self, workers: int):
        """[(label, zero-argument callable)] for one pass; `workers` is used
        only when `uses_workers`."""
        raise NotImplementedError

    def check(self, label: str, out) -> list[str]:
        return []

    def digest(self, label: str, out) -> bytes:
        raise NotImplementedError

    def work(self, label: str) -> int:
        """Work items one operation completes (known after `finish`)."""
        raise NotImplementedError

    def finish(self) -> tuple[int, list[str], dict]:
        """Untimed: (operations attempted, failures, digests)."""
        return 0, [], {}

    def written(self) -> tuple[int, int]:
        """(CSV rows, bytes) one pass writes."""
        return 0, 0

    def warm_up(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# tail_fit: estimate_passage_tail on the drift-free half line (criterion 5(a))
# ---------------------------------------------------------------------------

class TailFit(Workload):
    """Per-step fixed cost dominates: the active set shrinks like n^(-2/3)."""

    name = "tail_fit"

    def __init__(self, *a):
        super().__init__(*a)
        horizon, n_traj = (500, 200) if self.tiny else (10 ** 4, 16000)
        self.cfg = mc.SimConfig(half_line(), start=50.0, a=10.0, horizon=horizon,
                                n_traj=n_traj, master_seed=master_seed(self.seed, self.name))
        self.target = 2.0 / 3.0
        self.steps = None
        self.last = None

    def ops(self, workers):
        return [("fit", lambda: mc.estimate_passage_tail(self.cfg))]

    def check(self, label, est):
        self.last = est
        if abs(est.exponent - self.target) > EXPONENT_TOL_5A:
            return [f"5(a) exponent {est.exponent:.4f} vs {self.target:.4f} +/- {EXPONENT_TOL_5A}"]
        return []

    def digest(self, label, est):
        return _f64(est.survival) + _f64([est.slope, est.stderr]) + _f64(est.fit_window)

    def work(self, label):
        return self.steps

    def finish(self):
        tau = _tau_of(mc.run_trajectories(self.cfg))
        self.steps = traj_steps(tau, self.cfg.horizon)
        grid = mc.survival_grid(self.cfg.horizon)
        surv = mc.survival_curve({"tau": tau, "horizon": self.cfg.horizon}, grid)
        fails = []
        if self.last is not None and list(map(float, surv)) != self.last.survival:
            fails.append("survival curve of run_trajectories differs from estimate_passage_tail")
        digests = {"tau": hashlib.sha256(tau.tobytes()).hexdigest(),
                   "survival": hashlib.sha256(_f64(surv)).hexdigest()}
        if self.last is not None:
            digests["exponent"] = repr(self.last.exponent)
        return 1, fails, digests

    def warm_up(self):
        mc.estimate_passage_tail(mc.SimConfig(self.cfg.spec, 50.0, 10.0, 200, 50, 0))


# ---------------------------------------------------------------------------
# phase_scan: phase_diagnostic on three specs the block cumsum cannot take
# ---------------------------------------------------------------------------

class PhaseScan(Workload):
    """State- and sign-dependent laws, excursion bookkeeping, worker split."""

    name = "phase_scan"
    uses_workers = True

    def __init__(self, *a):
        super().__init__(*a)
        if self.tiny:
            line, crit, flat = (400, 200), (400, 200), (400, 50)
        else:
            line, crit, flat = (2 * 10 ** 4, 1500), (5000, 2000), (5000, 400)
        s = lambda k: master_seed(self.seed, self.name, k)
        # (spec, start, horizon, n_traj, m_level, master seed)
        self.specs = {
            "line_in_1.3": (line_in(1.3), 50.0, *line, 200.0, s(0)),
            "half_line_critical": (half_line(gamma=0.5, b=-2.0), 50.0, *crit, 200.0, s(1)),
            "plane_0.9": (plane(0.9), (50.0, 0.0), *flat, 500.0, s(2)),
        }
        # criterion 6 and 7 partners, run once per run for the return gaps:
        # (name, spec, +1 if the partner is the recurrent side of the pair)
        self.partners = {
            "line_in_1.3": ("line_in_1.8", line_in(1.8, alpha=2.8), +1),
            "plane_0.9": ("plane_0.1", plane(0.1), -1),
        }
        self.results = {}
        self.steps = {}

    def _cfg(self, label, workers, spec=None):
        sp, start, horizon, n, m_level, seed = self.specs[label]
        return mc.SimConfig(spec or sp, start=start, a=10.0, horizon=horizon, n_traj=n,
                            master_seed=seed, workers=workers), m_level

    def ops(self, workers):
        def op(label):
            cfg, m_level = self._cfg(label, workers)
            return lambda: mc.phase_diagnostic(cfg, m_level)
        return [(label, op(label)) for label in self.specs]

    def check(self, label, d):
        self.results[label] = d
        fails = []
        if d.return_fraction + d.escape_fraction > 1.0:
            fails.append(f"{label}: return + escape fractions exceed 1")
        if label == "line_in_1.3":
            if not d.oscillation_fraction > d.directional_fraction:   # criterion 6
                fails.append(f"{label}: oscillatory {d.oscillation_fraction} <= "
                             f"directional {d.directional_fraction}")
        elif d.oscillation_fraction != 0.0 or d.directional_fraction != 0.0:
            fails.append(f"{label}: oscillation labels on a regime without sign changes")
        return fails

    def digest(self, label, d):
        return _f64([d.return_fraction, d.escape_fraction, d.oscillation_fraction,
                     d.directional_fraction])

    def work(self, label):
        return self.steps[label]

    def finish(self):
        fails, digests, attempted = [], {}, 0
        for label in self.specs:
            cfg, m_level = self._cfg(label, self.workers)
            tau = _tau_of(mc.run_trajectories(cfg, m_level))
            attempted += 1
            self.steps[label] = traj_steps(tau, cfg.horizon)
            digests[f"tau.{label}"] = hashlib.sha256(tau.tobytes()).hexdigest()
            d = self.results.get(label)
            if d is not None and float((tau >= 0).mean()) != d.return_fraction:
                fails.append(f"{label}: run_trajectories return fraction differs")
            if label in self.partners and d is not None:
                name, spec, side = self.partners[label]
                cfg2, _ = self._cfg(label, self.workers, spec)
                other = mc.phase_diagnostic(cfg2, m_level)
                attempted += 1
                gap = side * (other.return_fraction - d.return_fraction)
                digests[f"gap.{label}.{name}"] = repr(gap)
                if not gap >= RETURN_GAP_MIN:
                    fails.append(f"return gap {label} / {name} = {gap:.3f} < {RETURN_GAP_MIN}")
        return attempted, fails, digests

    def warm_up(self):
        for label in self.specs:
            sp, start, _, _, m_level, _ = self.specs[label]
            mc.phase_diagnostic(mc.SimConfig(sp, start, 10.0, 50, 20, 0, self.workers), m_level)


# ---------------------------------------------------------------------------
# cli_wide: cli.main(["simulate", ...]) with many trajectories, short horizon
# ---------------------------------------------------------------------------

class CliWide(Workload):
    """Cost per trajectory-step and per CSV row, not per lockstep step."""

    name = "cli_wide"
    FILES = ("trajectories.csv", "survival.csv")

    def __init__(self, *a):
        super().__init__(*a)
        horizon, n_traj = (50, 2000) if self.tiny else (50, 10 ** 5)
        self.config = {"regime": "line_balanced", "alpha": 1.5, "c": 1.0, "gamma": 0.0,
                       "b": 0.0, "p_heavy": 0.2, "x0": 1.0, "m_level": 100.0,
                       "sim": {"a": 10.0, "start": 30.0, "horizon": horizon, "n_traj": n_traj}}
        self.dir = self.out_dir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.mseed = master_seed(self.seed, self.name)
        self.steps = None
        self.first = None

    def _call(self, workers, out):
        argv = ["simulate", "--config", str(self.config_path), "--seed", str(self.mseed),
                "--workers", str(workers), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, out

    def ops(self, workers):
        return [("simulate", lambda: self._call(1, self.dir / "out"))]

    def read(self, out):
        return {name: (out / name).read_bytes() for name in self.FILES}

    def check(self, label, res):
        rc, out = res
        if rc != 0:
            return [f"cli simulate exited {rc}"]
        files = self.read(out)
        if self.first is None:
            self.first = files
        rows = files["trajectories.csv"].count(b"\n") - 1
        if rows != self.config["sim"]["n_traj"]:
            return [f"trajectories.csv has {rows} rows"]
        return []

    def digest(self, label, res):
        files = self.read(res[1])
        return b"".join(hashlib.sha256(files[n]).digest() for n in self.FILES)

    def written(self):
        """CSV data rows, and bytes of all output files, of one call."""
        out = self.dir / "out"
        rows = sum((out / n).read_bytes().count(b"\n") - 1 for n in self.FILES)
        size = sum(p.stat().st_size for p in out.iterdir())
        return rows, size

    def work(self, label):
        return self.steps

    def finish(self):
        if self.first is None:
            return 0, [], {}
        text = self.first["trajectories.csv"].decode().splitlines()
        tau = np.array([int(line.split(",")[1]) for line in text[1:]], dtype=np.int64)
        self.steps = traj_steps(tau, self.config["sim"]["horizon"])
        digests = {n: hashlib.sha256(self.first[n]).hexdigest() for n in self.FILES}
        if self.workers == 1:
            return 0, [], digests
        # criterion 8: byte-identical output at another worker count
        rc, out = self._call(self.workers, self.dir / f"out_w{self.workers}")
        fails = []
        if rc != 0 or self.read(out) != self.first:
            fails.append(f"simulate output differs between workers 1 and {self.workers}")
        return 1, fails, digests

    def warm_up(self):
        small = dict(self.config, sim=dict(self.config["sim"], n_traj=50))
        path = self.dir / "warm_config.json"
        path.write_text(json.dumps(small))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["simulate", "--config", str(path), "--out", str(self.dir / "warm")])


# ---------------------------------------------------------------------------
# analytic_sweep: classify + verify_expansion over specs drawn from the seed
# ---------------------------------------------------------------------------

NULL_RECURRENT = "NullRecurrent"
TRANSIENT = "Transient"


def _draw_spec(rng: np.random.Generator) -> dict:
    """One sweep entry.  Most families sit on the critical drift scale
    gamma = exponent - 1 (so classify solves nu*) or carry a closed-form nu*
    anchor.  The verify_expansion (i, nu) ranges keep nu away from the zero
    of the expansion coefficient, where the relative convergence test of
    criterion 4 is ill-conditioned.
    """
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    fam = str(rng.choice(FAMILIES))
    e = {"family": fam, "expect": NULL_RECURRENT, "anchor": None, "i": None, "nu": None}
    if fam == "half_line.critical":
        a = u(1.3, 1.7)
        e["spec"] = half_line(alpha=a, gamma=a - 1.0, b=u(-3.0, 1.0))
        e["i"], e["nu"] = 0, u(0.3, 0.7)
    elif fam == "line_out.critical":
        a = u(1.3, 1.7)
        e["spec"] = ChainSpec("line_out", TailParams(alpha=a, beta=2.5),
                              DriftParams(a - 1.0, u(-2.0, 1.0)), 0.25)
        e["i"], e["nu"] = 2, u(0.3, 0.7)
    elif fam == "line_in.critical":
        beta = u(1.2, 1.35)
        threshold = -math.pi / math.tan(math.pi * beta)
        e["spec"] = line_in(beta, gamma=beta - 1.0, b=threshold - u(0.3, 1.0), x0=2.0)
        e["i"], e["nu"] = 1, u(0.5, 0.8)
    elif fam == "line_balanced.critical":
        a = u(1.3, 1.6)
        e["spec"] = ChainSpec("line_balanced", TailParams(alpha=a, x0=4.0),
                              DriftParams(a - 1.0, u(0.2, 1.0)), 0.2)
        e["i"], e["nu"] = 1, u(0.4, 0.6)
    elif fam == "half_line.anchor":
        a = u(1.2, 1.7)
        e["spec"] = half_line(alpha=a, gamma=a - 1.0)
        e["anchor"], e["i"], e["nu"] = 1.0, 0, u(0.3, 0.7)
    elif fam == "line_in.anchor":
        beta = u(1.6, 1.75)
        e["spec"] = line_in(beta, alpha=2.95, gamma=beta - 1.0)
        e["anchor"] = 2.0 * beta - 3.0
        e["i"], e["nu"] = 2, e["anchor"] + u(0.3, 0.5)
    elif fam == "line_balanced.anchor":
        a = u(1.3, 1.6)
        e["spec"] = ChainSpec("line_balanced", TailParams(alpha=a),
                              DriftParams(a - 1.0, 0.0), 0.2)
        e["anchor"] = a - 1.0
        e["i"], e["nu"] = 2, e["anchor"] + u(0.2, 0.4)
    elif fam == "plane.recurrent":
        e["spec"] = plane(u(0.75, 0.95), alpha=u(1.3, 1.7))
    else:   # plane.transient
        e["spec"] = plane(u(0.05, 0.3), alpha=u(1.3, 1.7))
        e["expect"] = TRANSIENT
    return e


FAMILIES = ("half_line.critical", "line_out.critical", "line_in.critical",
            "line_balanced.critical", "half_line.anchor", "line_in.anchor",
            "line_balanced.anchor", "plane.recurrent", "plane.transient")


def draw_specs(seed: int, n: int) -> list[dict]:
    rng = np.random.default_rng(master_seed(seed, "analytic_sweep"))
    out = []
    while len(out) < n:
        try:
            out.append(_draw_spec(rng))
        except HeavywalkError:
            continue    # infeasible corner of a family's box: draw again
    return out


def _analyse(e: dict) -> dict:
    spec = e["spec"]
    res = {"classification": cl.classify(spec)}
    if e["anchor"] is not None:
        res["nu_star"] = cl.nu_star(spec).nu_star
    if e["i"] is not None:
        res["drift"] = ly.verify_expansion(spec, e["i"], e["nu"], VERIFY_GRID)
    elif res["classification"].nu_star is not None:
        res["forms"] = cl.plane_equation_forms(spec, res["classification"].nu_star)
    return res


class AnalyticSweep(Workload):
    """specialfn, classify and lyapunov only; no Monte Carlo."""

    name = "analytic_sweep"

    def __init__(self, *a):
        super().__init__(*a)
        self.entries = draw_specs(self.seed, 60 if self.tiny else 1000)

    def ops(self, workers):
        return [(str(k), (lambda e=e: _analyse(e))) for k, e in enumerate(self.entries)]

    def check(self, label, res):
        e = self.entries[int(label)]
        c = res["classification"]
        fails = []
        if c.phase != e["expect"]:
            fails.append(f"{e['family']}: phase {c.phase}, expected {e['expect']}")
        if "nu_star" in res and abs(res["nu_star"] - e["anchor"]) > ANCHOR_TOL:
            fails.append(f"{e['family']}: nu* {res['nu_star']!r} vs anchor {e['anchor']!r}")
        if "drift" in res and not res["drift"].converged:
            fails.append(f"{e['family']}: verify_expansion(i={e['i']}, nu={e['nu']:.4f}) "
                         "did not converge")
        if "forms" in res:
            direct, combo = res["forms"]
            if not 0.0 < c.nu_star < 1.0 or abs(direct - combo) > FORM_TOL:
                fails.append(f"{e['family']}: plane nu* {c.nu_star} or equation forms off")
        return fails

    def digest(self, label, res):
        c = res["classification"]
        row = [c.phase, c.theorem_tag, repr(c.moment_exponent), repr(c.nu_star),
               repr(res.get("nu_star"))]
        if "drift" in res:
            row += [repr(v) for v in res["drift"].normalized_error]
        return "|".join(row).encode() + b"\n"

    def work(self, label):
        return 1

    def warm_up(self):
        for e in draw_specs(self.seed + 1, len(FAMILIES) * 3):
            _analyse(e)


WORKLOADS = {w.name: w for w in (TailFit, PhaseScan, CliWide, AnalyticSweep)}
