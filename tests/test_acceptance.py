"""Acceptance suite: one test per criterion, one printed line per criterion.

The Monte Carlo criteria use pinned master seeds; targets and tolerances are
stated inline next to each assertion.  A summary is appended to
acceptance_report.txt in the repo root as the suite runs.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import mpmath as mp

from heavywalk import specialfn as sf
from heavywalk.classify import nu_star, plane_equation_forms
from heavywalk.increments import ChainSpec, DriftParams, PlaneParams, TailParams
from heavywalk.lyapunov import drift_numeric, verify_expansion
from heavywalk.montecarlo import SimConfig, estimate_passage_tail, phase_diagnostic
from heavywalk.cli import main as cli_main

from oracles import mc_drift


_REPORT = Path(__file__).resolve().parent.parent / "acceptance_report.txt"


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"Criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    with open(_REPORT, "a") as fh:
        fh.write(line + "\n")


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    if _REPORT.exists():
        _REPORT.unlink()
    yield


def _hl(alpha=1.5, gamma=0.0, b=0.0, c=1.0, p=0.25, x0=1.0, beta=2.5):
    return ChainSpec("half_line", TailParams(alpha=alpha, beta=beta, c=c, x0=x0),
                     DriftParams(gamma, b), p)


def _lo(alpha=1.5, gamma=0.0, b=0.0, c=1.0, p=0.25, x0=1.0, beta=2.5):
    return ChainSpec("line_out", TailParams(alpha=alpha, beta=beta, c=c, x0=x0),
                     DriftParams(gamma, b), p)


def _li(beta=1.3, gamma=0.0, b=0.0, c=1.0, p=0.25, x0=1.0, alpha=2.5):
    return ChainSpec("line_in", TailParams(alpha=alpha, beta=beta, c=c, x0=x0),
                     DriftParams(gamma, b), p)


def _ba(alpha=1.5, gamma=0.0, b=0.0, c=1.0, p=0.2, x0=1.0):
    return ChainSpec("line_balanced", TailParams(alpha=alpha, c=c, x0=x0),
                     DriftParams(gamma, b), p)


def _plane(p_radial, alpha=1.5, c_radial=1.0, c_transverse=1.0, p=0.2):
    return ChainSpec("plane", TailParams(alpha=alpha), DriftParams(0.0, 0.0), p,
                     PlaneParams(p_radial, c_radial, c_transverse))


# ---------------------------------------------------------------------------
# Criterion 1: special-function identities at 1e-8 over the exponent grid
# ---------------------------------------------------------------------------

def test_criterion_1_special_function_identities():
    t0 = time.time()
    grid = [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    worst = 0.0
    for a in grid:
        worst = max(worst, abs(sf.kappa0(a, 0.0) - math.pi / sf.sinpi(a)))
        worst = max(worst, abs(sf.kappa1(a, 0.0) + 1.0))
        worst = max(worst, abs(sf.kappa2(a, 0.0) - math.pi * sf.cotpi(a)))
        worst = max(worst, abs(sf.kappa2(a, 2.0 * a - 3.0)))
        worst = max(worst, abs(sf.kappa0(a, 0.0) + sf.kappa2(a, 0.0)
                               - math.pi * sf.cotpi(a / 2.0)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report("1", ok, f"max identity error {worst:.2e} (tol 1e-8), runtime {elapsed:.3f}s (< 1s)")
    assert worst <= 1e-8
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: appendix closed forms vs adaptive quadrature, randomized draws
# ---------------------------------------------------------------------------

def test_criterion_2_appendix_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(777)
    worst = {}

    def draw(lo, hi):
        return float(rng.uniform(lo, hi))

    # beta-recurrence (the extended incomplete beta identity)
    w = 0.0
    for _ in range(100):
        x, p, q = draw(0.05, 0.95), draw(0.1, 3.0), draw(-2.0, 2.0)
        lhs = q * sf.incomplete_beta_ext(x, p, q)
        rhs = (p + q) * sf.incomplete_beta_ext(x, p, q + 1.0) - x ** p * (1.0 - x) ** q
        w = max(w, abs(lhs - rhs))
    worst["beta_recurrence"] = (w, 1e-6)

    def draw_away(lo, hi, avoid=(), gap=0.05):
        while True:
            v = draw(lo, hi)
            if all(abs(v - av) > gap for av in avoid):
                return v

    def draw_positive_part():
        p = draw(-0.95, -0.05)
        return p, draw(-1.5, min(2.0, 0.95 - p))

    def draw_beta_const():
        return draw_away(-0.95, 3.0, avoid=(0.0,)), draw(0.05, 3.0)

    def draw_beta_linear():
        return draw_away(-0.95, 3.0, avoid=(0.0, 1.0)), draw(-0.95, 3.0)

    def draw_negative_to():
        return draw_away(-0.95, 3.0, avoid=(0.0,)), draw(0.05, 2.5)

    def draw_negative_from():
        p = draw(-2.0, 0.9)
        return p, draw(0.05, min(2.5, 0.95 - p))

    def sweep(name, draw_pq, x=None, tol=1e-6):
        w = 0.0
        for _ in range(100):
            p, q = draw_pq()
            cf = sf.closed_form_integrals(name, p, q, x)
            quad = sf.closed_form_integral_quad(name, p, q, x, abs_tol=1e-8)
            w = max(w, abs(cf - quad))
        worst[name] = (w, tol)

    sweep("positive_part", draw_positive_part)
    sweep("beta_const", draw_beta_const)
    sweep("beta_linear", draw_beta_linear)
    # x-dependent forms at x = 1e4 carry the stated o(1) slack; q stays away
    # from -1 so the dropped term is genuinely below it
    sweep("negative_to", draw_negative_to, x=1e4, tol=1e-3)
    sweep("negative_from", draw_negative_from, x=1e4, tol=1e-3)

    elapsed = time.time() - t0
    ok = all(w <= tol for w, tol in worst.values()) and elapsed < 30.0
    detail = ", ".join(f"{k} {w:.1e}/{tol:.0e}" for k, (w, tol) in worst.items())
    _report("2", ok, f"{detail}; runtime {elapsed:.1f}s (< 30s)")
    for name, (w, tol) in worst.items():
        assert w <= tol, name
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: nu* anchors against the closed-form roots and a brute-force
# bisection oracle on the displayed Gamma equations (mpmath, built first)
# ---------------------------------------------------------------------------

@mp.workdps(40)
def _oracle_balanced_nu_star(a: float) -> float:
    G = mp.gamma

    def gap(v):
        k0 = (1 - v) * G(a - v) * G(1 - a) / G(2 - v)
        k2 = G(v) * (G(a - v) / G(a) - (1 - a + v) * G(1 - a) / G(2 - a + v))
        return k0 + k2

    lo, hi = mp.mpf("1e-7"), mp.mpf(a) - mp.mpf("1e-7")
    assert gap(lo) < 0 < gap(hi)
    for _ in range(100):
        mid = (lo + hi) / 2
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_criterion_3_nu_star_anchors():
    worst = 0.0
    for a in (1.1, 1.3, 1.5, 1.7, 1.9):
        worst = max(worst, abs(nu_star(_hl(alpha=a)).nu_star - 1.0))
    for b in (1.6, 1.7, 1.8, 1.9):
        ns = nu_star(_li(beta=b, gamma=b - 1.0, alpha=2.95))
        worst = max(worst, abs(ns.nu_star - (2.0 * b - 3.0)))
    for a in (1.3, 1.5, 1.7):
        ns = nu_star(_ba(alpha=a, gamma=a - 1.0))
        worst = max(worst, abs(ns.nu_star - (a - 1.0)))
        worst = max(worst, abs(ns.nu_star - _oracle_balanced_nu_star(a)))
    ok = worst <= 1e-8
    _report("3", ok, f"max anchor error {worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# Criterion 4: drift-expansion convergence and Monte Carlo cross-checks
# ---------------------------------------------------------------------------

def test_criterion_4_drift_expansions():
    t0 = time.time()
    cases = [
        ("half_line/flat", _hl(), 0, 0.5),
        ("half_line/critical", _hl(gamma=0.5, b=-2.0), 0, 0.5),
        ("line_out/flat", _lo(gamma=1.0, b=0.3), 2, 0.5),
        ("line_out/critical", _lo(gamma=0.5, b=1.0), 2, 0.5),
        ("line_in/flat", _li(gamma=1.0), 2, 0.5),
        ("line_in/critical", _li(gamma=0.3, b=-3.0, x0=2.0), 1, 0.6),
        ("balanced/flat", _ba(gamma=1.0, b=0.2), 2, 0.8),
        ("balanced/critical", _ba(gamma=0.5, b=1.0, x0=4.0), 1, 0.5),
    ]
    grid = [1e2, 1e3, 1e4, 1e5]
    worst_rel = 0.0
    for name, spec, i, nu in cases:
        rep = verify_expansion(spec, i, nu, grid)
        rel = abs(rep.normalized_error[-1]) / abs(rep.coefficient)
        worst_rel = max(worst_rel, rel)
        assert rep.converged, name
        errs = [abs(e) for e in rep.normalized_error]
        # monotone decrease beyond 1e3
        assert all(b < a for a, b in zip(errs[1:-1], errs[2:])), name

    spots = [
        (_hl(), 0, 0.5, 50.0, 91),
        (_hl(gamma=0.5, b=-2.0), 0, 0.5, 80.0, 92),
        (_lo(gamma=1.0, b=0.3), 2, 0.5, -60.0, 93),
        (_li(gamma=1.0), 2, 0.5, 40.0, 94),
        (_ba(gamma=1.0, b=0.2), 2, 0.8, 100.0, 95),
    ]
    worst_z = 0.0
    for spec, i, nu, x, seed in spots:
        d = drift_numeric(spec, i, nu, x)
        m, se = mc_drift(spec, i, nu, x, 10 ** 7, seed=seed)
        worst_z = max(worst_z, abs(d - m) / se)
    elapsed = time.time() - t0
    ok = worst_rel < 0.05 and worst_z < 4.0 and elapsed < 300.0
    _report("4", ok, f"worst final normalized error {100*worst_rel:.2f}% (< 5%), "
                     f"worst MC deviation {worst_z:.2f} se (< 4), runtime {elapsed:.0f}s (< 300s)")
    assert worst_rel < 0.05
    assert worst_z < 4.0
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 5: passage-time survival exponents at desk scale
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_passage_time_exponents():
    t0 = time.time()
    seed = 20240
    crit = _hl(gamma=0.5, b=-2.0)
    target_d = nu_star(crit).nu_star / 1.5
    runs = [
        ("a", _hl(), 2.0 / 3.0, 0.10),
        ("b", _li(beta=1.8, gamma=1.0, alpha=2.8), 1.0 / 3.0, 0.10),
        ("c", _ba(gamma=1.0), 1.0 / 3.0, 0.10),
        ("d", crit, target_d, 0.12),
    ]
    details = []
    all_ok = True
    for tag, spec, target, tol in runs:
        cfg = SimConfig(spec, start=50.0, a=10.0, horizon=10 ** 5, n_traj=2 * 10 ** 4,
                        master_seed=seed, workers=4)
        est = estimate_passage_tail(cfg)
        ok = abs(est.exponent - target) <= tol
        all_ok = all_ok and ok
        details.append(f"({tag}) {est.exponent:.3f} vs {target:.3f} +/-{tol}")
        assert ok, f"5({tag}): slope {est.exponent:.4f}, target {target:.4f} +/- {tol}"
    elapsed = time.time() - t0
    _report("5", all_ok and elapsed < 600.0,
            "; ".join(details) + f"; runtime {elapsed:.0f}s (< 600s)")
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# Criterion 6: Rogozin-Foss dichotomy at desk scale
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_rogozin_foss_dichotomy():
    seed = 61
    kw = dict(start=50.0, a=10.0, horizon=4 * 10 ** 4, n_traj=4000, master_seed=seed,
              workers=4)
    m_level = 200.0
    d13 = phase_diagnostic(SimConfig(_li(beta=1.3, gamma=1.0), **kw), m_level=m_level)
    d18 = phase_diagnostic(SimConfig(_li(beta=1.8, gamma=1.0, alpha=2.8), **kw),
                           m_level=m_level)
    gap = d18.return_fraction - d13.return_fraction
    osc_dominates = d13.oscillation_fraction > d13.directional_fraction
    ok = gap >= 0.3 and osc_dominates
    _report("6", ok, f"return gap {gap:.3f} (>= 0.3); beta=1.3 oscillatory "
                     f"{d13.oscillation_fraction:.3f} > directional {d13.directional_fraction:.3f}")
    assert gap >= 0.3
    assert osc_dominates


# ---------------------------------------------------------------------------
# Criterion 7: plane example, both sides of the threshold + nu* equation forms
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_plane_example():
    seed = 71
    kw = dict(start=(50.0, 0.0), a=10.0, horizon=10 ** 5, n_traj=1200, master_seed=seed,
              workers=4)
    rec = phase_diagnostic(SimConfig(_plane(0.9), **kw), m_level=500.0)
    tra = phase_diagnostic(SimConfig(_plane(0.1), **kw), m_level=500.0)
    gap = rec.return_fraction - tra.return_fraction

    spec = _plane(0.9)
    ns = nu_star(spec)
    in_range = 0.0 < ns.nu_star < 1.0
    worst_form = max(abs(a - b) for a, b in
                     (plane_equation_forms(spec, v) for v in np.linspace(0.05, 0.99, 20)))
    ok = gap >= 0.3 and in_range and worst_form <= 1e-10
    _report("7", ok, f"return gap {gap:.3f} (>= 0.3), nu* = {ns.nu_star:.4f} in (0,1), "
                     f"equation-form max diff {worst_form:.1e} (<= 1e-10)")
    assert gap >= 0.3
    assert in_range
    assert worst_form <= 1e-10


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical simulate output for workers in {1, 4}
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    cfg = {"regime": "line_balanced", "alpha": 1.5, "c": 1.0, "gamma": 0.0, "b": 0.0,
           "p_heavy": 0.2, "x0": 1.0, "m_level": 100.0,
           "sim": {"a": 10.0, "start": 30.0, "horizon": 3000, "n_traj": 500}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = {}
    for w in (1, 4):
        out = tmp_path / f"w{w}"
        rc = cli_main(["simulate", "--config", str(cfg_path), "--seed", "88",
                       "--workers", str(w), "--out", str(out)])
        assert rc == 0
        outs[w] = {name: (out / name).read_bytes()
                   for name in ("trajectories.csv", "survival.csv")}
    identical = outs[1] == outs[4]
    _report("8", identical, "trajectories.csv and survival.csv byte-identical for "
                            "workers 1 and 4 at the same master seed")
    assert identical
