"""Golden tests: outputs at pinned inputs are the contract, and a change
that alters a byte here is a behaviour change and must say so.

`simulate`: the CSV outputs at pinned seeds, one small config per regime,
each with a finite m_level so that the exit, crossing and sign-flip columns
are exercised, plus two drift-free (b = 0) configs without an m_level, where
the engine takes the light width from the sign of the state alone, and three
configs that start beyond m_level.  `phase-diagram`: the CSV of one- and
two-axis sweeps, on the lines and the plane, one with error rows.  The
analytic path: the reprs of the closed-form drifts, criteria drifts,
classification and nu* per scalar regime and test function.
"""

import hashlib
import json
import math

import pytest

from heavywalk import specialfn as sf
from heavywalk.classify import classify, nu_star
from heavywalk.cli import main
from heavywalk.errors import NoRootError
from heavywalk.lyapunov import criteria_check, verify_expansion

from conftest import balanced, half_line, line_in, line_out, plane

SIM = {"a": 10.0, "start": 30.0, "horizon": 300, "n_traj": 64}

CONFIGS = {
    "half_line": {"regime": "half_line", "alpha": 1.5, "beta": 2.5, "gamma": 0.5, "b": -1.0,
                  "m_level": 60.0},
    "line_out": {"regime": "line_out", "alpha": 1.5, "beta": 2.5, "gamma": 0.1, "b": 1.0,
                 "m_level": 60.0, "sim": dict(SIM, start=-30.0)},
    "line_in": {"regime": "line_in", "alpha": 2.5, "beta": 1.3, "gamma": 0.5, "b": -0.5,
                "m_level": 60.0},
    "line_balanced": {"regime": "line_balanced", "alpha": 1.5, "p_heavy": 0.2, "gamma": 0.5,
                      "b": 0.5, "m_level": 60.0},
    "plane": {"regime": "plane", "alpha": 1.5, "p_heavy": 0.2, "m_level": 60.0,
              "plane": {"p_radial": 0.7, "c_radial": 1.0, "c_transverse": 1.0}},
    "half_line_b0": {"regime": "half_line", "alpha": 1.5, "beta": 2.5, "gamma": 0.5, "b": 0.0},
    "line_in_b0": {"regime": "line_in", "alpha": 2.5, "beta": 1.3, "gamma": 1.0, "b": 0.0},
    # starts beyond m_level: the crossing flags count steps >= 1 only, while
    # the start level still counts in the max and min
    "line_out_beyond_m": {"regime": "line_out", "alpha": 1.5, "beta": 2.5, "gamma": 0.1,
                          "b": 1.0, "m_level": 60.0, "sim": dict(SIM, start=-80.0)},
    "line_balanced_beyond_m": {"regime": "line_balanced", "alpha": 1.5, "p_heavy": 0.2,
                               "gamma": 0.5, "b": 0.5, "m_level": 60.0,
                               "sim": dict(SIM, start=90.0)},
    "plane_beyond_m": {"regime": "plane", "alpha": 1.5, "p_heavy": 0.2, "m_level": 60.0,
                       "plane": {"p_radial": 0.7, "c_radial": 1.0, "c_transverse": 1.0},
                       "sim": dict(SIM, start=[80.0, 0.0])},
}

DIGESTS = {
    "half_line": "13553c74a32bd3e776897b07c7c941613a961186392d5d7a0f143919fc0f6557",
    "line_out": "4d6f8f3856b653ea49b263d642e4c4e01c4c2d54ddc56789c27c900bb7a84a3c",
    "line_in": "5b13a620a6007eb1d1ac4ffd783c354e28122cfef20de0c95df00a3583d1031f",
    "line_balanced": "db7de6afeaeb39b028b1034d765befda6fd4120e616b36519806bc9bdfd0fcfb",
    "plane": "471a0a3d177bba344e4486885946a0c12da0b47e7b3e196bc371b2c6be624751",
    "half_line_b0": "d46e96fcec67c6943d401a9872d8cd33c42e16100563bfffa232415a8c2c153a",
    "line_in_b0": "65f57b8094679cfa5cfdaad0542a7e7412049d4d3f42964bb65f87a962bcddda",
    "line_out_beyond_m": "c178daaa1f08e35d125556d000381fb8bb77f2941ce7c136078de992741508b4",
    "line_balanced_beyond_m": "080b465bd711177712ebf3a60faa28498a0cc6743a26d980d2fcf34214544908",
    "plane_beyond_m": "a4b97ce89445e8306cefbb83bdcb5f89b2d589a4dc36507d6b7d4a526182a240",
}


def simulate_digest(tmp_path, regime: str) -> str:
    cfg = {"sim": SIM, **CONFIGS[regime]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--seed", "2024", "--out", str(tmp_path)]) == 0
    h = hashlib.sha256()
    for name in ("trajectories.csv", "survival.csv"):
        h.update((tmp_path / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("regime", sorted(CONFIGS))
def test_simulate_bytes_match_golden(tmp_path, regime):
    assert simulate_digest(tmp_path, regime) == DIGESTS[regime]


# phase-diagram sweeps: a one-axis sweep across the half line's critical-drift
# threshold, two-axis sweeps on line_in and on the plane (a plane parameter
# merged into the plane section), and one whose points include specs that
# cannot be built (error:DomainError, error:InfeasibleDrift rows)
SWEEPS = {
    "half_line_b": {"regime": "half_line", "alpha": 1.5, "gamma": 0.5, "p_heavy": 0.4, "x0": 60.0,
                    "grid": {"param": "b", "min": math.pi - 0.2, "max": math.pi + 0.2, "steps": 9}},
    "line_in_beta_gamma": {"regime": "line_in", "alpha": 2.5, "beta": 1.3, "b": -0.5, "x0": 2.0,
                           "grid": [{"param": "beta", "min": 1.2, "max": 1.8, "steps": 4},
                                    {"param": "gamma", "min": 0.1, "max": 0.9, "steps": 5}]},
    "plane_p_radial_alpha": {"regime": "plane", "alpha": 1.5, "p_heavy": 0.2,
                             "plane": {"p_radial": 0.5, "c_radial": 1.0, "c_transverse": 2.0},
                             "grid": [{"param": "p_radial", "min": 0.1, "max": 0.9, "steps": 5},
                                      {"param": "alpha", "min": 1.2, "max": 1.8, "steps": 4}]},
    "error_rows": {"regime": "half_line", "alpha": 1.5, "gamma": 0.5,
                   "grid": [{"param": "alpha", "min": 0.8, "max": 2.0, "steps": 4},
                            {"param": "b", "min": -1.0, "max": 11.0, "steps": 3}]},
}

SWEEP_DIGESTS = {
    "half_line_b": "53d1658953dcb1105c1d243f9cd5604a443d1660e44b2e7e55e94549775b62b3",
    "line_in_beta_gamma": "b5e3c6153f563ad1247477c352d98317d457fa6bf2024021764ce25740b63f60",
    "plane_p_radial_alpha": "bc00cdc27bf316244507c077e812fa1a0bd4156338adfb8425770d874edb703f",
    "error_rows": "76910bba3c4de4780f6481eb74bfffe6ae1828c5d0c114448ed0b49a2d6f77fe",
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_phase_diagram_bytes_match_golden(tmp_path, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SWEEPS[name]))
    assert main(["phase-diagram", "--config", str(path), "--out", str(tmp_path)]) == 0
    data = (tmp_path / "phase_diagram.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SWEEP_DIGESTS[name]


# ---------------------------------------------------------------------------
# Analytic path.  The reprs of the floats are hashed, so a change in the last
# bit of any drift value shows.  The drift rows were last re-pinned when the
# light uniform's share moved from GK15 quadrature to its closed form
# (`lyapunov._light_term`), the last piece of the drift to do so: 65 of the
# 130 drift values changed (none of line_balanced_b0, whose tuner has width
# 0), and against a 35-digit mpmath drift the largest error of the 130 stayed
# 6.5e-14 of |x|^(nu - exponent).  43 changed values landed farther off, by
# at most 8e-15 of that scale: rounding-level noise, as a correctly rounded
# light share would still leave 25 of its 50 changed values farther.
# The nu* rows (the Classification and NuStarResult reprs), K, the predicted
# drifts and the normalized errors of line_in, line_in_b0, line_balanced and
# line_balanced_b0 were last re-pinned when kappa2 became the reflection
# product (`specialfn.kappa2_prepared`); no drift value moved.  Against a
# 40-digit mpmath root of the same gap the six nu* values are at most 1.5e-16
# off; line_balanced_b0's, 0.49999999999999994, is an exact zero of the float
# gap 5.6e-17 below the root 0.5.  line_in_b0 has no root; its row is the
# NoRootError text.
# ---------------------------------------------------------------------------

ANALYTIC = {
    "half_line": (half_line(alpha=1.5, gamma=0.5, b=-1.0), [(0, 0.5), (0, -0.3)]),
    "line_out": (line_out(alpha=1.5, gamma=0.5, b=-0.5), [(1, 0.4), (2, 0.4)]),
    "line_in": (line_in(beta=1.3, gamma=0.3, b=-3.0, x0=2.0), [(1, 0.6), (2, 0.6)]),
    "line_in_b0": (line_in(beta=1.3, gamma=1.0), [(1, 0.2), (2, 0.2)]),
    "line_balanced": (balanced(alpha=1.5, gamma=0.5, b=0.5, x0=4.0), [(1, 0.5), (2, 0.5)]),
    # b = 0: the tuner has width 0.0, so the drift has no light share
    "line_balanced_b0": (balanced(alpha=1.5, b=0.0), [(1, 0.5), (2, 0.5)]),
    "plane": (plane(alpha=1.5, p_radial=0.85), []),
}
# i = 2 is even, so its grid also crosses to the negative side
GRIDS = {0: [1e2, 1e3, 1e4], 1: [1e2, 1e3, 1e4], 2: [-1e3, -1e2, 1e2, 1e3, 1e4]}
PROBES = [50.0, 1e3]

ANALYTIC_DIGESTS = {
    "half_line": "c9d8de4b94cbd70362e6896f4f2642cf9d726dd1c783792b6b0c816ae384737d",
    "line_balanced": "a5f62e1aba167e815b4bc3eb0b6c478a5d6ca48d7d0a057d6524e72fa262d52e",
    "line_balanced_b0": "605e4f2b7ddabe3fab53f2c9e6d4a39fffd14dd93393822004f92a7e485f4d1f",
    "line_in": "fd6b6a416ed38230df2c88e08c92dc4cc84c034801dce8635d0fe61fb8fddf5b",
    "line_in_b0": "97f5c0b685fd0f9210bc84c723790278756ba26b239a12e338dd97bf6a42e389",
    "line_out": "c534203289227b3ccc435d5fed4c7fcc6d3b3229eeb18e927baec53e3228bc19",
    "plane": "c89ca7c42b6cc7160ddbde34128d934a9e877de235e7a7484ecb364f2950a756",
}


def analytic_digest(name: str) -> str:
    spec, cases = ANALYTIC[name]
    rows = [repr(classify(spec))]
    try:
        rows.append(repr(nu_star(spec)))
    except NoRootError as ex:
        rows.append(f"NoRootError: {ex}")
    for i, nu in cases:
        rep = verify_expansion(spec, i, nu, GRIDS[i])
        rows.append(repr((i, nu, rep.numeric, rep.predicted, rep.normalized_error)))
        crit = criteria_check(spec, nu, PROBES)
        rows.append(repr(sorted(crit.drifts.items())))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_analytic_reprs_match_golden(name):
    assert analytic_digest(name) == ANALYTIC_DIGESTS[name]


def test_analytic_path_calls_no_quadrature_panel(monkeypatch):
    # classify, nu_star, verify_expansion and criteria_check are closed forms:
    # the GK15 panel serves only the selftest's quadrature oracles
    panels = []
    real = sf._gk15

    def recorder(f, lo, hi):
        panels.append((lo, hi))
        return real(f, lo, hi)

    monkeypatch.setattr(sf, "_gk15", recorder)
    for name in sorted(ANALYTIC):
        assert analytic_digest(name) == ANALYTIC_DIGESTS[name]
    assert panels == []


# `heavywalk selftest`: its stdout, each identity's worst error to four
# digits, last re-pinned when kappa2 became the reflection product.
SELFTEST_DIGEST = "d023ee6da7bebef66466084ff9ca016c23c7ec5b868724b70d749bdc04d42051"


def test_selftest_stdout_matches_golden(tmp_path, capsys):
    assert main(["selftest", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SELFTEST_DIGEST
