"""Golden tests: outputs at pinned inputs are the contract, and a change
that alters a byte here is a behaviour change and must say so.

`simulate`: the CSV outputs at pinned seeds, one small config per regime,
each with a finite m_level so that the exit, crossing and sign-flip columns
are exercised, plus two drift-free (b = 0) configs without an m_level, where
the engine takes the light width from the sign of the state alone, and three
configs that start beyond m_level.  `phase-diagram`: the CSV of one- and
two-axis sweeps, on the lines and the plane, one with error rows.  The
analytic path: the reprs of the closed-form drifts, the drift signs' probe
drifts, classification and nu* per scalar regime and test function.
"""

import hashlib
import json
import math

import pytest

from heavywalk import build_law, specialfn as sf
from heavywalk.classify import classify, nu_star
from heavywalk.cli import main
from heavywalk.errors import NoRootError
from heavywalk.lyapunov import drift_numeric, drift_numeric_law, verify_expansion

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

# re-pinned when each trajectory got its own splitmix64 stream (rng.stream_start):
DIGESTS = {
    "half_line": "caed6abec1ec8c2ffeb49a3223dbb1179fd44be9ee8090d5ec6557154720402d",
    "line_out": "360be50c7b6ae978c64f9f8d2db38e0f364fb0ca59649ad2b01b082f2ff33a02",
    "line_in": "d903860f93be9ff63fdf95ad02f07cfacd1994ba9711f40ed351bfd8e7623ac3",
    "line_balanced": "56784768f37b53d60971828078001575f43825c757ede4dd13e5e29c2a373e1d",
    "plane": "c4a378d26bf8d46e27a7fb4da7edc7cebbe281b2e9adbac5b34d6064b463f8cf",
    "half_line_b0": "e6cb865f9ccc692ac738825e921ae20a79ebc24937d7863751bbed90ba1506b0",
    "line_in_b0": "464ec7cdae06b222042f4688e15464a9b18ae50990a8bc14f78058e4dc1f0017",
    "line_out_beyond_m": "2dfc07960b96cb3c21631f8525b86e36f7033cd82e07ba33cc4df82249892108",
    "line_balanced_beyond_m": "d3eec975a429e592dc6dda82741ee5f1d351fa3e7402cf5dc03011f12324f432",
    "plane_beyond_m": "56be91a9e204b8c38c64b2463737732cbbcec4dcff0e618b5cb40b8c8df58462",
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
    # re-pinned when nu_star's bracket at an exact zero of g became nu* +- 4 eps |nu*|
    "line_balanced_b0": "3eb16eb5d138cf4f5a7b1874ebcdd457b0f6cf285e688288a2c193cd4ab7972a",
    "line_in": "fd6b6a416ed38230df2c88e08c92dc4cc84c034801dce8635d0fe61fb8fddf5b",
    "line_in_b0": "97f5c0b685fd0f9210bc84c723790278756ba26b239a12e338dd97bf6a42e389",
    "line_out": "c534203289227b3ccc435d5fed4c7fcc6d3b3229eeb18e927baec53e3228bc19",
    "plane": "c89ca7c42b6cc7160ddbde34128d934a9e877de235e7a7484ecb364f2950a756",
}


def probe_drifts(spec, nu: float) -> dict:
    """The drifts at PROBES whose signs the phase criteria read: D0 on the half
    line; on a line D2 on both sides and the one-sided D1 in both
    orientations, the mirrored one f1 applied to -chain (the law at -x
    reflected)."""
    if spec.regime == "half_line":
        return {"d0": [drift_numeric(spec, 0, nu, x) for x in PROBES]}
    return {"d2_pos": [drift_numeric(spec, 2, nu, x) for x in PROBES],
            "d2_neg": [drift_numeric(spec, 2, nu, -x) for x in PROBES],
            "d1_pos": [drift_numeric(spec, 1, nu, x) for x in PROBES],
            "d1_neg": [drift_numeric_law(build_law(spec, -x).mirrored(), 1, nu, x)
                       for x in PROBES]}


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
        rows.append(repr(sorted(probe_drifts(spec, nu).items())))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_analytic_reprs_match_golden(name):
    assert analytic_digest(name) == ANALYTIC_DIGESTS[name]


def test_analytic_path_calls_no_quadrature_panel(monkeypatch):
    # classify, nu_star, verify_expansion and drift_numeric are closed forms:
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
# digits, last re-pinned when each trajectory got its own splitmix64 stream:
# beta_recurrence's CounterStream points moved, and its worst error with them
# (5.329e-15 -> 7.105e-15).
SELFTEST_DIGEST = "34d42da7baa8d163df8c1a6cc1a5d286a332f1a35990c9f39d3aa6a45635069e"


def test_selftest_stdout_matches_golden(tmp_path, capsys):
    assert main(["selftest", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SELFTEST_DIGEST
