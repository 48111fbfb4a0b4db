import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavywalk.cli import main
from heavywalk.selftest import run_selftest
from heavywalk import specialfn as sf


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


HL = {"regime": "half_line", "alpha": 1.5, "beta": 2.5, "c": 1.0, "gamma": 0.0,
      "b": 0.0, "p_heavy": 0.25, "x0": 1.0,
      "sim": {"a": 10.0, "start": 30.0, "horizon": 2000, "n_traj": 200}}


# ---------------------------------------------------------------------------
# classify / nu-star
# ---------------------------------------------------------------------------

def test_cmd_classify_line_in_example(tmp_path, capsys):
    cfg = {"regime": "line_in", "alpha": 2.8, "beta": 1.8, "c": 1.0, "gamma": 1.0,
           "b": 0.0, "p_heavy": 0.25, "x0": 1.0}
    rc = main(["classify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["phase"] == "NullRecurrent"
    assert report["q_crit"] == pytest.approx(1.0 / 3.0)
    assert json.loads(capsys.readouterr().out)["phase"] == "NullRecurrent"


def test_cmd_classify_tie_is_critical(tmp_path):
    thr = 1.0 * math.pi * abs(1.0 / sf.sinpi(1.5))
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "gamma": 0.5, "b": thr,
           "p_heavy": 0.4, "x0": 50.0}
    rc = main(["classify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "classify.json").read_text())["phase"] == "Critical"


def test_cmd_classify_plane_transient(tmp_path):
    cfg = {"regime": "plane", "alpha": 1.5, "p_heavy": 0.2,
           "plane": {"p_radial": 0.5, "c_radial": 1.0, "c_transverse": 1.0}}
    rc = main(["classify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "classify.json").read_text())["phase"] == "Transient"


def test_cmd_nu_star(tmp_path):
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "gamma": 0.5, "b": 0.0,
           "p_heavy": 0.25, "x0": 1.0}
    rc = main(["nu-star", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "nu_star.json").read_text())
    assert report["nu_star"] == pytest.approx(1.0, abs=1e-8)
    assert report["residual"] <= 1e-10


def test_cmd_nu_star_transient_side(tmp_path):
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "gamma": 0.5, "b": 4.0,
           "p_heavy": 0.4, "x0": 50.0}
    rc = main(["nu-star", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "nu_star.json").read_text())["no_root"] is True


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = write_config(tmp_path, {"alpha": 1.5}, "missing.json")
    assert main(["classify", "--config", missing, "--out", str(tmp_path)]) == 2
    infeasible = write_config(tmp_path, {"regime": "half_line", "alpha": 1.5, "c": 1.0,
                                         "gamma": 0.0, "b": 10.0, "p_heavy": 0.25,
                                         "x0": 1.0}, "infeasible.json")
    assert main(["classify", "--config", infeasible, "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == 2


BAD_SHAPES = {
    "seed_not_int": ("simulate", dict(HL, seed="abc")),
    "top_level_list": ("classify", [HL]),
    "steps_not_int": ("phase-diagram",
                      dict(HL, grid={"param": "b", "min": 0.0, "max": 1.0, "steps": "x"})),
    "plane_sweep_without_plane": ("phase-diagram",
                                  dict(HL, grid={"param": "p_radial", "min": 0.1, "max": 0.9,
                                                 "steps": 3})),
    "horizon_not_int": ("simulate", dict(HL, sim=dict(HL["sim"], horizon="x"))),
    "m_level_not_number": ("simulate", dict(HL, m_level="high")),
    "pair_start_on_line": ("simulate", dict(HL, sim=dict(HL["sim"], start=[30.0, 0.0]))),
    "param_not_string": ("phase-diagram",
                         dict(HL, grid={"param": ["b"], "min": 0.0, "max": 1.0, "steps": 3})),
    "verify_i_not_int": ("drift-verify", dict(HL, drift_verify={"i": "x", "nu": 0.5})),
    "beta_light_sweep": ("phase-diagram",
                         dict(HL, grid={"param": "beta_light", "min": 1.6, "max": 1.9,
                                        "steps": 3})),
    # counts must be integers: no truncation of fractions, no booleans as 0/1
    "horizon_fraction": ("simulate", dict(HL, sim=dict(HL["sim"], horizon=20.7))),
    "n_traj_bool": ("simulate", dict(HL, sim=dict(HL["sim"], n_traj=True))),
    "seed_fraction": ("simulate", dict(HL, seed=1.5)),
    "workers_bool": ("simulate", dict(HL, workers=True)),
    "seed_numeric_string": ("classify", dict(HL, seed="7")),
    "verify_i_fraction": ("drift-verify", dict(HL, drift_verify={"i": 1.9, "nu": 0.5})),
    "verify_points_fraction": ("drift-verify",
                               dict(HL, drift_verify={"i": 0, "nu": 0.5, "points": 2.5})),
    # a geometric grid cannot cross or touch zero
    "verify_grid_mixed_sign": ("drift-verify",
                               dict(HL, drift_verify={"i": 0, "nu": 0.5, "x_min": -100,
                                                      "x_max": 1000})),
    # non-finite levels: every trajectory would be reported censored
    "m_level_nan": ("simulate", dict(HL, m_level=math.nan)),
    "a_nan": ("simulate", dict(HL, sim=dict(HL["sim"], a=math.nan))),
    "start_nan": ("simulate", dict(HL, sim=dict(HL["sim"], start=math.nan))),
    "start_inf": ("simulate", dict(HL, sim=dict(HL["sim"], start=math.inf))),
    "steps_fraction": ("phase-diagram",
                       dict(HL, grid={"param": "b", "min": 0.0, "max": 1.0, "steps": 3.5})),
    # non-finite sweep bounds are rejected before any row is written
    "axis_min_minus_inf": ("phase-diagram",
                           dict(HL, grid={"param": "b", "min": -math.inf, "max": 1.0,
                                          "steps": 3})),
    "axis_min_nan": ("phase-diagram",
                     dict(HL, grid={"param": "gamma", "min": math.nan, "max": 1.0, "steps": 3})),
    "axis_max_inf": ("phase-diagram",
                     dict(HL, grid={"param": "c", "min": 1.0, "max": math.inf, "steps": 3})),
    "axis_span_overflow": ("phase-diagram",
                           dict(HL, grid={"param": "b", "min": -1e308, "max": 1e308,
                                          "steps": 3})),
    "verify_x_min_nan": ("drift-verify",
                         dict(HL, drift_verify={"i": 0, "nu": 0.5, "x_min": math.nan})),
    "verify_x_max_inf": ("drift-verify",
                         dict(HL, drift_verify={"i": 0, "nu": 0.5, "x_max": math.inf})),
    # non-finite spec fields
    "gamma_nan": ("classify", dict(HL, gamma=math.nan)),
    "b_nan": ("classify", dict(HL, b=math.nan)),
    "c_inf": ("simulate", dict(HL, c=math.inf)),
    "x0_nan": ("simulate", dict(HL, x0=math.nan)),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_config_shape_errors_exit_2(tmp_path, capsys, case):
    command, cfg = BAD_SHAPES[case]
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


# every config field a command reads, as a path into the config object
FUZZ_BASE = dict(HL, gamma=0.5, m_level=60.0,
                 sim={"a": 10.0, "start": 30.0, "horizon": 20, "n_traj": 8},
                 grid={"param": "b", "min": 0.0, "max": 1.0, "steps": 3},
                 drift_verify={"i": 0, "nu": 0.5, "x_min": 100, "x_max": 1000, "points": 2},
                 plane={"p_radial": 0.9, "c_radial": 1.0, "c_transverse": 1.0},
                 seed=1, workers=1)
FUZZ_FIELDS = [(k,) for k in FUZZ_BASE] + [
    (section, k) for section in ("sim", "grid", "drift_verify", "plane") for k in FUZZ_BASE[section]]
# no value here is a valid count above the base config's, so every run stays tiny
JUNK = st.one_of(st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
                 st.none(), st.booleans(),
                 st.sampled_from([-1, 0, 0.5, -0.5, 1e300, -1e300, 2 ** 64, -2 ** 63,
                                  math.inf, -math.inf, math.nan]))


@settings(max_examples=50, deadline=None)
# found by this test: an infinite count raised OverflowError, an empty drift grid IndexError
@example("simulate", [(("sim", "horizon"), math.inf)], "half_line")
@example("drift-verify", [(("drift_verify", "points"), False)], "half_line")
@example("phase-diagram", [(("grid", "min"), -math.inf)], "half_line")
@given(st.sampled_from(["classify", "nu-star", "drift-verify", "simulate", "phase-diagram"]),
       st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), JUNK), min_size=1, max_size=2),
       st.sampled_from(["half_line", "line_in", "plane"]))
def test_fuzzed_config_exits_0_or_2(command, edits, regime):
    cfg = json.loads(json.dumps(FUZZ_BASE))
    cfg["regime"] = regime
    if regime == "line_in":
        cfg.update(alpha=2.5, beta=1.3)
    for (*section, key), value in edits:
        node = cfg[section[0]] if section else cfg
        if isinstance(node, dict):   # not a section an earlier edit replaced
            node[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        rc = main([command, "--config", path, "--out", tmp])
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()


def test_config_roundtrip_byte_stable(tmp_path):
    from heavywalk import ChainSpec
    spec = ChainSpec.from_json(HL)
    s1 = json.dumps(spec.to_json(), sort_keys=True)
    s2 = json.dumps(ChainSpec.from_json(json.loads(s1)).to_json(), sort_keys=True)
    assert s1 == s2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_outputs_and_manifest(tmp_path):
    rc = main(["simulate", "--config", write_config(tmp_path, HL), "--seed", "5",
               "--workers", "3", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["master_seed"] == 5
    # the processes that ran, never more than the cores; sim keeps the request
    assert manifest["workers"] == min(3, HL["sim"]["n_traj"], os.cpu_count() or 1)
    assert manifest["sim"]["workers"] == 3
    assert manifest["spec"]["regime"] == "half_line"
    # the engine's counts: draws_per_step uniforms per trajectory-step
    engine = manifest["engine"]
    assert set(engine) == {"steps", "traj_steps", "uniforms"}
    assert engine["uniforms"] == 2 * engine["traj_steps"]
    assert set(manifest["outputs"]) == {"trajectories.csv", "survival.csv"}
    header = (tmp_path / "trajectories.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["index", "tau", "censored"]
    surv = (tmp_path / "survival.csv").read_text().splitlines()
    assert surv[0] == "n,survival"
    assert len(surv) > 10


def test_integral_float_counts_accepted(tmp_path):
    cfg = dict(HL, seed=5.0, workers=1.0, sim=dict(HL["sim"], horizon=2e3, n_traj=2e2))
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["master_seed"] == 5
    assert (manifest["sim"]["horizon"], manifest["sim"]["n_traj"]) == (2000, 200)


def test_simulate_byte_identical_across_workers(tmp_path):
    out1 = tmp_path / "w1"
    out4 = tmp_path / "w4"
    cfgp = write_config(tmp_path, HL)
    assert main(["simulate", "--config", cfgp, "--seed", "9", "--workers", "1",
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfgp, "--seed", "9", "--workers", "4",
                 "--out", str(out4)]) == 0
    for name in ("trajectories.csv", "survival.csv"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


def test_simulate_repeat_same_seed_identical(tmp_path):
    outa = tmp_path / "a"
    outb = tmp_path / "b"
    cfgp = write_config(tmp_path, HL)
    main(["simulate", "--config", cfgp, "--seed", "33", "--out", str(outa)])
    main(["simulate", "--config", cfgp, "--seed", "33", "--out", str(outb)])
    assert (outa / "trajectories.csv").read_bytes() == (outb / "trajectories.csv").read_bytes()
    main(["simulate", "--config", cfgp, "--seed", "34", "--out", str(outb)])
    assert (outa / "trajectories.csv").read_bytes() != (outb / "trajectories.csv").read_bytes()


# ---------------------------------------------------------------------------
# phase diagram
# ---------------------------------------------------------------------------

def test_phase_diagram_flips_at_threshold(tmp_path):
    thr = math.pi
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "gamma": 0.5, "b": 0.0,
           "p_heavy": 0.4, "x0": 60.0,
           "grid": [{"param": "b", "min": thr - 0.2, "max": thr + 0.2, "steps": 9}]}
    rc = main(["phase-diagram", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()
    assert rows[0] == "b,phase,q_crit"
    phases = [r.split(",")[1] for r in rows[1:]]
    assert phases[0] == "NullRecurrent" and phases[-1] == "Transient"
    flip = phases.index("Transient")
    assert all(p == "NullRecurrent" for p in phases[:flip] if p != "Critical")


def test_phase_diagram_beta_sweep_rogozin_foss(tmp_path):
    cfg = {"regime": "line_in", "alpha": 2.9, "beta": 1.3, "c": 1.0, "gamma": 1.0,
           "b": 0.0, "p_heavy": 0.25, "x0": 1.0,
           "grid": [{"param": "beta", "min": 1.3, "max": 1.8, "steps": 11}]}
    rc = main(["phase-diagram", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
    phases = {float(r.split(",")[0]): r.split(",")[1] for r in rows}
    assert phases[1.3] == "TransientOscillatory"
    assert phases[1.8] == "NullRecurrent"


def test_phase_diagram_gamma_sweep_changes_clause(tmp_path):
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "gamma": 0.0, "b": -0.5,
           "p_heavy": 0.25, "x0": 1.0,
           "grid": [{"param": "gamma", "min": 0.2, "max": 0.8, "steps": 7}]}
    rc = main(["phase-diagram", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
    phases = [r.split(",")[1] for r in rows]
    assert "PositiveRecurrent" in phases and "NullRecurrent" in phases


def test_phase_diagram_requires_grid(tmp_path):
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "p_heavy": 0.25, "x0": 1.0}
    assert main(["phase-diagram", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# drift-verify
# ---------------------------------------------------------------------------

def test_cmd_drift_verify(tmp_path, capsys):
    cfg = dict(HL)
    cfg["drift_verify"] = {"i": 0, "nu": 0.5, "x_min": 1e2, "x_max": 1e4, "points": 3}
    rc = main(["drift-verify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "drift_report.csv").read_text().splitlines()
    assert rows[0] == "x,numeric,predicted,normalized_error"
    assert len(rows) == 4
    report = json.loads((tmp_path / "drift_report.json").read_text())
    assert report["converged"] in (True, False)
    # the quadrature work per grid point goes to the file, not to stdout
    quad = report.pop("quadrature")
    assert [q["x"] for q in quad] == pytest.approx([1e2, 1e3, 1e4])
    assert all(q["panels"] >= 1 and q["max_depth"] >= 0 for q in quad)
    assert json.loads(capsys.readouterr().out) == report


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_cmd_selftest_passes(tmp_path, capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "positive_part" in out


def test_selftest_fault_injection_names_identity():
    perturbed = lambda z: sf.gamma_real(z) * (1.0 + 1e-4)
    results = run_selftest(gamma_impl=perturbed)
    failed = [r.name for r in results if not r.passed]
    assert "positive_part" in failed


def test_selftest_loose_quadrature_still_passes():
    # identities are far from any sensible tolerance, so loosening the
    # quadrature oracle to 1e-2 still verifies everything
    results = run_selftest(quad_tol=1e-2)
    assert all(r.passed for r in results)
