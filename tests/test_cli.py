import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavywalk import ChainSpec, DriftParams, PlaneParams, TailParams
from heavywalk.cli import (_CSV_BLOCK, _SWEEPABLE, _write_csv, main, sim_from_config,
                           spec_from_config)
from heavywalk.lyapunov import verify_expansion
from heavywalk.montecarlo import _simulate_batch, survival_curve, survival_grid
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


def test_cmd_classify_decides_from_the_nu_star_gap(tmp_path):
    # b sits 1.2e-9 above the line_balanced threshold by the gap g(0); the
    # closed-form threshold put it below, and the nu* solve then found no root
    cfg = {"regime": "line_balanced", "alpha": 1.2, "c": 1e6, "x0": 1e5, "gamma": 0.2,
           "b": 1020765.3306919247, "p_heavy": 0.2}
    rc = main(["classify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "classify.json").read_text()) == {
        "phase": "TransientOscillatory",
        "theorem_tag": "line_balanced.transient.critical_drift+rate_condition"}


def test_cmd_classify_root_near_the_top(tmp_path):
    # nu* lies within 1e-6 of alpha: the bracket's upper end moves toward it
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "gamma": 0.5, "b": -1e6,
           "p_heavy": 0.25, "x0": 40.0}
    rc = main(["classify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["phase"] == "NullRecurrent"
    assert 1.5 - 1e-6 < report["nu_star"] < 1.5


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


def test_cmd_nu_star_just_below_threshold(tmp_path):
    thr = 1.0 * math.pi * abs(1.0 / sf.sinpi(1.5))
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "gamma": 0.5, "b": thr - 1e-7,
           "p_heavy": 0.25, "x0": 40.0}
    rc = main(["nu-star", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "nu_star.json").read_text())
    assert "no_root" not in report
    assert 0.0 < report["nu_star"] < 1e-6
    assert report["bracket"][0] <= report["nu_star"] <= report["bracket"][1]


def test_cmd_nu_star_transient_side(tmp_path):
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "gamma": 0.5, "b": 4.0,
           "p_heavy": 0.4, "x0": 50.0}
    rc = main(["nu-star", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "nu_star.json").read_text())["no_root"] is True


@pytest.mark.parametrize("command, name", [("classify", "classify.json"),
                                           ("nu-star", "nu_star.json")])
def test_root_above_the_bracket_exits_2(tmp_path, capsys, command, name):
    # recurrent, with nu* above the bracket's last upper end (alpha - 1e-10):
    # a refusal, not a no_root answer that would call the spec transient
    cfg = {"regime": "half_line", "alpha": 1.5, "c": 1.0, "gamma": 0.5, "b": -1e10,
           "p_heavy": 0.25, "x0": 40.0}
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError") and "root lies above the bracket" in err
    assert not (tmp_path / name).exists()


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
    # a light width that overflows to inf (numpy warns of the overflow)
    for regime in ("half_line", "line_out"):
        overflow = write_config(tmp_path, {"regime": regime, "alpha": 1.5, "gamma": 0.5,
                                           "b": -1e308}, "overflow.json")
        with np.errstate(over="ignore"):
            assert main(["classify", "--config", overflow, "--out", str(tmp_path)]) == 2


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
    # the seed is the stream's 64-bit key, which no two seeds may share
    "seed_beyond_64_bits": ("simulate", dict(HL, seed=2 ** 64)),
    # a point holds one value per parameter, so the first axis was never computed
    "two_axes_on_one_param": ("phase-diagram",
                              dict(HL, grid=[{"param": "b", "min": -1, "max": 1, "steps": 2},
                                             {"param": "b", "min": 5, "max": 6, "steps": 2}])),
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
    # a level at or below a: every row would read crossed and exited at step 1
    "m_level_below_a": ("simulate", dict(HL, m_level=-5.0)),
    "m_level_at_a": ("simulate", dict(HL, m_level=HL["sim"]["a"])),
    "m_level_minus_inf": ("simulate", dict(HL, m_level=-math.inf)),
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
    # reals must be JSON numbers: no booleans as 1.0, no numeric strings
    "m_level_bool": ("simulate", dict(HL, m_level=True)),
    "sim_a_and_start_strings": ("simulate", dict(HL, sim=dict(HL["sim"], a="10", start="30"))),
    "pair_start_string": ("simulate", dict(HL, regime="plane", p_heavy=0.2, b=0.0, gamma=0.0,
                                           plane={"p_radial": 0.7, "c_radial": 1.0,
                                                  "c_transverse": 1.0},
                                           sim=dict(HL["sim"], start=["30", 0.0]))),
    "verify_nu_bool_x_min_string": ("drift-verify",
                                    dict(HL, drift_verify={"i": 0, "nu": True, "x_min": "100"})),
    "verify_x_max_string": ("drift-verify",
                            dict(HL, drift_verify={"i": 0, "nu": 0.5, "x_max": "1000"})),
    "spec_c_string": ("classify", dict(HL, c="1.0")),
    "spec_x0_bool": ("nu-star", dict(HL, x0=True)),
    "plane_field_string": ("classify", dict(HL, regime="plane", p_heavy=0.2, b=0.0, gamma=0.0,
                                            plane={"p_radial": "0.7", "c_radial": 1.0,
                                                   "c_transverse": 1.0})),
    "axis_min_string": ("phase-diagram",
                        dict(HL, grid={"param": "b", "min": "0", "max": 1.0, "steps": 3})),
    "axis_max_bool": ("phase-diagram",
                      dict(HL, grid={"param": "gamma", "min": 0.0, "max": True, "steps": 3})),
    # no state lies within a negative distance of the origin
    "sim_a_negative": ("simulate", dict(HL, sim=dict(HL["sim"], a=-1))),
    # a plane parameter swept over a plane section that is not an object
    **{f"plane_{kind}_under_p_radial_axis": (
        "phase-diagram", dict(HL, regime="plane", p_heavy=0.2, plane=value,
                              grid={"param": "p_radial", "min": 0.1, "max": 0.9, "steps": 3}))
       for kind, value in (("null", None), ("list", [["c_radial", 1.0], ["c_transverse", 1.0]]),
                           ("string", "plane"), ("number", 0.7), ("true", True))},
}


def _fs_edge(tmp_path, case):
    """(config, out) arguments for a config or --out the file system refuses."""
    cfg, afile = write_config(tmp_path, HL), tmp_path / "afile"
    afile.write_text("")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    return {"out_is_a_file": (cfg, str(afile)),
            "out_below_a_file": (cfg, str(afile / "sub")),
            "config_is_a_directory": (str(tmp_path), str(tmp_path)),
            "config_missing": (str(tmp_path / "nowhere.json"), str(tmp_path)),
            "config_not_utf8": (str(binary), str(tmp_path))}[case]


@pytest.mark.parametrize("case", ["out_is_a_file", "out_below_a_file", "config_is_a_directory",
                                  "config_missing", "config_not_utf8"])
def test_file_system_edges_exit_2(tmp_path, capsys, case):
    # an unusable --out or an unreadable config is an invalid config: one
    # stderr line and exit 2, not a traceback
    cfg, out = _fs_edge(tmp_path, case)
    assert main(["classify", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "Traceback" not in err

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
@example("simulate", [(("sim", "horizon"), math.inf)], "half_line", "b")
@example("drift-verify", [(("drift_verify", "points"), False)], "half_line", "b")
@example("phase-diagram", [(("grid", "min"), -math.inf)], "half_line", "b")
# a null plane section under a plane-parameter axis raised TypeError
@example("phase-diagram", [(("plane",), None)], "plane", "p_radial")
@given(st.sampled_from(["classify", "nu-star", "drift-verify", "simulate", "phase-diagram"]),
       st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), JUNK), min_size=1, max_size=2),
       st.sampled_from(["half_line", "line_in", "plane"]), st.sampled_from(sorted(_SWEEPABLE)))
def test_fuzzed_config_exits_0_or_2(command, edits, regime, swept):
    cfg = json.loads(json.dumps(FUZZ_BASE))
    cfg["regime"] = regime
    cfg["grid"]["param"] = swept
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


def test_readme_schema_lists_the_spec_records_fields():
    # the spec entries of README's config schema are the parameter records'
    # fields, with ChainSpec's tail and drift records written out flat
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    schema = json.loads(block)

    def names(record):
        return {f.name for f in dataclasses.fields(record)}

    run_keys = {"sim", "grid", "drift_verify", "seed", "workers", "out"}
    assert set(schema) - run_keys == (names(ChainSpec) - {"tail", "drift"}
                                      | names(TailParams) | names(DriftParams))
    assert set(schema["plane"]) == names(PlaneParams)


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
    # wall seconds per stage
    stage_s = manifest["stage_s"]
    assert set(stage_s) == {"simulate", "write"}
    assert all(isinstance(v, float) and v >= 0.0 for v in stage_s.values())
    header = (tmp_path / "trajectories.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["index", "tau", "censored"]
    surv = (tmp_path / "survival.csv").read_text().splitlines()
    assert surv[0] == "n,survival"
    assert len(surv) > 10


def _csv_fields(col: np.ndarray) -> list:
    """A column as Python values: flags as 0/1, bytes as ASCII text."""
    if col.dtype == bool:
        return col.astype(np.int64).tolist()
    return col.astype(str).tolist() if col.dtype.kind == "S" else col.tolist()


def _csv_writer_bytes(cols: dict) -> bytes:
    """Oracle: the columns as csv.writer writes them, from Python ints,
    floats and strings, with flags as 0/1."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(list(cols))
    w.writerows(zip(*(_csv_fields(c) for c in cols.values())))
    return buf.getvalue().encode()


# more rows than two blocks, so a block boundary and a short last block are written
N_BLOCKS_PLUS = 2 * _CSV_BLOCK + 3


@pytest.mark.parametrize("cfg", [
    dict(HL, regime="line_balanced", gamma=0.5, b=0.5, p_heavy=0.2, m_level=40.0,
         sim={"a": 5.0, "start": 30.0, "horizon": 20, "n_traj": N_BLOCKS_PLUS}),
    {"regime": "plane", "alpha": 1.5, "p_heavy": 0.2, "m_level": 40.0,
     "plane": {"p_radial": 0.9, "c_radial": 1.0, "c_transverse": 1.0},
     "sim": {"a": 5.0, "start": [30.0, 0.0], "horizon": 20, "n_traj": N_BLOCKS_PLUS}},
], ids=["line_balanced", "plane"])
def test_simulate_csv_bytes_match_csv_writer(tmp_path, cfg):
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    spec = spec_from_config(cfg)
    sim = sim_from_config(cfg, spec, 3, 1)
    batch = _simulate_batch(sim, cfg["m_level"])
    cols = {"index": batch["index"], "tau": batch["tau"], "censored": batch["tau"] < 0,
            "max_excursion": batch["max_excursion"], "min_excursion": batch["min_excursion"],
            "final_x": batch["final_x"]}
    if spec.regime == "plane":
        cols["final_y"] = batch["final_y"]
    cols.update(crossed_pos=batch["crossed_pos"], crossed_neg=batch["crossed_neg"],
                first_exit=batch["first_exit"], last_sign_change=batch["last_sign_change"])
    assert (tmp_path / "trajectories.csv").read_bytes() == _csv_writer_bytes(cols)
    grid = survival_grid(sim.horizon)
    surv = {"n": grid, "survival": survival_curve(batch, grid)}
    assert (tmp_path / "survival.csv").read_bytes() == _csv_writer_bytes(surv)


def test_csv_edge_values_match_csv_writer(tmp_path):
    rng = np.random.default_rng(11)
    n = N_BLOCKS_PLUS
    # int ranges short and wider than a block, up to the engine's -1 .. 2^32
    cols = {"index": np.arange(n, dtype=np.int64), "tau": rng.integers(-1, 50, n),
            "wide": rng.integers(-1, 2 ** 32 + 1, n), "spread": rng.integers(-1, 3 * _CSV_BLOCK, n),
            "censored": rng.random(n) < 0.5, "x": rng.standard_cauchy(n),
            "y": rng.standard_cauchy(n)}
    cols["wide"][:4] = [-1, 0, 2 ** 32, 2 ** 32 - 1]
    # both sides of 1e-4, 1 and 1e16, where the array path ends
    ends = np.array([1e-4, 1.0, 1e16])
    cols["x"][3 * _CSV_BLOCK // 2:][:12] = np.concatenate(
        [ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf), -ends])
    edges = [-0.0, 0.0, 1e16, -1e16, 1e-7, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
             0.0001, 0.1, 0.5, 1e-5, -0.5, 2.2250738585072014e-308, 1e-310]
    # at the ends and on both sides of each block boundary
    at = [0, _CSV_BLOCK - 1, _CSV_BLOCK, 2 * _CSV_BLOCK - 1, 2 * _CSV_BLOCK, n - 1]
    for k, pos in enumerate(at):
        cols["x"][pos] = edges[k % len(edges)]
        cols["y"][pos] = edges[-1 - k % len(edges)]
        cols["tau"][pos] = -1
    cols["y"][_CSV_BLOCK + 1:_CSV_BLOCK + 1 + len(edges)] = edges
    _write_csv(tmp_path / "edges.csv", cols)
    assert (tmp_path / "edges.csv").read_bytes() == _csv_writer_bytes(cols)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2 * _CSV_BLOCK + 2), st.integers(0, 2 ** 32))
def test_any_columns_match_csv_writer(n, seed):
    # random flag, int64, float64 and bytes columns (fields of 0 to 12
    # characters, and one column of empty fields), across block boundaries
    rng = np.random.default_rng(seed)
    ints = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.int64)
    ints[0], ints[-1] = -2 ** 63, 2 ** 63 - 1
    letters = b"abcXYZ019:.+-_"
    cols = {"flag": rng.random(n) < 0.5, "small": rng.integers(-3, 30, n),
            "int": ints >> rng.integers(0, 64, n),
            "float": rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
            "unit": rng.random(n) * 10.0 ** rng.integers(-6, 17, n),
            "text": np.array([bytes(rng.choice(list(letters), k).tolist())
                              for k in rng.integers(0, 13, n)]),
            "blank": np.full(n, b"")}
    with tempfile.TemporaryDirectory() as d:
        _write_csv(Path(d) / "any.csv", cols)
        assert (Path(d) / "any.csv").read_bytes() == _csv_writer_bytes(cols)


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


@pytest.mark.parametrize("seed, code", [("-1", 2), ("0", 0), (str(2 ** 64 - 1), 0), (str(2 ** 64), 2)])
def test_simulate_seed_is_a_64_bit_key(tmp_path, capsys, seed, code):
    # the seed is the stream's 64-bit key: 2^64 ran 0's stream, and -1 ran 2^64 - 1's
    cfg = dict(HL, sim=dict(HL["sim"], horizon=20, n_traj=4))
    assert main(["simulate", "--config", write_config(tmp_path, cfg), f"--seed={seed}",
                 "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error:") and err.count("\n") == 1 and "master_seed" in err
    else:
        assert json.loads((tmp_path / "manifest.json").read_text())["master_seed"] == int(seed)


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
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("cfg", [
    {"regime": "line_in", "alpha": 2.5, "beta": 1.3, "gamma": 0.3, "b": -3.0, "x0": 2.0,
     "drift_verify": {"i": 2, "nu": 0.4, "x_min": -1e5, "x_max": -1e2, "points": 5}},
    dict(HL, gamma=0.5, b=-1.0, drift_verify={"i": 0, "nu": 0.0, "points": 4}),
], ids=["negative_grid", "nu_zero"])
def test_drift_report_csv_is_csv_writer_bytes(tmp_path, cfg):
    assert main(["drift-verify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 0
    d = cfg["drift_verify"]
    grid = np.geomspace(d.get("x_min", 1e2), d.get("x_max", 1e5), d["points"])
    rep = verify_expansion(spec_from_config(cfg), d["i"], d["nu"], list(grid))
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["x", "numeric", "predicted", "normalized_error"])
    w.writerows(zip(rep.x_grid, rep.numeric, rep.predicted, rep.normalized_error))
    assert (tmp_path / "drift_report.csv").read_bytes() == buf.getvalue().encode()


NEAR_TAIL = {"regime": "half_line", "alpha": 1.5, "beta": 2.5, "gamma": 0.5, "b": -1.0,
             "drift_verify": {"i": 0, "nu": 1.499, "x_min": 100, "x_max": 1000, "points": 2}}


def test_drift_verify_nu_near_tail_exponent_exits_0(tmp_path):
    # nu within 1e-3 of alpha: the far tail beyond the last kink is in closed form
    rc = main(["drift-verify", "--config", write_config(tmp_path, NEAR_TAIL),
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "drift_report.json").read_text())
    assert math.isfinite(report["final_normalized_error"])


def test_drift_verify_nu_near_tail_exponent_exits_2(tmp_path, capsys):
    # nu at alpha is outside the expansion's range: exit 2, not a traceback
    cfg = dict(NEAR_TAIL, drift_verify=dict(NEAR_TAIL["drift_verify"], nu=1.5))
    rc = main(["drift-verify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError") and "Traceback" not in err


def test_drift_verify_beyond_two_to_the_53_exits_2(tmp_path, capsys):
    # x and x +- 1 round together from 2^53 on: a refusal, not a wrong report
    cfg = dict(NEAR_TAIL, drift_verify=dict(NEAR_TAIL["drift_verify"], nu=0.5, x_max=1e20))
    rc = main(["drift-verify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError") and "2^53" in err and "Traceback" not in err
    assert not (tmp_path / "drift_report.csv").exists()


NO_BETA = {k: v for k, v in HL.items() if k != "beta"}


@pytest.mark.parametrize("verify, error", [
    # a subnormal grid point: |x|^(nu - alpha) would overflow
    ({"i": 0, "nu": 0.5, "x_min": 1e-320, "x_max": 1e3, "points": 3}, "error: DomainError: "),
    # no beta, so the lemma's range has no lower end: kappa0 would take Gamma(201.5)
    ({"i": 0, "nu": -200.0, "points": 2}, "error: DomainError: "),
], ids=["subnormal_x_min", "nu_past_the_gamma_range"])
def test_drift_verify_past_the_float_range_exits_2(tmp_path, capsys, verify, error):
    cfg = dict(NO_BETA, drift_verify=verify)
    rc = main(["drift-verify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1
    assert not (tmp_path / "drift_report.csv").exists()


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_cmd_selftest_passes(tmp_path, capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "positive_part" in out


def test_selftest_fault_injection_names_identity(monkeypatch):
    real = sf.gamma_real
    monkeypatch.setattr(sf, "gamma_real", lambda z: real(z) * (1.0 + 1e-4))
    failed = [r.name for r in run_selftest() if not r.passed]
    assert "positive_part" in failed and "kappa1_at_zero" in failed


# ---------------------------------------------------------------------------
# exits no other test reaches
# ---------------------------------------------------------------------------

AXIS = {"param": "b", "min": -1.0, "max": 1.0, "steps": 2}
NO_SIM = {k: v for k, v in HL.items() if k != "sim"}
# (command, config or None for no --config, Gamma faulted, exit code, stderr start)
EXIT_CASES = {
    "simulate_without_sim": ("simulate", NO_SIM, False, 2,
                             "config error: sim: missing sim section"),
    "drift_verify_without_section": ("drift-verify", NO_SIM, False, 2,
                                     "config error: drift_verify: missing drift_verify section"),
    "three_sweep_axes": ("phase-diagram",
                         dict(HL, grid=[AXIS, dict(AXIS, param="gamma"), dict(AXIS, param="c")]),
                         False, 2, "config error: grid: one sweep axis, or a list of at most two"),
    "axis_of_one_step": ("phase-diagram", dict(HL, grid=dict(AXIS, steps=1)), False, 2,
                         "config error: grid: steps must be >= 2"),
    "classify_without_config": ("classify", None, False, 2,
                                "config error: --config is required for this command"),
    "selftest_failure": ("selftest", None, True, 1, "selftest FAILED: "),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_guarded_exits(tmp_path, capsys, monkeypatch, case):
    command, cfg, faulted, code, err_start = EXIT_CASES[case]
    if faulted:
        real = sf.gamma_real
        monkeypatch.setattr(sf, "gamma_real", lambda z: real(z) * (1.0 + 1e-4))
    argv = [command, "--out", str(tmp_path)]
    if cfg is not None:
        argv += ["--config", write_config(tmp_path, cfg)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(err_start) and err.count("\n") == 1, err
    assert not (tmp_path / "phase_diagram.csv").exists()
