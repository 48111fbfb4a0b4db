"""Byte golden test of `simulate`: the CSV outputs at pinned seeds are the
contract.  One small config per regime, each with a finite m_level so that
the exit, crossing and sign-flip columns are exercised, plus two drift-free
(b = 0) configs without an m_level, where the engine takes the light width
from the sign of the state alone; a change that alters a byte here is a
behaviour change and must say so.
"""

import hashlib
import json

import pytest

from heavywalk.cli import main

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
}

DIGESTS = {
    "half_line": "13553c74a32bd3e776897b07c7c941613a961186392d5d7a0f143919fc0f6557",
    "line_out": "4d6f8f3856b653ea49b263d642e4c4e01c4c2d54ddc56789c27c900bb7a84a3c",
    "line_in": "5b13a620a6007eb1d1ac4ffd783c354e28122cfef20de0c95df00a3583d1031f",
    "line_balanced": "db7de6afeaeb39b028b1034d765befda6fd4120e616b36519806bc9bdfd0fcfb",
    "plane": "471a0a3d177bba344e4486885946a0c12da0b47e7b3e196bc371b2c6be624751",
    "half_line_b0": "d46e96fcec67c6943d401a9872d8cd33c42e16100563bfffa232415a8c2c153a",
    "line_in_b0": "65f57b8094679cfa5cfdaad0542a7e7412049d4d3f42964bb65f87a962bcddda",
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
