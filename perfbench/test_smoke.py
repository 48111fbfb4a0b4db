"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once, untraced and traced, for one second at --tiny
sizes, and checks that every metric in BENCHMARK.json is printed by name
with its unit, that the last line is the result object and that the result
file parses.  Tiny inputs are too small for the statistical checks, so
`correct` is not asserted here.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    record = json.loads((BENCH / "results" / f"{workload}-seed1-trace{trace}.json").read_text())
    assert record["metrics"] == result["metrics"]


def test_refuses_more_workers_than_cores():
    cores = len(os.sched_getaffinity(0))
    proc = run("--workload", "phase_scan", "--seed", "1", "--seconds", "1",
               "--workers", str(cores + 1), "--tiny")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_refuses_without_library_source():
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = run("--workload", "tail_fit", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_wrapped_name_is_reported_absent():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from spans import Tracer
    tracer = Tracer()
    tracer.install([("heavywalk.montecarlo", "no_such_name", tracer.span("x"))])
    tracer.uninstall()
    assert "heavywalk.montecarlo.no_such_name" in tracer.absent
