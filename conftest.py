"""Marks the benchmark's smoke tests slow, so `pytest -m "not slow"` stays the
quick loop while the full run also checks the benchmark's entry points.

The smoke runs write their seed-1 records, spans and outputs to the paths a
real benchmark run uses, perfbench/results/.  So the records already there
are moved aside for the session and put back after it, and the smoke runs
write into a fresh directory that is removed when they end."""

import shutil
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent / "perfbench"
_RESULTS = _PERFBENCH / "results"
_KEPT = _PERFBENCH / "results.kept"
# the benchmark's run records and the bare copies its setup probes import
collect_ignore = ["perfbench/results", "perfbench/results.kept"]


@pytest.fixture(scope="session")
def _bench_records_kept():
    if _KEPT.exists():
        raise RuntimeError(f"{_KEPT} is left from an interrupted run: move it back "
                           f"to {_RESULTS} by hand before running the smoke tests")
    if _RESULTS.exists():
        _RESULTS.rename(_KEPT)
    yield
    shutil.rmtree(_RESULTS, ignore_errors=True)
    if _KEPT.exists():
        _KEPT.rename(_RESULTS)


def pytest_collection_modifyitems(items):
    for item in items:
        if _PERFBENCH in Path(item.fspath).resolve().parents:
            item.add_marker("slow")
            item.fixturenames.insert(0, "_bench_records_kept")
