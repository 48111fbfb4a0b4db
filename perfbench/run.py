"""heavywalk benchmark: runs one workload through the library's public entry points.

    python3 perfbench/run.py --workload tail_fit --seed 1 --seconds 20 --trace 0

Run it from anywhere; it uses the library source in `src/` next to this
directory and refuses to run without it.  Workloads, metric names, units and
directions are defined in BENCHMARK.json at the repository root; the
per-layer map (which end-to-end metric each layer metric should move, and
on which workload) is in perfbench/README.md.

Load is one process in a closed loop: each operation starts when the
previous one has returned.  A run repeats whole passes of the workload for
`--seconds`, checks every output, and reports medians over passes.

--trace 0  end-to-end metrics, untraced.  Operation times are scaled to a
           reference machine speed (SpeedClock).  setup_s is the median
           wall time of several child interpreters that import heavywalk,
           build the workload's inputs and warm it up.
--trace 1  per-layer metrics.  The run is split between untraced passes and
           traced passes, all at one worker (wrappers do not see worker
           processes); phase_scan adds untraced passes at --workers for the
           worker-split speed-up.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The full record (machine, versions, per-pass data, digests, and
spans for a traced run) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 7
CAL_REF_S = 0.050     # calibration time on the reference-speed machine
CAL_EVERY_S = 1.0     # longest stretch of operations between calibrations


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as ex:
        die(f"cannot read BENCHMARK.json: {ex}")


def import_library() -> None:
    """Import heavywalk from this checkout's src/, never from site-packages."""
    if not (SRC / "heavywalk" / "__init__.py").is_file():
        die(f"no library source at {SRC / 'heavywalk'}")
    sys.path.insert(0, str(SRC))
    import heavywalk
    if Path(heavywalk.__file__).resolve().parent != (SRC / "heavywalk").resolve():
        die(f"imported heavywalk from {heavywalk.__file__}, not from {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_record(args, workers: int) -> dict:
    import numpy
    import heavywalk
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "workers": workers, "nproc": nproc(),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
        "heavywalk": heavywalk.__version__, "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD read from .git without running git; checkouts without .git say so."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(failures), attempted) if attempted else len(failures)
        self.messages += failures


def calibration_s() -> float:
    """Time a fixed mix of small numpy calls and scalar Python float math,
    the two kinds of work the library's step kernels and analytic layers
    spend their time in.  It uses nothing from heavywalk, so it runs the
    same on every commit."""
    import numpy as np
    x = np.arange(512.0)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        y = np.where(x > i % 7, x * 1.0001, -x)
        acc += float(y[3]) + sum(range(60))
    for i in range(1, 60000):
        acc += math.lgamma(1.0 + i * 1e-4) * math.sin(i) / (1.0 + acc * 1e-9)
    return time.perf_counter() - t0


class SpeedClock:
    """Reference-speed timing on a machine whose speed drifts.

    The shared CPU this benchmark was built on runs in fast and slow spells
    lasting seconds to minutes: one operation took 0.15 s or 0.28 s within
    the same minute, and back-to-back runs differed by 25%.  Calibrations
    run between operations, at most CAL_EVERY_S apart, and a measurement
    phase's times are scaled by CAL_REF_S / (median calibration of the
    phase).  Medians on both sides follow the spell that dominates the
    phase; raw times are kept as well.
    """

    def __init__(self):
        self.cals: list[float] = []
        self._last = -math.inf

    def mark(self) -> None:
        """Calibrate if the last calibration is CAL_EVERY_S old."""
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.cals.append(calibration_s())
            self._last = time.perf_counter()

    def factor(self) -> float:
        return CAL_REF_S / statistics.median(self.cals)


def measure(wl, workers: int, seconds: float, tally: Tally, tracer=None,
            after_pass=None) -> list[dict]:
    """Whole passes, closed loop, until `seconds` have elapsed (at least one).

    Only the entry-point calls are timed; checks, digests and calibrations
    run between them.  Every pass must reproduce the first pass's output
    digest bit for bit.  `after_pass(fraction of seconds elapsed)` runs
    untimed after each pass.
    """
    ops = wl.ops(workers)
    clock = SpeedClock()
    passes = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        h = hashlib.sha256()
        lat = []
        before = tracer.snapshot() if tracer else None
        for label, fn in ops:
            clock.mark()
            t0 = time.perf_counter()
            try:
                out = tracer.op(fn) if tracer else fn()
            except Exception as ex:   # an operation failed: count it and go on
                lat.append(time.perf_counter() - t0)
                tally.add(1, [f"{label}: {type(ex).__name__}: {ex}"])
                traceback.print_exc(file=sys.stderr)
                continue
            lat.append(time.perf_counter() - t0)
            tally.add(1, wl.check(label, out))
            h.update(wl.digest(label, out))
        p = {"labels": [label for label, _ in ops], "latency_s": lat, "digest": h.hexdigest()}
        if tracer:
            after = tracer.snapshot()
            p["trace"] = {k: v - before.get(k, 0) for k, v in after.items()}
        if passes and p["digest"] != passes[0]["digest"]:
            tally.add(1, [f"pass {len(passes)} output digest differs from pass 0"])
        passes.append(p)
        if after_pass is not None:
            after_pass((time.perf_counter() - start) / seconds)
        if time.perf_counter() >= deadline:
            break
    clock.mark()
    factor = clock.factor()
    for p in passes:
        p["speed_factor"] = factor
        p["ref_latency_s"] = [t * factor for t in p["latency_s"]]
    return passes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def median_pass_wall(passes: list[dict]) -> float:
    return statistics.median(sum(p["ref_latency_s"]) for p in passes)


class SetupProbes:
    """Wall time of fresh interpreters that import heavywalk, build the
    workload's inputs and warm it up, as the measured process did.  The
    probes are spread over the run (`due`), so that one slow moment of the
    machine does not set the median."""

    def __init__(self, args, workers: int):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), args.workload,
                    str(args.seed), str(workers), "1" if args.tiny else "0",
                    str(RESULTS / "probe")]
        self.times: list[float] = []

    def run_one(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            die(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")

    def due(self, fraction: float) -> None:
        while len(self.times) < SETUP_PROBES and fraction >= len(self.times) / SETUP_PROBES:
            self.run_one()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.run_one()
        return self.times


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(wl, passes: list[dict], setup: list[float], key: str) -> dict:
    """End-to-end metrics from the per-operation times under `key`."""
    walls = [sum(p[key]) for p in passes]
    items = [sum(wl.work(label) for label in p["labels"]) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(n / w for n, w in zip(items, walls)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def op_latency(passes: list[dict], key: str) -> dict:
    """Operation latency percentiles with their sample count.  Printed, not
    gated: only analytic_sweep runs the 1000+ operations a p99 needs, and
    the other workloads mix operations of different kinds in one median."""
    lat = [x for p in passes for x in p[key]]
    return {"n": len(lat), "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p99_ms": 1e3 * percentile(lat, 0.99)}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes
# ---------------------------------------------------------------------------

MC, CLI, CL = "heavywalk.montecarlo", "heavywalk.cli", "heavywalk.classify"
LY, SF = "heavywalk.lyapunov", "heavywalk.specialfn"

# the wrapped names each per-layer metric needs (metric-name prefix -> targets)
NEEDS = {
    "rng.": [f"{MC}.uniform_array"],
    "montecarlo.kernel.": [f"{MC}.uniform_array", f"{MC}._simulate_batch"],
    "montecarlo.split.": [f"{MC}._simulate_batch"],
    "montecarlo.fit.": [f"{MC}.estimate_passage_tail"],
    "montecarlo.diagnose.": [f"{MC}.phase_diagnostic"],
    "cli.summaries.": [f"{CLI}._summaries_from_batch"],
    "cli.write.": [f"{CLI}.main"],
    "specialfn.quad.calls": [f"{LY}.integrate_adaptive", f"{LY}.integrate_decaying_tail"],
    "specialfn.quad.busy_s": [f"{LY}.integrate_adaptive", f"{LY}.integrate_decaying_tail"],
    "specialfn.quad.panels": [f"{SF}._gk15"],
    "classify.busy_s": [f"{CL}.classify"],
    "classify.nu_star.": [f"{CL}.nu_star"],
    "classify.kappa.": [f"{CL}.kappa0", f"{CL}.kappa2"],
    "lyapunov.verify.": [f"{LY}.verify_expansion"],
    "lyapunov.drift_numeric.": [f"{LY}.drift_numeric"],
    "increments.build_law.": [f"{LY}.build_law"],
}


def per_layer(wl, traced: list[dict], untraced_1: list[dict], untraced_w: list[dict] | None,
              workers: int) -> tuple[dict, dict]:
    """Per-pass means over the traced passes, and {metric: reason} for absent ones."""
    n = len(traced)
    tot: dict[str, float] = {}
    for p in traced:
        for k, v in p["trace"].items():
            tot[k] = tot.get(k, 0) + v
    per = lambda key: tot.get(key, 0) / n
    busy = lambda name: per(f"self_ns.{name}") * 1e-9
    uniforms, steps, tsteps = per("rng.uniforms"), per("kernel.steps"), per("kernel.traj_steps")
    kernel_ns = per("self_ns.montecarlo.kernel")
    batches = per("calls.montecarlo.kernel")
    engine_workers = (workers if wl.uses_workers else 1) if batches else 0
    rows, size = wl.written()
    m = {
        "rng.uniforms": uniforms,
        "rng.busy_s": busy("rng"),
        "rng.ns_per_uniform": per("self_ns.rng") / uniforms if uniforms else 0.0,
        "montecarlo.kernel.busy_s": kernel_ns * 1e-9,
        "montecarlo.kernel.steps": steps,
        "montecarlo.kernel.traj_steps": tsteps,
        "montecarlo.kernel.us_per_step": kernel_ns * 1e-3 / steps if steps else 0.0,
        "montecarlo.kernel.ns_per_traj_step": kernel_ns / tsteps if tsteps else 0.0,
        "montecarlo.kernel.mean_active": tsteps / steps if steps else 0.0,
        "montecarlo.split.workers": engine_workers,
        "montecarlo.split.chunks": batches * engine_workers,
        "montecarlo.split.speedup": 0.0,
        "montecarlo.split.efficiency": 0.0,
        "montecarlo.fit.busy_s": busy("montecarlo.fit"),
        "montecarlo.diagnose.busy_s": busy("montecarlo.diagnose"),
        "cli.summaries.busy_s": busy("cli.summaries"),
        "cli.write.busy_s": busy("cli.main"),
        "cli.rows_written": rows,
        "cli.bytes_written": size,
        "specialfn.quad.calls": per("calls.specialfn.quad"),
        "specialfn.quad.panels": per("specialfn.quad.panels"),
        "specialfn.quad.busy_s": busy("specialfn.quad"),
        "classify.busy_s": busy("classify"),
        "classify.nu_star.calls": per("calls.classify.nu_star"),
        "classify.nu_star.iterations": per("classify.nu_star.iterations"),
        "classify.nu_star.busy_s": busy("classify.nu_star"),
        "classify.kappa.evals": per("classify.kappa.evals"),
        "lyapunov.verify.busy_s": busy("lyapunov.verify"),
        "lyapunov.drift_numeric.calls": per("lyapunov.drift_numeric.calls"),
        "increments.build_law.calls": per("calls.increments.build_law"),
        "increments.build_law.busy_s": busy("increments.build_law"),
        "trace.overhead_frac": median_pass_wall(traced) / median_pass_wall(untraced_1) - 1.0,
    }
    absent = {}
    if untraced_w is not None and engine_workers > 1:
        speedup = median_pass_wall(untraced_1) / median_pass_wall(untraced_w)
        m["montecarlo.split.speedup"] = speedup
        m["montecarlo.split.efficiency"] = speedup / engine_workers
    else:
        for k in ("montecarlo.split.speedup", "montecarlo.split.efficiency"):
            absent[k] = ("not measured: the workload runs the engine at one worker" if batches
                         else "not exercised: the workload runs no Monte Carlo")
    if not uniforms:
        for k in ("rng.ns_per_uniform", "montecarlo.kernel.us_per_step",
                  "montecarlo.kernel.ns_per_traj_step", "montecarlo.kernel.mean_active"):
            absent[k] = "not exercised: no steps ran on this workload"
    return m, absent


def missing_targets(absent_targets: dict) -> dict:
    """{metric prefix: reason} for layers whose wrapped names are missing."""
    out = {}
    for prefix, needs in NEEDS.items():
        gone = [t for t in needs if t in absent_targets]
        if gone:
            out[prefix] = f"wrapped name missing: {', '.join(gone)}"
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(spec: dict, argv=None):
    p = argparse.ArgumentParser(description="heavywalk benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--seconds", type=float, required=True, help="measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="phase_scan worker processes (default and maximum: nproc)")
    p.add_argument("--tiny", action="store_true",
                   help="seconds-scale inputs for the smoke test; not a benchmark")
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    spec = load_spec()
    args = parse_args(spec, argv)
    cores = nproc()
    workers = cores if args.workers is None else args.workers
    if not 1 <= workers <= cores:
        die(f"--workers must be in [1, nproc={cores}], got {workers}")
    if args.seconds <= 0:
        die("--seconds must be positive")
    import_library()
    from workloads import WORKLOADS
    RESULTS.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, workers, args.tiny, RESULTS)
    wl.warm_up()
    tally = Tally()
    record = {"run": run_record(args, workers)}
    absent: dict[str, str] = {}

    if not args.trace:
        probes = SetupProbes(args, workers)
        passes = measure(wl, workers if wl.uses_workers else 1, args.seconds, tally,
                         after_pass=probes.due)
        setup = probes.finish()
        attempted, fails, digests = wl.finish()
        tally.add(attempted, fails)
        metrics = end_to_end(wl, passes, setup, "ref_latency_s")
        names = spec["end_to_end"]
        record.update(setup_runs_s=setup, speed_factor=passes[0]["speed_factor"],
                      unscaled=end_to_end(wl, passes, setup, "latency_s"),
                      op_latency=op_latency(passes, "ref_latency_s"))
    else:
        from spans import Tracer, targets
        split = wl.uses_workers and workers > 1
        share = args.seconds / (3 if split else 2)
        untraced_1 = measure(wl, 1, share, tally)
        untraced_w = measure(wl, workers, share, tally) if split else None
        tracer = Tracer()
        tracer.install(targets(tracer))
        try:
            passes = measure(wl, 1, share, tally, tracer)
        finally:
            tracer.uninstall()
        tally.add(0, tracer.mismatches)
        if passes[0]["digest"] != untraced_1[0]["digest"]:
            tally.add(0, ["traced output differs from untraced output"])
        attempted, fails, digests = wl.finish()
        tally.add(attempted, fails)
        metrics, absent = per_layer(wl, passes, untraced_1, untraced_w, workers)
        for prefix, reason in missing_targets(tracer.absent).items():
            for k in metrics:
                if k.startswith(prefix):
                    metrics[k] = 0.0
                    absent[k] = reason
        names = spec["per_layer"]
        record["untraced_passes_1"] = untraced_1
        record["untraced_passes_w"] = untraced_w
        record["absent_targets"] = tracer.absent
        record["spans_dropped"] = tracer.dropped
        spans_path = RESULTS / f"{wl.name}-seed{args.seed}-trace1.spans.jsonl"
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "op", "name", "start_ns",
                                              "end_ns"), s))) + "\n")

    out = {}
    for m in names:
        if m["name"] not in metrics:
            die(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    correct = tally.failed == 0
    digest = hashlib.sha256(json.dumps([passes[0]["digest"], digests],
                                       sort_keys=True).encode()).hexdigest()

    record.update(passes=passes, digests=digests, output_digest=digest,
                  failures=tally.messages, absent=absent, metrics=out,
                  attempted=tally.attempted, failed=tally.failed,
                  run_wall_s=time.perf_counter() - t_start)
    result_path = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    r = record["run"]
    print(f"# {wl.name} seed={args.seed} trace={args.trace} workers={workers} nproc={r['nproc']}"
          f" python={r['python']} numpy={r['numpy']} heavywalk={r['heavywalk']}"
          f" commit={r['commit']} cpu={r['cpu_model']!r}")
    lat_n = sum(len(p["latency_s"]) for p in passes)
    print(f"# passes={len(passes)} operations_timed={lat_n} attempted={tally.attempted}"
          f" failed={tally.failed} failed_frac={tally.failed / max(tally.attempted, 1):.6g}")
    for name, m in out.items():
        note = f"  (absent: {absent[name]})" if name in absent else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    if "unscaled" in record:
        lat = record["op_latency"]
        print(f"# operation latency over n={lat['n']}: op_p50_ms = {lat['op_p50_ms']:.6g} ms,"
              f" op_p99_ms = {lat['op_p99_ms']:.6g} ms (nearest rank)")
        print(f"# unscaled (speed factor {record['speed_factor']:.4f}): "
              + " ".join(f"{k}={v:.6g}" for k, v in record["unscaled"].items()))
    for msg in tally.messages[:20]:
        print(f"FAILED: {msg}")
    print(f"# output digest sha256={digest}")
    for k, v in sorted(digests.items()):
        print(f"#   {k} = {v}")
    print(f"# result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
