"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side only: the tracer replaces
heavywalk module attributes at the names the library looks them up under
(for example `heavywalk.montecarlo.uniform_array`, which the step kernel
calls as a module global) with wrappers that time the call.  Each span keeps
(id, parent id, operation id, name, start, end); self time is the span's
duration minus the time its child spans cover.  Spans stay in memory and
are written out by the runner when the run ends.

A target that is missing (renamed or removed in the library) is recorded in
`absent` and skipped; the metrics that need it are then reported absent.
Wrappers do not reach worker processes, so traced runs use one worker.
"""

from __future__ import annotations

import time
from collections import defaultdict
from importlib import import_module

from workloads import traj_steps


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.mismatches: list[str] = []
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []
        self._installed: list[tuple] = []
        self._next_id = 0
        self._op = 0
        self._dps = 2
        self._t0 = time.perf_counter_ns()

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, parent, name, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        sid, parent, name, start, child_ns = frame
        dur = end - start
        self.self_ns[name] += dur - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, parent, self._op, name, start - self._t0, end - self._t0))
        else:
            self.dropped += 1

    def op(self, fn):
        """Run one benchmark operation under a root span with a fresh op id."""
        self._op += 1
        frame = self._enter("op")
        try:
            return fn()
        finally:
            self._exit(frame)

    def span(self, name: str, after=None):
        """Wrapper factory: time every call as a span; `after(out)` sees the result."""
        def make(fn):
            def wrapper(*args, **kwargs):
                frame = self._enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit(frame)
                if after is not None:
                    after(out)
                return out
            return wrapper
        return make

    def counter(self, key: str):
        """Wrapper factory: count calls without a span (cheap, for leaf calls)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- Monte Carlo counting ---------------------------------------------

    def rng(self, fn):
        """uniform_array(key, traj, counter): draw j of step n has counter
        draws_per_step * (n - 1) + j, so draw 0 marks one lockstep step."""
        def wrapper(*args, **kwargs):
            n = len(args[1])
            self.counts["rng.calls"] += 1
            self.counts["rng.uniforms"] += n
            if args[2] % self._dps == 0:
                self.counts["kernel.steps"] += 1
                self.counts["kernel.traj_steps"] += n
            frame = self._enter("rng")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return wrapper

    def kernel(self, fn):
        """_simulate_batch(cfg, ...): cross-check the counted trajectory-steps
        and uniforms of this call against the tau it returns."""
        def wrapper(cfg, *args, **kwargs):
            self._dps = 3 if cfg.spec.regime == "plane" else 2
            steps0 = self.counts["kernel.traj_steps"]
            uni0 = self.counts["rng.uniforms"]
            calls0, lock0 = self.counts["rng.calls"], self.counts["kernel.steps"]
            frame = self._enter("montecarlo.kernel")
            try:
                batch = fn(cfg, *args, **kwargs)
            finally:
                self._exit(frame)
            counted = self.counts["kernel.traj_steps"] - steps0
            uniforms = self.counts["rng.uniforms"] - uni0
            expect = traj_steps(batch["tau"], cfg.horizon)
            if counted != expect:
                self.mismatches.append(
                    f"kernel.traj_steps {counted} != sum min(tau, horizon) {expect}")
            if uniforms != self._dps * counted:
                self.mismatches.append(
                    f"rng.uniforms {uniforms} != {self._dps} x traj_steps {counted}")
            if self.counts["rng.calls"] - calls0 != self._dps * (self.counts["kernel.steps"] - lock0):
                self.mismatches.append("rng calls are not draws_per_step x kernel steps")
            return batch
        return wrapper

    def nu_star_done(self, res) -> None:
        self.counts["classify.nu_star.iterations"] += res.iterations

    # -- install / remove --------------------------------------------------

    def install(self, targets) -> None:
        """targets: [(module name, attribute, wrapper factory)]."""
        for module_name, attr, make in targets:
            where = f"{module_name}.{attr}"
            try:
                mod = import_module(module_name)
                orig = getattr(mod, attr)
            except (ImportError, AttributeError) as ex:
                self.absent[where] = f"{type(ex).__name__}: {ex}"
                continue
            setattr(mod, attr, make(orig))
            self._installed.append((mod, attr, orig))

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, orig = self._installed.pop()
            setattr(mod, attr, orig)

    def snapshot(self) -> dict:
        """Totals so far; the runner differences two of these per pass."""
        out = {f"self_ns.{k}": v for k, v in self.self_ns.items()}
        out.update({f"calls.{k}": v for k, v in self.calls.items()})
        out.update(self.counts)
        return out


def targets(tr: Tracer) -> list[tuple]:
    """Where each layer is wrapped: the module namespace the caller reads."""
    mc, cli, cl = "heavywalk.montecarlo", "heavywalk.cli", "heavywalk.classify"
    ly, sf = "heavywalk.lyapunov", "heavywalk.specialfn"
    return [
        (mc, "uniform_array", tr.rng),
        (mc, "_simulate_batch", tr.kernel),
        (cli, "_simulate_batch", tr.kernel),
        (mc, "estimate_passage_tail", tr.span("montecarlo.fit")),
        (mc, "phase_diagnostic", tr.span("montecarlo.diagnose")),
        (cli, "main", tr.span("cli.main")),
        (cli, "_summaries_from_batch", tr.span("cli.summaries")),
        (cl, "classify", tr.span("classify")),
        (cl, "nu_star", tr.span("classify.nu_star", after=tr.nu_star_done)),
        (cl, "kappa0", tr.counter("classify.kappa.evals")),
        (cl, "kappa2", tr.counter("classify.kappa.evals")),
        (ly, "verify_expansion", tr.span("lyapunov.verify")),
        (ly, "drift_numeric", tr.counter("lyapunov.drift_numeric.calls")),
        (ly, "build_law", tr.span("increments.build_law")),
        (ly, "integrate_adaptive", tr.span("specialfn.quad")),
        (ly, "integrate_decaying_tail", tr.span("specialfn.quad")),
        (sf, "_gk15", tr.counter("specialfn.quad.panels")),
    ]
