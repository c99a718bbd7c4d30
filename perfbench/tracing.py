"""In-memory span recorder and per-layer metrics for the traced run.

Wrappers are bound to the names where callers look them up (module globals,
a class attribute, ``numpy.linalg.eigvals``).  Each call records one span:
(id, parent id, name, start ns, end ns, note).  Every thread keeps its own
parent stack; a pool thread with an empty stack takes the span open on the
main thread as its parent, so grid points evaluated on a thread pool still
belong to the ``run_grid`` span that started them.

A layer's self time is its span's duration minus the union of the intervals
its child spans cover (children on two threads can overlap).
"""
from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span per call; ``note(result)`` is kept with it."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            extra = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    extra = note(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, extra))

        return wrapper

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _layer_targets(program) -> list[tuple]:
    """(owner, attribute, span name, note) for every traced call site."""
    p = program
    cli, config, gaussian, sweep, optimize = (
        p.cli, p.config, p.gaussian, p.sweep, p.optimize)
    config_names = ("load_layers", "apply_set", "build_system", "build_coupling",
                    "build_grid_specs", "build_optimize_spec", "build_tc")
    targets = [(owner, attr, "config", None)
               for owner in (cli, config) for attr in config_names]
    targets += [
        (p.model.SystemParams, "updated", "model.updated", None),
        (gaussian, "steady_state", "dynamics.steady_state",
         lambda ss: ss.iterations),
        (gaussian, "drift_matrix", "dynamics.drift_matrix", None),
        (gaussian, "diffusion_matrix", "dynamics.diffusion_matrix", None),
        (gaussian, "stability", "dynamics.stability", lambda v: v.stable),
        (gaussian, "lyapunov_solve", "gaussian.lyapunov_solve", None),
        (gaussian, "solve_continuous_lyapunov", "gaussian.lyapunov_core", None),
        (p.np.linalg, "eigvals", "numpy.eigvals", None),
        (gaussian, "log_negativity", "gaussian.log_negativity", None),
        (gaussian, "residual_contangle", "gaussian.residual_contangle", None),
        (gaussian, "full_report", "gaussian.full_report", None),
        (sweep, "steady_covariance", "gaussian.steady_covariance", None),
        (optimize, "steady_covariance", "gaussian.steady_covariance", None),
        (sweep, "measure_values", "gaussian.measure_values", None),
        (optimize, "measure_values", "gaussian.measure_values", None),
        (cli, "run_grid", "sweep.run_grid", None),
        (cli, "emit_csv", "sweep.emit_csv", None),
        (optimize, "evaluate_measure", "optimize.evaluate_measure",
         lambda v: v is not None),
        (optimize, "maximize", "optimize.maximize", None),
        (optimize, "critical_temperature", "optimize.critical_temperature", None),
        (cli, "main", "cli.main", None),
    ]
    return targets


class Tracer:
    """Installs and removes the wrappers; names a later version no longer
    has are skipped, and the layer then reads 0."""

    def __init__(self, program):
        self.recorder = Recorder()
        self._targets = [t for t in _layer_targets(program)
                         if callable(getattr(t[0], t[1], None))]
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name, note in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(name, original, note))
        return self.recorder

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def _union_ns(intervals, lo: int, hi: int) -> int:
    covered, end = 0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            covered += t1 - t0
            end = t1
    return covered


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive and self ns, notes, parent names."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "notes": [],
                 "parents": defaultdict(int)})
    for sid, parent, name, t0, t1, note in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["incl_ns"] += t1 - t0
        agg["self_ns"] += t1 - t0 - _union_ns(children.get(sid, ()), t0, t1)
        if note is not None:
            agg["notes"].append(note)
        agg["parents"][by_id[parent][2] if parent in by_id else None] += 1
    return out


def layer_metrics(spans, points: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass that evaluated ``points`` points."""
    s = summarize(spans)

    def get(name):
        return s.get(name, {"calls": 0, "incl_ns": 0, "self_ns": 0,
                            "notes": [], "parents": {}})

    def mean_us(name, key="incl_ns"):
        agg = get(name)
        return agg[key] / agg["calls"] / 1e3 if agg["calls"] else 0.0

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def note_mean(name):
        notes = get(name)["notes"]
        return statistics.fmean(notes) if notes else 0.0

    grid, mx = get("sweep.run_grid"), get("optimize.maximize")
    evals = get("optimize.evaluate_measure")
    return {
        "model.updated_us": mean_us("model.updated"),
        "model.updated_calls": get("model.updated")["calls"],
        "dynamics.steady_state_us": mean_us("dynamics.steady_state"),
        "dynamics.steady_state_iterations_mean": note_mean("dynamics.steady_state"),
        "dynamics.drift_matrix_us": mean_us("dynamics.drift_matrix"),
        "dynamics.diffusion_matrix_us": mean_us("dynamics.diffusion_matrix"),
        "dynamics.stability_us": mean_us("dynamics.stability"),
        "dynamics.stable_share": note_mean("dynamics.stability"),
        "gaussian.lyapunov_solve_us": mean_us("gaussian.lyapunov_solve", "self_ns"),
        "gaussian.lyapunov_core_us": mean_us("gaussian.lyapunov_core"),
        "gaussian.eigensolves_per_point": share(get("numpy.eigvals")["calls"], points),
        "gaussian.log_negativity_us": mean_us("gaussian.log_negativity"),
        "gaussian.log_negativity_calls_per_point":
            share(get("gaussian.log_negativity")["calls"], points),
        "gaussian.residual_contangle_us": mean_us("gaussian.residual_contangle"),
        "gaussian.measure_values_us": mean_us("gaussian.measure_values"),
        "gaussian.full_report_us": mean_us("gaussian.full_report"),
        "sweep.run_grid_s": grid["incl_ns"] / 1e9,
        "sweep.self_share": share(grid["self_ns"], grid["incl_ns"]),
        "sweep.emit_csv_ms": get("sweep.emit_csv")["incl_ns"] / 1e6,
        "optimize.evaluate_measure_us": mean_us("optimize.evaluate_measure"),
        "optimize.evaluations": evals["parents"].get("optimize.maximize", 0),
        "optimize.stable_eval_share": note_mean("optimize.evaluate_measure"),
        "optimize.maximize_self_share": share(mx["self_ns"], mx["incl_ns"]),
        "optimize.critical_temperature_ms":
            get("optimize.critical_temperature")["incl_ns"] / 1e6,
        "optimize.tc_evaluations":
            evals["parents"].get("optimize.critical_temperature", 0),
        "cli.self_ms": get("cli.main")["self_ns"] / 1e6,
    }


def config_ms(spans) -> float:
    """Time inside config-layer calls that no other config call encloses."""
    by_id = {s[0]: s for s in spans}
    total = 0
    for sid, parent, name, t0, t1, _ in spans:
        if name == "config" and by_id.get(parent, (0, 0, ""))[2] != "config":
            total += t1 - t0
    return total / 1e6


def write_spans(spans, destination) -> None:
    """Spans as CSV: id, parent, name, start and end in ns from the first start."""
    base = min((s[3] for s in spans), default=0)
    lines = ["id,parent,name,start_ns,end_ns,note"]
    lines += [f"{sid},{parent},{name},{t0 - base},{t1 - base},"
              f"{'' if note is None else note}"
              for sid, parent, name, t0, t1, note in spans]
    destination.write_text("\n".join(lines) + "\n")
