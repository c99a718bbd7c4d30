"""Runs one benchmark workload in a fresh process and writes a JSON record.

Modes:
  probe   time the cold import of the program plus its config resolution
  run     warm up, then timed passes filling --seconds of pass time; with
          --trace 1, half the time untraced and half traced
  record  one pass at the reference seed, written as the workload's reference

``run.py`` starts this script; it is not meant to be called by hand.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
TRACE_RESOLVES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref
    return ref


def environment(np, scipy) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


class Passes:
    """Timed passes of one workload, each checked after its timing ends."""

    def __init__(self, workload, budget_s: float, started: float):
        self.workload = workload
        self.deadline = started + budget_s
        self.records: list[dict] = []
        self.segments: list[list] = []  # per untraced pass

    def one(self, tracer=None) -> tuple:
        if tracer is None:
            result, spans = self.workload.run_pass(), None
        else:
            with tracer as recorder:
                result = self.workload.run_pass()
            spans = recorder.take()
        failed = self.workload.check(result)
        self.records.append({"wall_s": result.wall_s, "points": result.points,
                             "failed": failed, "traced": tracer is not None})
        if tracer is None:
            self.segments.append(result.segments)
        return result, spans

    def loop(self, seconds: float, min_passes: int, tracer=None):
        """Yield (result, spans) for ``min_passes`` passes, then while the
        next pass, as long as the slowest so far, still fits in ``seconds``
        of pass time; never start a pass that could miss the deadline."""
        measured, walls = 0.0, []
        while len(walls) < min_passes or measured + max(walls) <= seconds:
            if walls and time.perf_counter() + 1.5 * max(walls) > self.deadline:
                break
            result, spans = self.one(tracer)
            walls.append(result.wall_s)
            measured += result.wall_s
            yield result, spans


def run(args, workload, program, started: float) -> dict:
    import tracing

    passes = Passes(workload, args.budget, started)
    record: dict = {}
    if not args.trace:
        for _ in passes.loop(args.seconds, MIN_PASSES):
            pass
    else:
        tracer = tracing.Tracer(program)
        config_ms = []
        for _ in range(TRACE_RESOLVES):
            with tracer as recorder:
                workload.resolve()
            config_ms.append(tracing.config_ms(recorder.take()))
        for _ in passes.loop(args.seconds / 2, 1):
            pass
        layers, spans = [], []
        for result, spans in passes.loop(args.seconds / 2, 1, tracer):
            layers.append(tracing.layer_metrics(spans, result.points))
        tracing.write_spans(spans, Path(args.spans))
        walls = {flag: statistics.median(r["wall_s"] for r in passes.records
                                         if r["traced"] is flag)
                 for flag in (False, True)}
        record["layers"] = {
            "config.resolve_ms": statistics.median(config_ms),
            **{k: statistics.median(m[k] for m in layers) for k in layers[0]},
            "trace.overhead_ms": (walls[True] - walls[False]) * 1e3,
            "trace.overhead_share": walls[True] / walls[False] - 1.0,
        }
    record["passes"] = passes.records
    record["segments"] = passes.segments
    record["csv_identical"] = getattr(workload, "identical", None)
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("probe", "run", "record"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--budget", type=float, default=150.0,
                    help="seconds after which no new pass starts")
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # cold import of numpy, scipy and the program

    seed = workloads.DEFAULT_SEED if args.mode == "record" else args.seed
    workload = workloads.WORKLOADS[args.workload](seed, Path(args.scratch))
    workload.resolve()
    setup_s = time.perf_counter() - started

    program_file = Path(workloads.cli.__file__).resolve()
    if ROOT / "src" not in program_file.parents:
        raise SystemExit(f"imported the program from {program_file}, "
                         f"not from {ROOT / 'src'}")
    record = {"setup_s": setup_s, "program": str(program_file)}
    try:
        if args.mode == "record":
            workload.warmup()
            workload.record(workload.run_pass())
        elif args.mode == "run":
            workload.warmup()
            record.update(run(args, workload, workloads.program, started))
            import scipy
            record["env"] = environment(workloads.np, scipy)
    except Exception:
        record["error"] = traceback.format_exc()
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(record) + "\n")
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
