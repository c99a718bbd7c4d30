#!/usr/bin/env python3
"""cavmag benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record-reference

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it holds the details (every pass, median and per-point latencies,
environment, CSV identity).  Each workload runs in a fresh process
(``worker.py``), and set-up is timed in ``SETUP_PROBES`` more fresh
processes before it.  Outputs, logs and spans go to ``.perfbench-out/`` in
the checkout.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("point-random", "operating-point", "scmap-2w")
DEFAULT_SEED = 0
SETUP_PROBES = 4  # plus the workload's own process: 5 set-up samples
BUDGET_S = 170.0  # the whole call ends within this many seconds


class BenchError(RuntimeError):
    pass


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    def __init__(self, args, scratch: Path):
        self.args = args
        self.scratch = scratch
        self.started = time.perf_counter()
        self.stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def worker(self, mode: str, tag: str) -> dict:
        result = self.scratch / f"{tag}.json"
        log = OUT / f"{self.stem}.{tag}.log"
        timeout = self.remaining()
        argv = [sys.executable, str(HERE / "worker.py"), mode,
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds), "--trace", str(self.args.trace),
                "--budget", str(max(timeout - 15.0, 1.0)),
                "--scratch", str(self.scratch), "--result", str(result),
                "--spans", str(OUT / f"{self.stem}.spans.csv")]
        with log.open("w") as fh:
            try:
                code = subprocess.run(argv, stdout=fh, stderr=subprocess.STDOUT,
                                      cwd=ROOT, timeout=timeout).returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                raise BenchError(f"{mode} worker exceeded {timeout:.0f} s; see {log}")
        record = json.loads(result.read_text()) if result.is_file() else {}
        if code != 0 or "error" in record:
            detail = record.get("error") or log.read_text()[-2000:]
            raise BenchError(f"{mode} worker failed (exit {code}):\n{detail}")
        return record


def best_pass_s(run: dict) -> float:
    """Pass time with every part at its fastest across the run's passes.

    On a shared machine a repeat only ever runs slower than the program
    allows (other tenants take the core), so the fastest repeat measures the
    program and the median measures the neighbours.  Taking the minimum per
    part (one call) rather than per pass keeps a run that saw only brief
    fast phases from reading slow.
    """
    return sum(min(ms for ms, _ in part) for part in zip(*run["segments"])) / 1e3


def end_to_end(run: dict, setup: list[float]) -> dict:
    points = run["passes"][0]["points"]
    best = best_pass_s(run)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (best, "s"),
        "points_per_s": (points / best, "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def observed(run: dict) -> dict:
    """Medians and per-point latency percentiles, reported but not gated."""
    walls = [p["wall_s"] for p in run["passes"]]
    point_ms = [ms / n for p in run["segments"] for ms, n in p if n]
    return {
        "wall_s_median": statistics.median(walls),
        "wall_s_fastest_pass": min(walls),
        "point_ms_p50": statistics.median(point_ms),
        "point_ms_p95": _quantile(point_ms, 95),
        "point_ms_samples": len(point_ms),
    }


LAYER_UNITS = {"_us": "us", "_ms": "ms", "_s": "s", "_share": "ratio"}


def per_layer(run: dict) -> dict:
    metrics = {}
    for name, value in run["layers"].items():
        unit = next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)),
                    "count")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write the workload's reference output (seed 0)")
    args = ap.parse_args()

    if not (ROOT / "src" / "cavmag" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'cavmag'} is missing",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(args, scratch)
        if args.record_reference:
            runner.worker("record", "record")
            print(f"recorded the {args.workload} reference")
            return 0
        setup = []
        if not args.trace:
            setup = [runner.worker("probe", f"probe{i}")["setup_s"]
                     for i in range(SETUP_PROBES)]
        run = runner.worker("run", "run")
        setup.append(run["setup_s"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(p["points"] for p in run["passes"])
    failed = sum(p["failed"] for p in run["passes"])
    metrics = per_layer(run) if args.trace else end_to_end(run, setup)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "passes": run["passes"],
        "observed": observed(run),
        "setup_samples_s": setup,
        "failed_share": failed / attempted,
        "csv_identical_to_reference": run["csv_identical"],
        "environment": run["env"],
        "metrics": metrics,
    }
    (OUT / f"{runner.stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
