"""The three benchmark workloads: inputs from the seed, one timed pass, and
the output check.

Each workload drives the program through its public entry points
(``cavmag.cli.main``, ``full_report``, ``maximize``, ``critical_temperature``)
from a single thread that waits for every call (a closed loop with one
client).  Importing this module imports the program; ``worker.py`` times
that import as part of set-up.
"""
from __future__ import annotations

import gzip
import json
import math
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cavmag import cli, config, gaussian, model, optimize, sweep

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0

# Outputs agree when |got - want| <= ATOL + RTOL * |want|.  Preset CSVs carry
# 9 significant digits, so this admits a flipped last digit and nothing more.
RTOL, ATOL = 1e-7, 1e-10
# maximize() is a Nelder-Mead search: a last-bit change in the objective can
# steer it to an equally good neighbouring point, so its reference is looser.
OPT_VALUE_RTOL = 1e-3
OPT_POINT_ATOL_WD = 0.05
TC_ATOL_K = 2e-3

# Parameter box explored by the bundled sweeps, in omega_d units (the
# sampler of the test suite draws from the same box in the same order).
SAMPLING_BOX = {
    "delta_1": (-3.0, 2.0),
    "delta_2": (-3.0, 2.0),
    "delta_e": (-2.0, 2.0),
    "delta_n_tilde": (0.4, 2.0),
    "J": (0.2, 1.6),
}
POINT_RANDOM_POINTS = 400

# the modules whose functions the traced run wraps
program = types.SimpleNamespace(cli=cli, config=config, model=model,
                                gaussian=gaussian, sweep=sweep,
                                optimize=optimize, np=np)


@dataclass
class PassResult:
    wall_s: float
    points: int
    output: object
    # (ms, points) of the parts of the pass that can be timed from outside:
    # each call on point-random, the whole pass elsewhere.  Part i is the
    # same work in every pass.
    segments: list[tuple[float, int]]


def close(got: float, want: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _gz_write(path: Path, data: bytes) -> None:
    path.write_bytes(gzip.compress(data, mtime=0))


def _csv_failures(text: str, reference: str) -> int:
    """Rows that break an invariant or disagree with the reference table.

    Invariants: no errored row, values finite and >= 0, measure cells filled
    exactly when the row is stable.  Against the reference: same axis values,
    same stable flag, measures within tolerance.
    """
    lines, ref_lines = text.splitlines(), reference.splitlines()
    if lines[:1] != ref_lines[:1]:
        return max(len(lines), len(ref_lines)) - 1
    failed = abs(len(lines) - len(ref_lines))
    n_axes = lines[0].split(",").index("stable")
    for line, ref_line in zip(lines[1:], ref_lines[1:]):
        cells, want = line.split(","), ref_line.split(",")
        stable, values = cells[n_axes], cells[n_axes + 1:]
        ok = stable in ("0", "1") and all((v != "") == (stable == "1") for v in values)
        if ok and stable == "1":
            ok = all(math.isfinite(float(v)) and float(v) >= 0.0 for v in values)
        ok = (ok and len(want) == len(cells)
              and all(close(float(a), float(b))
                      for a, b in zip(cells[:n_axes], want[:n_axes]))
              and stable == want[n_axes]
              and all(close(float(a), float(b))
                      for a, b in zip(values, want[n_axes + 1:]) if a and b))
        failed += not ok
    return failed


class ScmapTwoWorkers:
    """``cavmag stability-map`` on ``scmap.ini`` with two workers, run through
    ``cavmag.cli.main`` into a scratch directory.

    The grid is fixed by its configuration, so every seed compares the CSV
    with the recorded reference.
    """

    name = "scmap-2w"
    ini = HERE / "scmap.ini"
    identical: bool | None = None  # CSV bytes equal the reference

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.out = scratch / "out"
        self.warm_out = scratch / "warmup"

    def argv(self, out: Path, extra=()) -> list[str]:
        return ["stability-map", "--config", str(self.ini), "--workers", "2",
                "--out", str(out), *extra]

    def resolve(self):
        cfg = config.load_layers(config_path=self.ini)
        return config.build_grid_specs(cfg, config.build_system(cfg))

    def warmup(self) -> None:
        small = [f"--set=sweep:scmap.axis{k}_points=3" for k in (1, 2)]
        if cli.main(self.argv(self.warm_out, small)) != 0:
            raise RuntimeError(f"{self.name}: warm-up command failed")

    def run_pass(self) -> PassResult:
        argv = self.argv(self.out)
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"{self.name}: cavmag {' '.join(argv)} exited {code}")
        text = (self.out / "scmap.csv").read_text()
        rows = len(text.splitlines()) - 1
        return PassResult(wall, rows, text, [(1e3 * wall, rows)])

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.csv.gz"

    def check(self, result: PassResult) -> int:
        reference = gzip.decompress(self.reference_path().read_bytes()).decode()
        self.identical = result.output == reference
        return _csv_failures(result.output, reference)

    def record(self, result: PassResult) -> None:
        _gz_write(self.reference_path(), result.output.encode())


class PointRandom:
    """One ``full_report`` per point at seeded uniform points of the box."""

    name = "point-random"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def resolve(self):
        return config.build_system(config.load_layers())


    def inputs(self):
        base = self.resolve()
        wd = base.omega_d
        rng = np.random.default_rng(self.seed)
        points = []
        for _ in range(POINT_RANDOM_POINTS):
            draw = {k: rng.uniform(*SAMPLING_BOX[k]) * wd for k in SAMPLING_BOX}
            draw["delta_n_tilde_override"] = draw.pop("delta_n_tilde")
            points.append(base.updated(**draw))
        return points

    def warmup(self) -> None:
        """Draws the inputs, then evaluates a few of them untimed."""
        self.points = self.inputs()
        for p in self.points[:10]:
            gaussian.full_report(p)

    def run_pass(self) -> PassResult:
        full_report = gaussian.full_report
        clock = time.perf_counter
        reports, latencies = [], []
        t_start = clock()
        for p in self.points:
            t0 = clock()
            reports.append(full_report(p))
            latencies.append((clock() - t0) * 1e3)
        wall = clock() - t_start
        rows = [[r.stable] + [r.measure(m) for m in gaussian.MEASURE_IDS]
                for r in reports]
        return PassResult(wall, len(rows), rows, [(ms, 1) for ms in latencies])

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def check(self, result: PassResult) -> int:
        want = None
        if self.seed == DEFAULT_SEED:
            want = json.loads(self.reference_path().read_text())["rows"]
        failed = abs(len(result.output) - len(self.points))
        for i, (stable, *values) in enumerate(result.output):
            present = [v is not None for v in values]
            ok = all(present) if stable else not any(present)
            if ok and stable:
                ok = all(math.isfinite(v) and v >= 0.0 for v in values)
            if ok and want is not None:
                ref_stable, *ref_values = want[i]
                ok = stable == ref_stable and all(
                    (a is None and b is None) or
                    (a is not None and b is not None and close(a, b))
                    for a, b in zip(values, ref_values))
            failed += not ok
        return failed

    def record(self, result: PassResult) -> None:
        rows = [[stable] + [None if v is None else float(format(v, ".12g"))
                            for v in values]
                for stable, *values in result.output]
        self.reference_path().write_text(json.dumps(
            {"seed": self.seed, "points": len(rows),
             "columns": ["stable", *gaussian.MEASURE_IDS], "rows": rows},
            separators=(",", ":")) + "\n")


class OperatingPoint:
    """``maximize`` on the table2_ne preset with the benchmark's seed, then
    ``critical_temperature`` at the best point (as scripts/operating_points.py
    does)."""

    name = "operating-point"
    preset = "table2_ne"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def resolve(self):
        cfg = config.load_layers(preset=self.preset)
        base = config.build_system(cfg)
        spec = config.build_optimize_spec(cfg, seed_override=self.seed)
        return base, spec, config.build_tc(cfg)


    def warmup(self) -> None:
        """Resolves the preset, then runs a 20-evaluation search untimed."""
        self.base, self.spec, self.tc = self.resolve()
        small = optimize.OptimizeSpec(measure=self.spec.measure, box=self.spec.box,
                                      restarts=1, max_evaluations=20,
                                      seed=self.seed)
        optimize.maximize(small, self.base)

    def _at(self, point):
        wd = self.base.omega_d
        return self.base.updated(**{
            ("delta_n_tilde_override" if k == "delta_n_tilde" else k): v * wd
            for k, v in point.items()})

    def run_pass(self) -> PassResult:
        measure, t_max, tol = self.tc
        tc_calls = [0]
        evaluate = optimize.evaluate_measure

        def counted(*args, **kwargs):
            tc_calls[0] += 1
            return evaluate(*args, **kwargs)

        t0 = time.perf_counter()
        report = optimize.maximize(self.spec, self.base)
        at_best = self._at(report.best_point)
        optimize.evaluate_measure = counted
        try:
            t_c = optimize.critical_temperature(at_best, measure, t_max, tol=tol)
        finally:
            optimize.evaluate_measure = evaluate
        wall = time.perf_counter() - t0
        output = {"best_value": report.best_value, "best_point": report.best_point,
                  "evaluations": report.evaluations, "T_c_K": t_c}
        points = report.evaluations + tc_calls[0]
        return PassResult(wall, points, output, [(1e3 * wall, points)])

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def check(self, result: PassResult) -> int:
        out = result.output
        box, (_, t_max, _) = self.spec.box, self.tc
        point = out["best_point"]
        ok = (math.isfinite(out["best_value"])
              and out["best_value"] >= optimize.ENTANGLEMENT_FLOOR
              and set(point) == set(box)
              and all(box[k][0] <= v <= box[k][1] for k, v in point.items())
              and out["evaluations"] <= self.spec.max_evaluations
              and optimize.T_FLOOR <= out["T_c_K"] <= t_max)
        if ok:
            again = optimize.evaluate_measure(self._at(point), self.spec.measure)
            ok = again is not None and close(again, out["best_value"])
        if ok and self.seed == DEFAULT_SEED:
            want = json.loads(self.reference_path().read_text())
            ok = (close(out["best_value"], want["best_value"], rtol=OPT_VALUE_RTOL)
                  and all(abs(v - want["best_point"][k]) <= OPT_POINT_ATOL_WD
                          for k, v in point.items())
                  and abs(out["T_c_K"] - want["T_c_K"]) <= TC_ATOL_K)
        return 0 if ok else result.points

    def record(self, result: PassResult) -> None:
        self.reference_path().write_text(json.dumps(
            {"seed": self.seed, "preset": self.preset, **result.output},
            sort_keys=True, indent=1) + "\n")


WORKLOADS = {w.name: w for w in (PointRandom, OperatingPoint, ScmapTwoWorkers)}

