"""Command-line front end: point evaluation, sweeps, optimization, critical
temperature and stability maps.

Exit codes: 0 success / stable point, 1 configuration error, 2 no steady
state (unstable point, infeasible box, vanished entanglement).
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    apply_set,
    available_presets,
    build_coupling,
    build_grid_specs,
    build_optimize_spec,
    build_system,
    build_tc,
    load_layers,
)
from .dynamics import StabilityVerdict, drift_matrix, spectral_abscissa, steady_state
from .gaussian import (BIPARTITE_MEASURES, NO_STEADY_STATE, TRIPARTITE_MEASURES,
                       EntanglementReport, full_report)
from .model import validate_regime
from .optimize import OptimizeError, critical_temperature, maximize
from .sweep import ERROR, UNSTABLE, emit_csv, run_grid, sidecar_head, write_json


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="user configuration file")
    common.add_argument("--preset", metavar="NAME",
                        help="bundled preset name (see --list-presets)")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="sets",
                        help="override a parameter (rates in omega_d units, "
                             "T in K) or a raw section.key")
    common.add_argument("--out", metavar="DIR", default="cavmag-out",
                        help="output directory (default: cavmag-out)")
    common.add_argument("--workers", type=int, default=1, metavar="N",
                        help="processes for sweep grid chunks and optimizer restarts "
                             "(at most one per chunk or restart and usable CPU); "
                             "default 1; point, tc and runs without fork are serial")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override the optimizer seed")
    common.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="cavmag",
        description="Steady-state entanglement of a driven two-cavity "
                    "magnomechanical network",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--list-presets", action="store_true",
                        help="list bundled presets and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _resolve(args):
    cfg = load_layers(preset=args.preset, config_path=args.config)
    for assignment in args.sets:
        apply_set(cfg, assignment)
    # every command checks [coupling], though only point uses it
    return cfg, build_system(cfg), build_coupling(cfg)


def _out_dir(args, *files) -> Path:
    """The --out directory, made if need be, checked before any evaluation:
    none of the files the command writes there, its ``files`` and its
    sidecar, may be a directory."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission, ...
        raise ConfigError(f"--out {args.out}: {exc.strerror or exc}") from None
    for name in (*files, f"{args.command}.meta.json"):
        if (out / name).is_dir():
            raise ConfigError(f"--out {args.out}: {name} is a directory")
    return out


def _write_sidecar(out: Path, command: str, cfg, args) -> None:
    write_json(out / f"{command}.meta.json", {
        **sidecar_head(),
        "command": command,
        "config": cfg,
        "overrides": list(args.sets),
        "preset": args.preset,
        "seed": args.seed,
        "workers": args.workers,
    })


def _cplx(z) -> dict:
    return {"re": z.real, "im": z.imag}


def cmd_point(args) -> int:
    cfg, params, coupling = _resolve(args)
    out = _out_dir(args, "point.json")
    # the drift's own eigen-solve (geev) decides; an unstable point loads no scipy
    ss = steady_state(params)
    wd = params.omega_d
    verdict = StabilityVerdict.from_abscissa(spectral_abscissa(drift_matrix(params, ss)), wd)
    report = (full_report(params) if verdict.stable
              else EntanglementReport(stable=False, steady=ss))
    warnings = validate_regime(params, ss, coupling)

    print("steady state:")
    for label, z in (("a1", ss.a1), ("a2", ss.a2), ("e", ss.e), ("n", ss.n)):
        print(f"  <{label}> = {z.real:+.6e} {z.imag:+.6e}j   (|{label}| = {abs(z):.4e})")
    print(f"  <x> = {ss.x_mean:+.6e}")
    print(f"  delta_n_tilde = {ss.delta_n_tilde / wd:+.6f} omega_d")
    print(f"stability: {'stable' if verdict.stable else 'UNSTABLE'} "
          f"(spectral abscissa {verdict.spectral_abscissa:+.4e} rad/s, "
          f"margin {verdict.margin:+.4e} rad/s)")
    for title, measure_ids in (
            ("bipartite log-negativities:", BIPARTITE_MEASURES),
            ("tripartite residual contangles (minimum over partitions):",
             TRIPARTITE_MEASURES)):
        print(title)
        for mid in measure_ids:
            value = report.measure(mid)
            print(f"  {mid:8s} = " + ("n/a" if value is None else f"{value:.6f}"))
    print("regime warnings:" + ("" if warnings else " none"))
    for w in warnings:
        print(f"  - {w}")

    write_json(out / "point.json", {
        "stable": report.stable,
        "spectral_abscissa_radps": verdict.spectral_abscissa,
        "margin_radps": verdict.margin,
        "steady_state": {
            "a1": _cplx(ss.a1), "a2": _cplx(ss.a2),
            "e": _cplx(ss.e), "n": _cplx(ss.n),
            "x": ss.x_mean,
            "delta_n_tilde_radps": ss.delta_n_tilde,
        },
        "bipartite": {mid: report.measure(mid) for mid in BIPARTITE_MEASURES},
        "tripartite": {
            mid: (None if mid not in report.partitions else {
                "partitions": report.partitions[mid],
                "r_min": report.values[mid],
            })
            for mid in TRIPARTITE_MEASURES
        },
        "warnings": warnings,
    })
    _write_sidecar(out, "point", cfg, args)
    return 0 if report.stable else 2


def _run_sweeps(args) -> int:
    """``sweep``, or with ``stability-map`` the same grids without measures."""
    cfg, params, _ = _resolve(args)
    specs = build_grid_specs(cfg, params)
    if not specs:
        raise ConfigError("the configuration defines no [sweep] section")
    out = _out_dir(args, *(name + ext for name, _ in specs
                           for ext in (".csv", ".csv.meta.json")))
    for name, spec in specs:
        if args.command == "stability-map":
            spec = replace(spec, measures=())
        progress = None
        if args.verbose:
            total = math.prod(a.points for a in spec.axes)
            progress = lambda done, total=total, name=name: print(
                f"[{name}] {done}/{total} rows", file=sys.stderr)
        result = run_grid(spec, progress=progress, workers=args.workers)
        destination = out / f"{name}.csv"
        emit_csv(result, destination)
        n_unstable = np.count_nonzero(result.codes == UNSTABLE)
        n_err = np.count_nonzero(result.codes == ERROR)
        print(f"wrote {destination} ({len(result.codes)} rows, "
              f"{n_unstable} unstable, {n_err} errors)")
    _write_sidecar(out, args.command, cfg, args)
    return 0


def cmd_optimize(args) -> int:
    cfg, params, _ = _resolve(args)
    spec = build_optimize_spec(cfg, seed_override=args.seed)
    out = _out_dir(args, "optimize_report.json", "optimize_trace.csv")
    try:
        report = maximize(spec, params, workers=args.workers)
    except OptimizeError as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return 2
    print(f"best {spec.measure} = {report.best_value:.6f} "
          f"after {report.evaluations} evaluations")
    for name, value in report.best_point.items():
        print(f"  {name} = {value:+.4f} omega_d")
    write_json(out / "optimize_report.json", {
        "measure": spec.measure,
        "seed": spec.seed,
        "best_value": report.best_value,
        "best_point_wd": report.best_point,
        "evaluations": report.evaluations,
        "restarts": report.restarts,
    })
    (out / "optimize_trace.csv").write_text("restart,best_value,nfev\n" + "".join(
        f"{i},{format(r['best_value'], '.9g')},{r['nfev']}\n"
        for i, r in enumerate(report.restarts)))
    _write_sidecar(out, "optimize", cfg, args)
    return 0


def cmd_tc(args) -> int:
    cfg, params, _ = _resolve(args)
    measure, t_max, tol = build_tc(cfg)
    out = _out_dir(args, "tc.json")
    try:
        t_c = critical_temperature(params, measure, t_max, tol=tol)
    except OptimizeError as exc:
        print(f"tc failed: {exc}", file=sys.stderr)
        # a NonMonotoneProfile carries the samples that show it
        for T, v in getattr(exc, "samples", ()):
            print(f"  T={T:.4f} K  {measure}={v:.6e}", file=sys.stderr)
        return 2
    # one decimal reads 0.0 below 0.05 mK; two significant digits do not
    tol_mk = f"{tol * 1e3:.1f}" if tol >= 5e-5 else f"{tol * 1e3:.2g}"
    print(f"critical temperature for {measure}: {t_c * 1e3:.1f} mK "
          f"(threshold 1e-4, tolerance {tol_mk} mK)")
    write_json(out / "tc.json",
               {"measure": measure, "T_c_K": t_c, "T_max_K": t_max, "tol_K": tol})
    _write_sidecar(out, "tc", cfg, args)
    return 0


# subcommand -> (handler, help)
_COMMANDS = {
    "point": (cmd_point, "evaluate every measure at one parameter point"),
    "sweep": (_run_sweeps, "run the configured parameter sweeps to CSV"),
    "optimize": (cmd_optimize, "maximize a measure over the configured box"),
    "tc": (cmd_tc, "critical temperature of the configured measure"),
    "stability-map": (_run_sweeps, "sweep the stability flag only"),
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_presets:
        for name in available_presets():
            print(name)
        return 0
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NO_STEADY_STATE as exc:
        print(f"no steady state: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
