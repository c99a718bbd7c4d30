#!/usr/bin/env python3
"""Re-derive the four optimized operating points and their critical
temperatures, printing a summary table.

Usage:
    python scripts/operating_points.py [--seed N]

With the presets' own seeds it prints scripts/operating_points.txt.
"""
import argparse
import sys

from cavmag.config import (
    ConfigError,
    build_optimize_spec,
    build_system,
    build_tc,
    load_layers,
)
from cavmag.model import updated_in_omega_d_units
from cavmag.optimize import OptimizeError, critical_temperature, maximize

PRESETS = ("table2_a1n", "table2_a1d", "table2_ne", "table2_de")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    try:
        cfgs = [load_layers(preset=preset) for preset in PRESETS]
        configs = [(build_system(cfg), build_optimize_spec(cfg, seed_override=args.seed),
                    build_tc(cfg)) for cfg in cfgs]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    print(f"{'preset':12s} {'measure':8s} {'best':>8s} "
          f"{'d1':>6s} {'d2':>6s} {'dnt':>6s} {'de':>6s} {'J':>5s} {'T_c':>8s}")
    for preset, (base, spec, (measure, t_max, tol)) in zip(PRESETS, configs):
        report = maximize(spec, base)
        bp = report.best_point
        at_best = updated_in_omega_d_units(base, bp)
        try:
            t_c = f"{critical_temperature(at_best, measure, t_max, tol=tol) * 1e3:6.1f}mK"
        except OptimizeError as exc:
            t_c = f"({exc})"
        print(f"{preset:12s} {spec.measure:8s} {report.best_value:8.4f} "
              f"{bp['delta_1']:+6.2f} {bp['delta_2']:+6.2f} "
              f"{bp['delta_n_tilde']:+6.2f} {bp['delta_e']:+6.2f} "
              f"{bp['J']:5.2f} {t_c:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
