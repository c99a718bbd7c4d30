#!/usr/bin/env python3
"""Run every bundled figure preset and collect the CSVs under one directory.

Usage:
    python scripts/reproduce_sweeps.py [--out DIR] [--workers N] [--only fig2a fig7 ...]

The full set is ~40 sweeps at figure resolution, run one after another; with
--workers N each sweep's grid chunks go to N forked processes.
"""
import argparse
import sys
import time
from pathlib import Path

from cavmag.cli import main as cavmag_main
from cavmag.config import available_presets

FIGURE_PRESETS = [name for name in available_presets() if name.startswith("fig")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figure-sweeps")
    ap.add_argument("--workers", type=int, default=1,
                    help="processes per sweep, passed on to cavmag "
                         "(default 1)")
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of presets (default: every fig* preset)")
    args = ap.parse_args()

    presets = args.only if args.only else FIGURE_PRESETS
    failures = []
    for preset in presets:
        out = Path(args.out) / preset
        t0 = time.time()
        code = cavmag_main(["sweep", "--preset", preset,
                            "--out", str(out), "--workers", str(args.workers)])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{preset:10s} {status:8s} {time.time() - t0:6.1f} s")
        if code != 0:
            failures.append(preset)
    if failures:
        print(f"failed presets: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
