#!/usr/bin/env python3
"""Run every bundled figure preset and collect the CSVs under one directory.

Usage:
    python scripts/reproduce_sweeps.py [--out DIR] [--workers N] [--only fig2a fig7 ...]
                                       [--digest PATH] [--compare PATH]

The full set is ~40 sweeps at figure resolution, run one after another; with
--workers N each sweep's grid chunks go to N forked processes.

--digest PATH writes a JSON manifest with the sha256 of every <name>.csv and
<name>.csv.meta.json the run wrote, keyed by its path under --out.
--compare PATH checks those digests against the entries of an earlier
manifest for the presets run and exits 1 if a file differs, is missing or is
new, so two runs (two checkouts, or two worker counts) can be shown
byte-identical:

    python scripts/reproduce_sweeps.py --only fig7 --workers 1 --digest a.json
    python scripts/reproduce_sweeps.py --only fig7 --workers 2 --compare a.json

scripts/fig_digests.json is the manifest of all 62 fig* outputs; CI checks
every run against it:

    python scripts/reproduce_sweeps.py --workers 2 --compare scripts/fig_digests.json
"""
import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from cavmag.cli import main as cavmag_main
from cavmag.config import available_presets

FIGURE_PRESETS = [name for name in available_presets() if name.startswith("fig")]


def digests(out: Path, presets) -> dict[str, str]:
    """sha256 of every sweep CSV and sidecar the presets wrote under out."""
    files = sorted(path for preset in presets
                   for pattern in ("*.csv", "*.csv.meta.json")
                   for path in (out / preset).glob(pattern))
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files}


def differences(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """One line per file whose digest differs from, or is absent in, the other."""
    lines = []
    for name in sorted(got.keys() | want.keys()):
        if name not in got:
            lines.append(f"missing  {name}")
        elif name not in want:
            lines.append(f"new      {name}")
        elif got[name] != want[name]:
            lines.append(f"differs  {name}")
    return lines


def config_error(option: str, path: str, exc: Exception) -> int:
    """Report a path that cannot be used as cavmag reports a bad --out: one
    line before any preset runs, and exit status 1."""
    print(f"config error: {option} {path}: {getattr(exc, 'strerror', None) or exc}",
          file=sys.stderr)
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="figure-sweeps")
    ap.add_argument("--workers", type=int, default=1,
                    help="processes per sweep, passed on to cavmag "
                         "(default 1)")
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of presets (default: every fig* preset)")
    ap.add_argument("--digest", metavar="PATH",
                    help="write the sha256 of every CSV and sidecar to PATH")
    ap.add_argument("--compare", metavar="PATH",
                    help="exit 1 unless the digests equal those in PATH")
    args = ap.parse_args()

    presets = args.only if args.only else FIGURE_PRESETS
    if args.compare:
        try:
            recorded = json.loads(Path(args.compare).read_text())
            if not isinstance(recorded, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:  # missing, unreadable or not a manifest
            return config_error("--compare", args.compare, exc)
        want = {name: digest for name, digest in recorded.items()
                if name.split("/")[0] in presets}
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # as cavmag reports it, once rather than per preset
        return config_error("--out", args.out, exc)
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
    manifest = digests(Path(args.out), presets)
    if args.digest:
        Path(args.digest).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"{len(manifest)} digests written to {args.digest}")
    if args.compare:
        lines = differences(manifest, want)
        for line in lines:
            print(line, file=sys.stderr)
        if lines:
            return 1
        print(f"{len(manifest)} files identical to {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
