"""Grid evaluation of entanglement measures with figure-ready CSV output.

Axis values are dimensionless (units of omega_d) except the temperature axis,
which is kelvin.  Each axis value passes the parameter checks once; points
are then evaluated in consecutive chunks of CHUNK (1000) as arrays of
parameter fields (gaussian.evaluate_chunk), with one stacked measure
eigen-solve per block size.  A chunk returns columns: an int8 verdict code
per row, one float64 array per measure and its errors by row number, which
run_grid joins in row-major order over the axes into a SweepResult.  With
``workers > 1`` the chunks run on a pool of forked processes; the columns
are equal either way, and for every chunk size.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .gaussian import MEASURE_IDS, NO_STEADY_STATE, _lapack, evaluate_chunk
from .model import EPS0, FIELDS, HBAR, KB, SystemParams, updated_in_omega_d_units

# Grid points per chunk: per stacked stability solve and per progress report.
# The array mean field costs a fixed ~5 ms per chunk, which a larger chunk
# shares over more points (serial perfbench/scmap.ini map on 2 cores: 705-770
# ms at 200, 542-554 at 500, 503-514 at 1000).  It is fixed, not set from the
# worker count, so that rows and progress calls are the same for any count.
CHUNK = 1000

# The most rows a grid may have, about 1000x the largest preset grid (10 201
# rows); GridSpec checks it, so no axis makes its values beyond it.
MAX_ROWS = 10**7

# A row's verdict code in SweepResult.codes.  An error row errored before its
# verdict or, in a grid with measures, after it (its diffusion, Lyapunov
# solve or measures).
UNSTABLE, STABLE, ERROR = 0, 1, -1

SWEEP_PARAMS = ("delta_1", "delta_2", "delta_e", "delta_n_tilde", "J", "T", "delta_a")
LINKAGES = ("independent", "symmetric", "antisymmetric")


class SweepSpecError(ValueError):
    pass


@dataclass(frozen=True)
class Axis:
    param: str
    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise SweepSpecError(
                f"unknown sweep parameter {self.param!r}; "
                f"choose from {SWEEP_PARAMS}"
            )
        if self.points < 2:
            raise SweepSpecError(
                f"axis {self.param!r} needs at least 2 points, got {self.points}"
            )
        # an infinite or NaN bound, or a span beyond the float range
        if not math.isfinite(self.hi - self.lo):
            raise SweepSpecError(
                f"axis {self.param!r} needs a finite range, got [{self.lo}, {self.hi}]"
            )
        if not self.lo < self.hi:
            raise SweepSpecError(
                f"axis {self.param!r} needs lo < hi, got [{self.lo}, {self.hi}]"
            )

    def values(self) -> list[float]:
        step = (self.hi - self.lo) / (self.points - 1)
        return [self.lo + i * step for i in range(self.points)]


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[Axis, ...]
    base: SystemParams
    linkage: str = "independent"
    measures: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise SweepSpecError("a grid has one or two axes")
        rows = math.prod(a.points for a in self.axes)
        if rows > MAX_ROWS:
            raise SweepSpecError(
                f"the grid has {rows} rows, over the bound of {MAX_ROWS} rows per grid"
            )
        if self.linkage not in LINKAGES:
            raise SweepSpecError(
                f"unknown linkage {self.linkage!r}; choose from {LINKAGES}"
            )
        axis_params = [a.param for a in self.axes]
        if len(set(axis_params)) != len(axis_params):
            raise SweepSpecError("axes must sweep distinct parameters")
        for mid in self.measures:
            if mid not in MEASURE_IDS:
                raise SweepSpecError(
                    f"unknown measure id {mid!r}; choose from {MEASURE_IDS}"
                )
        if len(set(self.measures)) != len(self.measures):
            raise SweepSpecError("measures must be distinct")
        if "delta_a" in axis_params and self.linkage == "independent":
            raise SweepSpecError(
                "a delta_a axis requires symmetric or antisymmetric linkage"
            )
        if self.linkage != "independent":
            for bad in ("delta_1", "delta_2"):
                if bad in axis_params:
                    raise SweepSpecError(
                        f"axis {bad!r} conflicts with linkage {self.linkage!r}; "
                        "sweep delta_a instead"
                    )
            # without a delta_a axis the base detunings carry the linkage
            if "delta_a" not in axis_params:
                if self.linkage == "symmetric" and self.base.delta_1 != self.base.delta_2:
                    raise SweepSpecError(
                        "symmetric linkage without a delta_a axis requires "
                        "base.delta_1 == base.delta_2"
                    )
                if self.linkage == "antisymmetric" and self.base.delta_1 != -self.base.delta_2:
                    raise SweepSpecError(
                        "antisymmetric linkage without a delta_a axis requires "
                        "base.delta_1 == -base.delta_2"
                    )

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(a.param for a in self.axes) + ("stable",) + self.measures


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A grid's rows as columns, in row-major order over the axes: row i of a
    two-axis grid is at ``axis_values[0][i // n]`` and ``axis_values[1][i %
    n]``, n the points of the second axis."""

    columns: tuple[str, ...]  # the CSV header: axis params, "stable", measure ids
    axis_values: tuple[list, ...]  # each axis's values, as Axis.values gives them
    codes: np.ndarray  # (rows,) int8: STABLE, UNSTABLE or ERROR
    measures: dict  # measure id -> (rows,) float64, NaN off the STABLE rows
    errors: dict  # row -> the message of its error, for each ERROR row, ascending
    metadata: dict = field(default_factory=dict)


def _axis_values(spec: GridSpec, param: str, value: float) -> dict[str, float]:
    """One axis value by parameter name, delta_a expanded by the linkage."""
    if param != "delta_a":
        return {param: value}
    # antisymmetric: delta_a = -delta_1 = delta_2
    return {"delta_1": value if spec.linkage == "symmetric" else -value, "delta_2": value}


def _point_values(spec: GridSpec, axis_values) -> dict[str, float]:
    """Axis values by parameter name, with delta_a expanded by the linkage."""
    return {name: v for axis, value in zip(spec.axes, axis_values)
            for name, v in _axis_values(spec, axis.param, value).items()}


def _field_row(p: SystemParams) -> np.ndarray:
    return np.array([getattr(p, name) for name in FIELDS], dtype=float)


class _AxisTable(NamedTuple):
    """The parameter fields that one axis sets, per axis value."""

    values: list  # the axis values, as grid_points gives them
    fields: tuple  # the SystemParams fields that the axis changes
    columns: np.ndarray  # (n_values, n_fields) their values
    valid: np.ndarray  # (n_values,) whether the value passes the parameter checks


def _axis_table(spec: GridSpec, axis: Axis) -> _AxisTable:
    """Each value of the axis applied alone to the base, through the checks
    and derivations of SystemParams.  Every check concerns one field or one
    carrier and its detuning, and no field depends on two axes, so a point
    passes exactly when all its axis values do, and its fields are the
    base's with each axis's fields set from that axis's table."""
    values = axis.values()
    base = _field_row(spec.base)
    rows, valid = [], []
    for value in values:
        try:
            rows.append(_field_row(updated_in_omega_d_units(
                spec.base, _axis_values(spec, axis.param, value))))
            valid.append(True)
        except NO_STEADY_STATE:
            rows.append(base)
            valid.append(False)
    rows = np.array(rows)
    # the fields whose bits differ from the base's at some value
    changed = (rows.view(np.int64) != base.view(np.int64)).any(axis=0)
    return _AxisTable(values, tuple(np.array(FIELDS)[changed].tolist()),
                      rows[:, changed], np.array(valid))


def _chunk_columns(spec: GridSpec, tables, chunk: range):
    """The consecutive grid points numbered by ``chunk`` (row-major) as
    columns: their int8 verdict codes, one float64 array per measure id (NaN
    where a point has no value) and ``{row: message}`` for the points that
    have no usable steady state.  A point with an axis value that failed the
    parameter checks gets the error that building its parameters raises; the
    others are evaluated together."""
    index = np.arange(chunk.start, chunk.stop)
    at_axis = [index] if len(tables) == 1 else list(np.divmod(index, len(tables[1].values)))
    valid = np.logical_and.reduce([t.valid[at] for t, at in zip(tables, at_axis)])
    codes = np.full(len(index), ERROR, dtype=np.int8)
    values = np.full((len(index), len(spec.measures)), np.nan)
    errors = {}
    for i in np.flatnonzero(~valid).tolist():
        point = tuple(t.values[at[i]] for t, at in zip(tables, at_axis))
        try:
            updated_in_omega_d_units(spec.base, _point_values(spec, point))
        except NO_STEADY_STATE as exc:
            errors[chunk.start + i] = str(exc)
        else:
            raise RuntimeError(f"grid point {point} passes the parameter checks "
                               "that one of its axis values failed")
    ok = np.flatnonzero(valid)
    fields = {name: np.full(len(ok), v) for name, v in zip(FIELDS, _field_row(spec.base))}
    for t, at in zip(tables, at_axis):
        fields.update(zip(t.fields, t.columns.T[:, at[ok]]))
    out = evaluate_chunk(SimpleNamespace(**fields), spec.measures)
    codes[ok] = out.stable
    values[ok] = out.values
    failed = list(out.errors)
    codes[ok[failed]] = ERROR
    errors.update((chunk.start + int(ok[j]), str(out.errors[j])) for j in failed)
    return codes, dict(zip(spec.measures, values.T)), dict(sorted(errors.items()))


def grid_points(spec: GridSpec):
    """Row-major cartesian product of the axis values."""
    if len(spec.axes) == 1:
        return [(v,) for v in spec.axes[0].values()]
    outer, inner = spec.axes
    return [(u, v) for u in outer.values() for v in inner.values()]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid(spec: GridSpec, progress: "callable | None" = None,
             workers: int = 1) -> SweepResult:
    """Evaluate the requested measures at every grid point, in row-major order.

    Each axis value passes the parameter checks once.  Points then go
    through in chunks of ``CHUNK`` as arrays of parameter fields: the mean
    fields and drifts of the chunk, one stacked stability verdict, the
    Lyapunov solves of the stable points, then their measures from one
    stacked eigen-solve per block size.  A chunk returns its rows' verdict
    codes, measure columns and errors, and the chunks are joined in order
    into the SweepResult.  A grid without measures stops at the verdict: it
    has no measure columns, and no diffusion or Lyapunov solve can make its
    rows error rows.  ``progress`` (if given) is called with the number of
    completed rows after each chunk, that is every ``CHUNK`` rows and once
    after the last row.

    ``workers > 1`` evaluates the chunks on a pool of forked processes, at
    most one per chunk and per CPU this process may use; results come back
    in chunk order, so the columns and progress calls are those of a serial
    run.  Without a ``fork`` start method (or with one process) the chunks
    run here, one after another, and the pool modules are not imported.  An
    exception other than a point's ``NO_STEADY_STATE`` error reaches the
    caller with its type.
    """
    if workers < 1:
        raise SweepSpecError(f"workers must be at least 1, got {workers}")
    tables = [_axis_table(spec, axis) for axis in spec.axes]
    total = math.prod(axis.points for axis in spec.axes)
    chunks = [range(start, min(start + CHUNK, total)) for start in range(0, total, CHUNK)]
    n = min(workers, len(chunks), _usable_cpus())
    pool = None
    if n > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            if spec.measures:
                _lapack()  # LAPACK is bound here once, not in every worker
            pool = ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"))
    mapper = map if pool is None else pool.map
    parts = []
    try:
        for chunk, part in zip(chunks, mapper(partial(_chunk_columns, spec, tables), chunks)):
            parts.append(part)
            if progress is not None:
                progress(chunk.stop)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    metadata = {
        **sidecar_head(),
        "base_params": spec.base.as_dict(),
        "grid": {
            "axes": [
                {"param": a.param, "lo": a.lo, "hi": a.hi, "points": a.points}
                for a in spec.axes
            ],
            "linkage": spec.linkage,
            "measures": list(spec.measures),
        },
        "axis_units": {
            a.param: ("K" if a.param == "T" else "omega_d") for a in spec.axes
        },
    }
    codes, values, errors = zip(*parts)
    return SweepResult(columns=spec.columns, axis_values=tuple(t.values for t in tables),
                       codes=np.concatenate(codes),
                       measures={mid: np.concatenate([v[mid] for v in values])
                                 for mid in spec.measures},
                       errors={row: e for part in errors for row, e in part.items()},
                       metadata=metadata)


def sidecar_head() -> dict:
    """The tool, its version and the physical constants, atop every sidecar."""
    return {"tool": "cavmag", "version": __version__,
            "constants": {"hbar_J_s": HBAR, "k_B_J_per_K": KB, "eps0_F_per_m": EPS0}}


def write_json(path: Path, record: dict) -> None:
    """``record`` as indented JSON with sorted keys, as every output file is."""
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


# the CSV stable cell by verdict code: ERROR (-1) picks the last, empty
_FLAGS = ("0", "1", "")


def emit_csv(result: SweepResult, destination) -> None:
    """Write the sweep table (9 significant digits) plus a metadata sidecar.

    Each axis value is formatted once and shared by the rows that have it;
    the stable cells come from the verdict codes, the measure cells from the
    measure columns.  Unstable and errored points leave their measure cells
    empty, so plots can distinguish "no entanglement" from "no steady state".
    """
    destination = Path(destination)
    axis_cells = [[format(v, ".9g") for v in values] for values in result.axis_values]
    codes = result.codes.tolist()
    cells = [map(",".join, itertools.product(*axis_cells)), [_FLAGS[c] for c in codes]]
    for column in result.measures.values():
        cells.append([format(v, ".9g") if c == STABLE else ""
                      for v, c in zip(column.tolist(), codes)])
    lines = [",".join(result.columns), *map(",".join, zip(*cells))]
    destination.write_text("\n".join(lines) + "\n")
    write_json(destination.with_name(destination.name + ".meta.json"), result.metadata)
