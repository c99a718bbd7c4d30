import concurrent.futures
import contextlib
import dataclasses
import itertools
import math
import multiprocessing
from typing import NamedTuple

import numpy as np
import pytest

from cavmag import config, dynamics, gaussian, optimize, sweep
from cavmag.dynamics import (
    SteadyStateError,
    diffusion_matrix,
    drift_matrix,
    steady_state,
)
from cavmag.gaussian import (
    MEASURE_IDS,
    NO_STEADY_STATE,
    evaluate_chunk,
    lyapunov_solve,
    measure_values,
    steady_covariance,
)
from cavmag.model import FIELDS, ParameterError, SystemParams, updated_in_omega_d_units
from cavmag.sweep import (
    ERROR,
    MAX_ROWS,
    STABLE,
    UNSTABLE,
    Axis,
    GridSpec,
    SweepSpecError,
    _point_values,
    emit_csv,
    grid_points,
    run_grid,
)

from conftest import (draw_params, failing_gees, param_arrays, sample_stable_params,
                      verdict_of)

WD = SystemParams().omega_d
CHUNK = sweep.CHUNK  # run_grid's chunk size, before a test sets another


@pytest.fixture
def chunk_200(monkeypatch):
    """Chunks of 200 points, the size these tests count with: their grids
    cross chunk boundaries and start pools as they did at that size
    (forked workers inherit it)."""
    monkeypatch.setattr(sweep, "CHUNK", 200)


def small_spec(**kw):
    defaults = dict(
        axes=(Axis("delta_a", -1.5, 0.5, 3), Axis("delta_n_tilde", 0.7, 1.1, 2)),
        base=SystemParams(),
        linkage="antisymmetric",
        measures=("EN_de", "EN_ne"),
    )
    defaults.update(kw)
    return GridSpec(**defaults)


def scmap_grid(measures=()):
    """perfbench/scmap.ini subsampled from 121x81 to 25x17 points: the
    magnon detuning is left to the mean-field loop."""
    base = SystemParams(delta_n=0.0, delta_n_tilde_override=None)
    return GridSpec(axes=(Axis("delta_a", -2.5, 2.5, 25), Axis("J", 0.2, 1.8, 17)),
                    base=base, linkage="antisymmetric", measures=measures)


class Row(NamedTuple):
    """One grid row, as the per-point reference gives it."""

    axis_values: tuple
    stable: bool | None  # None for an error row
    measures: dict | None  # None off the stable rows
    error: str | None = None


def rows_of(result):
    """The Rows of a columnar SweepResult, in row-major order."""
    points = itertools.product(*result.axis_values)
    return [Row(pt, None, None, result.errors[i]) if code == ERROR
            else Row(pt, False, None) if code == UNSTABLE
            else Row(pt, True, {mid: float(column[i]) for mid, column in result.measures.items()})
            for i, (pt, code) in enumerate(zip(points, result.codes.tolist()))]


def bits(result):
    """Everything a SweepResult holds but its metadata, measure values as
    their float64 bits, so that equal means bit for bit."""
    assert result.codes.dtype == np.int8
    assert all(column.dtype == np.float64 for column in result.measures.values())
    return (result.columns, repr(result.axis_values), result.codes.tolist(),
            {mid: column.view(np.int64).tolist() for mid, column in result.measures.items()},
            result.errors)


def count(result, code):
    return np.count_nonzero(result.codes == code)


class TestGridSpecValidation:
    def test_point_count_floor(self):
        with pytest.raises(SweepSpecError, match="at least 2"):
            Axis("J", 0.2, 1.0, 1)

    def test_range_ordering(self):
        with pytest.raises(SweepSpecError, match="lo < hi"):
            Axis("J", 1.0, 0.2, 5)

    @pytest.mark.parametrize("lo, hi", [(0.0, float("inf")), (float("-inf"), 1.0),
                                        (float("nan"), 1.0), (0.0, float("nan")),
                                        (-1e308, 1e308)])
    def test_range_must_be_finite(self, lo, hi):
        # an infinite bound or span would make the step inf and an axis
        # value NaN
        with pytest.raises(SweepSpecError, match="'T' needs a finite range"):
            Axis("T", lo, hi, 3)

    def test_unknown_parameter(self):
        with pytest.raises(SweepSpecError, match="unknown sweep parameter"):
            Axis("delta_q", 0.0, 1.0, 3)

    def test_unknown_measure(self):
        with pytest.raises(SweepSpecError, match="unknown measure"):
            small_spec(measures=("EN_zz",))

    def test_delta_a_requires_linkage(self):
        with pytest.raises(SweepSpecError, match="linkage"):
            small_spec(linkage="independent")

    def test_linked_grid_rejects_individual_cavity_axes(self):
        with pytest.raises(SweepSpecError, match="delta_1"):
            GridSpec(axes=(Axis("delta_1", -1.0, 1.0, 3),),
                     base=SystemParams(), linkage="symmetric")

    @pytest.mark.parametrize("kw, message", [
        pytest.param(dict(linkage="sideways"), "unknown linkage 'sideways'", id="linkage"),
        pytest.param(dict(axes=(Axis("J", 0.2, 1.0, 3), Axis("J", 0.4, 0.8, 3))),
                     "axes must sweep distinct parameters", id="repeated-axis"),
        # without a delta_a axis the base detunings must obey the linkage
        pytest.param(dict(axes=(Axis("J", 0.2, 1.0, 3),), linkage="symmetric",
                          base=SystemParams().updated(delta_1=1.0, delta_2=2.0)),
                     "symmetric linkage without a delta_a axis requires "
                     "base.delta_1 == base.delta_2", id="symmetric-base"),
        pytest.param(dict(axes=(Axis("J", 0.2, 1.0, 3),), linkage="antisymmetric",
                          base=SystemParams().updated(delta_1=1.0, delta_2=1.0)),
                     "antisymmetric linkage without a delta_a axis requires "
                     "base.delta_1 == -base.delta_2", id="antisymmetric-base"),
    ])
    def test_inconsistent_spec(self, kw, message):
        with pytest.raises(SweepSpecError, match=f"^{message}"):
            small_spec(**kw)

    def test_three_axes_rejected(self):
        with pytest.raises(SweepSpecError, match="one or two"):
            GridSpec(axes=(Axis("J", 0.2, 1.0, 3),) * 3, base=SystemParams())

    def test_row_bound(self):
        # the specs are built without making any axis values
        with pytest.raises(SweepSpecError, match=f"the grid has 100000000000 rows, "
                                                 f"over the bound of {MAX_ROWS} rows"):
            GridSpec(axes=(Axis("J", 0.2, 1.0, 10**11),), base=SystemParams())
        with pytest.raises(SweepSpecError, match=f"the grid has {MAX_ROWS + 10**4} rows, "
                                                 f"over the bound of {MAX_ROWS} rows"):
            GridSpec(axes=(Axis("J", 0.2, 1.0, MAX_ROWS // 10**4 + 1),
                           Axis("T", 0.0, 0.1, 10**4)), base=SystemParams())
        at_bound = GridSpec(axes=(Axis("J", 0.2, 1.0, MAX_ROWS // 10**4),
                                  Axis("T", 0.0, 0.1, 10**4)), base=SystemParams())
        assert math.prod(a.points for a in at_bound.axes) == MAX_ROWS == 10**7


class TestRunGrid:
    def test_decoupled_grid_is_all_zero(self):
        base = SystemParams(J=0.0, G_ae=0.0, g_na=0.0, G_nd=0.0)
        spec = GridSpec(
            axes=(Axis("delta_e", -1.0, 1.0, 2), Axis("delta_n_tilde", 0.5, 1.0, 2)),
            base=base, measures=("EN_de", "EN_ne", "EN_a1a2"))
        result = run_grid(spec)
        assert result.codes.tolist() == [STABLE] * 4
        assert list(result.measures) == ["EN_de", "EN_ne", "EN_a1a2"]
        assert all((column < 1e-12).all() for column in result.measures.values())

    def test_row_major_order_and_row_count(self):
        spec = small_spec()
        rows = rows_of(run_grid(spec))
        assert len(rows) == 6
        assert [r.axis_values for r in rows] == grid_points(spec)
        assert rows[0].axis_values == (-1.5, 0.7)
        assert rows[1].axis_values == (-1.5, 1.1)

    def test_antisymmetric_linkage_is_exact(self):
        spec = small_spec()
        for pt in grid_points(spec):
            p = updated_in_omega_d_units(spec.base, _point_values(spec, pt))
            assert p.delta_1 == -p.delta_2
            assert p.delta_2 == pt[0] * WD
            assert p.delta_n_tilde_override == pt[1] * WD

    def test_symmetric_linkage_is_exact(self):
        spec = small_spec(linkage="symmetric")
        for pt in grid_points(spec):
            p = updated_in_omega_d_units(spec.base, _point_values(spec, pt))
            assert p.delta_1 == p.delta_2 == pt[0] * WD

    def test_temperature_axis_in_kelvin(self):
        spec = GridSpec(axes=(Axis("T", 0.001, 0.101, 3),), base=SystemParams())
        values = _point_values(spec, (0.051,))
        assert updated_in_omega_d_units(spec.base, values).T == 0.051

    def test_unstable_points_have_empty_measures(self):
        base = SystemParams().updated(delta_1=-1.41 * WD, delta_2=-0.68 * WD,
                                      delta_e=-1.63 * WD, J=0.35 * WD)
        spec = GridSpec(axes=(Axis("delta_n_tilde", -0.66, -0.64, 3),),
                        base=base, measures=("EN_a1n",))
        result = run_grid(spec)
        assert result.codes.tolist() == [UNSTABLE] * 3 and result.errors == {}
        assert np.isnan(result.measures["EN_a1n"]).all()

    @pytest.mark.usefixtures("chunk_200")
    @pytest.mark.parametrize("points, expected", [(450, [200, 400, 450]),
                                                  (200, [200]), (199, [199]),
                                                  (201, [200, 201])])
    def test_progress_every_200_rows_and_at_the_end(self, points, expected):
        spec = GridSpec(axes=(Axis("J", 0.2, 1.0, points),), base=SystemParams())
        calls = []
        run_grid(spec, progress=calls.append)
        assert calls == expected

    def test_no_steady_state_becomes_an_error_row(self, monkeypatch):
        real = gaussian.steady_states

        def fail(f):
            return real(f)[0], {i: SteadyStateError("singular denominator")
                                for i in range(len(f.omega_d))}
        monkeypatch.setattr(gaussian, "steady_states", fail)
        result = run_grid(small_spec())
        assert result.codes.tolist() == [ERROR] * 6
        assert result.errors == dict.fromkeys(range(6), "singular denominator")
        assert all(np.isnan(column).all() for column in result.measures.values())

    @pytest.mark.parametrize("axis, zeroed", [
        (Axis("delta_e", -1.0, 1.0, 3), dict(gamma_e=0.0)),
        (Axis("delta_n_tilde", -1.0, 1.0, 3), dict(kappa_n=0.0)),
    ])
    def test_zero_damping_resonance_is_an_error_row(self, axis, zeroed):
        spec = GridSpec(axes=(axis,), base=SystemParams(**zeroed),
                        measures=("EN_ne",))
        rows = rows_of(run_grid(spec))
        assert rows[1].axis_values == (0.0,)
        assert rows[1].stable is None and rows[1].measures is None
        assert "singular denominator" in rows[1].error
        assert rows[0].error is None and rows[2].error is None

    def test_programming_error_propagates(self, monkeypatch):
        def fail(f):
            raise TypeError("bug")
        monkeypatch.setattr(gaussian, "steady_states", fail)
        with pytest.raises(TypeError, match="bug"):
            run_grid(small_spec())

    def test_determinism(self):
        spec = small_spec()
        assert bits(run_grid(spec)) == bits(run_grid(spec))

    def test_metadata_carries_base_and_grid(self):
        result = run_grid(small_spec())
        assert result.metadata["base_params"]["J"] == pytest.approx(0.8 * WD)
        assert result.metadata["grid"]["linkage"] == "antisymmetric"
        assert result.metadata["axis_units"]["delta_a"] == "omega_d"


def reference_steady_covariance(p, drift=drift_matrix):
    """The scalar evaluation the chunk kernel and the one-point
    steady_covariance replaced: the point's own stability eigen-solve, then
    its Lyapunov solve if it is stable, as (ss, V)."""
    ss = steady_state(p)
    A = drift(p, ss)
    if not verdict_of(A, p.omega_d).stable:
        return ss, None
    return ss, lyapunov_solve(A, diffusion_matrix(p))


def reference_rows(spec):
    """The per-point loop the chunked engine replaced: one scalar evaluation
    per point, its own stability eigen-solve included."""
    rows = []
    for pt in grid_points(spec):
        try:
            p = updated_in_omega_d_units(spec.base, _point_values(spec, pt))
            _, V = reference_steady_covariance(p)
            if V is None:
                rows.append(Row(pt, stable=False, measures=None))
            else:
                rows.append(Row(pt, stable=True,
                                measures=measure_values(V, spec.measures)))
        except NO_STEADY_STATE as exc:
            rows.append(Row(pt, stable=None, measures=None, error=str(exc)))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    return format(value, ".9g")


def reference_csv(columns, rows) -> str:
    """The row-by-row CSV writer that emit_csv replaced, on Rows: every cell
    formatted where its row is written."""
    n_axes = columns.index("stable")
    lines = [",".join(columns)]
    for row in rows:
        cells = [_cell(v) for v in row.axis_values]
        cells.append("" if row.stable is None else ("1" if row.stable else "0"))
        for mid in columns[n_axes + 1:]:
            cells.append(_cell(None if row.measures is None else row.measures.get(mid)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def assert_rows_identical(spec):
    """run_grid equals the per-point reference row by row: the same axis
    values, verdicts and errors, and measure values with the same float64
    bits (so -0.0 for 0.0 fails); returns the counts of stable, unstable and
    error rows."""
    result, want = run_grid(spec), reference_rows(spec)
    # repr: a NaN axis value is not == to itself
    assert [repr(pt) for pt in itertools.product(*result.axis_values)] == \
        [repr(w.axis_values) for w in want]
    assert result.codes.tolist() == [ERROR if w.stable is None else int(w.stable)
                                     for w in want]
    assert result.errors == {i: w.error for i, w in enumerate(want) if w.error is not None}
    assert list(result.measures) == list(spec.measures)
    for mid, column in result.measures.items():
        reference = np.array([w.measures[mid] if w.stable else np.nan for w in want])
        assert column.dtype == reference.dtype == np.float64
        assert column.view(np.int64).tolist() == reference.view(np.int64).tolist(), mid
    return count(result, STABLE), count(result, UNSTABLE), count(result, ERROR)


class TestEngineMatchesPerPointReference:
    def test_self_consistent_stability_map(self):
        stable, unstable, _ = assert_rows_identical(scmap_grid(("EN_ne",)))
        assert stable > 20 and unstable > 20

    def test_pinned_grid_with_measures_and_unstable_rows(self):
        spec = GridSpec(axes=(Axis("delta_a", -2.0, 1.0, 12),
                              Axis("delta_n_tilde", -0.8, 1.6, 10)),
                        base=SystemParams(), linkage="antisymmetric",
                        measures=("EN_de", "EN_ne", "EN_a1a2", "R_nde", "R_a1nd"))
        stable, unstable, _ = assert_rows_identical(spec)
        assert stable > 10 and unstable > 10

    def test_temperature_axis(self):
        spec = GridSpec(axes=(Axis("T", 0.0, 0.3, 7), Axis("J", 0.2, 1.6, 5)),
                        base=SystemParams(), measures=("EN_ne", "R_nde"))
        stable, _, _ = assert_rows_identical(spec)
        assert stable > 0

    def test_error_rows(self):
        # a negative temperature fails the parameter check; delta_e = 0 with
        # gamma_e = 0 makes the ensemble denominator vanish
        spec = GridSpec(axes=(Axis("T", -0.02, 0.02, 3), Axis("delta_e", -1.0, 1.0, 5)),
                        base=SystemParams(gamma_e=0.0), measures=("EN_de",))
        errors = run_grid(spec).errors
        assert "T must be non-negative" in errors[0]
        assert "singular denominator" in errors[7]
        _, _, n_errors = assert_rows_identical(spec)
        assert n_errors == 5 + 1 + 1

    def test_failed_eigen_solve_stays_on_its_point(self, monkeypatch):
        # a NaN entry in one drift of the stack fails the stacked eigen-solve;
        # the other points keep their covariances
        real = gaussian.drift_matrix

        def one_nan(f, mean):
            A = real(f, mean)
            A[1, 7, 5] = np.nan
            return A
        monkeypatch.setattr(gaussian, "drift_matrix", one_nan)
        ps = [SystemParams(), SystemParams(G_nd=0.5 * SystemParams().G_nd),
              SystemParams(J=1.2 * WD)]
        out = evaluate_chunk(param_arrays(ps), ("EN_ne",))
        assert list(out.errors) == [1]
        assert isinstance(out.errors[1], np.linalg.LinAlgError)
        assert out.solved.tolist() == [0, 2]
        for k, V in zip(out.solved.tolist(), out.covariances):
            np.testing.assert_array_equal(V, reference_steady_covariance(ps[k])[1])

    def test_chunk_without_a_valid_point(self):
        # every point fails the parameter check, so the drift stack is empty
        spec = GridSpec(axes=(Axis("T", -0.3, -0.1, 3),), base=SystemParams(),
                        measures=("EN_ne",))
        result = run_grid(spec)
        assert result.codes.tolist() == [ERROR] * 3
        assert all("T must be non-negative" in e for e in result.errors.values())
        _, _, n_errors = assert_rows_identical(spec)
        assert n_errors == 3
        out = evaluate_chunk(param_arrays([]), ("EN_ne",))
        assert out.covariances.shape == (0, 10, 10) and out.errors == {}

    @pytest.mark.parametrize("axes", [
        (Axis("T", -0.02, 0.02, 3), Axis("J", 0.2, 1.4, 4)),
        # finite axis values whose delta_e in rad/s is not: 0, inf, inf
        (Axis("J", 0.2, 1.4, 3), Axis("delta_e", 0.0, 1e301, 3)),
        (Axis("T", -0.1, 0.1, 3), Axis("delta_e", 0.0, 1e301, 3)),
    ], ids=["negative", "infinite", "both-axes"])
    def test_axis_values_that_fail_the_parameter_checks(self, axes):
        spec = GridSpec(axes=axes, base=SystemParams(), measures=("EN_ne",))
        _, _, n_errors = assert_rows_identical(spec)
        assert n_errors > 0
        errors = set(run_grid(spec).errors.values())
        assert errors <= {"T must be non-negative", "delta_e must be finite, got inf"}

    def test_each_axis_value_is_checked_once(self, monkeypatch):
        # a 30x20 grid builds 50 parameter sets, not 600; a point with a
        # failing axis value rebuilds its own to take that error's text
        calls = []
        real = sweep.updated_in_omega_d_units

        def counted(base, values):
            calls.append(values)
            return real(base, values)

        monkeypatch.setattr(sweep, "updated_in_omega_d_units", counted)
        spec = GridSpec(axes=(Axis("delta_a", -2.0, 1.0, 30), Axis("J", 0.2, 1.6, 20)),
                        base=SystemParams(), linkage="antisymmetric")
        run_grid(spec)
        assert len(calls) == 30 + 20
        calls.clear()
        spec = GridSpec(axes=(Axis("T", -0.1, 0.1, 5), Axis("J", 0.2, 1.6, 20)),
                        base=SystemParams())
        result = run_grid(spec)
        assert len(calls) == 5 + 20 + 2 * 20
        assert count(result, ERROR) == len(result.errors) == 2 * 20

    @pytest.mark.usefixtures("chunk_200")
    def test_fig7_type_grid(self):
        # the fig7 preset's seven pair measures over its 726 points (four
        # chunks, each with one stacked pair eigen-solve for all its stable
        # points), with the magnon detuning moved to 0.2 so that a fifth
        # of the points is unstable
        cfg = config.load_layers(preset="fig7")
        ((_, spec),) = config.build_grid_specs(cfg, config.build_system(cfg))
        spec = dataclasses.replace(
            spec, base=spec.base.updated(delta_n_tilde_override=0.2 * WD))
        assert len(spec.measures) == 7 and len(grid_points(spec)) > 3 * sweep.CHUNK
        stable, unstable, _ = assert_rows_identical(spec)
        assert stable > 100 and unstable > 100

    @pytest.mark.usefixtures("chunk_200")
    def test_one_stacked_solve_per_block_size_per_chunk(self, monkeypatch):
        spec = GridSpec(axes=(Axis("delta_n_tilde", 0.5, 1.5, 2 * sweep.CHUNK),),
                        base=SystemParams(), measures=("EN_ne", "R_nde"))
        want = run_grid(spec)
        assert (want.codes == STABLE).all()
        stacks = []
        real = dynamics._geev

        def counted(a, signature):
            stacks.append(a.shape)
            return real(a, signature=signature)

        monkeypatch.setattr(dynamics, "_geev", counted)
        assert bits(run_grid(spec)) == bits(want)
        # per chunk: the drifts, the three pairs of n-d-e (n-e among
        # them) and the three splits of n-d-e
        assert stacks == [(sweep.CHUNK, 10, 10), (3 * sweep.CHUNK, 4, 4),
                          (3 * sweep.CHUNK, 6, 6)] * 2

    def test_unpaired_covariance_is_its_own_error_row(self, monkeypatch):
        # one point's a1-a2 block loses its symplectic pairing: the chunk's
        # pair stack raises, and the per-point fallback puts the error on
        # that row alone
        spec = GridSpec(axes=(Axis("delta_n_tilde", 0.5, 1.5, 30),), base=SystemParams(),
                        measures=("EN_a1a2", "EN_ne", "R_nde"))
        want = run_grid(spec)
        assert (want.codes == STABLE).all()  # so covariance 7 is that of point 7
        real = gaussian._lyapunov_solves

        def one_unpaired(A, D):
            V, solved, errors = real(A, D)
            V[solved.tolist().index(7), 0, 3] += 50.0
            return V, solved, errors

        monkeypatch.setattr(gaussian, "_lyapunov_solves", one_unpaired)
        got = run_grid(spec)
        assert got.codes[7] == ERROR and list(got.errors) == [7]
        assert "pairing" in got.errors[7]
        assert all(np.isnan(column[7]) for column in got.measures.values())
        others = np.arange(30) != 7
        assert got.codes[others].tolist() == want.codes[others].tolist()
        for mid, column in got.measures.items():
            assert column[others].view(np.int64).tolist() == \
                want.measures[mid][others].view(np.int64).tolist()

    def test_grid_without_measures_makes_no_measure_call(self, monkeypatch):
        def no_call(*args):
            raise AssertionError("measure call on a measure-less grid")

        monkeypatch.setattr(gaussian, "_measures", no_call)
        result = run_grid(small_spec(measures=()))
        assert result.measures == {}
        assert count(result, STABLE) > 0

    @pytest.mark.usefixtures("chunk_200")
    @pytest.mark.parametrize("points", [199, 200, 201, 450])
    def test_chunk_boundaries(self, points):
        spec = GridSpec(axes=(Axis("delta_n_tilde", -0.5, 1.5, points),),
                        base=SystemParams(), measures=("EN_ne",))
        stable, unstable, _ = assert_rows_identical(spec)
        assert stable > 0 and unstable > 0


@pytest.fixture
def pools(monkeypatch):
    """Counts the process pools run_grid builds, and lets it build one even
    on a single-CPU machine."""
    built = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    return built


def assert_pool_rows_equal(spec, pools):
    """A 2-worker run equals the serial run bit for bit; returns it."""
    serial = run_grid(spec, workers=1)
    assert bits(run_grid(spec, workers=2)) == bits(serial)
    assert pools == ([2] if len(serial.codes) > sweep.CHUNK else [])
    return serial


@pytest.mark.usefixtures("chunk_200")
class TestProcessPool:
    def test_pinned_grid_with_measures_and_unstable_rows(self, pools):
        spec = GridSpec(axes=(Axis("delta_a", -2.0, 1.0, 25),
                              Axis("delta_n_tilde", -0.8, 1.6, 17)),
                        base=SystemParams(), linkage="antisymmetric",
                        measures=("EN_de", "EN_ne", "EN_a1a2", "R_nde", "R_a1nd"))
        result = assert_pool_rows_equal(spec, pools)
        assert count(result, STABLE) > 20
        assert count(result, UNSTABLE) > 20

    def test_error_rows(self, pools):
        # a negative temperature fails the parameter check; delta_e = 0 with
        # gamma_e = 0 makes the ensemble denominator vanish
        spec = GridSpec(axes=(Axis("T", -0.02, 0.02, 3), Axis("delta_e", -1.0, 1.0, 101)),
                        base=SystemParams(gamma_e=0.0), measures=("EN_de",))
        errors = list(assert_pool_rows_equal(spec, pools).errors.values())
        assert len(errors) == 101 + 1 + 1
        assert sum("singular denominator" in e for e in errors) == 2

    @pytest.mark.parametrize("points", [199, 201, 450])
    def test_chunk_boundaries(self, points, pools):
        spec = GridSpec(axes=(Axis("delta_n_tilde", -0.5, 1.5, points),),
                        base=SystemParams(), measures=("EN_ne",))
        assert len(assert_pool_rows_equal(spec, pools).codes) == points

    def test_self_consistent_stability_map(self, pools):
        assert count(assert_pool_rows_equal(scmap_grid(), pools), UNSTABLE) > 20

    def test_progress_after_each_chunk(self, pools):
        spec = GridSpec(axes=(Axis("J", 0.2, 1.0, 450),), base=SystemParams())
        calls = []
        run_grid(spec, progress=calls.append, workers=2)
        assert calls == [200, 400, 450]
        assert pools == [2]

    def test_programming_error_propagates_from_a_worker(self, monkeypatch, pools):
        def fail(f):
            raise TypeError("bug")
        monkeypatch.setattr(gaussian, "steady_states", fail)
        spec = GridSpec(axes=(Axis("J", 0.2, 1.0, 450),), base=SystemParams())
        with pytest.raises(TypeError, match="bug"):
            run_grid(spec, workers=2)
        assert pools == [2]

    @pytest.mark.parametrize("points, workers", [(450, 1), (200, 2), (3, 8)])
    def test_no_pool_for_one_process(self, monkeypatch, points, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was built")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        spec = GridSpec(axes=(Axis("J", 0.2, 1.0, points),), base=SystemParams())
        assert len(run_grid(spec, workers=workers).codes) == points

    def test_workers_capped_by_chunks_and_cpus(self, pools, monkeypatch):
        spec = GridSpec(axes=(Axis("J", 0.2, 1.0, 450),), base=SystemParams())
        run_grid(spec, workers=8)
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 8)
        run_grid(spec, workers=8)
        assert pools == [2, 3]

    def test_serial_without_fork(self, monkeypatch, pools):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        spec = GridSpec(axes=(Axis("J", 0.2, 1.0, 450),), base=SystemParams())
        assert len(run_grid(spec, workers=2).codes) == 450
        assert pools == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(SweepSpecError, match="workers"):
            run_grid(small_spec(), workers=workers)


def strong_drive_grid():
    """A self-consistent grid around the third seed-62 strong-drive point of
    tests/test_dynamics.py: its small-J edge does not converge, and the
    array loop hands its last live points to the scalar loop."""
    rng = np.random.default_rng(62)
    for _ in range(3):
        base = draw_params(rng, SystemParams()).updated(
            delta_n_tilde_override=None, delta_n=rng.uniform(-1.0, 1.0) * WD,
            Omega_n=rng.uniform(1e11, 5e14))
    return GridSpec(axes=(Axis("delta_e", -2.0, 2.0, 21), Axis("J", 1.0, 1.6, 10)),
                    base=base, measures=("EN_ne",))


class TestRowsDoNotDependOnTheChunkSize:
    """Results are equal bit for bit for chunks of 7 points, of 200 and of
    run_grid's own size, each with 1 and with 2 workers."""

    def assert_same_rows(self, spec, monkeypatch, pools):
        runs = []
        for chunk in (7, 200, CHUNK):
            monkeypatch.setattr(sweep, "CHUNK", chunk)
            runs += [run_grid(spec, workers=workers) for workers in (1, 2)]
        assert all(bits(result) == bits(runs[0]) for result in runs[1:])
        assert pools and set(pools) == {2}  # 7-point chunks always start one
        return runs[0]

    def test_self_consistent_stability_map(self, monkeypatch, pools):
        result = self.assert_same_rows(scmap_grid(), monkeypatch, pools)
        assert count(result, UNSTABLE) > 20
        assert count(result, STABLE) > 20

    def test_strong_drive_with_errors_and_scalar_hand_offs(self, monkeypatch, pools):
        spec = strong_drive_grid()
        handed_off = []
        real = dynamics._iterate

        def counted(p, dnt, first):
            handed_off.append(first)
            return real(p, dnt, first)

        monkeypatch.setattr(dynamics, "_iterate", counted)
        result = self.assert_same_rows(spec, monkeypatch, pools)
        errors = list(result.errors.values())
        assert len(errors) >= 3
        assert all(e.startswith("non-convergent self-consistency") for e in errors)
        assert count(result, UNSTABLE) > 20
        assert count(result, STABLE) > 150
        # serial runs only: forked workers count in their own copy
        assert any(first > 1 for first in handed_off)

    def test_pinned_grid_with_measures(self, monkeypatch, pools):
        spec = GridSpec(axes=(Axis("delta_a", -2.0, 1.0, 21),
                              Axis("delta_n_tilde", -0.8, 1.6, 11)),
                        base=SystemParams(), linkage="antisymmetric",
                        measures=("EN_de", "EN_ne", "EN_a1a2", "R_nde", "R_a1nd"))
        result = self.assert_same_rows(spec, monkeypatch, pools)
        assert count(result, STABLE) > 20
        assert count(result, UNSTABLE) > 20


class TestGridWithoutMeasuresStopsAtTheVerdict:
    @pytest.mark.parametrize("spec", [scmap_grid(("EN_ne",)), strong_drive_grid()],
                             ids=["scmap", "strong-drive-with-error-rows"])
    def test_rows_are_the_measured_grid_verdicts(self, spec, monkeypatch):
        """Row for row, the stable flag and the error of the same grid with
        measures, and no diffusion or Lyapunov solve."""
        measured = run_grid(spec)
        for name in ("diffusion_matrices", "_lyapunov_solves"):
            monkeypatch.setattr(gaussian, name, lambda *args: pytest.fail("solved"))
        mapped = run_grid(dataclasses.replace(spec, measures=()))
        assert (mapped.axis_values, mapped.codes.tolist(), mapped.errors) == \
            (measured.axis_values, measured.codes.tolist(), measured.errors)
        assert mapped.measures == {}
        assert count(mapped, STABLE) > 20
        assert count(mapped, UNSTABLE) > 20

    def test_a_point_whose_solve_breaks_down_is_stable_in_a_map(self):
        # fig8 at T = 1e300 K: every point is stable, and trsyl scales each
        # covariance down; only a grid with measures solves for it
        cfg = config.load_layers(preset="fig8")
        config.apply_set(cfg, "T=1e300")
        for _, spec in config.build_grid_specs(cfg, config.build_system(cfg)):
            measured = run_grid(spec)
            assert (measured.codes == ERROR).all()
            assert all(e.startswith("solver breakdown: ") for e in measured.errors.values())
            mapped = run_grid(dataclasses.replace(spec, measures=()))
            assert (mapped.codes == STABLE).all() and mapped.errors == {}


def assert_same_evaluation(got, want):
    """Steady state, verdict (a covariance or None) and covariance entries
    equal with ==."""
    (ss, V), (ss_ref, V_ref) = got, want
    assert ss == ss_ref
    assert (V is None) == (V_ref is None)
    if V is not None:
        assert V.tolist() == V_ref.tolist()


def reference_measure(p, measure_id, drift=drift_matrix):
    """The scalar evaluation evaluate_measure replaced: reference_steady_covariance,
    then the stacked measure kernel (not measure_values' one-pair branch) at a
    stable point; None at an unstable one."""
    _, V = reference_steady_covariance(p, drift)
    if V is None:
        return None
    return gaussian._measures(V[None], gaussian.measure_plan((measure_id,)))[0][0, 0]


def assert_same_value(got, want):
    """Measure values of one type, np.float64 or None, with the same bits."""
    assert type(got) is type(want)
    assert got is None or got.tobytes() == want.tobytes()


class OnePointCall(NamedTuple):
    """A one-point call, by (point, measure id), with its scalar reference,
    which also takes the drift function, and its comparison."""

    run: object
    reference: object
    assert_same: object
    unstable: object  # whether an outcome is an unstable verdict


ONE_POINT_CALLS = {
    "steady_covariance": OnePointCall(
        lambda p, _: steady_covariance(p),
        lambda p, _, drift=drift_matrix: reference_steady_covariance(p, drift),
        assert_same_evaluation, lambda got: got[1] is None),
    "evaluate_measure": OnePointCall(
        lambda p, mid: optimize.evaluate_measure(p, mid), reference_measure,
        assert_same_value, lambda got: got is None),
}


@pytest.mark.parametrize("call", ONE_POINT_CALLS.values(), ids=ONE_POINT_CALLS)
class TestOnePointCallMatchesScalarReference:
    """steady_covariance, and evaluate_measure for each measure id in turn,
    against their scalar references: the point's own stability eigen-solve,
    then lyapunov_solve at a stable point."""

    def test_stable_points(self, call):
        for k, p in enumerate(sample_stable_params(seed=71, count=100)):
            mid = MEASURE_IDS[k % len(MEASURE_IDS)]
            call.assert_same(call.run(p, mid), call.reference(p, mid))

    def test_unstable_points(self, call):
        ps = [p.updated(delta_n_tilde_override=-p.delta_n_tilde_override)
              for p in sample_stable_params(seed=72, count=30)]
        unstable = 0
        for k, p in enumerate(ps):
            mid = MEASURE_IDS[k % len(MEASURE_IDS)]
            got = call.run(p, mid)
            call.assert_same(got, call.reference(p, mid))
            unstable += call.unstable(got)
        assert unstable > 15

    @pytest.mark.parametrize("params, case, error", [
        (SystemParams(), "NaN drift entry", np.linalg.LinAlgError),
        (SystemParams(gamma_e=0.0, delta_e=0.0), None, SteadyStateError),
        (SystemParams(), "gees fails", np.linalg.LinAlgError),
        # a stable verdict, then diffusion_matrix raises, before the Schur failure
        (SystemParams().updated(omega_n=0.0), None, ParameterError),
        (SystemParams().updated(omega_n=0.0), "gees fails", ParameterError),
        (SystemParams(T=1e300), None, gaussian.GaussianError),  # trsyl scales
    ], ids=["nan-drift", "no-steady-state", "gees-fails", "diffusion",
            "diffusion-and-gees-fails", "trsyl-scales"])
    def test_same_error(self, call, params, case, error, monkeypatch):
        drift = drift_matrix
        if case == "NaN drift entry":
            def drift(p, ss):
                A = drift_matrix(p, ss)
                A[7, 5] = np.nan  # fails the eigen-solve
                return A
            monkeypatch.setattr(gaussian, "drift_matrix", drift)
        elif case == "gees fails":
            failing_gees(monkeypatch)
        with pytest.raises(error) as want:
            call.reference(params, "EN_ne", drift)
        with pytest.raises(error) as got:
            call.run(params, "EN_ne")
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_an_unstable_point_whose_gees_fails(self, call, monkeypatch):
        p = SystemParams().updated(delta_n_tilde_override=-0.65 * WD)
        failing_gees(monkeypatch)
        got = call.run(p, "EN_ne")
        call.assert_same(got, call.reference(p, "EN_ne"))
        assert call.unstable(got)


def test_overflowing_diffusion_is_an_error_row():
    # trsyl scales the covariance down at 5e299 and 1e300 K
    rows = rows_of(run_grid(GridSpec(axes=(Axis("T", 0.0, 1e300, 3),), base=SystemParams(),
                                     measures=("EN_ne",))))
    assert rows[0].stable and rows[0].measures["EN_ne"] > 0.0
    assert [r.stable for r in rows[1:]] == [None, None]
    assert all(r.error.startswith("solver breakdown: trsyl scaled ") for r in rows[1:])


def warns_if(perturbed):
    """Expect trsyl's perturbation warning, or (with RuntimeWarnings made
    errors for the suite) no RuntimeWarning at all."""
    if perturbed:
        return pytest.warns(RuntimeWarning, match="perturbing the coefficients")
    return contextlib.nullcontext()


@pytest.mark.usefixtures("chunk_200")
@pytest.mark.parametrize("name", FIELDS)
def test_every_field_value_ends_in_a_value_or_a_named_error(name):
    """Each field of the default point set to NaN, +-inf, 0, -1 or 1e300:
    the parameters are rejected with a ParameterError, or steady_covariance
    ends in a value or a NO_STEADY_STATE error, and so does every row of a
    three-chunk grid around them.  At delta_1 = 1e300 (also set through
    omega_c1) trsyl perturbs a near-zero eigenvalue pair, with a warning;
    nowhere else does a RuntimeWarning show."""
    built = 0
    for value in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 1e300):
        try:
            p = SystemParams().updated(**{name: value})
        except ParameterError:
            continue
        built += 1
        perturbed = name in ("delta_1", "omega_c1") and value == 1e300
        with warns_if(perturbed):
            try:
                steady_covariance(p)
            except NO_STEADY_STATE:
                pass
        axis = Axis("J" if name == "T" else "T", 0.0, 0.4, 2 * sweep.CHUNK + 1)
        with warns_if(perturbed):
            result = run_grid(GridSpec(axes=(axis,), base=p, measures=("EN_ne",)))
        assert len(result.codes) == axis.points
    assert built


class TestCsv:
    def test_header_and_shape(self, tmp_path):
        result = run_grid(small_spec())
        dest = tmp_path / "grid.csv"
        emit_csv(result, dest)
        lines = dest.read_text().splitlines()
        assert lines[0] == "delta_a,delta_n_tilde,stable,EN_de,EN_ne"
        assert len(lines) == 1 + 6

    def test_empty_measures_gives_axes_and_stability_only(self, tmp_path):
        spec = small_spec(measures=())
        dest = tmp_path / "stab.csv"
        emit_csv(run_grid(spec), dest)
        lines = dest.read_text().splitlines()
        assert lines[0] == "delta_a,delta_n_tilde,stable"
        assert all(line.count(",") == 2 for line in lines)

    def test_nine_significant_digits(self, tmp_path):
        result = run_grid(small_spec(measures=("EN_de",)))
        dest = tmp_path / "grid.csv"
        emit_csv(result, dest)
        value_cell = dest.read_text().splitlines()[1].split(",")[-1]
        assert value_cell == format(result.measures["EN_de"][0], ".9g")

    def test_sidecar_written(self, tmp_path):
        dest = tmp_path / "grid.csv"
        emit_csv(run_grid(small_spec()), dest)
        sidecar = tmp_path / "grid.csv.meta.json"
        assert sidecar.exists()
        assert '"linkage": "antisymmetric"' in sidecar.read_text()

    def test_unstable_cells_are_empty_not_zero(self, tmp_path):
        base = SystemParams().updated(delta_1=-1.41 * WD, delta_2=-0.68 * WD,
                                      delta_e=-1.63 * WD, J=0.35 * WD)
        spec = GridSpec(axes=(Axis("delta_n_tilde", -0.66, -0.64, 2),),
                        base=base, measures=("EN_a1n",))
        dest = tmp_path / "u.csv"
        emit_csv(run_grid(spec), dest)
        for line in dest.read_text().splitlines()[1:]:
            assert line.endswith(",0,")


class TestCsvMatchesTheRowByRowWriter:
    """emit_csv writes the bytes of the row-by-row writer it replaced, run on
    the per-point reference rows, with 1 and with 2 workers; 40-point
    chunks give every grid here a pool."""

    @pytest.mark.parametrize("spec, verdicts", [
        # -0.05 K fails the parameter checks
        (GridSpec(axes=(Axis("T", -0.05, 0.3, 71),), base=SystemParams(),
                  measures=("EN_ne", "R_nde")), {None, True}),
        (GridSpec(axes=(Axis("delta_a", -2.0, 1.0, 12), Axis("delta_n_tilde", -0.8, 1.6, 10)),
                  base=SystemParams(), linkage="antisymmetric",
                  measures=("EN_de", "EN_ne", "EN_a1a2", "R_nde", "R_a1nd")), {True, False}),
        # a negative temperature, and delta_e = 0 with gamma_e = 0
        (GridSpec(axes=(Axis("T", -0.02, 0.02, 3), Axis("delta_e", -1.0, 1.0, 101)),
                  base=SystemParams(gamma_e=0.0), measures=("EN_de",)), {None, True}),
        (scmap_grid(), {True, False}),
    ], ids=["T-first-value-fails", "pinned-5-measures", "error-rows", "scmap"])
    def test_same_bytes(self, spec, verdicts, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(sweep, "CHUNK", 40)
        rows = reference_rows(spec)
        assert {r.stable for r in rows} == verdicts
        want = reference_csv(spec.columns, rows).encode()
        for workers in (1, 2):
            dest = tmp_path / f"w{workers}.csv"
            emit_csv(run_grid(spec, workers=workers), dest)
            assert dest.read_bytes() == want
        assert pools == [2]
