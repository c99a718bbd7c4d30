import concurrent.futures
import dataclasses
import inspect
import json
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from cavmag import config, gaussian, optimize
from cavmag.dynamics import SteadyStateError, steady_state, steady_states
from cavmag.gaussian import NO_STEADY_STATE, GaussianError, evaluate_chunk
from cavmag.model import SystemParams, updated_in_omega_d_units
from cavmag.optimize import (
    NonMonotoneProfile,
    OptimizeError,
    OptimizeSpec,
    critical_temperature,
    evaluate_measure,
    maximize,
)

from conftest import mean_states, param_arrays, run_fresh

SCMAP_INI = str(Path(__file__).resolve().parents[1] / "perfbench" / "scmap.ini")
WD = SystemParams().omega_d
NEEDS_FORK = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the pools need the fork start method")

NE_POINT = dict(delta_1=0.76, delta_2=-0.52, delta_n_tilde=0.77,
                delta_e=-0.63, J=0.8)


def ne_base():
    return SystemParams().updated(
        delta_1=NE_POINT["delta_1"] * WD,
        delta_2=NE_POINT["delta_2"] * WD,
        delta_n_tilde_override=NE_POINT["delta_n_tilde"] * WD,
        delta_e=NE_POINT["delta_e"] * WD,
        J=NE_POINT["J"] * WD,
    )


class TestOptimizeSpec:
    def test_unknown_measure_rejected(self):
        with pytest.raises(OptimizeError, match="unknown measure"):
            OptimizeSpec(measure="EN_zz", box={"J": (0.2, 1.0)})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(OptimizeError, match="unknown box parameter"):
            OptimizeSpec(measure="EN_ne", box={"delta_q": (0.0, 1.0)})

    def test_inverted_box_rejected(self):
        with pytest.raises(OptimizeError, match="lo > hi"):
            OptimizeSpec(measure="EN_ne", box={"J": (1.0, 0.2)})

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("side", ["min", "max"])
    def test_non_finite_bound_rejected(self, bound, side):
        # (0.2, nan) passes lo > hi but fails lo < hi, which pinned J silently
        box = {"J": (bound, 1.0) if side == "min" else (0.2, bound)}
        with pytest.raises(OptimizeError, match="box for 'J' must have finite bounds"):
            OptimizeSpec(measure="EN_ne", box=box)

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7e308, 2e307)])
    def test_box_wider_than_the_largest_float_rejected(self, lo, hi):
        # hi - lo overflows to inf, so no scan point could be drawn in it
        with pytest.raises(OptimizeError,
                           match="box for 'J' is wider than the largest float"):
            OptimizeSpec(measure="EN_ne", box={"J": (lo, hi)})

    @pytest.mark.parametrize("lo, hi", [(-8e307, 8e307), (1e308, 1e308)])
    def test_box_within_the_largest_float_accepted(self, lo, hi):
        assert OptimizeSpec(measure="EN_ne", box={"J": (lo, hi)}).box == {"J": (lo, hi)}

    def test_restart_floor(self):
        with pytest.raises(OptimizeError, match="restarts"):
            OptimizeSpec(measure="EN_ne", box={"J": (0.2, 1.0)}, restarts=0)

    def test_negative_seed_rejected(self):
        # numpy's default_rng would fail later with a ValueError
        with pytest.raises(OptimizeError, match="seed must be >= 0, got -1"):
            OptimizeSpec(measure="EN_ne", box={"J": (0.2, 1.0)}, seed=-1)


class TestEvaluateMeasure:
    def test_an_unknown_id_raises_before_any_work(self, monkeypatch):
        # resolved before the steady state: an unstable point, whose value
        # is None, raises too
        evaluated, real = [], optimize.steady_covariance

        def counted(p):
            evaluated.append(p)
            return real(p)

        monkeypatch.setattr(optimize, "steady_covariance", counted)
        unstable = SystemParams().updated(delta_n_tilde_override=-0.65 * WD)
        assert evaluate_measure(unstable, "EN_ne") is None and len(evaluated) == 1
        for p in (ne_base(), unstable):
            with pytest.raises(GaussianError, match="^unknown measure id 'EN_xx'$"):
                evaluate_measure(p, "EN_xx")
        assert len(evaluated) == 1


class TestObjectivePointsAreFloats:
    """maximize builds every point from Python floats, so each one-point
    evaluation has the bits of the chunk kernel at that point, its mean
    field too: numpy scalars would take steady_state through numpy's
    complex arithmetic, whose bits differ from CPython's."""

    @staticmethod
    def table2_ne():
        cfg = config.load_layers(preset="table2_ne")
        spec = dataclasses.replace(config.build_optimize_spec(cfg), max_evaluations=300)
        return spec, config.build_system(cfg)

    @staticmethod
    def self_consistent():
        # the mean-field loop sets delta_n_tilde, so the amplitudes reach the values
        spec = OptimizeSpec(measure="EN_ne",
                            box={"delta_1": (-2.0, 2.0), "delta_2": (-2.0, 2.0),
                                 "delta_e": (-2.0, 2.0), "J": (0.2, 1.6)},
                            restarts=3, max_evaluations=300, seed=1)
        return spec, SystemParams(delta_n=0.9 * WD, delta_n_tilde_override=None)

    @pytest.mark.parametrize("case", ["table2_ne", "self_consistent"])
    def test_fields_are_floats_and_values_those_of_the_chunk_kernel(self, monkeypatch,
                                                                     case):
        spec, base = getattr(self, case)()
        points, values = [], []
        evaluate = optimize.evaluate_measure

        def recording(p, measure):
            points.append(p)
            try:
                values.append(evaluate(p, measure))
            except NO_STEADY_STATE:
                values.append("error")
                raise
            return values[-1]

        monkeypatch.setattr(optimize, "evaluate_measure", recording)
        maximize(spec, base, workers=1)
        assert len(points) == 300
        for p in points:
            kinds = {type(v).__name__ for v in vars(p).values()}
            assert kinds <= {"float", "NoneType"}, kinds
        out = evaluate_chunk(param_arrays(points), (spec.measure,))

        def key(v):
            return v if v is None or v == "error" else float(v).hex()

        expected = [out.values[i, 0] if not np.isnan(out.values[i, 0])
                    else "error" if i in out.errors else None
                    for i in range(len(points))]
        assert [key(v) for v in values] == [key(v) for v in expected]
        assert sum(isinstance(v, float) for v in values) > 100
        states = mean_states(steady_states(param_arrays(points)))
        assert [repr(steady_state(p)) for p, state in zip(points, states)
                if not isinstance(state, Exception)] == \
            [repr(state) for state in states if not isinstance(state, Exception)]


class TestMaximize:
    def test_collapsed_box_echoes_the_point(self):
        spec = OptimizeSpec(measure="EN_ne",
                            box={k: (v, v) for k, v in NE_POINT.items()},
                            restarts=1, max_evaluations=10, seed=1)
        report = maximize(spec, SystemParams())
        expected = evaluate_measure(ne_base(), "EN_ne")
        assert report.best_value == pytest.approx(expected, rel=1e-12)
        assert report.evaluations == 1
        assert report.best_point == {k: pytest.approx(v) for k, v in NE_POINT.items()}

    def test_zero_couplings_score_zero(self):
        base = SystemParams(J=0.0, G_ae=0.0, g_na=0.0, G_nd=0.0)
        spec = OptimizeSpec(measure="EN_ne",
                            box={"delta_e": (-1.0, 1.0),
                                 "delta_n_tilde": (0.5, 1.5)},
                            restarts=2, max_evaluations=60, seed=2)
        report = maximize(spec, base)
        assert report.best_value < 1e-12

    def test_every_point_unstable_raises(self):
        base = SystemParams().updated(delta_1=-1.41 * WD, delta_2=-0.68 * WD,
                                      delta_e=-1.63 * WD, J=0.35 * WD)
        spec = OptimizeSpec(measure="EN_a1n",
                            box={"delta_n_tilde": (-0.66, -0.64)},
                            restarts=1, max_evaluations=30, seed=3)
        with pytest.raises(OptimizeError, match="no stable point"):
            maximize(spec, base)

    def test_pinned_box_without_a_stable_point_raises(self):
        # the free box of test_every_point_unstable_raises, pinned at its middle
        base = SystemParams().updated(delta_1=-1.41 * WD, delta_2=-0.68 * WD,
                                      delta_e=-1.63 * WD, J=0.35 * WD)
        spec = OptimizeSpec(measure="EN_a1n", box={"delta_n_tilde": (-0.65, -0.65)},
                            restarts=1, max_evaluations=30, seed=3)
        with pytest.raises(OptimizeError, match="^no stable point found in the box$"):
            maximize(spec, base, workers=2)

    @pytest.mark.parametrize("raised, expected, message", [
        # no steady state scores like an unstable point
        (SteadyStateError("non-convergent"), OptimizeError, "no stable point"),
        # a programming error is not "no steady state"
        (TypeError("bug"), TypeError, "bug"),
    ])
    def test_failing_evaluations(self, monkeypatch, raised, expected, message):
        def fail(p, measure):
            raise raised
        monkeypatch.setattr(optimize, "evaluate_measure", fail)
        spec = OptimizeSpec(measure="EN_ne", box={"J": (0.5, 1.1)},
                            restarts=1, max_evaluations=20, seed=6)
        with pytest.raises(expected, match=message):
            maximize(spec, ne_base())

    def test_seeded_determinism(self):
        spec = OptimizeSpec(measure="EN_ne",
                            box={"delta_1": (0.4, 1.1), "delta_2": (-0.9, -0.1)},
                            restarts=2, max_evaluations=120, seed=42)
        r1 = maximize(spec, ne_base())
        r2 = maximize(spec, ne_base())
        assert r1 == r2

    def test_budget_is_respected(self):
        spec = OptimizeSpec(measure="EN_ne",
                            box={"delta_1": (0.4, 1.1), "delta_2": (-0.9, -0.1)},
                            restarts=2, max_evaluations=90, seed=4)
        report = maximize(spec, ne_base())
        # Nelder-Mead stops before the call that would pass the cap
        assert report.evaluations <= spec.max_evaluations

    def test_beats_the_center_of_a_local_box(self):
        spec = OptimizeSpec(
            measure="EN_ne",
            box={"delta_1": (0.4, 1.1), "delta_2": (-0.9, -0.1),
                 "delta_n_tilde": (0.5, 1.1), "delta_e": (-1.0, -0.3),
                 "J": (0.5, 1.1)},
            restarts=3, max_evaluations=500, seed=7)
        report = maximize(spec, SystemParams())
        assert report.best_value >= evaluate_measure(ne_base(), "EN_ne")
        assert report.restarts  # per-restart trace populated
        assert all(report.best_value >= r["best_value"] - 1e-12
                   for r in report.restarts)

    def test_reevaluation_consistency(self):
        spec = OptimizeSpec(measure="EN_ne",
                            box={"delta_1": (0.4, 1.1), "delta_2": (-0.9, -0.1)},
                            restarts=2, max_evaluations=120, seed=5)
        report = maximize(spec, ne_base())
        p = ne_base().updated(
            delta_1=report.best_point["delta_1"] * WD,
            delta_2=report.best_point["delta_2"] * WD)
        assert evaluate_measure(p, "EN_ne") == pytest.approx(
            report.best_value, abs=1e-12)


LOCAL_BOX = {"delta_1": (0.4, 1.1), "delta_2": (-0.9, -0.1)}


def local_spec(restarts, max_evaluations, seed):
    return OptimizeSpec(measure="EN_ne", box=LOCAL_BOX, restarts=restarts,
                        max_evaluations=max_evaluations, seed=seed)


def serial_order(spec, monkeypatch):
    """The serial report and the parameter points it evaluated, in order."""
    order = []
    evaluate = optimize.evaluate_measure

    def recording(p, measure):
        order.append(p)
        return evaluate(p, measure)

    monkeypatch.setattr(optimize, "evaluate_measure", recording)
    report = maximize(spec, ne_base(), workers=1)
    monkeypatch.setattr(optimize, "evaluate_measure", evaluate)
    return report, order


@pytest.fixture
def pools(monkeypatch):
    """Counts the process pools maximize builds, and lets it build one of up
    to eight processes on a machine with fewer CPUs."""
    built = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(optimize, "_usable_cpus", lambda: 8)
    return built


class TestRestartPool:
    # (restarts, max_evaluations, seed) on LOCAL_BOX; restart nfev in the comment
    CASES = {
        "end within the budget": (3, 400, 4),  # 56, 49, 58: 195 evaluations
        "cut mid-run": (3, 150, 4),  # 56, 49, 13: the last is cut
        "skipped": (3, 120, 4),  # 56, 34: the second is cut, the third skipped
    }

    @pytest.mark.parametrize("case", CASES)
    def test_report_equals_serial(self, case, pools):
        spec = local_spec(*self.CASES[case])
        serial = maximize(spec, ne_base(), workers=1)
        assert maximize(spec, ne_base(), workers=2) == serial
        assert maximize(spec, ne_base(), workers=3) == serial
        assert pools == [2, 3]
        assert multiprocessing.active_children() == []
        ran_out = serial.evaluations == spec.max_evaluations
        assert ran_out == (case != "end within the budget")
        assert (len(serial.restarts) < spec.restarts) == (case == "skipped")

    def test_more_workers_than_cpus(self, pools):
        # eight restarts on eight processes race for the shared limits
        spec = local_spec(8, 300, 4)
        assert maximize(spec, ne_base(), workers=8) == maximize(spec, ne_base(), workers=1)
        assert pools == [8]
        assert multiprocessing.active_children() == []

    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch, pools):
        monkeypatch.setattr(optimize, "_usable_cpus", lambda: 2)
        spec = local_spec(8, 300, 4)
        assert maximize(spec, ne_base(), workers=8) == maximize(spec, ne_base(), workers=1)
        assert pools == [2]

    def test_ties_keep_the_first_point(self, monkeypatch, pools):
        # a coarse objective: later restarts tie with the best found before
        evaluate = optimize.evaluate_measure

        def coarse(p, measure):
            value = evaluate(p, measure)
            return None if value is None else round(value, 1)

        monkeypatch.setattr(optimize, "evaluate_measure", coarse)
        spec = local_spec(*self.CASES["end within the budget"])
        assert maximize(spec, ne_base(), workers=2) == maximize(spec, ne_base(), workers=1)
        assert pools == [2]

    def test_error_past_the_serial_budget_is_not_raised(self, monkeypatch,
                                                        tmp_path, pools):
        spec = local_spec(*self.CASES["skipped"])
        serial, order = serial_order(spec, monkeypatch)
        seen = set(order)
        n_scan = serial.evaluations - sum(r["nfev"] for r in serial.restarts)
        hold = order[n_scan + 1]  # the first restart's second evaluation
        reached = tmp_path / "reached"
        evaluate = optimize.evaluate_measure

        def failing(p, measure):
            if p not in seen:
                reached.touch()
                raise TypeError("bug")
            if p == hold:
                # keep the first restart (and with it every budget) waiting
                # until a worker has run past the serial evaluations
                deadline = time.monotonic() + 30.0
                while not reached.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
            return evaluate(p, measure)

        monkeypatch.setattr(optimize, "evaluate_measure", failing)
        for workers in (2, 3):
            reached.unlink(missing_ok=True)
            assert maximize(spec, ne_base(), workers=workers) == serial
            assert reached.exists()
            assert multiprocessing.active_children() == []
        assert pools == [2, 3]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_error_the_serial_run_reaches_is_raised(self, monkeypatch, workers):
        spec = local_spec(*self.CASES["skipped"])
        _, order = serial_order(spec, monkeypatch)
        bad = order[-1]  # the last evaluation of the cut second restart
        evaluate = optimize.evaluate_measure

        def failing(p, measure):
            if p == bad:
                raise TypeError("bug")
            return evaluate(p, measure)

        monkeypatch.setattr(optimize, "evaluate_measure", failing)
        with pytest.raises(TypeError, match="bug"):
            maximize(spec, ne_base(), workers=workers)
        assert multiprocessing.active_children() == []

    def test_default_is_the_usable_cpus(self, monkeypatch, pools):
        monkeypatch.setattr(optimize, "_usable_cpus", lambda: 2)
        spec = local_spec(*self.CASES["cut mid-run"])
        assert maximize(spec, ne_base()) == maximize(spec, ne_base(), workers=1)
        assert pools == [2]

    @pytest.mark.parametrize("restarts, workers, fork", [
        (3, 1, True), (1, 4, True), (3, 4, False)])
    def test_no_pool(self, monkeypatch, restarts, workers, fork):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was built")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        maximize(local_spec(restarts, 150, 4), ne_base(), workers=workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(OptimizeError, match="workers"):
            maximize(local_spec(3, 150, 4), ne_base(), workers=workers)


def _step_lines() -> dict[int, str]:
    """The line numbers of _nelder_mead that run only in one kind of step,
    by step: the line after each step's comment, the convergence break, and
    the line after each budget cut (in the first simplex, then in a step)."""
    lines, first = inspect.getsourcelines(optimize._nelder_mead)
    marks = {"# expand": "expand", "# reflect": "reflect",
             "# contract outside": "outside", "# contract inside": "inside",
             "# towards the best vertex": "shrink"}
    steps, cuts = {}, iter(["cut in the simplex", "cut in a step"])
    for i, line in enumerate(lines, start=first):
        steps.update((i + 1, step) for mark, step in marks.items() if mark in line)
        if line.strip() == "break":
            steps[i] = "converged"
        if "except _Spent" in line:
            steps[i + 1] = next(cuts)
    assert len(steps) == 8
    return steps


STEP_LINES = _step_lines()


def nelder_mead_against_scipy(f, simplex, lo, hi, maxfev) -> set[str]:
    """Runs _nelder_mead and scipy's bounded Nelder-Mead, as maximize called
    it, on f: both evaluate the same points, byte for byte and in the same
    order, and return the same value and call count.  Returns the steps
    _nelder_mead took."""
    ours, theirs, steps = [], [], set()

    def logged(calls):
        def g(x):
            calls.append(x.tobytes())
            return f(x)
        return g

    def trace_steps(frame, event, arg):
        if event == "line" and frame.f_lineno in STEP_LINES:
            steps.add(STEP_LINES[frame.f_lineno])
        return trace_steps

    code, before = optimize._nelder_mead.__code__, sys.gettrace()
    sys.settrace(lambda frame, *_: trace_steps if frame.f_code is code else None)
    try:
        fun, nfev = optimize._nelder_mead(logged(ours), simplex.copy(), lo, hi, maxfev)
    finally:
        sys.settrace(before)
    res = minimize(logged(theirs), np.clip(simplex[0], lo, hi), method="Nelder-Mead",
                   bounds=list(zip(lo, hi)),
                   options={"maxfev": maxfev, "xatol": 1e-4, "fatol": 1e-10,
                            "initial_simplex": simplex})
    assert len(ours) == nfev and ours == theirs
    assert (float(fun).hex(), nfev) == (float(res.fun).hex(), res.nfev)
    return steps


def en_ne_objective(box):
    """maximize's objective on EN_ne over a box around NE_POINT: minus the
    measure, and 0.0 (so -0.0) where there is no steady state."""
    names, base = list(box), ne_base()

    def f(x):
        value = evaluate_measure(updated_in_omega_d_units(base, dict(zip(names, x))),
                                 "EN_ne")
        return -(0.0 if value is None else value)

    lo, hi = (np.array([box[n][k] for n in names]) for k in (0, 1))
    return f, lo, hi


SQUARE = np.full(2, -1.0), np.ones(2)
PARTLY_UNSTABLE = {"delta_1": (0.4, 1.1), "delta_n_tilde": (-0.9, 1.1)}


def smooth(x):  # a minimum near 0, so reflections cross zero
    return float(((x - [0.01, -0.02]) ** 2 * [1.0, 10.0]).sum())


def stairs(x):  # levels of equal values: ties in fsim and between trial points
    return float(np.floor(5 * (x[0] + 2 * x[1])))


def plateau(x):  # a flat floor: ties, and shrinks
    return float(min(0.0, np.floor(4 * x).sum() - 2))


class TestNelderMeadMatchesScipy:
    """_nelder_mead against scipy.optimize.minimize, its slow reference."""

    @pytest.mark.parametrize("f, start, steps", [
        (smooth, [0.9, 0.8], {"reflect", "expand", "outside", "inside", "converged"}),
        (stairs, [0.3, 0.9], {"reflect", "expand", "shrink", "converged"}),
        (plateau, [0.2, 0.3], {"shrink", "converged"}),
        (smooth, [1.0, 1.0], {"converged"}),  # on the upper bound: the steps flip
    ])
    def test_every_step(self, f, start, steps):
        simplex = optimize._initial_simplex(np.array(start), *SQUARE)
        assert steps <= nelder_mead_against_scipy(f, simplex, *SQUARE, 500)

    @pytest.mark.parametrize("f, start", [(stairs, [0.3, 0.9]), (plateau, [0.2, 0.3])])
    def test_ties(self, f, start):
        values = []

        def counted(x):
            values.append(f(x))
            return values[-1]

        nelder_mead_against_scipy(counted, optimize._initial_simplex(
            np.array(start), *SQUARE), *SQUARE, 500)
        assert len(set(values)) < len(values) / 4

    def test_f_gets_a_copy(self):
        def scribbling(x):
            value = smooth(x)
            x[:] = np.nan
            return value

        simplex = optimize._initial_simplex(np.array([0.9, 0.8]), *SQUARE)
        assert "converged" in nelder_mead_against_scipy(scribbling, simplex, *SQUARE, 500)

    def test_vertices_above_the_upper_bound_are_reflected(self):
        simplex = np.array([[1.0, 1.0], [1.2, 1.0], [1.0, 1.3]])
        assert "converged" in nelder_mead_against_scipy(smooth, simplex, *SQUARE, 500)
        # reflected to 0.8 and 0.7, inside the box
        seen = []
        optimize._nelder_mead(lambda x: seen.append(x.copy()) or smooth(x),
                              simplex, *SQUARE, 3)
        assert np.array_equal(seen, [[1.0, 1.0], [0.8, 1.0], [1.0, 0.7]])

    @pytest.mark.parametrize("maxfev", [1, 2, 3])
    def test_budget_below_the_simplex(self, maxfev):
        lo, hi = np.zeros(3), np.ones(3)
        simplex = optimize._initial_simplex(np.array([0.4, 0.5, 0.6]), lo, hi)
        steps = nelder_mead_against_scipy(lambda x: float(x.sum()), simplex, lo, hi,
                                          maxfev)
        assert steps == {"cut in the simplex"}

    def test_every_budget_cut(self):
        steps = set()
        for f, start in [(smooth, [0.9, 0.8]), (stairs, [0.3, 0.9])]:
            simplex = optimize._initial_simplex(np.array(start), *SQUARE)
            for maxfev in range(1, 60):
                steps |= nelder_mead_against_scipy(f, simplex, *SQUARE, maxfev)
        assert "cut in a step" in steps

    @pytest.mark.parametrize("box, start, steps", [
        (LOCAL_BOX, [0.75, -0.5], {"reflect", "expand", "outside", "inside"}),
        ({n: (v - 0.3, v + 0.3) for n, v in NE_POINT.items()},
         list(NE_POINT.values()), {"cut in a step"}),
        # a box that is partly unstable: from its edge, and from an unstable
        # start, where every value is a -0.0 tie and the simplex shrinks
        (PARTLY_UNSTABLE, [0.75, 0.3], {"expand", "converged"}),
        (PARTLY_UNSTABLE, [0.75, -0.6], {"shrink", "converged"}),
    ])
    def test_en_ne_objectives(self, box, start, steps):
        f, lo, hi = en_ne_objective(box)
        simplex = optimize._initial_simplex(np.array(start), lo, hi)
        assert steps <= nelder_mead_against_scipy(f, simplex, lo, hi, 150)

    def test_limit_reached_passes_through(self):
        def limited(x):
            if limited.calls == 5:
                raise optimize._LimitReached
            limited.calls += 1
            return smooth(x)

        limited.calls = 0
        with pytest.raises(optimize._LimitReached):
            optimize._nelder_mead(limited, optimize._initial_simplex(
                np.array([0.9, 0.8]), *SQUARE), *SQUARE, 500)


class TestMeasureResolvedOncePerSearch:
    """maximize and critical_temperature pass the measure id to every
    evaluation, and its plan is made once per search: the cache of
    gaussian.measure_plan misses once, on the first evaluation."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        ids, real = [], optimize.evaluate_measure

        def evaluate(p, measure_id):
            ids.append(measure_id)
            return real(p, measure_id)

        monkeypatch.setattr(optimize, "evaluate_measure", evaluate)
        gaussian.measure_plan.cache_clear()
        return ids

    def test_maximize(self, evaluated):
        spec = OptimizeSpec(measure="EN_de", box={"J": (0.2, 1.6), "delta_e": (-1.0, 1.0)},
                            restarts=2, max_evaluations=60)
        report = maximize(spec, ne_base(), workers=1)
        assert evaluated == ["EN_de"] * report.evaluations and report.evaluations == 60
        info = gaussian.measure_plan.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 59

    def test_critical_temperature(self, evaluated):
        critical_temperature(ne_base(), "EN_ne", 0.5, tol=5e-3)
        assert len(evaluated) > 10 and set(evaluated) == {"EN_ne"}
        info = gaussian.measure_plan.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= len(evaluated) - 1


class TestCriticalTemperature:
    def test_no_temperature_evaluated_twice(self, monkeypatch):
        temps, evaluate = [], optimize.evaluate_measure

        def spy(p, plan):
            temps.append(p.T)
            return evaluate(p, plan)

        monkeypatch.setattr(optimize, "evaluate_measure", spy)
        critical_temperature(ne_base(), "EN_ne", 0.5)
        assert temps[0] == optimize.T_FLOOR and len(temps) > 10
        assert len(set(temps)) == len(temps)

    def test_zero_couplings_not_entangled_at_floor(self):
        base = SystemParams(J=0.0, G_ae=0.0, g_na=0.0, G_nd=0.0)
        with pytest.raises(OptimizeError, match="not entangled at floor"):
            critical_temperature(base, "EN_ne", 0.4)

    def test_magnon_ensemble_operating_point_band(self):
        t_c = critical_temperature(ne_base(), "EN_ne", 0.5)
        assert 0.140 <= t_c <= 0.260

    def test_resolution_doubling_invariance(self):
        t_coarse = critical_temperature(ne_base(), "EN_ne", 0.5, tol=2e-3)
        t_fine = critical_temperature(ne_base(), "EN_ne", 0.5, tol=1e-3)
        assert abs(t_coarse - t_fine) <= 1e-3 + 1e-12

    @pytest.mark.parametrize("value", [0.0, -1e-3, float("nan"), float("inf")])
    @pytest.mark.parametrize("arg", ["tol", "T_max"])
    def test_tolerance_and_t_max_checked_before_any_evaluation(self, monkeypatch,
                                                                arg, value):
        # at tol <= 0 the bisection reaches adjacent floats and never ends;
        # a NaN T_max used to reach the parameter checks as "no steady state"
        def no_evaluation(*args):
            raise AssertionError("evaluated before the argument checks")

        monkeypatch.setattr(optimize, "evaluate_measure", no_evaluation)
        message = {"tol": "tol must be a positive finite",
                   "T_max": "T_max must be finite and exceed"}[arg]
        kwargs = {"T_max": 0.5, "tol": 1e-3, arg: value}
        with pytest.raises(OptimizeError, match=message):
            critical_temperature(ne_base(), "EN_ne", **kwargs)

    def test_still_entangled_at_t_max_raises(self):
        with pytest.raises(OptimizeError, match="still above"):
            critical_temperature(ne_base(), "EN_ne", 0.05)

    def test_non_monotone_profile_attaches_samples(self, monkeypatch):
        # a profile that rises with temperature by more than the 1e-6 * v_floor
        # slack; no physical point in the tests is known to do so
        temperatures = []

        def rising(p, measure):
            temperatures.append(p.T)
            return 0.01 + p.T

        monkeypatch.setattr(optimize, "evaluate_measure", rising)
        with pytest.raises(NonMonotoneProfile, match="non-monotone profile for EN_nd") as info:
            critical_temperature(ne_base(), "EN_nd", 0.5)
        assert len(temperatures) == 9
        assert (temperatures[0], temperatures[-1]) == (optimize.T_FLOOR, 0.5)
        assert info.value.samples == [(T, 0.01 + T) for T in temperatures]


class TestUniformScanMatchesNumpy:
    """optimize._uniform_scan draws the float64 bits of
    numpy.random.default_rng(seed).uniform(lo, hi, size=(n, d)), numpy's
    generator being the reference."""

    @staticmethod
    def check(seed, d, n, exponents):
        span = 10.0 ** np.asarray(exponents, dtype=float)
        lo = np.linspace(-1.5, 0.5, d) * span
        hi = lo + span
        expected = np.random.default_rng(seed).uniform(lo, hi, size=(n, d))
        got = optimize._uniform_scan(seed, lo, hi, n)
        assert got.shape == (n, d) and got.dtype == np.float64
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist(), (seed, d, n)

    def test_small_seeds(self):
        # 67 is prime to 200, so n runs through 1..200; d through 1..5; the
        # spans through 1e-12..1e6
        for seed in range(300):
            d, n = seed % 5 + 1, seed * 67 % 200 + 1
            self.check(seed, d, n, [-12 + (seed + j) % 19 for j in range(d)])

    @pytest.mark.parametrize("seed", [
        2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 2**128 + 12345, 3**100, 2**200 - 1,
        2**256 + 2**130 + 7,
    ])
    def test_large_seeds(self, seed):
        # past four 32-bit words the seed is mixed into the pool word by word
        for d in range(1, 6):
            self.check(seed, d, 200 if d % 2 else 1, [-12, 6, -3, 0, 2][:d])

    def test_a_numpy_integer_seed_gives_the_words_of_its_int(self):
        lo, hi = np.array([-2.0, 0.2]), np.array([2.0, 1.6])
        for seed in (np.int64(2030), np.uint64(2**63 + 5), np.int32(7)):
            self.check(seed, 2, 40, [0, 1])
            assert (optimize._uniform_scan(seed, lo, hi, 40).tobytes()
                    == optimize._uniform_scan(int(seed), lo, hi, 40).tobytes())

    def test_an_empty_scan(self):
        assert optimize._uniform_scan(0, np.zeros(3), np.ones(3), 0).shape == (0, 3)


class TestNoScipyLinalgNumpyMaNorNumpyRandom:
    """No command imports scipy.linalg (a run that solves binds LAPACK from
    its extension, gaussian._lapack), scipy.optimize (the optimizer's
    Nelder-Mead is optimize._nelder_mead), numpy.ma or numpy.random (the
    optimizer draws its scan itself, optimize._uniform_scan), in this
    process or in a forked worker; a run that solves binds LAPACK before a
    pool forks."""

    @pytest.mark.parametrize("argv, pools, solves", [
        pytest.param(["point"], [], True, id="point"),
        pytest.param(["tc", "--preset", "table2_ne"], [], True, id="tc"),
        pytest.param(["optimize", "--preset", "table2_ne", "--workers", "1"], [], True,
                     id="optimize-w1"),
        pytest.param(["optimize", "--preset", "table2_ne", "--workers", "2"], [2], True,
                     id="optimize-w2", marks=NEEDS_FORK),
        pytest.param(["sweep", "--preset", "fig8", "--workers", "1"], [], True,
                     id="fig8-w1"),
        pytest.param(["sweep", "--preset", "fig8", "--workers", "2"], [2, 2], True,
                     id="fig8-w2", marks=NEEDS_FORK),
        pytest.param(["stability-map", "--config", SCMAP_INI, "--workers", "1"], [], False,
                     id="scmap-w1"),
        pytest.param(["stability-map", "--config", SCMAP_INI, "--workers", "2"], [2], False,
                     id="scmap-w2", marks=NEEDS_FORK),
    ])
    def test_commands_never_import_them(self, tmp_path, argv, pools, solves):
        # the finder refuses them in this process and in every forked worker
        # and logs each attempt; the workers log that they ran, and 50-point
        # chunks give each fig8 grid two, so its pool forks too
        run_fresh("""
            import concurrent.futures, json, os, sys
            import numpy
            # numpy 1.x imports numpy.ma and numpy.random with numpy
            refused = ["scipy.linalg", "scipy.optimize"] + [
                name for name in ("numpy.ma", "numpy.random") if name not in sys.modules]
            import cavmag.cli
            from cavmag import gaussian, optimize, sweep

            argv, pools, solves, log = json.loads(sys.argv[1])

            def note(line):
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {line}\\n")

            class Refuse:
                def find_spec(self, name, path=None, target=None):
                    if any(name == r or name.startswith(r + ".") for r in refused):
                        note(f"imported {name}")
                        raise ImportError(f"{name} imported")

            built = []

            def checked(executor):
                class CheckedPool(executor):
                    def __init__(self, *args, **kwargs):
                        assert gaussian._lapack.cache_info().currsize == solves
                        built.append(args[0])
                        super().__init__(*args, **kwargs)
                return CheckedPool

            chunk_columns, speculate = sweep._chunk_columns, optimize._speculate

            def logged_chunk_columns(*args):
                note("ran")
                return chunk_columns(*args)

            def logged_speculate(j):
                note("ran")
                return speculate(j)

            sys.meta_path.insert(0, Refuse())
            concurrent.futures.ProcessPoolExecutor = checked(
                concurrent.futures.ProcessPoolExecutor)
            sweep._chunk_columns, optimize._speculate = logged_chunk_columns, logged_speculate
            sweep.CHUNK = 50
            sweep._usable_cpus = optimize._usable_cpus = lambda: 2
            assert cavmag.cli.main(argv + ["--out", sys.argv[2]]) == 0
            assert built == pools
            assert gaussian._lapack.cache_info().currsize == solves
            assert not [name for name in refused if name in sys.modules]
            lines = open(log).read().splitlines() if os.path.exists(log) else []
            assert all(line.endswith(" ran") for line in lines), lines
            workers = {line.split()[0] for line in lines} - {str(os.getpid())}
            assert bool(workers) == bool(pools), lines
        """, json.dumps([argv, pools, solves, str(tmp_path / "log")]), str(tmp_path))


class TestPoolModulesOnlyForAPool:
    """multiprocessing and concurrent.futures are imported where a pool is
    built: a command that forks no pool loads neither."""

    @pytest.mark.parametrize("argv, forks", [
        pytest.param(["point"], 0, id="point"),
        pytest.param(["tc", "--preset", "table2_ne"], 0, id="tc"),
        pytest.param(["optimize", "--preset", "table2_ne", "--workers", "1"], 0,
                     id="optimize-w1"),
        pytest.param(["stability-map", "--config", SCMAP_INI, "--workers", "1"], 0,
                     id="scmap-w1"),
        pytest.param(["optimize", "--preset", "table2_ne", "--workers", "2"], 2,
                     id="optimize-w2", marks=NEEDS_FORK),
        pytest.param(["stability-map", "--config", SCMAP_INI, "--workers", "2"], 2,
                     id="scmap-w2", marks=NEEDS_FORK),
    ])
    def test_only_a_pool_loads_them(self, tmp_path, argv, forks):
        # the audit hook counts the processes the pools fork
        run_fresh("""
            import json, os, sys
            import cavmag.cli
            from cavmag import optimize, sweep

            argv, forks = json.loads(sys.argv[1])
            modules = ("multiprocessing", "concurrent.futures")
            assert not [name for name in modules if name in sys.modules]
            forked = []
            sys.addaudithook(lambda event, args: event == "os.fork" and forked.append(1))
            sweep._usable_cpus = optimize._usable_cpus = lambda: 2
            code = cavmag.cli.main(argv + ["--out", sys.argv[2]])
            assert code in (0, 2) and len(forked) == forks, (code, forked)
            assert [name for name in modules if name in sys.modules] == \\
                (list(modules) if forks else []), sys.modules.keys()
        """, json.dumps([argv, forks]), str(tmp_path))


class TestScipyLinalgImport:
    """LAPACK is bound on the first Lyapunov solve (gaussian._lapack), so
    runs that stop at a stability verdict import no scipy module (runs that
    solve: TestNoScipyLinalgNumpyMaNorNumpyRandom)."""

    @pytest.mark.parametrize("argv, code", [
        (["stability-map", "--config", SCMAP_INI], 0),
        (["stability-map", "--config", SCMAP_INI, "--workers", "2"], 0),
        (["point", "--set", "delta_n_tilde=-0.65"], 2),  # an unstable point
    ])
    def test_runs_without_a_solve_import_no_scipy(self, tmp_path, argv, code):
        # the finder refuses scipy in this process and in every forked worker
        run_fresh("""
            import json, sys
            import cavmag.cli

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"{name} imported")

            sys.meta_path.insert(0, NoScipy())
            argv, code = json.loads(sys.argv[1])
            assert cavmag.cli.main(argv + ["--out", sys.argv[2]]) == code
            assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        """, json.dumps([argv, code]), str(tmp_path))
