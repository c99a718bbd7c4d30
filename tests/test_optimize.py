import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from cavmag import optimize
from cavmag.dynamics import SteadyStateError
from cavmag.model import SystemParams
from cavmag.optimize import (
    NonMonotoneProfile,
    OptimizeError,
    OptimizeSpec,
    critical_temperature,
    evaluate_measure,
    maximize,
)

WD = SystemParams().omega_d

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

    def test_restart_floor(self):
        with pytest.raises(OptimizeError, match="restarts"):
            OptimizeSpec(measure="EN_ne", box={"J": (0.2, 1.0)}, restarts=0)


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
    """Counts the process pools maximize builds."""
    built = []

    class CountedPool(optimize.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(optimize, "ProcessPoolExecutor", CountedPool)
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
        monkeypatch.setattr(optimize, "ProcessPoolExecutor", refuse)
        if not fork:
            monkeypatch.setattr(optimize.multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        maximize(local_spec(restarts, 150, 4), ne_base(), workers=workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(OptimizeError, match="workers"):
            maximize(local_spec(3, 150, 4), ne_base(), workers=workers)


class TestCriticalTemperature:
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

    def test_non_monotone_profile_attaches_samples(self):
        # the nd pair strengthens then dies with temperature at this point,
        # tripping the monotonicity guard
        base = SystemParams().updated(delta_1=2.0 * WD, delta_2=2.0 * WD,
                                      delta_e=2.0 * WD,
                                      delta_n_tilde_override=1.8 * WD,
                                      J=0.3 * WD)
        try:
            critical_temperature(base, "EN_nd", 0.5)
        except NonMonotoneProfile as exc:
            assert len(exc.samples) == 9
        except OptimizeError:
            pytest.skip("profile monotone at this point; guard not exercised")


def run_fresh(script: str, *args: str) -> None:
    """Runs a script in a new interpreter: other tests import scipy.optimize
    into this one."""
    src = str(Path(optimize.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestScipyOptimizeImport:
    def test_runs_that_do_not_optimize_do_not_import_it(self, tmp_path):
        run_fresh("""
            import sys
            import cavmag, cavmag.cli
            from cavmag.model import SystemParams
            from cavmag.sweep import Axis, GridSpec, run_grid

            assert cavmag.cli.main(["point", "--out", sys.argv[1]]) == 0
            spec = GridSpec(axes=(Axis("delta_a", -1.5, 0.5, 3),
                                  Axis("delta_n_tilde", 0.7, 1.1, 2)),
                            base=SystemParams(), linkage="antisymmetric",
                            measures=("EN_de", "EN_ne"))
            assert len(run_grid(spec).rows) == 6
            # a pooled stability map of several chunks
            assert cavmag.cli.main(["stability-map", "--config", sys.argv[2],
                                    "--workers", "2", "--out", sys.argv[1]]) == 0
            assert "scipy.optimize" not in sys.modules
        """, str(tmp_path), str(Path(__file__).resolve().parents[1] / "perfbench" / "scmap.ini"))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the restart pool needs the fork start method")
    def test_maximize_imports_it_before_the_pool_forks(self):
        run_fresh("""
            import sys
            from cavmag import optimize
            from cavmag.model import SystemParams

            built = []

            class CheckedPool(optimize.ProcessPoolExecutor):
                def __init__(self, *args, **kwargs):
                    assert "scipy.optimize" in sys.modules
                    built.append(args[0])
                    super().__init__(*args, **kwargs)

            optimize.ProcessPoolExecutor = CheckedPool
            assert "scipy.optimize" not in sys.modules
            spec = optimize.OptimizeSpec(
                measure="EN_ne",
                box={"delta_1": (0.4, 1.1), "delta_2": (-0.9, -0.1)},
                restarts=2, max_evaluations=120, seed=5)
            optimize.maximize(spec, SystemParams(), workers=2)
            assert built == [2]
        """)
