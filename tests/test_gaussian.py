import importlib.machinery
import linecache
import logging
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_lyapunov

from cavmag import config, gaussian, optimize, sweep
from cavmag.dynamics import (
    STABILITY_EPS_FACTOR,
    StabilityVerdict,
    diffusion_matrix,
    drift_matrix,
    spectral_abscissa,
    steady_state,
)
from cavmag.gaussian import (
    BIPARTITE_MEASURES,
    MEASURE_IDS,
    NO_STEADY_STATE,
    PAIRING_RTOL,
    TRIPARTITE_MEASURES,
    GaussianError,
    evaluate_chunk,
    full_report,
    log_negativity,
    lyapunov_solve,
    measure_values,
    one_vs_two_negativity,
    reduce,
    residual_contangle,
    steady_covariance,
    symplectic_eigenvalues,
)
from cavmag.model import SystemParams, updated_in_omega_d_units

from conftest import (
    SAMPLING_BOX,
    draw_params,
    failing_gees,
    integrate_lyapunov,
    param_arrays,
    positions,
    random_physical_covariance,
    run_fresh,
    sample_stable_params,
    two_mode_squeezed,
)

WD = SystemParams().omega_d


class TestLyapunovSolve:
    def test_scalar_balance(self):
        V = lyapunov_solve(-np.eye(10), 2.0 * np.eye(10))
        np.testing.assert_allclose(V, np.eye(10), atol=1e-12)

    def test_two_by_two_diagonal(self):
        V = lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(V, np.diag([0.5, 0.25]), atol=1e-14)

    def test_unstable_drift_rejected(self):
        with pytest.raises(GaussianError, match="unstable"):
            lyapunov_solve(np.diag([1.0, -1.0]), np.eye(2))

    def test_matches_time_integration_oracle(self):
        p = SystemParams()
        A = drift_matrix(p, steady_state(p))
        D = diffusion_matrix(p)
        V = lyapunov_solve(A, D)
        V_int = integrate_lyapunov(A, D, p.omega_d)
        rel = np.linalg.norm(V - V_int) / np.linalg.norm(V_int)
        assert rel < 1e-4

    def test_residual_bound_enforced(self):
        p = SystemParams()
        A = drift_matrix(p, steady_state(p))
        D = diffusion_matrix(p)
        V = lyapunov_solve(A, D)
        residual = np.linalg.norm(A @ V + V @ A.T + D)
        assert residual <= 1e-8 * max(1.0, np.linalg.norm(D))

    def test_result_is_symmetric(self):
        p = SystemParams()
        V = lyapunov_solve(drift_matrix(p, steady_state(p)), diffusion_matrix(p))
        np.testing.assert_array_equal(V, V.T)


def _scipy_lyapunov(A, D):
    """The solve lyapunov_solve replaced: scipy's Bartels-Stewart wrapper on
    the same prescaled matrices, then the same symmetrization."""
    scale = np.max(np.abs(A))
    V = solve_continuous_lyapunov(A / scale, -D / scale)
    return 0.5 * (V + V.T)


class TestLyapunovMatchesScipy:
    def test_bit_identical_on_stable_points(self):
        for p in sample_stable_params(seed=52, count=200):
            A, D = drift_matrix(p, steady_state(p)), diffusion_matrix(p)
            np.testing.assert_array_equal(lyapunov_solve(A, D),
                                          _scipy_lyapunov(A, D))

    def test_cached_workspace_equals_the_per_call_query(self):
        def query(a):
            gees, _ = gaussian._lapack()
            return int(gees(gaussian._no_sort, a, lwork=-1)[-2][0].real)

        for p in sample_stable_params(seed=54, count=50):
            A = drift_matrix(p, steady_state(p))
            assert gaussian._gees_lwork(10) == query(A / np.max(np.abs(A)))
        rng = np.random.default_rng(55)
        for n in (2, 4, 6, 10):
            assert gaussian._gees_lwork(n) == query(rng.normal(size=(n, n)))

    def test_bit_identical_two_by_two(self):
        A = np.array([[-0.3, 2.0], [-1.5, -0.7]])
        D = np.array([[0.4, 0.1], [0.1, 0.9]])
        np.testing.assert_array_equal(lyapunov_solve(A, D), _scipy_lyapunov(A, D))

    def test_precondition_is_the_strict_abscissa(self):
        # random draws, half of them with a negative (mostly unstable)
        # magnon detuning: the solve refuses exactly the drifts whose
        # spectrum reaches the closed right half-plane
        rng = np.random.default_rng(53)
        refused = 0
        for k in range(100):
            p = draw_params(rng, SystemParams())
            if k % 2:
                p = p.updated(delta_n_tilde_override=-p.delta_n_tilde_override)
            A = drift_matrix(p, steady_state(p))
            unstable = spectral_abscissa(A) >= 0.0
            try:
                lyapunov_solve(A, diffusion_matrix(p))
            except GaussianError as exc:
                assert unstable and "unstable" in str(exc)
                refused += 1
            else:
                assert not unstable
        assert 10 < refused < 90

    def test_zero_drift_is_unstable(self):
        with pytest.raises(GaussianError, match="unstable"):
            lyapunov_solve(np.zeros((2, 2)), np.eye(2))

    @pytest.mark.parametrize("which", ["A", "D"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, which, bad):
        A, D = np.diag([-1.0, -2.0]), np.eye(2)
        (A if which == "A" else D)[0, 1] = bad
        with pytest.raises(GaussianError, match="non-finite"):
            lyapunov_solve(A, D)

    def test_solution_that_trsyl_scales_down_is_a_breakdown(self):
        # at T = 1e300 K trsyl scales the covariance by 4.7e-301 to keep it
        # from overflowing, and the residual bound is inf
        p = SystemParams(T=1e300)
        A, D = drift_matrix(p, steady_state(p)), diffusion_matrix(p)
        with pytest.raises(GaussianError, match="^solver breakdown: trsyl scaled "):
            lyapunov_solve(A, D)

    def test_infinite_residual_bound_is_a_breakdown(self):
        # ||D||_F overflows while trsyl needs no scaling
        with pytest.raises(GaussianError, match="^solver breakdown: Lyapunov residual "
                                                "bound inf is not finite"):
            lyapunov_solve(np.diag([-1.0, -2.0]), 1e160 * np.eye(2))

    def test_residual_check_fails_what_it_cannot_check(self):
        nan, inf = float("nan"), float("inf")
        assert gaussian._passes(True, 1.0, 1.0)
        for finite, residual, bound in [(False, 0.0, 1.0), (True, nan, 1.0),
                                        (True, 0.0, inf), (True, 0.0, nan)]:
            assert not gaussian._passes(finite, residual, bound)
        assert gaussian._passes(np.array([True, True, False]), np.array([0.0, nan, 0.0]),
                                np.array([1.0, 1.0, 1.0])).tolist() == [True, False, False]

    def test_eigenvalue_pair_near_zero_sum_warns(self):
        # trsyl perturbs the -1e-20 + -1e-20 pair (its info 1); the
        # perturbed solution then fails the residual check
        with pytest.warns(RuntimeWarning, match="perturbing"):
            with pytest.raises(GaussianError, match="residual"):
                lyapunov_solve(np.diag([-1.0, -1e-20]), np.eye(2))


class TestReduce:
    def setup_method(self):
        p = SystemParams()
        _, _, self.V = steady_covariance(p)

    def test_all_modes_is_identity(self):
        W = reduce(self.V, positions("a1", "a2", "n", "d", "e"))
        np.testing.assert_array_equal(W, self.V)

    def test_cavity_pair_is_leading_block(self):
        W = reduce(self.V, positions("a1", "a2"))
        np.testing.assert_array_equal(W, self.V[:4, :4])

    def test_order_follows_covariance_not_request(self):
        W = reduce(self.V, positions("e", "a1"))
        np.testing.assert_array_equal(W, self.V[np.ix_([0, 1, 8, 9], [0, 1, 8, 9])])

    def test_composition(self):
        once = reduce(self.V, positions("a1", "n", "d"))
        twice = reduce(once, [0, 2])  # a1 and d within the triple
        direct = reduce(self.V, positions("a1", "d"))
        np.testing.assert_array_equal(twice, direct)

    @pytest.mark.parametrize("modes", [[0, 5], [-1], ["a1"]],
                             ids=["past-the-end", "negative", "label"])
    def test_position_outside_the_state_rejected(self, modes):
        with pytest.raises(GaussianError, match="outside 0..4"):
            reduce(self.V, modes)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(GaussianError, match="duplicate"):
            reduce(self.V, [0, 0])

    @pytest.mark.parametrize("shape", [(3, 3), (4, 6), (10,), (0, 0)],
                             ids=["odd", "not-square", "vector", "empty"])
    def test_shape_that_is_no_covariance_rejected(self, shape):
        with pytest.raises(GaussianError, match="not \\(2m, 2m\\)"):
            reduce(np.zeros(shape), [0])


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        for m in (1, 2, 3, 5):
            np.testing.assert_allclose(symplectic_eigenvalues(0.5 * np.eye(2 * m)), 0.5 * np.ones(m),
                                       atol=1e-12)

    def test_single_mode_squeezing_is_invisible(self):
        r = 0.7
        V = np.diag([np.exp(2 * r) / 2, np.exp(-2 * r) / 2])
        np.testing.assert_allclose(symplectic_eigenvalues(V), [0.5], atol=1e-12)

    def test_two_mode_squeezed_partial_transpose_minimum(self):
        T = np.diag([1.0, -1.0, 1.0, 1.0])  # transposes mode a1
        V = T @ two_mode_squeezed(1.0) @ T
        assert symplectic_eigenvalues(V)[0] == pytest.approx(
            np.exp(-2.0) / 2.0, rel=1e-12)

    def test_pairing_failure_diagnosed(self):
        V = np.array([[1.0, 5.0], [0.0, 1.0]])  # not symmetric
        with pytest.raises(GaussianError, match="pairing"):
            symplectic_eigenvalues(V)

    def test_degenerate_spectrum_is_named(self):
        V = np.zeros((4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero on the way
            with pytest.raises(GaussianError, match="degenerate") as info:
                log_negativity(V)
            with pytest.raises(GaussianError, match="degenerate"):
                symplectic_eigenvalues(V)
        assert isinstance(info.value, NO_STEADY_STATE)  # a sweep error row


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        assert log_negativity(0.5 * np.eye(4)) == 0.0

    def test_thermal_product_is_separable(self):
        V = np.diag([1.5, 1.5, 7.0, 7.0])
        assert log_negativity(V) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
    def test_two_mode_squeezed_analytic(self, r):
        assert log_negativity(two_mode_squeezed(r)) == \
            pytest.approx(2.0 * r, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_partition_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        V = random_physical_covariance(rng, 2)

        def negativity(signs):  # the partial transpose is T V T, T = diag(signs)
            T = np.diag(signs)
            nu = symplectic_eigenvalues(T @ V @ T)[0]
            return max(0.0, -np.log(2 * nu))

        e1 = negativity([1.0, -1.0, 1.0, 1.0])
        e2 = negativity([1.0, 1.0, 1.0, -1.0])
        assert e1 == pytest.approx(e2, abs=1e-10)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_local_squeezing_invariance(self, r):
        V = two_mode_squeezed(0.8)
        S = np.diag([np.exp(r), np.exp(-r), 1.0, 1.0])
        W = S @ V @ S.T
        assert log_negativity(W) == pytest.approx(log_negativity(V), abs=1e-9)


def tms_plus_vacuum(r):
    entries = np.eye(6) * 0.5
    entries[:4, :4] = two_mode_squeezed(r)
    return entries


class TestOneVsTwoNegativity:
    def test_vacuum(self):
        for mode in range(3):
            assert one_vs_two_negativity(0.5 * np.eye(6), mode) == 0.0

    def test_uncorrelated_third_mode_scores_zero(self):
        assert one_vs_two_negativity(tms_plus_vacuum(1.0), 2) == \
            pytest.approx(0.0, abs=1e-12)

    def test_entangled_mode_against_pair_matches_two_mode_value(self):
        r = 0.6
        assert one_vs_two_negativity(tms_plus_vacuum(r), 0) == \
            pytest.approx(2.0 * r, abs=1e-9)

    @pytest.mark.parametrize("mode", [3, -1, "a1"])
    def test_position_outside_the_state_rejected(self, mode):
        with pytest.raises(GaussianError, match="outside 0..2"):
            one_vs_two_negativity(0.5 * np.eye(6), mode)

    @pytest.mark.parametrize("call", [lambda V: one_vs_two_negativity(V, 0),
                                      residual_contangle, log_negativity],
                             ids=["one_vs_two_negativity", "residual_contangle",
                                  "log_negativity"])
    def test_wrong_mode_count_rejected(self, call):
        # a 2-mode state where a 3-mode one is due, and the converse
        V = 0.5 * np.eye(4 if call is not log_negativity else 6)
        with pytest.raises(GaussianError, match="expects a [23]-mode covariance"):
            call(V)


class TestResidualContangle:
    def test_product_state_vanishes(self):
        V = np.diag([0.5, 0.5, 1.0, 1.0, 2.0, 2.0])
        rc = residual_contangle(V)
        assert rc.shape == (3,)
        assert rc.tolist() == [0.0, 0.0, 0.0]

    def test_squeezed_pair_with_spectator_vanishes(self):
        rc = residual_contangle(tms_plus_vacuum(1.0))
        assert rc.min() == pytest.approx(0.0, abs=1e-9)

    def test_clamping_is_logged(self, caplog):
        # the (a1, n, d) triple of one stable network point whose a1-vs-(n, d)
        # partition comes out slightly negative before the clamp
        p = sample_stable_params(seed=41, count=40)[27]
        V3 = reduce(steady_covariance(p)[2], positions("a1", "n", "d"))
        _, raw = gaussian._measures(V3[None], gaussian._TRIPLE_PLAN)
        assert raw[0, 0, 0] < 0.0 < raw[0, 0, 1:].min()
        with caplog.at_level(logging.DEBUG, logger="cavmag.gaussian"):
            rc = residual_contangle(V3)
        assert rc[0] == 0.0
        assert rc[1:].tolist() == raw[0, 0, 1:].tolist()
        assert [r.getMessage() for r in caplog.records] == [
            "clamping 1 negative residual contangle partition(s) to 0, "
            f"the most negative {raw.min():.3e}"]

    def test_one_clamp_line_per_call(self, caplog):
        # the network triples of 40 stable points in one call: one line with
        # the number of negative raw partitions and the most negative one
        stack = np.array([steady_covariance(p)[2]
                          for p in sample_stable_params(seed=41, count=40)])
        with caplog.at_level(logging.DEBUG, logger="cavmag.gaussian"):
            _, raw = gaussian._measures(stack, gaussian.measure_plan(MEASURE_IDS))
        n_clamped = np.count_nonzero(raw < 0.0)
        assert n_clamped > 1
        assert [r.getMessage() for r in caplog.records] == [
            f"clamping {n_clamped} negative residual contangle partition(s) to 0, "
            f"the most negative {raw.min():.3e}"]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cavmag.gaussian"):
            residual_contangle(np.diag([0.5, 0.5, 1.0, 1.0, 2.0, 2.0]))
        assert caplog.records == []

    def test_genuinely_tripartite_point_is_positive(self):
        # antisymmetric delta_a = 0.25 with the magnon near the slow sideband
        p = SystemParams().updated(
            delta_1=-0.25 * WD, delta_2=0.25 * WD, delta_e=2.0 * WD,
            delta_n_tilde_override=0.25 * WD, J=1.0 * WD)
        _, _, V = steady_covariance(p)
        rc = residual_contangle(reduce(V, positions("a1", "n", "d")))
        assert rc.min() > 1e-4


class TestFullReport:
    def test_cavity_hopping_off_kills_cross_cavity_pairs(self):
        report = full_report(SystemParams(J=0.0))
        for mid in ["EN_a1a2", "EN_a1n", "EN_a1d", "EN_a2e", "EN_ne", "EN_de"]:
            assert report.values[mid] < 1e-12

    def test_magnomechanics_off_kills_phonon_pairs(self):
        report = full_report(SystemParams(G_nd=0.0))
        for mid in ["EN_a1d", "EN_a2d", "EN_nd", "EN_de"]:
            assert report.values[mid] < 1e-12

    def test_operating_point_for_magnon_ensemble_pair(self):
        p = SystemParams().updated(
            delta_1=0.76 * WD, delta_2=-0.52 * WD, delta_e=-0.63 * WD,
            delta_n_tilde_override=0.77 * WD, J=0.8 * WD)
        report = full_report(p)
        assert report.stable
        assert report.values["EN_ne"] > 0.1
        assert report.measure("EN_ne") == report.values["EN_ne"]

    def test_unstable_point_reports_no_values(self):
        p = SystemParams().updated(delta_n_tilde_override=-0.65 * WD,
                                   delta_1=-1.41 * WD, delta_2=-0.68 * WD,
                                   delta_e=-1.63 * WD, J=0.35 * WD)
        report = full_report(p)
        assert not report.stable
        assert report.values == {} and report.partitions == {}
        assert report.measure("EN_ne") is None

    def test_measure_values_selected_subset(self):
        _, _, V = steady_covariance(SystemParams())
        values = measure_values(V, ["EN_de", "R_nde"])
        assert set(values) == {"EN_de", "R_nde"}
        report = full_report(SystemParams())
        assert values["EN_de"] == pytest.approx(report.values["EN_de"])

    def test_measure_values_need_the_network_covariance(self):
        _, _, V = steady_covariance(SystemParams())
        with pytest.raises(GaussianError, match="10x10"):
            measure_values(V[:8, :8], ["EN_a1a2"])

    def test_every_bipartite_value_is_nonnegative(self):
        for p in sample_stable_params(seed=21, count=3):
            report = full_report(p)
            assert all(v >= 0.0 for v in report.values.values())
            assert all(v >= 0.0 for parts in report.partitions.values()
                       for v in parts.values())

    def test_pair_keys_cover_the_measure_table(self):
        report = full_report(SystemParams())
        assert list(report.values) == list(MEASURE_IDS)
        assert {mid: tuple(parts) for mid, parts in report.partitions.items()} == \
            TRIPARTITE_MEASURES
        for mid, parts in report.partitions.items():
            assert report.values[mid] == min(parts.values())


# Slow reference: the per-call measure path the stacked kernel replaced
# (reduce -> T V T partial transpose -> kron Omega -> one eigvals per matrix,
# 22 pair and 6 one-vs-two solves per report).  The kernel must match it
# bit for bit.
def _ref_reduce(V, modes):
    idx = [q for k in sorted(modes) for q in (2 * k, 2 * k + 1)]
    return V[np.ix_(idx, idx)]


def _ref_negativity(V, transposed_mode):
    m = len(V) // 2
    signs = np.ones(2 * m)
    signs[2 * transposed_mode + 1] = -1.0
    T = np.diag(signs)
    omega = np.kron(np.eye(m), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    raw = np.abs(np.linalg.eigvals(1j * omega @ (T @ V @ T)))
    raw.sort()
    lo, hi = raw[0::2], raw[1::2]
    if np.any((hi - lo) / np.maximum(hi, 1e-300) > PAIRING_RTOL):
        raise GaussianError("symplectic eigenvalue pairing failure")
    f_min = float((0.5 * (lo + hi))[0])
    return max(0.0, -np.log(2.0 * f_min))


def _ref_pair(V, pair):
    return _ref_negativity(_ref_reduce(V, pair), 0)


def _ref_contangle(V3, labels):
    """Partitions keyed by labels[k] for the singled mode k, and the clamped."""
    partitions, clamped = {}, []
    for k in range(3):
        others = [m for m in range(3) if m != k]
        raw = (_ref_negativity(V3, k)**2 - _ref_pair(V3, [k, others[0]])**2
               - _ref_pair(V3, [k, others[1]])**2)
        if raw < 0.0:
            clamped.append(labels[k])
            raw = 0.0
        partitions[labels[k]] = raw
    return partitions, tuple(clamped)


def _ref_measures(V):
    values = {mid: _ref_pair(V, positions(*pair)) for mid, pair in BIPARTITE_MEASURES.items()}
    contangles = {mid: _ref_contangle(_ref_reduce(V, positions(*triple)), triple)
                  for mid, triple in TRIPARTITE_MEASURES.items()}
    values.update((mid, min(parts.values())) for mid, (parts, _) in contangles.items())
    return values, contangles


@pytest.fixture(scope="module")
def reference_points():
    out = []
    for p in sample_stable_params(seed=41, count=200):
        _, _, V = steady_covariance(p)
        out.append((p, V, *_ref_measures(V)))
    return out


def assert_value_types(got, want):
    """Same values by their bits, each an np.float64 (a zero included); a
    -0.0 where the reference has 0.0 fails."""
    assert [float(g).hex() for g in got] == [float(w).hex() for w in want]
    for g in got:
        assert type(g) is np.float64, g


def clamped_labels(raw, labels):
    """The labels of the negative entries of a triple's raw partitions, the
    reference's clamped tuple."""
    return tuple(label for label, x in zip(labels, raw) if x < 0.0)


class TestStackedKernelMatchesReference:
    def test_full_report_bit_for_bit(self, reference_points):
        clamped = zero = 0
        plan = gaussian.measure_plan(MEASURE_IDS)
        for p, V, values, contangles in reference_points:
            report = full_report(p)
            assert_value_types([report.measure(mid) for mid in MEASURE_IDS],
                               [values[mid] for mid in MEASURE_IDS])
            _, raw = gaussian._measures(V[None], plan)
            for (mid, triple), triple_raw in zip(TRIPARTITE_MEASURES.items(), raw[0]):
                partitions, ref_clamped = contangles[mid]
                assert list(report.partitions[mid]) == list(partitions)
                assert_value_types(list(report.partitions[mid].values()),
                                   list(partitions.values()))
                assert clamped_labels(triple_raw, triple) == ref_clamped
                clamped += len(ref_clamped)
            zero += sum(report.measure(mid) == 0.0 for mid in MEASURE_IDS)
        assert clamped > 0 and zero > 0  # the clamp and zero branches run too

    @pytest.mark.parametrize("ids", [["EN_ne"], ["R_nde"], ["EN_de", "R_nde"],
                                     list(MEASURE_IDS)[::-1]])
    def test_subset_requests_bit_for_bit(self, reference_points, ids):
        for _, V, values, _ in reference_points:
            got = measure_values(V, ids)
            assert list(got) == ids
            assert_value_types(list(got.values()), [values[mid] for mid in ids])

    def test_one_pair_branch_bit_for_bit(self):
        # measure_values on a plan of one pair and no triple (_pair_value)
        # against the stacked kernel on the same plan
        zero = positive = 0
        for p in sample_stable_params(seed=84, count=60):
            _, _, V = steady_covariance(p)
            for mid in BIPARTITE_MEASURES:
                (want,), _ = gaussian._measures(V[None], gaussian.measure_plan((mid,)))
                got = measure_values(V, (mid, mid))
                assert list(got) == [mid]
                assert_value_types(list(got.values()), list(want))
                zero += want[0] == 0.0
                positive += want[0] > 0.0
        assert zero > 0 and positive > 0

    @pytest.mark.parametrize("case", ["unpaired", "degenerate", "non-finite"])
    def test_one_pair_branch_errors(self, case):
        _, _, V = steady_covariance(SystemParams())
        if case == "unpaired":
            V[0, 3] += 50.0  # one-sided x_a1 p_a2 term
        elif case == "degenerate":
            V[:] = 0.0
        else:
            V[0, 2] = np.nan
        with pytest.raises(GaussianError) as want:
            gaussian._measures(V[None], gaussian.measure_plan(("EN_a1a2",)))
        with pytest.raises(GaussianError) as got:
            measure_values(V, ("EN_a1a2",))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith({"unpaired": "symplectic eigenvalue pairing failure",
                                          "degenerate": "degenerate symplectic spectrum",
                                          "non-finite": "eigen-solver failure"}[case])

    @pytest.mark.parametrize("ids", [["EN_ne"], ["EN_de", "R_nde"], list(MEASURE_IDS)])
    def test_stack_form_equals_the_point_form(self, reference_points, ids):
        # the kernel on the stack of covariances, row by row against
        # measure_values on each covariance
        stack = np.array([V for _, V, _, _ in reference_points])
        plan = gaussian.measure_plan(tuple(ids))
        got, raw = gaussian._measures(stack, plan)
        assert got.dtype == np.float64 and got.shape == (len(stack), len(ids))
        assert raw.shape == (len(stack), len(plan.split_pairs), 3)
        for row, V in zip(got, stack):
            want = measure_values(V, ids)
            assert list(want) == ids
            assert_value_types(list(row), list(want.values()))
        got, raw = gaussian._measures(stack[:0], plan)
        assert got.shape == (0, len(ids)) and raw.shape == (0, len(plan.split_pairs), 3)

    @pytest.mark.parametrize("shape", [(10,), (2, 8, 8), (10, 10, 2), (1, 2, 10, 10),
                                       (1, 10, 10)])
    def test_stack_of_the_wrong_shape(self, shape):
        with pytest.raises(GaussianError, match="10x10"):
            measure_values(np.zeros(shape), ["EN_ne"])

    def test_hand_built_three_mode_contangle(self):
        # bare 3-mode states: noisy states squeezed across both cuts, and
        # network triples copied out of their covariance (where the clamp
        # shows); their partitions are keyed by position
        rng = np.random.default_rng(17)
        states = []
        for r in np.linspace(0.0, 1.0, 21):
            S = _two_mode_squeezer(0, 1, r) @ _two_mode_squeezer(1, 2, 0.5 * r)
            states.append(S @ random_physical_covariance(rng, 3, spread=1.4) @ S.T)
        for p in sample_stable_params(seed=41, count=40):
            _, _, V = steady_covariance(p)
            states += [reduce(V, positions(*triple)).copy()
                       for triple in TRIPARTITE_MEASURES.values()]
        clamped = positive = 0
        for V3 in states:
            rc = residual_contangle(V3)
            partitions, ref_clamped = _ref_contangle(V3, range(3))
            assert list(partitions) == [0, 1, 2]
            assert_value_types(list(rc), list(partitions.values()))
            _, raw = gaussian._measures(V3[None], gaussian._TRIPLE_PLAN)
            assert clamped_labels(raw[0, 0], range(3)) == ref_clamped
            assert rc.min() == min(partitions.values())
            clamped += len(ref_clamped)
            positive += sum(v > 0.0 for v in partitions.values())
        assert clamped > 0 and positive > 0

    def test_squares_have_the_scalar_bits(self):
        # states whose negativities x square to other bits as x * x than as
        # the scalar x ** 2 (libm pow): the kernel's raw partitions keep the
        # scalar formula's bits, not those of x * x
        rng = np.random.default_rng(29)
        differ = 0
        for _ in range(400):
            S = (_two_mode_squeezer(0, 1, rng.uniform(0.0, 1.0))
                 @ _two_mode_squeezer(1, 2, rng.uniform(0.0, 1.0)))
            V3 = S @ random_physical_covariance(rng, 3, spread=0.3) @ S.T
            pair = {(k, m): log_negativity(reduce(V3, (k, m)))
                    for k in range(3) for m in range(k + 1, 3)}
            split = [one_vs_two_negativity(V3, k) for k in range(3)]
            want, by_product = [], []
            for k in range(3):
                l, m = (x for x in range(3) if x != k)
                el, em = pair[min(k, l), max(k, l)], pair[min(k, m), max(k, m)]
                want.append(split[k]**2 - el**2 - em**2)
                by_product.append(split[k] * split[k] - el * el - em * em)
            _, raw = gaussian._measures(V3[None], gaussian._TRIPLE_PLAN)
            assert [x.hex() for x in raw[0, 0].tolist()] == [float(x).hex() for x in want]
            differ += [float(x).hex() for x in want] != [float(x).hex() for x in by_product]
        assert differ > 0

    @pytest.mark.parametrize("ids", [["EN_xx"], ["EN_ne", "EN_xx"], ["en_ne"]])
    def test_unknown_measure_id(self, ids):
        _, _, V = steady_covariance(SystemParams())
        unknown = ids[-1]
        for request in (lambda: measure_values(V, ids),
                        lambda: optimize.evaluate_measure(SystemParams(), unknown),
                        lambda: gaussian.measure_plan(tuple(ids))):
            with pytest.raises(GaussianError, match=f"^unknown measure id {unknown!r}$"):
                request()

    def test_unknown_measure_id_in_a_chunk_raises_before_any_work(self, monkeypatch):
        # evaluate_chunk resolves its request first: an unknown id is one
        # GaussianError, not the same error on every stable point after the
        # mean fields and the Lyapunov solves
        calls = []
        for name in ("steady_states", "_lyapunov_solves"):
            def counted(*args, real=getattr(gaussian, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(gaussian, name, counted)
        f = param_arrays([SystemParams()] * 3)
        with pytest.raises(GaussianError, match="^unknown measure id 'EN_xx'$"):
            evaluate_chunk(f, ("EN_ne", "EN_xx"))
        assert calls == []
        values = evaluate_chunk(f, ("EN_ne",)).values
        assert values.shape == (3, 1) and not np.isnan(values).any()
        assert calls == ["steady_states", "_lyapunov_solves"]

    def test_one_unpaired_matrix_fails_the_stack(self):
        _, _, V = steady_covariance(SystemParams())
        bad = V.copy()
        bad[0, 3] += 50.0  # one-sided x_a1 p_a2 term: only the a1-a2 block
        with pytest.raises(GaussianError, match="pairing"):
            measure_values(bad, MEASURE_IDS)
        assert measure_values(bad, ["EN_ne", "R_nde"]) == \
            measure_values(V, ["EN_ne", "R_nde"])

    def test_one_plan_per_tuple_of_ids(self):
        # measure_plan is the one plan memo: a list and a tuple of the same
        # ids, a covariance and a stack, a chunk and a report share its entries
        _, _, V = steady_covariance(SystemParams())
        gaussian.measure_plan.cache_clear()
        measure_values(V, ["EN_ne", "R_nde"])
        measure_values(V, ("EN_ne", "R_nde"))
        evaluate_chunk(param_arrays([SystemParams()] * 2), ("EN_ne", "R_nde"))
        full_report(SystemParams())
        full_report(SystemParams())
        assert gaussian.measure_plan.cache_info().misses == 2
        # every pair of the two triples is one of the ten measured pairs
        assert gaussian.measure_plan(MEASURE_IDS).column.tolist() == list(range(12))


def _ref_point(p):
    """The one-point path from its slow references: np.linalg.eigvals for
    the verdict and scipy's solve_continuous_lyapunov for the covariance
    (_scipy_lyapunov), then _ref_measures: (abscissa, covariance, values,
    contangles), the last three None at an unstable point."""
    A = drift_matrix(p, steady_state(p))
    abscissa = float(np.linalg.eigvals(A).real.max())
    if not abscissa < -STABILITY_EPS_FACTOR * p.omega_d:
        return abscissa, None, None, None
    V = _scipy_lyapunov(A, diffusion_matrix(p))
    return abscissa, V, *_ref_measures(V)


def _table2_ne_points(seed, count):
    cfg = config.load_layers(preset="table2_ne")
    base, box = config.build_system(cfg), config.build_optimize_spec(cfg).box
    rng = np.random.default_rng(seed)
    return [updated_in_omega_d_units(base, {k: rng.uniform(*box[k]) for k in box})
            for _ in range(count)]


class TestOnePointPathMatchesReference:
    """full_report and evaluate_measure against _ref_point, compared with ==
    and by type, at seeded points of the point-random box (SAMPLING_BOX) and
    of the table2_ne optimization box."""

    @pytest.fixture(scope="class", params=["point-random", "table2_ne"])
    def points(self, request):
        if request.param == "table2_ne":
            ps = _table2_ne_points(seed=81, count=40)
        else:
            rng = np.random.default_rng(82)
            ps = [draw_params(rng, SystemParams()) for _ in range(50)]
        # mirrored magnon detunings: mostly unstable points
        ps += [p.updated(delta_n_tilde_override=-p.delta_n_tilde_override) for p in ps[:10]]
        out = [(p, *_ref_point(p)) for p in ps]
        assert 0 < sum(V is not None for _, _, V, _, _ in out) < len(out)
        return out

    def test_full_report(self, points):
        for p, abscissa, V, values, contangles in points:
            report = full_report(p)
            assert report.verdict.spectral_abscissa == abscissa
            assert report.stable is (V is not None)
            if V is None:
                assert report.values == report.partitions == {}
                continue
            assert steady_covariance(p)[2].tobytes() == V.tobytes()
            assert_value_types([report.measure(mid) for mid in MEASURE_IDS],
                               [values[mid] for mid in MEASURE_IDS])
            _, raw = gaussian._measures(V[None], gaussian.measure_plan(MEASURE_IDS))
            for (mid, triple), triple_raw in zip(TRIPARTITE_MEASURES.items(), raw[0]):
                partitions, clamped = contangles[mid]
                assert list(report.partitions[mid]) == list(partitions)
                assert_value_types(list(report.partitions[mid].values()),
                                   list(partitions.values()))
                assert clamped_labels(triple_raw, triple) == clamped

    def test_evaluate_measure(self, points):
        for mid in MEASURE_IDS:
            for p, _, V, values, _ in points:
                got = optimize.evaluate_measure(p, mid)
                if V is None:
                    assert got is None
                else:
                    assert_value_types([got], [values[mid]])


def _two_mode_squeezer(i, j, r, n_modes=3):
    S = np.eye(2 * n_modes)
    c, s = np.cosh(r), np.sinh(r)
    Z = np.diag([1.0, -1.0])
    for a, b in ((i, i), (j, j)):
        S[2 * a:2 * a + 2, 2 * b:2 * b + 2] = c * np.eye(2)
    for a, b in ((i, j), (j, i)):
        S[2 * a:2 * a + 2, 2 * b:2 * b + 2] = s * Z
    return S


def _local_symplectic(rng, n_modes=3):
    """A rotation followed by a single-mode squeeze on every mode."""
    S = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        theta, r = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0)
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        S[2 * k:2 * k + 2, 2 * k:2 * k + 2] = R @ np.diag([np.exp(r), np.exp(-r)])
    return S


class TestProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_local_symplectic_invariance(self, seed):
        rng = np.random.default_rng(seed)
        # entangle a random physical state across both cuts
        S = (_two_mode_squeezer(0, 1, rng.uniform(0.0, 1.0))
             @ _two_mode_squeezer(1, 2, rng.uniform(0.0, 1.0)))
        V = S @ random_physical_covariance(rng, 3, spread=0.3) @ S.T
        L = _local_symplectic(rng)
        before, after = V, L @ V @ L.T
        for mode in range(3):
            assert one_vs_two_negativity(after, mode) == pytest.approx(
                one_vs_two_negativity(before, mode), abs=1e-10)
        rc_before, rc_after = residual_contangle(before), residual_contangle(after)
        for mode in range(3):
            assert rc_after[mode] == pytest.approx(rc_before[mode], abs=1e-10)

    @given(st.integers(min_value=0, max_value=50),
           st.sets(st.sampled_from(MEASURE_IDS)))
    @settings(max_examples=40, deadline=None)
    def test_measure_values_equals_full_report(self, seed, ids):
        p = sample_stable_params(seed=seed, count=1)[0]
        _, _, V = steady_covariance(p)
        report = full_report(p)
        assert measure_values(V, sorted(ids)) == \
            {mid: report.measure(mid) for mid in sorted(ids)}

    @given(st.fixed_dictionaries({name: st.floats(lo, hi)
                                  for name, (lo, hi) in SAMPLING_BOX.items()}))
    @settings(max_examples=40, deadline=None)
    def test_steady_covariance_is_physical(self, values):
        _, _, V = steady_covariance(updated_in_omega_d_units(SystemParams(), values))
        assume(V is not None)
        assert np.array_equal(V, V.T)
        # uncertainty principle: V + i Omega / 2 is positive semidefinite
        omega = np.kron(np.eye(5), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.linalg.eigvalsh(V + 0.5j * omega).min() >= -1e-9 * np.linalg.norm(V)


def _lyapunov_outcome(A, D):
    try:
        return lyapunov_solve(A, D).tolist()
    except NO_STEADY_STATE as exc:
        return type(exc), str(exc)


class TestBatchedLyapunovMatchesPerPoint:
    def assert_same(self, A, D):
        """_lyapunov_solves equals lyapunov_solve matrix by matrix: the
        entries with ==, or the error type and text; returns the errors."""
        V, solved, errors = gaussian._lyapunov_solves(A, D)
        assert sorted(solved.tolist() + list(errors)) == list(range(len(A)))
        got = dict(zip(solved.tolist(), (v.tolist() for v in V)))
        got.update((i, (type(exc), str(exc))) for i, exc in errors.items())
        for i in range(len(A)):
            assert got[i] == _lyapunov_outcome(A[i], D[i])
        return errors

    def stacks(self):
        ps = sample_stable_params(seed=81, count=60)
        A = np.array([drift_matrix(p, steady_state(p)) for p in ps])
        D = np.array([diffusion_matrix(p) for p in ps])
        return A, D

    def test_stable_points(self):
        A, D = self.stacks()
        assert self.assert_same(A, D) == {}

    def test_each_error_on_its_matrix(self):
        A, D = self.stacks()
        A[3] = -A[3]  # unstable
        A[5, 2, 2] = np.inf  # non-finite drift
        D[8, 0, 0] = np.nan  # non-finite diffusion
        A[11] = 0.0  # zero drift: scale 1, spectrum on the axis
        errors = self.assert_same(A, D)
        assert sorted(errors) == [3, 5, 8, 11]

    def test_overflow_breakdowns_on_their_matrices(self):
        A, D = self.stacks()
        hot = SystemParams(T=1e300)
        A[4], D[4] = drift_matrix(hot, steady_state(hot)), diffusion_matrix(hot)
        D[7] *= 1e160  # ||D||_F overflows, trsyl needs no scaling
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            errors = self.assert_same(A, D)
        assert not [w for w in caught if "overflow" in str(w.message)]
        assert sorted(errors) == [4, 7]
        assert str(errors[4]).startswith("solver breakdown: trsyl scaled ")
        assert str(errors[7]).startswith("solver breakdown: Lyapunov residual bound inf")

    def test_residual_breakdown_text(self, monkeypatch):
        monkeypatch.setattr(gaussian, "LYAPUNOV_RESIDUAL_RTOL", 1e-30)
        A, D = self.stacks()
        errors = self.assert_same(A, D)
        assert len(errors) == len(A)
        assert all(str(exc).startswith("solver breakdown: Lyapunov residual ")
                   for exc in errors.values())

    def test_empty_stack(self):
        V, solved, errors = gaussian._lyapunov_solves(np.empty((0, 10, 10)),
                                                      np.empty((0, 10, 10)))
        assert V.shape == (0, 10, 10) and solved.tolist() == [] and errors == {}

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_and_two_matrices(self, k):
        A, D = self.stacks()
        assert self.assert_same(A[:k], D[:k]) == {}
        A[k - 1] = -A[k - 1]  # unstable
        assert sorted(self.assert_same(A[:k], D[:k])) == [k - 1]

    def test_every_form_runs_the_one_core(self, monkeypatch):
        # the factors _schur makes of one matrix reach _sylvester, and an
        # error it raises on them reaches lyapunov_solve and the one-point
        # stable_covariance, and _lyapunov_solves records it at that
        # matrix's position
        ps = sample_stable_params(seed=81, count=60)
        A, D = self.stacks()
        chosen, factored = A[6] / np.abs(A[6]).max(), []
        schur, sylvester = gaussian._schur, gaussian._sylvester

        def factoring(a, *lapack):
            factors = schur(a, *lapack)
            if np.array_equal(a, chosen):
                factored.append(factors)
            return factors

        def failing(factors, *args):
            if any(factors is f for f in factored):
                raise GaussianError("chosen")
            return sylvester(factors, *args)

        monkeypatch.setattr(gaussian, "_schur", factoring)
        monkeypatch.setattr(gaussian, "_sylvester", failing)
        with pytest.raises(GaussianError, match="^chosen$"):
            lyapunov_solve(A[6], D[6])
        # one factorization for both the verdict and the solve
        with pytest.raises(GaussianError, match="^chosen$"):
            gaussian.stable_covariance(ps[6])
        assert len(factored) == 2
        errors = self.assert_same(A, D)
        assert {i: str(exc) for i, exc in errors.items()} == {6: "chosen"}

    def test_perturbation_warning_points_at_the_solve_call(self):
        # trsyl perturbs a near-zero eigenvalue pair at delta_1 = 1e300; the
        # warning names the line of steady_covariance, evaluate_chunk or
        # evaluate_measure that asked for the solve, not a line inside the
        # solver
        p = SystemParams().updated(delta_1=1e300)

        def point():
            with pytest.raises(GaussianError, match="residual"):
                steady_covariance(p)

        def stack():
            assert list(evaluate_chunk(param_arrays([p]), ("EN_ne",)).errors) == [0]

        def measure():
            with pytest.raises(GaussianError, match="residual"):
                optimize.evaluate_measure(p, "EN_ne")

        for run, module, call in (
                (point, gaussian, "lyapunov_solve(A, diffusion_matrix(p))"),
                (stack, gaussian, "_lyapunov_solves(drifts[at], D[keep])"),
                (measure, optimize, "stable_covariance(p)")):
            with pytest.warns(RuntimeWarning, match="perturbing") as record:
                run()
            (warning,) = record
            assert warning.filename == module.__file__
            assert call in linecache.getline(warning.filename, warning.lineno)


def _map_drifts(monkeypatch, **layers):
    """(omega_d, the stack of every drift whose verdict the grid of these
    config layers takes) for the grid without its measures, run serially."""
    cfg = config.load_layers(**layers)
    [(_, spec)] = config.build_grid_specs(cfg, config.build_system(cfg))
    stacks, verdict = [], gaussian.spectral_abscissa

    def recording(A):
        stacks.append(A)
        return verdict(A)

    monkeypatch.setattr(gaussian, "spectral_abscissa", recording)
    sweep.run_grid(sweep.GridSpec(axes=spec.axes, base=spec.base, linkage=spec.linkage),
                   workers=1)
    monkeypatch.undo()
    return spec.base.omega_d, np.concatenate(stacks)


def _verdicts_by_geev(monkeypatch, drifts, omega_d):
    """_schur_verdict of each drift, and how many of them geev decided."""
    geev, verdict = [], gaussian.spectral_abscissa

    def counted(A):
        geev.append(A)
        return verdict(A)

    monkeypatch.setattr(gaussian, "spectral_abscissa", counted)
    stable = [gaussian._schur_verdict(A, omega_d)[0] for A in drifts]
    monkeypatch.undo()
    return stable, len(geev)


class TestSchurVerdictMatchesGeev:
    """The verdict taken from gees' spectrum (_schur_verdict) against the
    verdict of the drift's own geev eigen-solve (spectral_abscissa)."""

    @pytest.mark.parametrize("layers, unstable", [
        ({"preset": "fig2a"}, 0),  # a stable plane
        ({"config_path": Path(__file__).resolve().parents[1] / "perfbench" / "scmap.ini"},
         7164),
    ], ids=["fig2a", "scmap"])
    def test_every_drift_of_a_map(self, layers, unstable, monkeypatch):
        omega_d, drifts = _map_drifts(monkeypatch, **layers)
        assert len(drifts) > 9000
        want = StabilityVerdict.from_abscissa(spectral_abscissa(drifts), omega_d).stable
        got, by_geev = _verdicts_by_geev(monkeypatch, drifts, omega_d)
        assert got == want.tolist()
        assert by_geev == 0  # gees decided every one
        assert len(want) - np.count_nonzero(want) == unstable

    def test_inside_the_band_geev_decides(self, monkeypatch):
        # the table2_ne drift shifted along the identity so that its
        # abscissa sits inside the band around the threshold
        p = config.build_system(config.load_layers(preset="table2_ne"))
        A = drift_matrix(p, steady_state(p))
        threshold = -STABILITY_EPS_FACTOR * p.omega_d
        band = gaussian.VERDICT_BAND * max(p.omega_d, np.abs(A).max())
        shifted = [A + (threshold + x * band - spectral_abscissa(A)) * np.eye(10)
                   for x in (-0.9, -1e-3, 0.0, 1e-3, 0.9)]
        got, by_geev = _verdicts_by_geev(monkeypatch, shifted, p.omega_d)
        assert by_geev == len(shifted)
        want = [spectral_abscissa(B) < threshold for B in shifted]
        assert got == want and got[0] and not got[-1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_drift_raises_the_geev_error(self, bad):
        A = drift_matrix(SystemParams(), steady_state(SystemParams()))
        A[7, 5] = bad
        with pytest.raises(np.linalg.LinAlgError) as want:
            spectral_abscissa(A)
        with pytest.raises(np.linalg.LinAlgError) as got:
            gaussian._schur_verdict(A, WD)
        assert str(got.value) == str(want.value) == "Array must not contain infs or NaNs"

    def test_geev_decides_where_gees_fails(self, monkeypatch):
        ps = sample_stable_params(seed=83, count=5)
        ps += [p.updated(delta_n_tilde_override=-p.delta_n_tilde_override) for p in ps]
        drifts = [drift_matrix(p, steady_state(p)) for p in ps]
        failing_gees(monkeypatch)
        got, by_geev = _verdicts_by_geev(monkeypatch, drifts, WD)
        assert by_geev == len(drifts)
        assert got == [spectral_abscissa(A) < -STABILITY_EPS_FACTOR * WD for A in drifts]
        assert got[0] and not all(got)

    def test_a_zero_drift_is_unstable(self):
        stable, scale, _ = gaussian._schur_verdict(np.zeros((10, 10)), WD)
        assert not stable and scale == 1.0


class TestLapackBinding:
    """gaussian._lapack binds the gees and trsyl that scipy.linalg's
    get_lapack_funcs returns, without importing scipy.linalg."""

    @pytest.mark.parametrize("linalg", ["before", "after"])
    def test_same_objects_and_bits_as_get_lapack_funcs(self, linalg):
        # scipy.linalg imported before or after the first bind, in a process
        # that has not loaded it yet; the drifts are fig2a's points 4000-4999
        run_fresh("""
            import sys
            import numpy as np
            from cavmag import config, gaussian, sweep
            from cavmag.dynamics import drift_matrix, steady_state
            from cavmag.model import updated_in_omega_d_units

            assert "scipy.linalg" not in sys.modules
            if sys.argv[1] == "before":
                import scipy.linalg
            ours = gaussian._lapack()
            assert ("scipy.linalg" in sys.modules) == (sys.argv[1] == "before")
            from scipy.linalg import get_lapack_funcs
            theirs = get_lapack_funcs(("gees", "trsyl"), dtype=np.float64)
            assert ours[0] is theirs[0] and ours[1] is theirs[1]

            cfg = config.load_layers(preset="fig2a")
            [(_, spec)] = config.build_grid_specs(cfg, config.build_system(cfg))
            drifts = []
            for point in sweep.grid_points(spec)[4000:5000]:
                p = updated_in_omega_d_units(spec.base, sweep._point_values(spec, point))
                A = drift_matrix(p, steady_state(p))
                drifts.append(A / np.abs(A).max())
            assert len(drifts) == 1000
            q = -np.eye(10)
            for a in drifts:
                (r, *_, u, _, info), (r_, *_, u_, _, info_) = (
                    gees(lambda *_: None, a, sort_t=0) for gees, _ in (ours, theirs))
                assert info == info_ and r.tobytes() == r_.tobytes()
                assert u.tobytes() == u_.tobytes()
                c = u.T @ q @ u
                y, scale, info = ours[1](r, r, c, tranb="T")
                y_, scale_, info_ = theirs[1](r, r, c, tranb="T")
                assert (scale, info) == (scale_, info_) and y.tobytes() == y_.tobytes()
        """, linalg)

    def test_a_missing_extension_names_the_directory(self, monkeypatch):
        # no fallback to another binding: the uncached call raises
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"^no LAPACK extension _flapack in .*linalg$"):
            gaussian._lapack.__wrapped__()
