import linecache
import logging
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_lyapunov

from cavmag import gaussian
from cavmag.dynamics import (
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
    integrate_lyapunov,
    param_arrays,
    positions,
    random_physical_covariance,
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
        assert rc.r_min == 0.0
        assert all(v == 0.0 for v in rc.partitions.values())

    def test_squeezed_pair_with_spectator_vanishes(self):
        rc = residual_contangle(tms_plus_vacuum(1.0))
        assert rc.r_min == pytest.approx(0.0, abs=1e-9)

    def test_clamping_is_logged(self, caplog):
        # mildly noisy copy of a product state can dip below zero pre-clamp
        rng = np.random.default_rng(8)
        V = random_physical_covariance(rng, 3, spread=1.4)
        with caplog.at_level(logging.DEBUG, logger="cavmag.gaussian"):
            rc = residual_contangle(V)
        assert rc.r_min >= 0.0
        if rc.clamped:
            assert any("clamping" in r.message for r in caplog.records)

    def test_genuinely_tripartite_point_is_positive(self):
        # antisymmetric delta_a = 0.25 with the magnon near the slow sideband
        p = SystemParams().updated(
            delta_1=-0.25 * WD, delta_2=0.25 * WD, delta_e=2.0 * WD,
            delta_n_tilde_override=0.25 * WD, J=1.0 * WD)
        _, _, V = steady_covariance(p)
        rc = residual_contangle(reduce(V, positions("a1", "n", "d")))
        assert rc.r_min > 1e-4


class TestFullReport:
    def test_cavity_hopping_off_kills_cross_cavity_pairs(self):
        report = full_report(SystemParams(J=0.0))
        for pair in [("a1", "a2"), ("a1", "n"), ("a1", "d"),
                     ("a2", "e"), ("n", "e"), ("d", "e")]:
            assert report.bipartite[pair] < 1e-12

    def test_magnomechanics_off_kills_phonon_pairs(self):
        report = full_report(SystemParams(G_nd=0.0))
        for pair in [("a1", "d"), ("a2", "d"), ("n", "d"), ("d", "e")]:
            assert report.bipartite[pair] < 1e-12

    def test_operating_point_for_magnon_ensemble_pair(self):
        p = SystemParams().updated(
            delta_1=0.76 * WD, delta_2=-0.52 * WD, delta_e=-0.63 * WD,
            delta_n_tilde_override=0.77 * WD, J=0.8 * WD)
        report = full_report(p)
        assert report.stable
        assert report.bipartite[("n", "e")] > 0.1
        assert report.measure("EN_ne") == report.bipartite[("n", "e")]

    def test_unstable_point_reports_no_values(self):
        p = SystemParams().updated(delta_n_tilde_override=-0.65 * WD,
                                   delta_1=-1.41 * WD, delta_2=-0.68 * WD,
                                   delta_e=-1.63 * WD, J=0.35 * WD)
        report = full_report(p)
        assert not report.stable
        assert report.bipartite == {} and report.tripartite == {}
        assert report.measure("EN_ne") is None

    def test_measure_values_selected_subset(self):
        _, _, V = steady_covariance(SystemParams())
        values = measure_values(V, ["EN_de", "R_nde"])
        assert set(values) == {"EN_de", "R_nde"}
        report = full_report(SystemParams())
        assert values["EN_de"] == pytest.approx(report.bipartite[("d", "e")])

    def test_measure_values_need_the_network_covariance(self):
        _, _, V = steady_covariance(SystemParams())
        with pytest.raises(GaussianError, match="10x10"):
            measure_values(V[:8, :8], ["EN_a1a2"])

    def test_every_bipartite_value_is_nonnegative(self):
        for p in sample_stable_params(seed=21, count=3):
            report = full_report(p)
            assert all(v >= 0.0 for v in report.bipartite.values())
            assert all(rc.r_min >= 0.0 for rc in report.tripartite.values())

    def test_pair_keys_cover_the_measure_table(self):
        report = full_report(SystemParams())
        assert set(report.bipartite) == set(BIPARTITE_MEASURES.values())


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
    """Same values with the same Python types: a positive value is an
    np.float64 from np.log, a zero or clamped one the float literal 0.0."""
    assert got == want
    for g, w in zip(got, want):
        assert type(g) is type(w) is (np.float64 if g > 0.0 else float), (g, w)


class TestStackedKernelMatchesReference:
    def test_full_report_bit_for_bit(self, reference_points):
        clamped = zero = 0
        for p, _, values, contangles in reference_points:
            report = full_report(p)
            assert_value_types([report.measure(mid) for mid in MEASURE_IDS],
                               [values[mid] for mid in MEASURE_IDS])
            for mid, triple in TRIPARTITE_MEASURES.items():
                rc = report.tripartite[triple]
                partitions, ref_clamped = contangles[mid]
                assert list(rc.partitions) == list(partitions)
                assert_value_types(list(rc.partitions.values()),
                                   list(partitions.values()))
                assert rc.clamped == ref_clamped
                clamped += len(rc.clamped)
            zero += sum(report.measure(mid) == 0.0 for mid in MEASURE_IDS)
        assert clamped > 0 and zero > 0  # the clamp and zero branches run too

    @pytest.mark.parametrize("ids", [["EN_ne"], ["R_nde"], ["EN_de", "R_nde"],
                                     list(MEASURE_IDS)[::-1]])
    def test_subset_requests_bit_for_bit(self, reference_points, ids):
        for _, V, values, _ in reference_points:
            got = measure_values(V, ids)
            assert list(got) == ids
            assert_value_types(list(got.values()), [values[mid] for mid in ids])

    @pytest.mark.parametrize("ids", [["EN_ne"], ["EN_de", "R_nde"], list(MEASURE_IDS)])
    def test_stack_form_equals_the_point_form(self, reference_points, ids):
        stack = np.array([V for _, V, _, _ in reference_points])
        got = measure_values(stack, ids)
        assert len(got) == len(stack)
        for values, V in zip(got, stack):
            want = measure_values(V, ids)
            assert list(values) == list(want) == ids
            assert_value_types(list(values.values()), list(want.values()))
        assert measure_values(stack[:0], ids) == []

    @pytest.mark.parametrize("shape", [(10,), (2, 8, 8), (10, 10, 2), (1, 2, 10, 10)])
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
            assert list(rc.partitions) == list(partitions) == [0, 1, 2]
            assert_value_types(list(rc.partitions.values()), list(partitions.values()))
            assert rc.clamped == ref_clamped
            assert rc.r_min == min(partitions.values())
            clamped += len(rc.clamped)
            positive += sum(v > 0.0 for v in partitions.values())
        assert clamped > 0 and positive > 0

    def test_one_unpaired_matrix_fails_the_stack(self):
        _, _, V = steady_covariance(SystemParams())
        bad = V.copy()
        bad[0, 3] += 50.0  # one-sided x_a1 p_a2 term: only the a1-a2 block
        with pytest.raises(GaussianError, match="pairing"):
            measure_values(bad, MEASURE_IDS)
        assert measure_values(bad, ["EN_ne", "R_nde"]) == \
            measure_values(V, ["EN_ne", "R_nde"])


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
        for mode, value in rc_before.partitions.items():
            assert rc_after.partitions[mode] == pytest.approx(value, abs=1e-10)

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

    def test_both_forms_run_the_one_core(self, monkeypatch):
        # an error the core raises on one matrix reaches lyapunov_solve, and
        # _lyapunov_solves records it at that matrix's position
        A, D = self.stacks()
        chosen = A[6] / np.abs(A[6]).max()
        core = gaussian._bartels_stewart

        def failing(a, q):
            if np.array_equal(a, chosen):
                raise GaussianError("chosen")
            return core(a, q)

        monkeypatch.setattr(gaussian, "_bartels_stewart", failing)
        with pytest.raises(GaussianError, match="^chosen$"):
            lyapunov_solve(A[6], D[6])
        errors = self.assert_same(A, D)
        assert {i: str(exc) for i, exc in errors.items()} == {6: "chosen"}

    def test_perturbation_warning_points_at_the_solve_call(self):
        # trsyl perturbs a near-zero eigenvalue pair at delta_1 = 1e300; the
        # warning names the line of steady_covariance or evaluate_chunk
        # that asked for the solve, not a line inside the solver
        p = SystemParams().updated(delta_1=1e300)

        def point():
            with pytest.raises(GaussianError, match="residual"):
                steady_covariance(p)

        def stack():
            assert list(evaluate_chunk(param_arrays([p]), ("EN_ne",)).errors) == [0]

        for run, call in ((point, "lyapunov_solve(A, diffusion_matrix(p))"),
                          (stack, "_lyapunov_solves(drifts[at], D[keep])")):
            with pytest.warns(RuntimeWarning, match="perturbing") as record:
                run()
            (warning,) = record
            assert warning.filename == gaussian.__file__
            assert call in linecache.getline(warning.filename, warning.lineno)
