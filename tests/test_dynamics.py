import numpy as np
import pytest

from cavmag import dynamics
from cavmag.dynamics import (
    SteadyStateError,
    diffusion_matrices,
    diffusion_matrix,
    drift_matrix,
    spectral_abscissa,
    steady_state,
    steady_states,
)
from cavmag.gaussian import evaluate_chunk, lyapunov_solve, symplectic_eigenvalues
from cavmag.model import ParameterError, SystemParams, updated_in_omega_d_units
from cavmag.sweep import Axis, GridSpec, _point_values, grid_points

from conftest import (draw_params, mean_states, param_arrays, sample_stable_params,
                      verdict_of)

WD = SystemParams().omega_d


def linear_system_oracle(p, dnt):
    """Independent steady-state oracle: generic solve of the coupled
    mean-field fixed-point equations at a pinned effective magnon detuning."""
    M = np.array([
        [p.kappa_a + 1j * p.delta_1, 1j * p.J, 1j * p.G_ae, 0.0],
        [1j * p.J, p.kappa_a + 1j * p.delta_2, 0.0, 1j * p.g_na],
        [1j * p.G_ae, 0.0, p.gamma_e + 1j * p.delta_e, 0.0],
        [0.0, 1j * p.g_na, 0.0, p.kappa_n + 1j * dnt],
    ], dtype=complex)
    b = np.array([p.Omega_l, 0.0, 0.0, p.Omega_n], dtype=complex)
    a1, a2, e, n = np.linalg.solve(M, b)
    x = -(p.g_nd / p.omega_d) * abs(n) ** 2
    return a1, a2, e, n, x


class TestSteadyState:
    def test_undriven_system_is_dark(self):
        p = SystemParams(Omega_l=0.0, Omega_n=0.0, delta_n=0.9 * WD,
                         delta_n_tilde_override=None)
        ss = steady_state(p)
        assert ss.a1 == 0 and ss.a2 == 0 and ss.e == 0 and ss.n == 0
        assert ss.x_mean == 0.0
        assert ss.delta_n_tilde == p.delta_n
        assert ss.iterations == 1

    def test_matches_linear_system_oracle(self):
        p = SystemParams()
        ss = steady_state(p)
        a1, a2, e, n, x = linear_system_oracle(p, p.delta_n_tilde_override)
        assert abs(ss.a1 - a1) <= 1e-10 * abs(a1)
        assert abs(ss.a2 - a2) <= 1e-10 * abs(a2)
        assert abs(ss.e - e) <= 1e-10 * abs(e)
        assert abs(ss.n - n) <= 1e-10 * abs(n)
        assert ss.x_mean == pytest.approx(x, rel=1e-10)

    def test_oracle_agreement_across_detunings(self):
        for p in sample_stable_params(seed=12, count=5):
            ss = steady_state(p)
            a1, a2, e, n, x = linear_system_oracle(p, p.delta_n_tilde_override)
            scale = max(abs(a1), abs(a2), abs(e), abs(n))
            assert abs(ss.a1 - a1) <= 1e-10 * scale
            assert abs(ss.n - n) <= 1e-10 * scale

    def test_self_consistency_invariants(self):
        # strong magnon drive so the magnetostrictive shift is resolvable
        p = SystemParams(Omega_n=5e14, delta_n=0.9 * WD,
                         delta_n_tilde_override=None)
        ss = steady_state(p)
        assert ss.iterations >= 1
        assert ss.x_mean == pytest.approx(
            -(p.g_nd / p.omega_d) * abs(ss.n) ** 2, rel=1e-10)
        assert ss.delta_n_tilde == pytest.approx(
            p.delta_n + p.g_nd * ss.x_mean, rel=1e-10)
        assert ss.delta_n_tilde != p.delta_n  # the shift is real

    def test_override_round_trip(self):
        p = SystemParams(Omega_n=5e14, delta_n=0.9 * WD,
                         delta_n_tilde_override=None)
        converged = steady_state(p)
        pinned = steady_state(p.updated(
            delta_n_tilde_override=converged.delta_n_tilde))
        assert abs(pinned.delta_n_tilde - converged.delta_n_tilde) <= 1e-9 * WD
        assert abs(pinned.n - converged.n) <= 1e-9 * abs(converged.n)
        assert abs(pinned.a1 - converged.a1) <= 1e-9 * abs(converged.a1)

    def test_singular_denominator_raises(self):
        # losses and couplings removed, everything on exact resonance
        p = SystemParams(kappa_a=0.0, kappa_n=0.0, gamma_e=0.0,
                         delta_1=0.0, delta_2=0.0, delta_e=0.0,
                         g_na=0.0, G_ae=0.0, J=0.0,
                         delta_n_tilde_override=0.0)
        with pytest.raises(SteadyStateError, match="singular"):
            steady_state(p)


    @pytest.mark.parametrize("zeroed", [
        dict(gamma_e=0.0, delta_e=0.0),
        dict(kappa_n=0.0, delta_n_tilde_override=0.0),
        dict(kappa_n=0.0, delta_n=0.0, delta_n_tilde_override=None),
    ])
    def test_zero_damping_denominator_raises(self, zeroed):
        # only the ensemble or the magnon denominator vanishes; S and beta
        # stay finite, so this is the kappa_n / gamma_e check
        with pytest.raises(SteadyStateError, match="singular denominator"):
            steady_state(SystemParams().updated(**zeroed))


def _reference_amplitudes(p, dnt):
    """The closed form as it was evaluated before the detuning-independent
    terms were hoisted out of the self-consistency loop."""
    ka1 = p.kappa_a + 1j * p.delta_1
    ka2 = p.kappa_a + 1j * p.delta_2
    kn = p.kappa_n + 1j * dnt
    ge = p.gamma_e + 1j * p.delta_e
    beta = ka2 * kn + p.g_na**2
    S = ka1 * ge * beta + p.G_ae**2 * beta + p.J**2 * ge * kn
    scale = p.omega_d**4
    if abs(S) < 1e-30 * scale or abs(beta) < 1e-30 * p.omega_d**2:
        raise SteadyStateError(
            f"singular denominator in steady-state solve (|S|={abs(S):.3e})"
        )
    num = (p.Omega_l * ka2 * kn * ge + p.g_na**2 * p.Omega_l * ge
           - p.g_na * p.Omega_n * p.J * ge)
    a1 = num / S
    a2 = (-1j * p.J * kn * a1 - 1j * p.g_na * p.Omega_n) / beta
    e = -1j * p.G_ae * a1 / ge
    n = (p.Omega_n - 1j * p.g_na * a2) / kn
    x = -(p.g_nd / p.omega_d) * abs(n) ** 2
    return a1, a2, e, n, x


def _reference_steady_state(p):
    if p.delta_n_tilde_override is not None:
        dnt = p.delta_n_tilde_override
        return (*_reference_amplitudes(p, dnt), dnt, 0)
    dnt = p.delta_n
    for it in range(1, 10_001):
        a1, a2, e, n, x = _reference_amplitudes(p, dnt)
        target = p.delta_n + p.g_nd * x
        if abs(target - dnt) < 1e-12 * p.omega_d:
            return a1, a2, e, n, x, dnt, it
        dnt = 0.5 * dnt + 0.5 * target
    raise SteadyStateError("non-convergent")


class TestSteadyStateMatchesReference:
    def _assert_identical(self, ps):
        """Same amplitudes, detuning and iteration count with ==, or both
        raise; returns the total iteration count."""
        iterations = 0
        for p in ps:
            try:
                want = _reference_steady_state(p)
            except SteadyStateError:
                with pytest.raises(SteadyStateError):
                    steady_state(p)
                continue
            ss = steady_state(p)
            assert (ss.a1, ss.a2, ss.e, ss.n, ss.x_mean, ss.delta_n_tilde,
                    ss.iterations) == want
            iterations += ss.iterations
        return iterations

    def test_pinned_detuning(self):
        rng = np.random.default_rng(61)
        assert self._assert_identical(
            [draw_params(rng, SystemParams()) for _ in range(200)]) == 0

    def test_self_consistent_detuning(self):
        # the stability-map regime: bare magnon detuning, strong magnon drive
        rng = np.random.default_rng(62)
        ps = [draw_params(rng, SystemParams()).updated(
                  delta_n_tilde_override=None,
                  delta_n=rng.uniform(-1.0, 1.0) * WD,
                  Omega_n=rng.uniform(1e11, 5e14))
              for _ in range(200)]
        assert self._assert_identical(ps) > 2 * len(ps)


def hand_transcribed_drift(p, dnt):
    """Second, independent transcription of the drift matrix (1-based dict)."""
    entries = {
        (1, 1): -p.kappa_a, (1, 2): p.delta_1, (1, 4): p.J, (1, 10): p.G_ae,
        (2, 1): -p.delta_1, (2, 2): -p.kappa_a, (2, 3): -p.J, (2, 9): -p.G_ae,
        (3, 2): p.J, (3, 3): -p.kappa_a, (3, 4): p.delta_2, (3, 6): p.g_na,
        (4, 1): -p.J, (4, 3): -p.delta_2, (4, 4): -p.kappa_a, (4, 5): -p.g_na,
        (5, 4): p.g_na, (5, 5): -p.kappa_n, (5, 6): dnt, (5, 7): -p.G_nd,
        (6, 3): -p.g_na, (6, 5): -dnt, (6, 6): -p.kappa_n,
        (7, 8): p.omega_d,
        (8, 6): p.G_nd, (8, 7): -p.omega_d, (8, 8): -p.gamma_d,
        (9, 2): p.G_ae, (9, 9): -p.gamma_e, (9, 10): p.delta_e,
        (10, 1): -p.G_ae, (10, 9): -p.delta_e, (10, 10): -p.gamma_e,
    }
    A = np.zeros((10, 10))
    for (i, j), v in entries.items():
        A[i - 1, j - 1] = v
    return A


class TestDriftMatrix:
    def test_duplicate_transcription_oracle(self):
        rng = np.random.default_rng(5)
        ps = [SystemParams().updated(
            delta_1=rng.uniform(-3, 3) * WD,
            delta_2=rng.uniform(-3, 3) * WD,
            delta_e=rng.uniform(-3, 3) * WD,
            delta_n_tilde_override=rng.uniform(-2, 2) * WD,
            J=rng.uniform(0, 2) * WD,
            g_na=rng.uniform(0, 1) * WD,
            G_nd=rng.uniform(0, 1) * WD,
            G_ae=rng.uniform(0, 1) * WD,
        ) for _ in range(8)]
        for p in ps:
            ss = steady_state(p)
            A = drift_matrix(p, ss)
            np.testing.assert_array_equal(A, hand_transcribed_drift(p, ss.delta_n_tilde))
        # the same points as one chunk; the int64 view tells -0.0 from 0.0
        chunk = param_arrays(ps)
        stack = drift_matrix(chunk, steady_states(chunk)[0])
        assert stack.shape == (8, 10, 10)
        for p, A in zip(ps, stack):
            want = hand_transcribed_drift(p, p.delta_n_tilde_override)
            assert (A.view(np.int64) == want.view(np.int64)).all()

    def test_decoupled_limit_is_block_diagonal(self):
        p = SystemParams(J=0.0, G_ae=0.0, g_na=0.0, G_nd=0.0)
        A = drift_matrix(p, steady_state(p))
        off = A.copy()
        for k in range(5):
            off[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 0.0
        assert np.all(off == 0.0)

    def test_magnon_phonon_block_signs(self):
        p = SystemParams()
        A = drift_matrix(p, steady_state(p))
        assert A[4, 6] == -p.G_nd  # row 5, column 7 (1-based)
        assert A[7, 5] == +p.G_nd  # row 8, column 6
        assert A[6, 7] == p.omega_d

    def test_diagonal_damping_pattern(self):
        p = SystemParams()
        A = drift_matrix(p, steady_state(p))
        expected = [-p.kappa_a] * 4 + [-p.kappa_n] * 2 + [0.0, -p.gamma_d,
                                                          -p.gamma_e, -p.gamma_e]
        np.testing.assert_array_equal(np.diag(A), expected)

    @pytest.mark.parametrize("field", [
        "delta_1", "delta_2", "delta_e", "J", "G_ae", "g_na", "G_nd"])
    def test_entrywise_linearity(self, field):
        p0 = SystemParams()
        values = (0.3 * WD, 0.7 * WD, 1.1 * WD)
        mats = [drift_matrix(q, steady_state(q))
                for q in (p0.updated(**{field: v}) for v in values)]
        np.testing.assert_allclose(mats[2] - mats[1], mats[1] - mats[0],
                                   rtol=1e-12, atol=1e-9)

    def test_linearity_in_effective_magnon_detuning(self):
        p0 = SystemParams()
        mats = [drift_matrix(q, steady_state(q))
                for q in (p0.updated(delta_n_tilde_override=v)
                          for v in (0.5 * WD, 1.0 * WD, 1.5 * WD))]
        np.testing.assert_allclose(mats[2] - mats[1], mats[1] - mats[0],
                                   rtol=1e-12, atol=1e-9)


class TestDiffusionMatrix:
    def test_zero_temperature_diagonal(self):
        p = SystemParams(T=0.0)
        D = diffusion_matrix(p)
        expected = np.diag([p.kappa_a] * 4 + [p.kappa_n] * 2
                           + [0.0, p.gamma_d, p.gamma_e, p.gamma_e])
        np.testing.assert_array_equal(D, expected)
        ps = [p, p.updated(kappa_a=2.0 * p.kappa_a, gamma_e=0.5 * p.gamma_e)]
        stack, errors = diffusion_matrices(param_arrays(ps))
        assert stack.shape == (2, 10, 10) and errors == {}
        for q, got in zip(ps, stack):
            np.testing.assert_array_equal(got, np.diag(
                [q.kappa_a] * 4 + [q.kappa_n] * 2 + [0.0, q.gamma_d, q.gamma_e, q.gamma_e]))

    def test_position_row_is_zero_at_any_temperature(self):
        for T in (0.0, 0.010, 1.0):
            D = diffusion_matrix(SystemParams(T=T))
            assert D[6, 6] == 0.0

    def test_phonon_entry_thermally_weighted(self):
        p = SystemParams()  # 10 mK
        D = diffusion_matrix(p)
        assert D[7, 7] == pytest.approx(
            p.gamma_d * (2 * 20.340618352 + 1.0), rel=1e-9)

    def test_strictly_diagonal(self):
        D = diffusion_matrix(SystemParams())
        assert np.all(D[~np.eye(10, dtype=bool)] == 0.0)

    def test_ensemble_rows_carry_bare_gamma(self):
        p = SystemParams(T=0.300)
        D = diffusion_matrix(p)
        assert D[8, 8] == p.gamma_e and D[9, 9] == p.gamma_e


class TestStability:
    def test_identity_decay_is_stable(self):
        verdict = verdict_of(-np.eye(10), omega_d=1.0)
        assert verdict.stable
        assert verdict.spectral_abscissa == pytest.approx(-1.0)

    def test_positive_diagonal_entry_is_unstable(self):
        p = SystemParams()
        A = np.diag([-p.kappa_a] * 9 + [+p.kappa_a])
        verdict = verdict_of(A, p.omega_d)
        assert not verdict.stable
        assert verdict.spectral_abscissa == pytest.approx(p.kappa_a)

    def test_reference_detunings_are_stable(self):
        p = SystemParams(delta_1=-WD, delta_2=+WD, delta_e=-WD,
                         delta_n_tilde_override=0.9 * WD, J=0.8 * WD)
        verdict = verdict_of(drift_matrix(p, steady_state(p)), p.omega_d)
        assert verdict.stable
        assert verdict.margin > 0

    def test_marginal_system_declared_unstable(self):
        A = np.diag([-1.0] * 9 + [-1e-12])
        assert not verdict_of(A, omega_d=1.0).stable

    def test_stack_matches_one_drift_at_a_time(self):
        # evaluate_chunk takes every verdict from one stacked eigen-solve
        rng = np.random.default_rng(63)
        ps = [draw_params(rng, SystemParams()) for _ in range(60)]
        ps += [p.updated(delta_n_tilde_override=-p.delta_n_tilde_override)
               for p in ps[:20]]
        drifts = np.array([drift_matrix(p, steady_state(p)) for p in ps])
        assert list(spectral_abscissa(drifts)) == [spectral_abscissa(A)
                                                   for A in drifts]
        out = evaluate_chunk(param_arrays(ps), ())
        assert out.errors == {}
        for p, A, abscissa, stable in zip(ps, drifts, out.abscissa.tolist(), out.stable):
            one = verdict_of(A, p.omega_d)
            assert [type(v) for v in vars(one).values()] == [bool, float, float]
            assert (stable, abscissa) == (one.stable, one.spectral_abscissa)
        assert 0 < out.stable.sum() < len(ps)

    def test_stable_points_yield_physical_covariances(self):
        for p in sample_stable_params(seed=13, count=5):
            A = drift_matrix(p, steady_state(p))
            V = lyapunov_solve(A, diffusion_matrix(p))
            assert symplectic_eigenvalues(V)[0] >= 0.5 - 1e-6


def _outcome(run, p):
    """repr of the steady state (it shows the sign of zero and every bit), or
    the type and text of the error."""
    try:
        return repr(run(p))
    except Exception as exc:
        return type(exc), str(exc)


def assert_states_match(ps):
    """steady_states equals steady_state point by point, values by == and
    repr, iterations, and error type and text, and the (k,) arrays of its
    SteadyState equal, bit for bit, those built from steady_state's fields
    at the points without an error; returns the error count.  An error
    outside SteadyStateError is raised for the chunk, that of the first
    point that raises one."""
    raised = [out for out in (_outcome(steady_state, p) for p in ps)
              if isinstance(out, tuple) and out[0] is not SteadyStateError]
    if raised:
        with pytest.raises(Exception) as exc:
            steady_states(param_arrays(ps))
        assert (type(exc.value), str(exc.value)) == raised[0]
        return None
    mean = steady_states(param_arrays(ps))
    states = []
    for p, got in zip(ps, mean_states(mean)):
        want = _outcome(steady_state, p)
        if isinstance(got, Exception):
            assert (type(got), str(got)) == want
        else:
            states.append(steady_state(p))
            assert repr(got) == want and got == states[-1]
            assert [type(v) for v in vars(got).values()] == \
                [complex] * 4 + [float, float, int]
    ss, errors = mean
    ok = [i for i in range(len(ps)) if i not in errors]
    assert [a.dtype for a in vars(ss).values()] == [np.complex128] * 4 + [np.float64] * 2 \
        + [np.int64]
    for name, column in vars(ss).items():
        want = np.array([getattr(state, name) for state in states], dtype=column.dtype)
        assert column.shape == (len(ps),) and column[ok].tobytes() == want.tobytes(), name
    return len(errors)


def scmap_subsample():
    """perfbench/scmap.ini subsampled from 121x81 to 25x17 points, built as
    run_grid builds them."""
    spec = GridSpec(axes=(Axis("delta_a", -2.5, 2.5, 25), Axis("J", 0.2, 1.8, 17)),
                    base=SystemParams(delta_n=0.0, delta_n_tilde_override=None),
                    linkage="antisymmetric")
    return [updated_in_omega_d_units(spec.base, _point_values(spec, pt))
            for pt in grid_points(spec)]


def strong_drive(seed=62, count=400):
    rng = np.random.default_rng(seed)
    return [draw_params(rng, SystemParams()).updated(
                delta_n_tilde_override=None,
                delta_n=rng.uniform(-1.0, 1.0) * WD,
                Omega_n=rng.uniform(1e11, 5e14))
            for _ in range(count)]


# one point per singular denominator of the scalar loop, and two near ones
SINGULAR_SS = [
    SystemParams(kappa_a=0.0, kappa_n=0.0, gamma_e=0.0, delta_1=0.0, delta_2=0.0,
                 delta_e=0.0, g_na=0.0, G_ae=0.0, J=0.0, delta_n_tilde_override=0.0),
    SystemParams(gamma_e=0.0, delta_e=0.0),
    SystemParams(kappa_n=0.0, delta_n_tilde_override=0.0),
    SystemParams(kappa_n=0.0, delta_n=0.0, delta_n_tilde_override=None),
    SystemParams(kappa_n=1e-300, delta_n=0.0, delta_n_tilde_override=None),
    SystemParams(Omega_n=1e160, delta_n=0.0, delta_n_tilde_override=None),
]
# points where the scalar loop overflows
OVERFLOW = [
    SystemParams(Omega_n=1e200, delta_n=0.0, delta_n_tilde_override=None),  # |<n>|**2
    SystemParams(g_na=1e160),  # g_na**2
    SystemParams(omega_d=1e80),  # omega_d**4
]


def _assert_same_spectra(got, want):
    """dynamics.eigvals against np.linalg.eigvals, bit for bit: numpy drops
    the imaginary parts of a real input's spectra when they are all zero."""
    assert got.dtype == np.complex128 and got.shape == want.shape
    if want.dtype == np.complex128:
        assert got.tobytes() == want.tobytes()
    else:
        assert got.real.tobytes() == want.tobytes() and not got.imag.any()


class TestEigvalsMatchesNumpy:
    """dynamics.eigvals binds numpy's eigvals gufunc once and repeats numpy's
    checks; spectral_abscissa and the symplectic spectra both call it."""

    @pytest.mark.parametrize("shape", [(10, 10), (1, 10, 10), (7, 10, 10), (3, 2, 10, 10)])
    def test_real_drift_stacks(self, shape):
        rng = np.random.default_rng(71)
        for _ in range(20):
            A = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
            _assert_same_spectra(dynamics.eigvals(A), np.linalg.eigvals(A))

    def test_real_spectra_stay_complex(self):
        A = np.diag([-1.0, -2.0, 3.0])
        _assert_same_spectra(dynamics.eigvals(A), np.linalg.eigvals(A))

    def test_network_drifts(self):
        rng = np.random.default_rng(72)
        A = np.array([drift_matrix(p, steady_state(p))
                      for p in (draw_params(rng, SystemParams()) for _ in range(50))])
        _assert_same_spectra(dynamics.eigvals(A), np.linalg.eigvals(A))
        for a in A:
            _assert_same_spectra(dynamics.eigvals(a), np.linalg.eigvals(a))

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("k", [1, 5, 200])
    def test_complex_i_omega_w_stacks(self, m, k):
        # the symplectic-spectrum input: i Omega times partially transposed
        # covariance blocks of the network, 4x4 for a pair, 6x6 for a split
        covariances = [lyapunov_solve(drift_matrix(p, steady_state(p)), diffusion_matrix(p))
                       for p in sample_stable_params(seed=73, count=k)]
        i_omega = 1j * np.kron(np.eye(m), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        signs = np.ones(2 * m)
        signs[1] = -1.0
        W = i_omega @ (np.array([V[:2 * m, :2 * m] for V in covariances])
                       * np.outer(signs, signs))
        assert W.shape == (k, 2 * m, 2 * m) and W.dtype == np.complex128
        _assert_same_spectra(dynamics.eigvals(W), np.linalg.eigvals(W))
        _assert_same_spectra(dynamics.eigvals(W[0]), np.linalg.eigvals(W[0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_finite_input(self, bad, dtype):
        A = np.eye(4, dtype=dtype)[None].repeat(3, axis=0)
        A[1, 2, 3] = bad
        self.assert_same_error(A)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (5,), ()])
    def test_not_a_stack_of_square_matrices(self, shape):
        self.assert_same_error(np.ones(shape))

    @staticmethod
    def assert_same_error(A):
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.eigvals(A)
        with pytest.raises(np.linalg.LinAlgError) as got:
            dynamics.eigvals(A)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_non_convergence_is_a_linalg_error(self, monkeypatch):
        # numpy's gufunc flags a LAPACK failure as an invalid value; the
        # binding's errstate turns that flag into numpy's LinAlgError
        def not_converged(a, signature):
            return np.sqrt(np.full(a.shape[:-1], -1.0)).astype(complex)

        monkeypatch.setattr(dynamics, "_geev", not_converged)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            dynamics.eigvals(np.eye(3))

    def test_spectral_abscissa_of_a_non_finite_drift(self):
        A = -np.eye(10)
        A[4, 5] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            spectral_abscissa(A)


class TestArrayMeanFieldMatchesScalar:
    @pytest.fixture(params=["default", "all-array", "all-scalar"])
    def min_live(self, request, monkeypatch):
        """The array loop as configured, run to the last point, or not at all."""
        value = {"default": dynamics._ARRAY_MIN_LIVE, "all-array": 0,
                 "all-scalar": 10**9}[request.param]
        monkeypatch.setattr(dynamics, "_ARRAY_MIN_LIVE", value)

    def test_self_consistent_map(self, min_live):
        assert assert_states_match(scmap_subsample()) == 0

    def test_pinned_detuning(self, min_live):
        rng = np.random.default_rng(61)
        assert assert_states_match([draw_params(rng, SystemParams())
                                    for _ in range(2000)]) == 0

    def test_strong_drive_with_errors(self, min_live):
        assert assert_states_match(strong_drive()) > 5

    def test_every_singular_branch(self, min_live):
        # amid ordinary points, so that the array loop runs
        rng = np.random.default_rng(64)
        ordinary = [draw_params(rng, SystemParams()) for _ in range(40)]
        ps = ordinary + SINGULAR_SS + strong_drive(65, 40) + SINGULAR_SS[::-1]
        assert assert_states_match(ps) >= 2 * 4  # the first four raise

    @pytest.mark.parametrize("overflow", OVERFLOW, ids=["abs-n-squared", "g_na-squared",
                                                       "omega_d-fourth"])
    def test_overflow_is_raised_as_the_scalar_loop_raises_it(self, min_live, overflow):
        rng = np.random.default_rng(66)
        ps = [draw_params(rng, SystemParams()) for _ in range(40)]
        ps[25:25] = [SINGULAR_SS[0], overflow, SystemParams(Omega_n=1e200)]
        assert assert_states_match(ps) == 3
        _, errors = steady_states(param_arrays(ps))
        assert sorted(errors) == [25, 26, 27]
        assert all(str(errors[i]).startswith("overflow in steady-state solve: ")
                   for i in (26, 27))

    def test_signed_zeros(self, min_live):
        # axes that cross 0.0 exactly, J = 0 and -0.0 inputs: repr tells
        # the sign of every zero apart
        ps = []
        for base in (SystemParams(), SystemParams(delta_n=0.0, delta_n_tilde_override=None),
                     SystemParams(J=0.0), SystemParams(J=-0.0, delta_e=-0.0),
                     SystemParams(delta_n=-0.0, delta_n_tilde_override=None, J=0.0)):
            spec = GridSpec(axes=(Axis("delta_a", -1.0, 1.0, 5),
                                  Axis("delta_n_tilde" if base.delta_n is None else "delta_e",
                                       -1.0, 1.0, 5)),
                            base=base, linkage="antisymmetric")
            ps += [updated_in_omega_d_units(spec.base, _point_values(spec, pt))
                   for pt in grid_points(spec)]
        assert any(p.delta_1 == 0.0 for p in ps)
        assert_states_match(ps)

    def test_empty_chunk(self):
        mean = steady_states(param_arrays([]))
        assert mean_states(mean) == [] and mean[1] == {}


class TestDriftAndDiffusionStacks:
    def test_drift_stack_equals_each_drift(self):
        ps = scmap_subsample()[::7] + strong_drive()[::9]
        ps += [SystemParams(J=0.0, G_ae=-0.0, delta_e=0.0)]
        mean = steady_states(param_arrays(ps))
        stack = drift_matrix(param_arrays(ps), mean[0])
        for p, ss, A in zip(ps, mean_states(mean), stack):
            if isinstance(ss, Exception):
                continue
            want = drift_matrix(p, ss)
            # the int64 view tells -0.0 from 0.0
            assert (A.view(np.int64) == want.view(np.int64)).all()

    def test_diffusion_stack_equals_each_diffusion(self):
        ps = [SystemParams(T=T, delta_1=d * WD) for T in (0.0, 0.01, 0.3, 1e300)
              for d in (-1.0, 0.0, 1.0)]
        # a carrier below zero fails the occupation of that point alone
        ps.insert(4, SystemParams(delta_2=-2e6 * WD))
        D, errors = diffusion_matrices(param_arrays(ps))
        assert list(errors) == [4]
        for i, p in enumerate(ps):
            if i in errors:
                with pytest.raises(ParameterError) as want:
                    diffusion_matrix(p)
                assert str(errors[i]) == str(want.value)
            else:
                assert D[i].tolist() == diffusion_matrix(p).tolist()
