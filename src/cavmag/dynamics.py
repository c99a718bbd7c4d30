"""Steady-state amplitudes, drift/diffusion matrices and the stability verdict.

Quadrature ordering of the 10-dimensional fluctuation vector: cavity-1 (U, W),
cavity-2 (U, W), magnon (u, w), phonon (x, y), ensemble (u, w).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemParams

MODE_LABELS = ("a1", "a2", "n", "d", "e")

STABILITY_EPS_FACTOR = 1e-9  # stability threshold is -1e-9 * omega_d


class SteadyStateError(RuntimeError):
    """Raised when the mean-field steady state cannot be computed."""


@dataclass(frozen=True)
class SteadyState:
    """Mean amplitudes of the five modes and the effective magnon detuning."""

    a1: complex
    a2: complex
    e: complex
    n: complex
    x_mean: float
    delta_n_tilde: float
    iterations: int  # self-consistency iterations; 0 when the detuning is pinned


@dataclass(frozen=True)
class StabilityVerdict:
    """Verdict on one drift."""

    stable: bool
    spectral_abscissa: float  # max real part of the drift spectrum, rad/s
    margin: float  # distance of the abscissa below the threshold, rad/s

    @classmethod
    def from_abscissa(cls, abscissa: float, omega_d: float) -> "StabilityVerdict":
        """Verdict on a drift with the given spectral abscissa; marginal
        systems within 1e-9 * omega_d of the imaginary axis are unstable."""
        threshold = -STABILITY_EPS_FACTOR * omega_d
        return cls(abscissa < threshold, abscissa, threshold - abscissa)


_SC_MIXING = 0.5
_SC_MAX_ITER = 10_000


def steady_state(p: SystemParams) -> SteadyState:
    """Driven steady state of the five-mode network.

    With ``delta_n_tilde_override`` set, the closed form is evaluated once at
    that detuning.  Otherwise the effective detuning is found by damped
    fixed-point iteration of ``delta_n + g_nd * <x>`` (mixing 0.5) to
    1e-12 * omega_d, with a 10^4 iteration cap.

    The closed form is derived by eliminating the ensemble, magnon and
    cavity-2 amplitudes from the mean-field fixed-point equations.  Its
    detuning-independent terms are computed once, before the loop; each
    product keeps the left-to-right operand order of the full expression.
    """
    ka2 = p.kappa_a + 1j * p.delta_2
    ge = p.gamma_e + 1j * p.delta_e
    ka1_ge = (p.kappa_a + 1j * p.delta_1) * ge
    g_na2 = p.g_na**2
    G_ae2 = p.G_ae**2
    J2_ge = p.J**2 * ge
    Omega_l_ka2 = p.Omega_l * ka2
    drive_l = g_na2 * p.Omega_l * ge
    drive_n = p.g_na * p.Omega_n * p.J * ge
    mi_J, i_gna, mi_Gae = -1j * p.J, 1j * p.g_na, -1j * p.G_ae
    i_gna_Omega_n = i_gna * p.Omega_n
    x_per_n2 = -(p.g_nd / p.omega_d)
    kappa_n, Omega_n, delta_n, g_nd = p.kappa_n, p.Omega_n, p.delta_n, p.g_nd
    tiny_S, tiny_beta = 1e-30 * p.omega_d**4, 1e-30 * p.omega_d**2
    tiny_rate = 1e-30 * p.omega_d
    ge_singular, kn_may_vanish = abs(ge) < tiny_rate, kappa_n < tiny_rate
    tol = 1e-12 * p.omega_d

    pinned = p.delta_n_tilde_override is not None
    dnt = p.delta_n_tilde_override if pinned else delta_n
    for it in range(1, _SC_MAX_ITER + 1):
        kn = kappa_n + 1j * dnt
        beta = ka2 * kn + g_na2
        S = ka1_ge * beta + G_ae2 * beta + J2_ge * kn
        if abs(S) < tiny_S or abs(beta) < tiny_beta:
            raise SteadyStateError(
                f"singular denominator in steady-state solve (|S|={abs(S):.3e})"
            )
        if ge_singular or kn_may_vanish and abs(kn) < tiny_rate:
            raise SteadyStateError(
                "singular denominator in steady-state solve "
                f"(|kappa_n + i delta_n_tilde|={abs(kn):.3e}, "
                f"|gamma_e + i delta_e|={abs(ge):.3e})"
            )
        a1 = (Omega_l_ka2 * kn * ge + drive_l - drive_n) / S
        a2 = (mi_J * kn * a1 - i_gna_Omega_n) / beta
        n = (Omega_n - i_gna * a2) / kn
        x = x_per_n2 * abs(n) ** 2
        if pinned:
            return SteadyState(a1, a2, mi_Gae * a1 / ge, n, x, dnt, 0)
        target = delta_n + g_nd * x
        if abs(target - dnt) < tol:
            return SteadyState(a1, a2, mi_Gae * a1 / ge, n, x, dnt, it)
        dnt = (1.0 - _SC_MIXING) * dnt + _SC_MIXING * target
    raise SteadyStateError(
        f"non-convergent self-consistency after {_SC_MAX_ITER} iterations "
        f"(last delta_n_tilde = {dnt!r})"
    )


def drift_matrix(p: SystemParams, ss: SteadyState) -> np.ndarray:
    """10x10 drift matrix of the linearized quadrature dynamics at the steady
    state.  Row pairs (1-based): a1 1-2, a2 3-4, magnon 5-6, phonon 7-8,
    ensemble 9-10."""
    d1, d2, de = p.delta_1, p.delta_2, p.delta_e
    dnt = ss.delta_n_tilde
    ka, kn, ge, gd = p.kappa_a, p.kappa_n, p.gamma_e, p.gamma_d
    gna, Gnd, Gae, J, wd = p.g_na, p.G_nd, p.G_ae, p.J, p.omega_d
    return np.array((
        -ka,   d1,   0.0,  J,    0.0,  0.0,  0.0,  0.0,  0.0,  Gae,
        -d1,  -ka,  -J,    0.0,  0.0,  0.0,  0.0,  0.0, -Gae,  0.0,
        0.0,   J,   -ka,   d2,   0.0,  gna,  0.0,  0.0,  0.0,  0.0,
        -J,    0.0, -d2,  -ka,  -gna,  0.0,  0.0,  0.0,  0.0,  0.0,
        0.0,   0.0,  0.0,  gna, -kn,   dnt, -Gnd,  0.0,  0.0,  0.0,
        0.0,   0.0, -gna,  0.0, -dnt, -kn,   0.0,  0.0,  0.0,  0.0,
        0.0,   0.0,  0.0,  0.0,  0.0,  0.0,  0.0,  wd,   0.0,  0.0,
        0.0,   0.0,  0.0,  0.0,  0.0,  Gnd, -wd,  -gd,   0.0,  0.0,
        0.0,   Gae,  0.0,  0.0,  0.0,  0.0,  0.0,  0.0, -ge,   de,
        -Gae,  0.0,  0.0,  0.0,  0.0,  0.0,  0.0,  0.0, -de,  -ge,
    )).reshape(10, 10)


def diffusion_matrix(p: SystemParams) -> np.ndarray:
    """Diagonal noise-strength matrix fixed by the input-noise correlations.

    The ensemble rows carry bare ``gamma_e`` (vacuum atomic noise), unlike the
    thermally weighted photon/magnon/phonon rows.
    """
    z = p.occupations()
    diag = np.array([
        p.kappa_a * (2.0 * z.Z_a1 + 1.0),
        p.kappa_a * (2.0 * z.Z_a1 + 1.0),
        p.kappa_a * (2.0 * z.Z_a2 + 1.0),
        p.kappa_a * (2.0 * z.Z_a2 + 1.0),
        p.kappa_n * (2.0 * z.Z_n + 1.0),
        p.kappa_n * (2.0 * z.Z_n + 1.0),
        0.0,
        p.gamma_d * (2.0 * z.Z_d + 1.0),
        p.gamma_e,
        p.gamma_e,
    ])
    return np.diag(diag)


def spectral_abscissa(A: np.ndarray):
    """Largest real part of the spectrum of a matrix (a float) or of each
    matrix in an (..., n, n) stack (an array), from one eigen-solve call; a
    LAPACK failure raises LinAlgError."""
    abscissa = np.linalg.eigvals(np.asarray(A, dtype=float)).real.max(axis=-1)
    return float(abscissa) if abscissa.ndim == 0 else abscissa


def stability(A: np.ndarray, omega_d: float) -> StabilityVerdict:
    """Spectral stability test of one drift: stable iff all its eigenvalues
    decay, with marginal systems within 1e-9 * omega_d of the imaginary axis
    declared unstable."""
    return StabilityVerdict.from_abscissa(spectral_abscissa(A), omega_d)


def export_matrix(matrix: np.ndarray, destination) -> None:
    """Plain-text numeric dump of a drift, diffusion or covariance array."""
    np.savetxt(destination, np.asarray(matrix, dtype=float), fmt="%+.12e")
