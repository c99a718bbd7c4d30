"""Gaussian-state algebra for the steady covariance of the five-mode network.

Quadratures are normalized so the vacuum variance is 1/2 per quadrature; the
separability threshold for the minimum symplectic eigenvalue of a partially
transposed covariance is therefore 1/2.  Logarithms are natural.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .dynamics import (
    MODE_LABELS,
    StabilityVerdict,
    SteadyState,
    SteadyStateError,
    diffusion_matrix,
    drift_matrix,
    spectral_abscissa,
    stability,
    steady_state,
)
from .model import ParameterError, SystemParams

logger = logging.getLogger(__name__)

LYAPUNOV_RESIDUAL_RTOL = 1e-8
PAIRING_RTOL = 1e-6

BIPARTITE_MEASURES = {
    "EN_a1a2": ("a1", "a2"),
    "EN_a1e": ("a1", "e"),
    "EN_a1n": ("a1", "n"),
    "EN_a1d": ("a1", "d"),
    "EN_a2e": ("a2", "e"),
    "EN_a2n": ("a2", "n"),
    "EN_a2d": ("a2", "d"),
    "EN_ne": ("n", "e"),
    "EN_de": ("d", "e"),
    "EN_nd": ("n", "d"),
}
TRIPARTITE_MEASURES = {
    "R_a1nd": ("a1", "n", "d"),
    "R_nde": ("n", "d", "e"),
}
MEASURE_IDS = tuple(BIPARTITE_MEASURES) + tuple(TRIPARTITE_MEASURES)


class GaussianError(RuntimeError):
    pass


# Errors that mean "no usable steady state at this point" rather than a bug:
# sweeps record them as error rows and the optimizer scores them zero.
NO_STEADY_STATE = (SteadyStateError, GaussianError, ParameterError,
                   np.linalg.LinAlgError)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric quadrature covariance with mode-label bookkeeping."""

    entries: np.ndarray
    mode_labels: tuple[str, ...]

    def __post_init__(self):
        n = self.entries.shape[0]
        if self.entries.shape != (n, n) or n != 2 * len(self.mode_labels):
            raise GaussianError(
                f"covariance shape {self.entries.shape} does not match "
                f"{len(self.mode_labels)} mode labels"
            )

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def block_indices(self, label: str) -> tuple[int, int]:
        try:
            k = self.mode_labels.index(label)
        except ValueError:
            raise GaussianError(
                f"unknown mode label {label!r}; have {self.mode_labels}"
            ) from None
        return 2 * k, 2 * k + 1


@dataclass(frozen=True)
class ResidualContangle:
    """Tripartite residual contangle: one value per one-vs-two partition."""

    partitions: dict[str, float]  # keyed by the singled-out mode label
    r_min: float
    clamped: tuple[str, ...] = ()  # partitions whose raw value was negative


@dataclass(frozen=True)
class EntanglementReport:
    """All bipartite negativities and both tripartite contangles at one point."""

    stable: bool
    verdict: StabilityVerdict
    steady: SteadyState
    bipartite: dict[tuple[str, str], float] = field(default_factory=dict)
    tripartite: dict[tuple[str, str, str], ResidualContangle] = field(default_factory=dict)

    def measure(self, measure_id: str) -> float | None:
        if measure_id in BIPARTITE_MEASURES:
            return self.bipartite.get(BIPARTITE_MEASURES[measure_id])
        if measure_id in TRIPARTITE_MEASURES:
            rc = self.tripartite.get(TRIPARTITE_MEASURES[measure_id])
            return None if rc is None else rc.r_min
        raise GaussianError(f"unknown measure id {measure_id!r}")


def lyapunov_solve(A: np.ndarray, D: np.ndarray) -> CovarianceMatrix:
    """Steady covariance V of A V + V A^T + D = 0 for a stable drift A.

    Every eigenvalue of A must lie strictly in the left half-plane.
    The solve is done on matrices prescaled by the largest drift entry and the
    result symmetrized; the residual is verified against
    1e-8 * max(1, ||D||_F) in the caller's units.
    """
    n = A.shape[0]
    if A.shape != (n, n) or D.shape != (n, n):
        raise GaussianError("drift and diffusion must be square and same size")
    if spectral_abscissa(A) >= 0.0:
        raise GaussianError(
            "unstable system: drift spectrum reaches the imaginary axis"
        )
    scale = np.max(np.abs(A))
    V = solve_continuous_lyapunov(A / scale, -D / scale)
    V = 0.5 * (V + V.T)
    residual = np.linalg.norm(A @ V + V @ A.T + D)
    bound = LYAPUNOV_RESIDUAL_RTOL * max(1.0, np.linalg.norm(D))
    if not np.isfinite(V).all() or residual > bound:
        raise GaussianError(
            f"solver breakdown: Lyapunov residual {residual:.3e} exceeds {bound:.3e}"
        )
    labels = MODE_LABELS if n == 10 else tuple(f"m{i}" for i in range(n // 2))
    return CovarianceMatrix(entries=V, mode_labels=labels)


def reduce(V: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Covariance of a subset of modes, kept in V's mode order."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise GaussianError(f"mode subset {modes!r} contains duplicates")
    keep = [label for label in V.mode_labels if label in modes]
    missing = set(modes) - set(keep)
    if missing:
        raise GaussianError(f"unknown mode label(s) {sorted(missing)!r}")
    idx = []
    for label in keep:
        a, b = V.block_indices(label)
        idx += [a, b]
    return CovarianceMatrix(entries=V.entries[np.ix_(idx, idx)],
                            mode_labels=tuple(keep))


def partial_transpose(V: CovarianceMatrix, transposed_mode: str) -> CovarianceMatrix:
    """Flip the second quadrature of one mode: T V T with T a sign diagonal."""
    if V.n_modes not in (2, 3):
        raise GaussianError(
            f"unsupported mode count {V.n_modes}; partial transposition is "
            "defined here for 2- and 3-mode covariances"
        )
    _, w = V.block_indices(transposed_mode)
    signs = np.ones(2 * V.n_modes)
    signs[w] = -1.0
    T = np.diag(signs)
    return CovarianceMatrix(entries=T @ V.entries @ T, mode_labels=V.mode_labels)


def symplectic_eigenvalues(V: CovarianceMatrix) -> np.ndarray:
    """Absolute spectrum of i*Omega*V reduced to the m pair-degenerate values.

    The 2m raw magnitudes are sorted and paired greedily; a relative pair
    mismatch beyond 1e-6 is a diagnostics error.
    """
    m = V.n_modes
    omega = np.kron(np.eye(m), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    try:
        raw = np.abs(np.linalg.eigvals(1j * omega @ V.entries))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise GaussianError(f"eigen-solver failure: {exc}") from exc
    raw.sort()
    lo, hi = raw[0::2], raw[1::2]
    rel = (hi - lo) / np.maximum(hi, 1e-300)
    if np.any(rel > PAIRING_RTOL):
        raise GaussianError(
            f"symplectic eigenvalue pairing failure: spectrum {raw!r}"
        )
    return 0.5 * (lo + hi)


def min_symplectic_eigenvalue(V: CovarianceMatrix) -> float:
    return float(symplectic_eigenvalues(V)[0])


def log_negativity(V2: CovarianceMatrix) -> float:
    """max(0, -ln 2*f) with f the minimum symplectic eigenvalue of the
    partial transpose.  Symmetric in which of the two modes is transposed."""
    if V2.n_modes != 2:
        raise GaussianError("log_negativity expects a 2-mode covariance")
    f_min = min_symplectic_eigenvalue(partial_transpose(V2, V2.mode_labels[0]))
    return max(0.0, -np.log(2.0 * f_min))


def one_vs_two_negativity(V3: CovarianceMatrix, singled_mode: str) -> float:
    """Negativity of one mode against the remaining two of a 3-mode state."""
    if V3.n_modes != 3:
        raise GaussianError("one_vs_two_negativity expects a 3-mode covariance")
    f_min = min_symplectic_eigenvalue(partial_transpose(V3, singled_mode))
    return max(0.0, -np.log(2.0 * f_min))


def residual_contangle(V3: CovarianceMatrix) -> ResidualContangle:
    """Residual contangle per one-vs-two partition, clamped at zero.

    For each singled mode k the raw value is E(k|lm)^2 - E(k|l)^2 - E(k|m)^2
    with squared logarithmic negativities.  Negative excursions are clamped
    to 0 and logged; they range from rounding noise up to ~1e-3, since this
    squared-negativity residual is not exactly monogamous for mixed states.
    """
    if V3.n_modes != 3:
        raise GaussianError("residual_contangle expects a 3-mode covariance")
    partitions: dict[str, float] = {}
    clamped = []
    for k in V3.mode_labels:
        others = [m for m in V3.mode_labels if m != k]
        e_one_two = one_vs_two_negativity(V3, k)
        e_pair = [log_negativity(reduce(V3, [k, other])) for other in others]
        raw = e_one_two**2 - e_pair[0]**2 - e_pair[1]**2
        if raw < 0.0:
            logger.debug(
                "clamping negative residual contangle %.3e for partition %s|%s%s",
                raw, k, others[0], others[1],
            )
            clamped.append(k)
            raw = 0.0
        partitions[k] = raw
    return ResidualContangle(
        partitions=partitions,
        r_min=min(partitions.values()),
        clamped=tuple(clamped),
    )


def steady_covariance(p: SystemParams):
    """Steady state, stability verdict and (if stable) the 10x10 covariance."""
    ss = steady_state(p)
    A = drift_matrix(p, ss)
    verdict = stability(A, p.omega_d)
    if not verdict.stable:
        return ss, verdict, None
    V = lyapunov_solve(A, diffusion_matrix(p))
    return ss, verdict, V


def measure_values(V: CovarianceMatrix, measure_ids) -> dict[str, float]:
    """Requested entanglement measures evaluated on a full covariance."""
    values: dict[str, float] = {}
    for mid in measure_ids:
        if mid in BIPARTITE_MEASURES:
            values[mid] = log_negativity(reduce(V, BIPARTITE_MEASURES[mid]))
        elif mid in TRIPARTITE_MEASURES:
            values[mid] = residual_contangle(
                reduce(V, TRIPARTITE_MEASURES[mid])).r_min
        else:
            raise GaussianError(f"unknown measure id {mid!r}")
    return values


def full_report(p: SystemParams) -> EntanglementReport:
    """Every bipartite negativity plus both tripartite contangles at one point.

    An unstable point yields a report with ``stable=False`` and no values.
    """
    ss, verdict, V = steady_covariance(p)
    if V is None:
        return EntanglementReport(stable=False, verdict=verdict, steady=ss)
    bipartite = {
        pair: log_negativity(reduce(V, pair))
        for pair in BIPARTITE_MEASURES.values()
    }
    tripartite = {
        triple: residual_contangle(reduce(V, triple))
        for triple in TRIPARTITE_MEASURES.values()
    }
    return EntanglementReport(
        stable=True, verdict=verdict, steady=ss,
        bipartite=bipartite, tripartite=tripartite,
    )
