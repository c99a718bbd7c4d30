"""Gaussian-state algebra for the steady covariance of the five-mode network.

Quadratures are normalized so the vacuum variance is 1/2 per quadrature; the
separability threshold for the minimum symplectic eigenvalue of a partially
transposed covariance is therefore 1/2.  Logarithms are natural.
"""
from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .dynamics import (
    MODE_LABELS,
    StabilityVerdict,
    SteadyState,
    SteadyStateError,
    diffusion_matrix,
    drift_matrix,
    spectral_abscissa,
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


# LAPACK's real Schur decomposition and Sylvester solver, bound once
_GEES, _TRSYL = get_lapack_funcs(("gees", "trsyl"), dtype=np.float64)


def _no_sort(*_):
    return None


@functools.cache
def _gees_lwork(n: int) -> int:
    """gees workspace size for n x n matrices (LAPACK's query reads only n)."""
    return int(_GEES(_no_sort, np.zeros((n, n)), lwork=-1)[-2][0].real)


def lyapunov_solve(A: np.ndarray, D: np.ndarray) -> CovarianceMatrix:
    """Steady covariance V of A V + V A^T + D = 0 for a stable drift A.

    Every eigenvalue of A must lie strictly in the left half-plane.  The
    solve is the Bartels-Stewart one (Bartels & Stewart, CACM 15(9), 1972)
    that scipy.linalg.solve_continuous_lyapunov makes, with the same LAPACK
    calls: a real Schur form a = u r u^T, whose diagonal blocks give the
    spectrum for the stability check, then trsyl on r and u^T q u.  It is
    done on matrices prescaled by the largest drift entry and the result
    symmetrized; the residual is verified against 1e-8 * max(1, ||D||_F) in
    the caller's units.
    """
    n = A.shape[0]
    if A.shape != (n, n) or D.shape != (n, n):
        raise GaussianError("drift and diffusion must be square and same size")
    scale = np.max(np.abs(A)) or 1.0  # a zero drift fails the spectrum check
    # max|A| is NaN or inf exactly when A has a non-finite entry
    if not (math.isfinite(scale) and np.isfinite(D).all()):
        raise GaussianError("non-finite drift or diffusion matrix")
    a, q = A / scale, -D / scale
    r, _, wr, _, u, _, info = _GEES(_no_sort, a, lwork=_gees_lwork(n), sort_t=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    if not wr.max() < 0.0:
        raise GaussianError(
            "unstable system: drift spectrum reaches the imaginary axis"
        )
    y, y_scale, info = _TRSYL(r, r, u.T.dot(q.dot(u)), tranb="T")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK trsyl")
    if info == 1:
        warnings.warn("Input \"a\" has an eigenvalue pair whose sum is very close "
                      "to or exactly zero. The solution is obtained via "
                      "perturbing the coefficients.", RuntimeWarning, stacklevel=2)
    y *= y_scale
    V = u.dot(y).dot(u.T)
    V = 0.5 * (V + V.T)
    residual = np.linalg.norm(A @ V + V @ A.T + D)
    bound = LYAPUNOV_RESIDUAL_RTOL * max(1.0, np.linalg.norm(D))
    if not np.isfinite(V).all() or residual > bound:
        raise GaussianError(
            f"solver breakdown: Lyapunov residual {residual:.3e} exceeds {bound:.3e}"
        )
    labels = MODE_LABELS if n == 10 else tuple(f"m{i}" for i in range(n // 2))
    return CovarianceMatrix(entries=V, mode_labels=labels)


def _quadratures(modes) -> list[int]:
    return [q for k in modes for q in (2 * k, 2 * k + 1)]


def reduce(V: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Covariance of a subset of modes, kept in V's mode order."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise GaussianError(f"mode subset {modes!r} contains duplicates")
    keep = [label for label in V.mode_labels if label in modes]
    missing = set(modes) - set(keep)
    if missing:
        raise GaussianError(f"unknown mode label(s) {sorted(missing)!r}")
    idx = _quadratures(V.mode_labels.index(label) for label in keep)
    return CovarianceMatrix(entries=V.entries[np.ix_(idx, idx)],
                            mode_labels=tuple(keep))


def _flip_signs(n_modes: int, k: int) -> np.ndarray:
    """Sign matrix s s^T that flips the second quadrature of mode k when
    applied elementwise: the partial transpose of mode k."""
    s = np.ones(2 * n_modes)
    s[2 * k + 1] = -1.0
    return np.outer(s, s)


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_I_OMEGA = {m: 1j * np.kron(np.eye(m), _J) for m in range(1, len(MODE_LABELS) + 1)}

# Blocks are addressed by ascending mode positions in the covariance
# (MODE_LABELS order for the full state, (0, 1, 2) for a 3-mode one).  A pair
# is transposed on its first mode; a triple stacks its three one-vs-two
# splits, mode r transposed in split r.
_BLOCK_OF = {mid: tuple(sorted(MODE_LABELS.index(m) for m in modes))
             for mid, modes in (BIPARTITE_MEASURES | TRIPARTITE_MEASURES).items()}
_ALL_BLOCKS = tuple(_BLOCK_OF.values())  # the ten pairs, then the two triples
_PAIR_SIGNS = _flip_signs(2, 0)
_SPLIT_SIGNS = np.stack([_flip_signs(3, r) for r in range(3)])


def _symplectic_spectra(W: np.ndarray) -> np.ndarray:
    """Symplectic spectra, ascending, of a (k, 2m, 2m) stack in one eigen-solve.

    The 2m magnitudes of the spectrum of i*Omega*W are sorted and paired; a
    relative pair mismatch beyond PAIRING_RTOL is a diagnostics error, and a
    minimum that is not positive (a singular covariance) is a degenerate
    spectrum.
    """
    m = W.shape[-1] // 2
    i_omega = _I_OMEGA[m] if m in _I_OMEGA else 1j * np.kron(np.eye(m), _J)
    try:
        raw = np.abs(np.linalg.eigvals(i_omega @ W))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise GaussianError(f"eigen-solver failure: {exc}") from exc
    raw.sort()
    lo, hi = raw[:, 0::2], raw[:, 1::2]
    unpaired = (hi - lo) / np.maximum(hi, 1e-300) > PAIRING_RTOL
    if unpaired.any():
        raise GaussianError(
            "symplectic eigenvalue pairing failure: spectrum "
            f"{raw[unpaired.any(axis=1)][0]!r}"
        )
    nu = 0.5 * (lo + hi)
    if not (nu[:, 0] > 0.0).all():
        raise GaussianError(
            f"degenerate symplectic spectrum: minimum symplectic eigenvalue "
            f"{np.min(nu[:, 0]):.3g} is not positive"
        )
    return nu


def _log_negativities(W: np.ndarray) -> list[float]:
    """max(0, -ln 2f) per partially transposed covariance in the stack W,
    f its minimum symplectic eigenvalue: an np.float64 if positive, else the
    float 0.0.  np.log on the array gives each element the bits of np.log on
    that element alone (not those of math.log)."""
    return [max(0.0, e) for e in -np.log(2.0 * _symplectic_spectra(W)[:, 0])]


class _Plan(NamedTuple):
    """What the measure kernel needs of one request, built once per request."""

    pair_index: np.ndarray  # (P, 4, 4) flat covariance indices of the pair blocks
    split_index: np.ndarray  # (S, 6, 6) the same for the splits, three per triple
    # per triple, per split r: the positions of mode r and the other two
    # modes in the covariance, of the split, and of mode r's two pairs
    contangles: tuple
    slots: tuple  # per requested block: (is a triple, position among its kind)


@functools.cache
def _plan(blocks: tuple, n: int) -> _Plan:
    """The plan of a request for these blocks on an n x n covariance: the
    distinct pairs in first-seen order (those of the triples included), then
    the distinct triples."""
    pairs = list(dict.fromkeys(pair for b in blocks for pair in combinations(b, 2)))
    triples = list(dict.fromkeys(b for b in blocks if len(b) == 3))
    at = {pair: i for i, pair in enumerate(pairs)}

    def flat(block):
        q = np.array(_quadratures(block))
        return n * q[:, None] + q

    contangles = []
    for j, t in enumerate(triples):
        parts = []
        for r in range(3):
            others = [x for x in range(3) if x != r]
            parts.append((t[r], *(t[x] for x in others), 3 * j + r,
                          *(at[tuple(sorted((t[r], t[x])))] for x in others)))
        contangles.append(tuple(parts))
    return _Plan(
        pair_index=np.array([flat(p) for p in pairs], dtype=np.intp).reshape(-1, 4, 4),
        split_index=np.array([flat(t) for t in triples for _ in range(3)],
                             dtype=np.intp).reshape(-1, 6, 6),
        contangles=tuple(contangles),
        slots=tuple((True, triples.index(b)) if len(b) == 3 else (False, at[b])
                    for b in blocks),
    )


def _contangle(labels, parts, e_split, e_pair) -> ResidualContangle:
    """Residual contangle of a triple from its split and pair negativities."""
    partitions: dict[str, float] = {}
    clamped = []
    for mode, l, m, split, pair_l, pair_m in parts:
        k = labels[mode]
        raw = e_split[split]**2 - e_pair[pair_l]**2 - e_pair[pair_m]**2
        if raw < 0.0:
            logger.debug(
                "clamping negative residual contangle %.3e for partition %s|%s%s",
                raw, k, labels[l], labels[m],
            )
            clamped.append(k)
            raw = 0.0
        partitions[k] = raw
    return ResidualContangle(
        partitions=partitions,
        r_min=min(partitions.values()),
        clamped=tuple(clamped),
    )


def _measures(entries: np.ndarray, plan: _Plan, labels) -> list[list]:
    """Per covariance of a (k, n, n) stack with these mode labels, per
    requested block of the plan: the pair's log-negativity or the triple's
    ResidualContangle.

    All the pairs of all k covariances take one stacked eigen-solve, and all
    their splits another; each pair negativity is computed once per
    covariance and shared by the contangles.  A stacked eigen-solve gives
    each matrix the bits of a solve on that matrix alone, but an error
    anywhere in a stack raises for the whole stack.
    """
    flat = entries.reshape(len(entries), -1)
    e_pair = e_split = []
    if len(plan.pair_index):
        W = flat.take(plan.pair_index, axis=1) * _PAIR_SIGNS
        e_pair = _log_negativities(W.reshape(-1, 4, 4))
    if plan.contangles:
        W = flat.take(plan.split_index, axis=1).reshape(-1, 3, 6, 6) * _SPLIT_SIGNS
        e_split = _log_negativities(W.reshape(-1, 6, 6))
    n_pairs, n_splits = len(plan.pair_index), len(plan.split_index)
    out = []
    for i in range(len(entries)):
        ep = e_pair[i * n_pairs:(i + 1) * n_pairs]
        es = e_split[i * n_splits:(i + 1) * n_splits]
        contangles = [_contangle(labels, parts, es, ep) for parts in plan.contangles]
        out.append([contangles[pos] if triple else ep[pos]
                    for triple, pos in plan.slots])
    return out


def symplectic_eigenvalues(V: CovarianceMatrix) -> np.ndarray:
    """The m symplectic eigenvalues of an m-mode covariance, ascending.

    The 2m magnitudes of the spectrum of i*Omega*V are sorted and paired
    neighbour with neighbour; a relative pair mismatch beyond PAIRING_RTOL is
    a diagnostics error, and so is a minimum that is not positive.
    """
    return _symplectic_spectra(V.entries[None])[0]


def log_negativity(V2: CovarianceMatrix) -> float:
    """max(0, -ln 2*f) with f the minimum symplectic eigenvalue of the
    partial transpose.  Symmetric in which of the two modes is transposed."""
    if V2.n_modes != 2:
        raise GaussianError("log_negativity expects a 2-mode covariance")
    return _log_negativities((V2.entries * _PAIR_SIGNS)[None])[0]


def one_vs_two_negativity(V3: CovarianceMatrix, singled_mode: str) -> float:
    """Negativity of one mode against the remaining two of a 3-mode state."""
    if V3.n_modes != 3:
        raise GaussianError("one_vs_two_negativity expects a 3-mode covariance")
    _, w = V3.block_indices(singled_mode)
    return _log_negativities((V3.entries * _SPLIT_SIGNS[w // 2])[None])[0]


def residual_contangle(V3: CovarianceMatrix) -> ResidualContangle:
    """Residual contangle per one-vs-two partition, clamped at zero.

    For each singled mode k the raw value is E(k|lm)^2 - E(k|l)^2 - E(k|m)^2
    with squared logarithmic negativities, each pair negativity computed once.
    Negative excursions are clamped to 0 and logged; they range from rounding
    noise up to ~1e-3, since this squared-negativity residual is not exactly
    monogamous for mixed states.
    """
    if V3.n_modes != 3:
        raise GaussianError("residual_contangle expects a 3-mode covariance")
    return _measures(V3.entries[None], _plan(((0, 1, 2),), 6), V3.mode_labels)[0][0]


def steady_covariances(ps) -> list:
    """Per point: (steady state, stability verdict, 10x10 covariance or None
    if unstable), or the NO_STEADY_STATE error the point raised.

    Each point gets steady_state and drift_matrix, then its verdict, then
    diffusion_matrix and lyapunov_solve if it is stable.  All the verdicts
    come from one stacked eigen-solve of the drifts; a stack that LAPACK
    fails is solved one drift at a time, so the error lands on its point.
    """
    out = [None] * len(ps)
    n = 2 * len(MODE_LABELS)
    drifts, live = np.empty((len(ps), n, n)), []
    for i, p in enumerate(ps):
        try:
            ss = steady_state(p)
            drifts[len(live)] = drift_matrix(p, ss)
            live.append((i, ss))
        except NO_STEADY_STATE as exc:
            out[i] = exc
    drifts = drifts[:len(live)]
    try:
        abscissae = spectral_abscissa(drifts).tolist()
    except np.linalg.LinAlgError:
        abscissae = [None] * len(live)
    for (i, ss), A, abscissa in zip(live, drifts, abscissae):
        p = ps[i]
        try:
            if abscissa is None:
                abscissa = spectral_abscissa(A)
            verdict = StabilityVerdict.from_abscissa(abscissa, p.omega_d)
            V = lyapunov_solve(A, diffusion_matrix(p)) if verdict.stable else None
            out[i] = ss, verdict, V
        except NO_STEADY_STATE as exc:
            out[i] = exc
    return out


def steady_covariance(p: SystemParams):
    """Steady state, stability verdict and (if stable) the 10x10 covariance
    at one point: steady_covariances on a one-point list, its error raised."""
    (out,) = steady_covariances([p])
    if isinstance(out, Exception):
        raise out
    return out


def _measure_value_stack(entries: np.ndarray, measure_ids) -> list[dict[str, float]]:
    """measure_values of every 10x10 covariance in a (k, 10, 10) stack, from
    one stacked eigen-solve per block size; an error raises for the stack."""
    ids = tuple(measure_ids)
    try:
        plan = _plan(tuple(_BLOCK_OF[mid] for mid in ids), 2 * len(MODE_LABELS))
    except KeyError as exc:
        raise GaussianError(f"unknown measure id {exc.args[0]!r}") from None
    return [{mid: value.r_min if mid in TRIPARTITE_MEASURES else value
             for mid, value in zip(ids, values)}
            for values in _measures(entries, plan, MODE_LABELS)]


def measure_values(V: CovarianceMatrix, measure_ids) -> dict[str, float]:
    """Requested entanglement measures evaluated on a full covariance."""
    if V.mode_labels != MODE_LABELS:
        raise GaussianError(
            f"measures need mode labels {MODE_LABELS}; have {V.mode_labels}")
    return _measure_value_stack(V.entries[None], measure_ids)[0]


def full_report(p: SystemParams) -> EntanglementReport:
    """Every bipartite negativity plus both tripartite contangles at one point.

    An unstable point yields a report with ``stable=False`` and no values.
    """
    ss, verdict, V = steady_covariance(p)
    if V is None:
        return EntanglementReport(stable=False, verdict=verdict, steady=ss)
    (values,) = _measures(V.entries[None], _plan(_ALL_BLOCKS, 2 * len(MODE_LABELS)),
                          MODE_LABELS)
    return EntanglementReport(
        stable=True, verdict=verdict, steady=ss,
        bipartite=dict(zip(BIPARTITE_MEASURES.values(), values)),
        tripartite=dict(zip(TRIPARTITE_MEASURES.values(),
                            values[len(BIPARTITE_MEASURES):])),
    )
