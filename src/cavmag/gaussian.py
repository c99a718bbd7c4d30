"""Gaussian-state algebra for the steady covariance of the five-mode network.

Quadratures are normalized so the vacuum variance is 1/2 per quadrature; the
separability threshold for the minimum symplectic eigenvalue of a partially
transposed covariance is therefore 1/2.  Logarithms are natural.

A covariance is a plain (2m, 2m) float array, and a mode is named by its
position in it: for the 10x10 covariance of the network, its index in
MODE_LABELS.
"""
from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .dynamics import (
    MODE_LABELS,
    StabilityVerdict,
    SteadyState,
    SteadyStateError,
    diffusion_matrices,
    diffusion_matrix,
    drift_matrix,
    spectral_abscissa,
    steady_state,
    steady_states,
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
class ResidualContangle:
    """Tripartite residual contangle: one value per one-vs-two partition."""

    partitions: dict  # keyed by the singled-out mode: its label or position
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


@functools.cache
def _lapack():
    """LAPACK's real Schur decomposition and Sylvester solver, (gees, trsyl),
    bound on the first call.  scipy.linalg is imported here, not with the
    module, so that a run that solves no Lyapunov equation (a stability map,
    an unstable point) does not load it."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("gees", "trsyl"), dtype=np.float64)


def _no_sort(*_):
    return None


@functools.cache
def _gees_lwork(n: int) -> int:
    """gees workspace size for n x n matrices (LAPACK's query reads only n)."""
    gees, _ = _lapack()
    return int(gees(_no_sort, np.zeros((n, n)), lwork=-1)[-2][0].real)


def _bartels_stewart(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x of a x + x a^T = q for one prescaled drift a (Bartels-Stewart): the
    real Schur form a = u r u^T (gees), y of r y + y r^T = u^T q u (trsyl),
    then x = u y u^T.  A Schur form LAPACK cannot find and a spectrum that
    reaches the imaginary axis are errors.  trsyl scales y down to keep it
    from overflowing; a y it had to scale is no solution in the caller's
    units, so that is a solver breakdown."""
    gees, trsyl = _lapack()
    r, _, wr, _, u, _, info = gees(_no_sort, a, lwork=_gees_lwork(len(a)), sort_t=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    if not wr[wr.argmax()] < 0.0:  # wr.max(), NaN included, in a third of the time
        raise GaussianError(
            "unstable system: drift spectrum reaches the imaginary axis"
        )
    y, y_scale, info = trsyl(r, r, u.T.dot(q.dot(u)), tranb="T")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK trsyl")
    if info == 1:
        warnings.warn("Input \"a\" has an eigenvalue pair whose sum is very close "
                      "to or exactly zero. The solution is obtained via "
                      "perturbing the coefficients.", RuntimeWarning, stacklevel=3)
    if y_scale != 1.0:
        raise GaussianError(
            f"solver breakdown: trsyl scaled the solution by {y_scale:.3e} "
            "to avoid overflow")
    return u.dot(y).dot(u.T)


def _passes(finite, residual, bound):
    """Whether solves pass the residual check, for one solve or a stack: a
    finite covariance and a residual within a finite bound.  A bound that is
    not finite (the norm of a huge diffusion overflows) checks nothing."""
    return finite & (residual <= bound) & (bound < math.inf)


def _breakdown(residual: float, bound: float) -> GaussianError:
    if not bound < math.inf:
        return GaussianError(f"solver breakdown: Lyapunov residual bound {bound:.3e} "
                             "is not finite")
    return GaussianError(
        f"solver breakdown: Lyapunov residual {residual:.3e} exceeds {bound:.3e}")


def lyapunov_solve(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Steady covariance V of A V + V A^T + D = 0 for a stable drift A.

    Every eigenvalue of A must lie strictly in the left half-plane.  The
    solve is the Bartels-Stewart one (Bartels & Stewart, CACM 15(9), 1972)
    that scipy.linalg.solve_continuous_lyapunov makes, with the same LAPACK
    calls: a real Schur form a = u r u^T, whose diagonal blocks give the
    spectrum for the stability check, then trsyl on r and u^T q u.  It is
    done on matrices prescaled by the largest drift entry and the result
    symmetrized; the residual is verified against 1e-8 * max(1, ||D||_F) in
    the caller's units.  A solution that trsyl had to scale down and a bound
    that is not finite are solver breakdowns.
    """
    n = A.shape[0]
    if A.shape != (n, n) or D.shape != (n, n):
        raise GaussianError("drift and diffusion must be square and same size")
    scale = np.max(np.abs(A)) or 1.0  # a zero drift fails the spectrum check
    # max|A| is NaN or inf exactly when A has a non-finite entry
    if not (math.isfinite(scale) and np.isfinite(D).all()):
        raise GaussianError("non-finite drift or diffusion matrix")
    V = _bartels_stewart(A / scale, -D / scale)
    V = 0.5 * (V + V.T)
    with np.errstate(over="ignore"):  # an overflowing norm fails the check
        residual = np.linalg.norm(A @ V + V @ A.T + D)
        bound = LYAPUNOV_RESIDUAL_RTOL * max(1.0, np.linalg.norm(D))
    if not _passes(np.isfinite(V).all(), residual, bound):
        raise _breakdown(residual, bound)
    return V


def _frobenius(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a stack: the square root of the
    flattened matrix dotted with itself, as a (1, n*n) @ (n*n, 1) product."""
    x = X.reshape(len(X), 1, X.shape[1] * X.shape[2])
    return np.sqrt((x @ x.swapaxes(1, 2))[:, 0, 0])


def _lyapunov_solves(A: np.ndarray, D: np.ndarray):
    """lyapunov_solve of each drift and diffusion pair of two (s, n, n)
    stacks: the covariances that solved, their positions, and the error of
    each pair that did not, by position, with its text.

    The prescaling, the finiteness checks, the symmetrization and the
    residual check run on the stacks, _bartels_stewart once per matrix;
    every stacked product gives each matrix the bits of its own.
    """
    n = A.shape[-1]
    scale = np.abs(A).max(axis=(1, 2))
    scale[scale == 0.0] = 1.0  # a zero drift fails the spectrum check
    finite = np.isfinite(scale) & np.isfinite(D).all(axis=(1, 2))
    errors = {i: GaussianError("non-finite drift or diffusion matrix")
              for i in np.flatnonzero(~finite).tolist()}
    at = np.flatnonzero(finite)
    scale = scale[at, None, None]
    solved, V = [], []
    for i, a, q in zip(at.tolist(), A[at] / scale, -D[at] / scale):
        try:
            V.append(_bartels_stewart(a, q))
        except (np.linalg.LinAlgError, GaussianError) as exc:
            errors[i] = exc
        else:
            solved.append(i)
    ok = np.array(solved, dtype=np.intp)
    V = np.array(V).reshape(-1, n, n)
    V = 0.5 * (V + V.swapaxes(1, 2))
    A, D = A[ok], D[ok]
    with np.errstate(over="ignore"):  # an overflowing norm fails the check
        residual = _frobenius(A @ V + V @ A.swapaxes(1, 2) + D)
        bound = LYAPUNOV_RESIDUAL_RTOL * np.maximum(1.0, _frobenius(D))
    good = _passes(np.isfinite(V).all(axis=(1, 2)), residual, bound)
    for j in np.flatnonzero(~good).tolist():
        errors[solved[j]] = _breakdown(residual[j], bound[j])
    return V[good], ok[good], errors


def _quadratures(modes) -> list[int]:
    return [q for k in modes for q in (2 * k, 2 * k + 1)]


def _n_modes(V: np.ndarray) -> int:
    """m of a (2m, 2m) covariance; any other shape is a GaussianError."""
    n = len(V) if V.ndim == 2 else 0
    if not n or n % 2 or V.shape != (n, n):
        raise GaussianError(f"covariance shape {V.shape} is not (2m, 2m)")
    return n // 2


def reduce(V: np.ndarray, modes) -> np.ndarray:
    """Covariance of a subset of modes, given by their positions in V, kept
    in V's mode order."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise GaussianError(f"mode subset {modes!r} contains duplicates")
    m = _n_modes(V)
    outside = [k for k in modes if k not in range(m)]
    if outside:
        raise GaussianError(f"mode position(s) {outside!r} outside 0..{m - 1}")
    idx = _quadratures(sorted(modes))
    return V[np.ix_(idx, idx)]


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
    partitions = {}
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


def _measures(covariances: np.ndarray, plan: _Plan, labels) -> list[list]:
    """Per covariance of a (k, n, n) stack, per requested block of the plan:
    the pair's log-negativity or the triple's ResidualContangle, whose
    partitions are keyed by labels[position of the singled mode].

    All the pairs of all k covariances take one stacked eigen-solve, and all
    their splits another; each pair negativity is computed once per
    covariance and shared by the contangles.  A stacked eigen-solve gives
    each matrix the bits of a solve on that matrix alone, but an error
    anywhere in a stack raises for the whole stack.
    """
    flat = covariances.reshape(len(covariances), covariances.shape[-1] ** 2)
    e_pair = e_split = []
    if len(plan.pair_index):
        W = flat.take(plan.pair_index, axis=1) * _PAIR_SIGNS
        e_pair = _log_negativities(W.reshape(-1, 4, 4))
    if plan.contangles:
        W = flat.take(plan.split_index, axis=1).reshape(-1, 3, 6, 6) * _SPLIT_SIGNS
        e_split = _log_negativities(W.reshape(-1, 6, 6))
    n_pairs, n_splits = len(plan.pair_index), len(plan.split_index)
    out = []
    for i in range(len(covariances)):
        ep = e_pair[i * n_pairs:(i + 1) * n_pairs]
        es = e_split[i * n_splits:(i + 1) * n_splits]
        contangles = [_contangle(labels, parts, es, ep) for parts in plan.contangles]
        out.append([contangles[pos] if triple else ep[pos]
                    for triple, pos in plan.slots])
    return out


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """The m symplectic eigenvalues of an m-mode covariance, ascending.

    The 2m magnitudes of the spectrum of i*Omega*V are sorted and paired
    neighbour with neighbour; a relative pair mismatch beyond PAIRING_RTOL is
    a diagnostics error, and so is a minimum that is not positive.
    """
    _n_modes(V)  # the shape check
    return _symplectic_spectra(V[None])[0]


def log_negativity(V2: np.ndarray) -> float:
    """max(0, -ln 2*f) with f the minimum symplectic eigenvalue of the
    partial transpose of a 2-mode covariance.  Symmetric in which of the two
    modes is transposed."""
    if _n_modes(V2) != 2:
        raise GaussianError("log_negativity expects a 2-mode covariance")
    return _log_negativities((V2 * _PAIR_SIGNS)[None])[0]


def one_vs_two_negativity(V3: np.ndarray, singled_mode: int) -> float:
    """Negativity of one mode, by its position, against the remaining two of
    a 3-mode state."""
    if _n_modes(V3) != 3:
        raise GaussianError("one_vs_two_negativity expects a 3-mode covariance")
    if singled_mode not in range(3):
        raise GaussianError(f"mode position {singled_mode!r} outside 0..2")
    return _log_negativities((V3 * _SPLIT_SIGNS[singled_mode])[None])[0]


def residual_contangle(V3: np.ndarray) -> ResidualContangle:
    """Residual contangle per one-vs-two partition, clamped at zero.

    For each singled mode k the raw value is E(k|lm)^2 - E(k|l)^2 - E(k|m)^2
    with squared logarithmic negativities, each pair negativity computed once.
    Negative excursions are clamped to 0 and logged; they range from rounding
    noise up to ~1e-3, since this squared-negativity residual is not exactly
    monogamous for mixed states.  The partitions are keyed by the position
    of the singled mode.
    """
    if _n_modes(V3) != 3:
        raise GaussianError("residual_contangle expects a 3-mode covariance")
    return _measures(V3[None], _plan(((0, 1, 2),), 6), range(3))[0][0]


class ChunkOutcome(NamedTuple):
    """What evaluate_chunk found at the points of a chunk, by position."""

    abscissa: np.ndarray  # (k,) spectral abscissa of each drift, NaN without one
    stable: np.ndarray  # (k,) the stability verdicts, False without one
    covariances: np.ndarray  # (s, 10, 10): the stable points that solved, in order
    solved: np.ndarray  # (s,) their positions
    values: dict  # position -> {measure id: value}, for each point measured
    errors: dict  # position -> the NO_STEADY_STATE error of the point


def _take(f, at) -> SimpleNamespace:
    return SimpleNamespace(**{name: a[at] for name, a in vars(f).items()})


def _each(solve, stack, errors, at):
    """solve on a stack whose matrices sit at positions ``at``, in one call;
    if that raises a NO_STEADY_STATE error, one matrix at a time, so that
    each error lands on its own position in ``errors``.  Returns the
    positions that succeeded and their results, in order."""
    try:
        return at.tolist(), solve(stack)
    except NO_STEADY_STATE:
        pass
    done, results = [], []
    for i, x in zip(at.tolist(), stack):
        try:
            results.append(solve(x[None])[0])
        except NO_STEADY_STATE as exc:
            errors[i] = exc
        else:
            done.append(i)
    return done, results


def evaluate_chunk(f, measure_ids) -> ChunkOutcome:
    """The evaluation kernel on a chunk ``f`` of points: one (k,) float array
    per SystemParams field, NaN where a field is None.

    The mean fields come from steady_states and the drifts from one stack;
    all the verdicts come from one stacked eigen-solve.  Without measure ids
    that is all: no diffusion and no Lyapunov solve.  With them, the stable
    points get their diffusions from one stack, their covariances from
    _lyapunov_solves and their values from measure_values on the stack of
    covariances.  A stacked eigen-solve that fails is redone one matrix at
    a time, so the error lands on its point.  Each point's outcome is that
    of steady_state, drift_matrix, its verdict, diffusion_matrix,
    lyapunov_solve and measure_values in turn; an error outside
    NO_STEADY_STATE is raised.
    """
    k = len(f.omega_d)
    mean = steady_states(f)
    errors = dict(mean.errors)
    drifts = drift_matrix(f, mean)
    live = np.setdiff1d(np.arange(k), list(errors))
    abscissa = np.full(k, np.nan)
    done, abscissae = _each(spectral_abscissa, drifts[live], errors, live)
    abscissa[done] = abscissae
    stable = StabilityVerdict.from_abscissa(abscissa, f.omega_d).stable
    at = np.flatnonzero(stable)
    if not measure_ids:
        return ChunkOutcome(abscissa, stable, drifts[:0], at[:0], {}, errors)
    D, failed = diffusion_matrices(_take(f, at))
    keep = np.setdiff1d(np.arange(len(at)), list(failed))
    errors.update((int(at[j]), exc) for j, exc in failed.items())
    at = at[keep]
    V, solved, failed = _lyapunov_solves(drifts[at], D[keep])
    errors.update((int(at[j]), exc) for j, exc in failed.items())
    at = at[solved]
    measured, values = _each(lambda stack: measure_values(stack, measure_ids), V, errors, at)
    return ChunkOutcome(abscissa, stable, V, at, dict(zip(measured, values)), errors)


def steady_covariance(p: SystemParams):
    """Steady state, stability verdict and (if stable) the 10x10 covariance
    at one point: steady_state, drift_matrix, the drift's eigen-solve, then
    diffusion_matrix and lyapunov_solve if it is stable."""
    ss = steady_state(p)
    A = drift_matrix(p, ss)
    verdict = StabilityVerdict.from_abscissa(spectral_abscissa(A), p.omega_d)
    V = lyapunov_solve(A, diffusion_matrix(p)) if verdict.stable else None
    return ss, verdict, V


def measure_values(V: np.ndarray, measure_ids):
    """Requested entanglement measures evaluated on a 10x10 covariance, as a
    {measure id: value} dict.  Also takes an (s, 10, 10) stack, and then
    returns one dict per covariance, from one stacked eigen-solve per block
    size; an error anywhere in the stack raises for the whole stack."""
    if V.ndim > 3 or V.shape[-2:] != (2 * len(MODE_LABELS),) * 2:
        raise GaussianError("measures need a 10x10 covariance or a stack of them; "
                            f"have shape {V.shape}")
    ids = tuple(measure_ids)
    try:
        plan = _plan(tuple(_BLOCK_OF[mid] for mid in ids), 2 * len(MODE_LABELS))
    except KeyError as exc:
        raise GaussianError(f"unknown measure id {exc.args[0]!r}") from None
    values = [{mid: value.r_min if mid in TRIPARTITE_MEASURES else value
               for mid, value in zip(ids, values)}
              for values in _measures(V if V.ndim == 3 else V[None], plan, MODE_LABELS)]
    return values if V.ndim == 3 else values[0]


def full_report(p: SystemParams) -> EntanglementReport:
    """Every bipartite negativity plus both tripartite contangles at one point.

    An unstable point yields a report with ``stable=False`` and no values.
    """
    ss, verdict, V = steady_covariance(p)
    if V is None:
        return EntanglementReport(stable=False, verdict=verdict, steady=ss)
    (values,) = _measures(V[None], _plan(_ALL_BLOCKS, 2 * len(MODE_LABELS)),
                          MODE_LABELS)
    return EntanglementReport(
        stable=True, verdict=verdict, steady=ss,
        bipartite=dict(zip(BIPARTITE_MEASURES.values(), values)),
        tripartite=dict(zip(TRIPARTITE_MEASURES.values(),
                            values[len(BIPARTITE_MEASURES):])),
    )
