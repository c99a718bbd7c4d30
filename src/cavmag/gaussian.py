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
import importlib.machinery
import importlib.util
import logging
import math
import os
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .dynamics import (
    MODE_LABELS,
    STABILITY_EPS_FACTOR,
    StabilityVerdict,
    SteadyState,
    SteadyStateError,
    diffusion_matrices,
    diffusion_matrix,
    drift_matrix,
    eigvals,
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
class EntanglementReport:
    """All bipartite negativities and both tripartite contangles at one point."""

    stable: bool
    steady: SteadyState
    values: dict[str, float] = field(default_factory=dict)  # by measure id
    # per tripartite id, its clamped partitions by the singled mode's label
    partitions: dict[str, dict[str, float]] = field(default_factory=dict)

    def measure(self, measure_id: str) -> float | None:
        if measure_id not in MEASURE_IDS:
            raise GaussianError(f"unknown measure id {measure_id!r}")
        return self.values.get(measure_id)


@functools.cache
def _lapack():
    """LAPACK's real Schur decomposition and Sylvester solver for float64,
    (gees, trsyl), bound on the first call, so that a run that factors no
    drift (a stability map, an unstable ``cavmag point``, whose verdict is
    geev's) loads no scipy.

    They are the objects scipy.linalg.get_lapack_funcs returns, taken from
    the f2py extension it reads them from, scipy/linalg/_flapack, without
    importing scipy.linalg (which costs a cold process about 0.1 s and 20 MB
    more).  Only scipy's top level is imported; its set-up finds the bundled
    BLAS.  The extension is single-phase: the interpreter initializes it
    once and keeps it in sys.modules under its name, so an ``import
    scipy.linalg`` before or after this call holds these same objects.  A
    scipy without that file raises ImportError.
    """
    import scipy

    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(where, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no LAPACK extension _flapack in {where}")
    loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
    flapack = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader, origin=path))
    loader.exec_module(flapack)
    return flapack.dgees, flapack.dtrsyl


def _no_sort(*_):
    return None


@functools.cache
def _gees_lwork(n: int) -> int:
    """gees workspace size for n x n matrices (LAPACK's query reads only n)."""
    gees, _ = _lapack()
    return int(gees(_no_sort, np.zeros((n, n)), lwork=-1)[-2][0].real)


def _schur(a: np.ndarray, gees, lwork: int):
    """The Bartels-Stewart factor step on one prescaled drift a: gees' real
    Schur form a = u r u^T, as (r, u, wr, info), wr the real parts of a's
    spectrum and info gees' own, which _sylvester checks.  The caller looks
    up gees (_lapack) and its workspace size (_gees_lwork) once for all its
    solves."""
    r, _, wr, _, u, _, info = gees(_no_sort, a, lwork=lwork, sort_t=0)
    return r, u, wr, info


def _sylvester(schur, q: np.ndarray, trsyl) -> np.ndarray:
    """The Bartels-Stewart solve step (Bartels & Stewart, CACM 15(9), 1972):
    x of a x + x a^T = q from a's _schur factors, by y of r y + y r^T =
    u^T q u (trsyl), then x = u y u^T.  A Schur form LAPACK could not find
    and a spectrum that reaches the imaginary axis are errors.  trsyl
    scales y down to keep it from overflowing; a y it had to scale is no
    solution in the caller's units, so that is a solver breakdown."""
    r, u, wr, info = schur
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


_NON_FINITE = "non-finite drift or diffusion matrix"


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
    scale = np.abs(A).max() or 1.0  # a zero drift fails the spectrum check
    # max|A| is NaN or inf exactly when A has a non-finite entry
    if not (math.isfinite(scale) and np.count_nonzero(np.isfinite(D)) == D.size):
        raise GaussianError(_NON_FINITE)
    gees, trsyl = _lapack()
    # D / -scale is -D / scale bit for bit, in one operation
    return _checked(A, D, _sylvester(_schur(A / scale, gees, _gees_lwork(n)),
                                     D / -scale, trsyl))


def _checked(A: np.ndarray, D: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The symmetrized V of one solve, if it passes the residual check of
    lyapunov_solve; else its breakdown error."""
    V = 0.5 * (V + V.T)
    # each norm is np.linalg.norm's: sqrt(x . x), x the flattened matrix
    with np.errstate(over="ignore"):  # an overflowing norm fails the check
        r, d = (A @ V + V @ A.T + D).ravel(), D.ravel()
        residual = math.sqrt(r.dot(r))
        bound = LYAPUNOV_RESIDUAL_RTOL * max(1.0, math.sqrt(d.dot(d)))
    if not _passes(np.count_nonzero(np.isfinite(V)) == V.size, residual, bound):
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
    residual check run on the stacks, _schur and _sylvester once per matrix;
    every stacked product gives each matrix the bits of its own.
    """
    n = A.shape[-1]
    scale = np.abs(A).max(axis=(1, 2))
    scale[scale == 0.0] = 1.0  # a zero drift fails the spectrum check
    finite = np.isfinite(scale) & np.isfinite(D).all(axis=(1, 2))
    errors = {i: GaussianError(_NON_FINITE)
              for i in np.flatnonzero(~finite).tolist()}
    at = np.flatnonzero(finite)
    scale = scale[at, None, None]
    solved, V = [], []
    if len(at):  # no solve, no scipy
        (gees, trsyl), lwork = _lapack(), _gees_lwork(n)
    for i, a, q in zip(at.tolist(), A[at] / scale, D[at] / -scale):
        try:
            V.append(_sylvester(_schur(a, gees, lwork), q, trsyl))
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
        raw = np.abs(eigvals(i_omega @ W))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise GaussianError(f"eigen-solver failure: {exc}") from exc
    raw.sort()
    lo, hi = raw[:, 0::2], raw[:, 1::2]
    unpaired = (hi - lo) / np.maximum(hi, 1e-300) > PAIRING_RTOL
    if np.count_nonzero(unpaired):
        raise GaussianError(
            "symplectic eigenvalue pairing failure: spectrum "
            f"{raw[unpaired.any(axis=1)][0]!r}"
        )
    nu = 0.5 * (lo + hi)
    if np.count_nonzero(nu[:, 0] > 0.0) < len(nu):
        raise GaussianError(
            f"degenerate symplectic spectrum: minimum symplectic eigenvalue "
            f"{np.min(nu[:, 0]):.3g} is not positive"
        )
    return nu


def _log_negativities(W: np.ndarray) -> np.ndarray:
    """max(0, -ln 2f) per partially transposed covariance in the stack W,
    f its minimum symplectic eigenvalue.  np.log on the array gives each
    element the bits of np.log on that element alone (not those of
    math.log); the clamp is Python's max(0.0, e), -0.0 and NaN included."""
    e = -np.log(2.0 * _symplectic_spectra(W)[:, 0])
    return np.where(e > 0.0, e, 0.0)


class _Plan(NamedTuple):
    """What the measure kernel needs of one request, built once per request."""

    # flat covariance indices of the P pair blocks (16 each), then of the
    # three splits of each of the T triples (36 each), and the
    # partial-transpose sign of each of those entries
    index: np.ndarray
    signs: np.ndarray
    n_pairs: int  # P
    # (T, 3, 2): per triple, per split r (mode r transposed), the pairs of
    # mode r with each of the other two modes, as positions among the pairs
    split_pairs: np.ndarray
    # per requested block, its column among the P pair values, then the T
    # triple values
    column: np.ndarray


def _plan(blocks: tuple, n: int) -> _Plan:
    """The plan of a request for these blocks on an n x n covariance: the
    distinct pairs in first-seen order (those of the triples included), then
    the distinct triples."""
    pairs = list(dict.fromkeys(pair for b in blocks for pair in combinations(b, 2)))
    triples = list(dict.fromkeys(b for b in blocks if len(b) == 3))
    at = {pair: i for i, pair in enumerate(pairs)}

    def flat(block):
        q = np.array(_quadratures(block))
        return (n * q[:, None] + q).ravel()

    return _Plan(
        index=np.concatenate([flat(p) for p in pairs]
                             + [flat(t) for t in triples for _ in range(3)]
                             + [np.empty(0, dtype=np.intp)]),
        signs=np.concatenate([_PAIR_SIGNS.ravel()] * len(pairs)
                             + [_SPLIT_SIGNS.ravel()] * len(triples) + [np.empty(0)]),
        n_pairs=len(pairs),
        split_pairs=np.array([[[at[tuple(sorted((t[r], t[x])))] for x in range(3) if x != r]
                               for r in range(3)] for t in triples],
                             dtype=np.intp).reshape(-1, 3, 2),
        column=np.array([len(pairs) + triples.index(b) if len(b) == 3 else at[b]
                         for b in blocks], dtype=np.intp),
    )


@functools.cache
def measure_plan(ids: tuple) -> _Plan:
    """The plan of a request for a tuple of measure ids on the 10x10
    covariance, made once per distinct tuple and cached, so that a search
    that measures many covariances makes it once.  An unknown id is a
    GaussianError."""
    try:
        blocks = tuple(_BLOCK_OF[mid] for mid in ids)
    except KeyError as exc:
        raise GaussianError(f"unknown measure id {exc.args[0]!r}") from None
    return _plan(blocks, 2 * len(MODE_LABELS))


_TRIPLE_PLAN = _plan(((0, 1, 2),), 6)  # residual_contangle's, on a 3-mode state


def _clamped(raw: np.ndarray) -> np.ndarray:
    """Residual contangle partitions with their negative values set to 0."""
    return np.where(raw < 0.0, 0.0, raw)


def _measures(covariances: np.ndarray, plan: _Plan):
    """The plan's measures of each covariance of an (s, n, n) stack: an
    (s, n_ids) float64 array of values in request order, and the
    (s, T, 3) array of each triple's raw residual contangle partitions,
    E(r|lm)^2 - E(r|l)^2 - E(r|m)^2 for the singled mode r in block order,
    before the clamp at zero.  A triple's value is its smallest clamped
    partition.

    All the pairs of all s covariances take one stacked eigen-solve, and
    all their splits another; each pair negativity is computed once per
    covariance and shared by the contangles.  A stacked eigen-solve gives
    each matrix the bits of a solve on that matrix alone, but an error
    anywhere in a stack raises for the whole stack.  The squares are
    np.float_power's, which has the bits of the scalar x ** 2 (libm pow),
    where x * x differs in the last bit for some x.  The clamped partitions
    are logged once per call, with their count and the most negative value.
    """
    s, n = len(covariances), covariances.shape[-1]
    W = covariances.reshape(s, n * n).take(plan.index, axis=1) * plan.signs
    P, T = plan.n_pairs, len(plan.split_pairs)
    values = _log_negativities(W[:, :16 * P].reshape(-1, 4, 4)).reshape(s, P)
    raw = np.empty((s, 0, 3))
    if T:
        e_split = _log_negativities(W[:, 16 * P:].reshape(-1, 6, 6)).reshape(s, T, 3)
        pair_sq = np.float_power(values[:, plan.split_pairs], 2)
        raw = np.float_power(e_split, 2) - pair_sq[..., 0] - pair_sq[..., 1]
        n_clamped = np.count_nonzero(raw < 0.0)
        if n_clamped:
            logger.debug("clamping %d negative residual contangle partition(s) to 0, "
                         "the most negative %.3e", n_clamped, raw.min())
        values = np.concatenate((values, _clamped(raw).min(axis=2)), axis=1)
    return values.take(plan.column, axis=1), raw


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


def residual_contangle(V3: np.ndarray) -> np.ndarray:
    """Residual contangle per one-vs-two partition, clamped at zero: a (3,)
    array by the position of the singled mode.

    For each singled mode k the raw value is E(k|lm)^2 - E(k|l)^2 - E(k|m)^2
    with squared logarithmic negativities, each pair negativity computed once.
    Negative excursions are clamped to 0 and logged; they range from rounding
    noise up to ~1e-3, since this squared-negativity residual is not exactly
    monogamous for mixed states.  The contangle is the smallest partition.
    """
    if _n_modes(V3) != 3:
        raise GaussianError("residual_contangle expects a 3-mode covariance")
    return _clamped(_measures(V3[None], _TRIPLE_PLAN)[1][0, 0])


class ChunkOutcome(NamedTuple):
    """What evaluate_chunk found at the points of a chunk, by position."""

    abscissa: np.ndarray  # (k,) spectral abscissa of each drift, NaN without one
    stable: np.ndarray  # (k,) the stability verdicts, False without one
    covariances: np.ndarray  # (s, 10, 10): the stable points that solved, in order
    solved: np.ndarray  # (s,) their positions
    values: np.ndarray  # (k, n_ids) in request order, NaN where not measured
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


def _except(n: int, positions) -> np.ndarray:
    """The positions 0..n-1 not among ``positions``, ascending."""
    keep = np.ones(n, dtype=bool)
    keep[list(positions)] = False
    return np.flatnonzero(keep)


def evaluate_chunk(f, measure_ids) -> ChunkOutcome:
    """The evaluation kernel on a chunk ``f`` of points: one (k,) float array
    per SystemParams field, NaN where a field is None.

    The steady states come from steady_states, as one SteadyState of (k,)
    arrays, and the drifts from one stack; all the verdicts come from one
    stacked eigen-solve.  Without measure ids that is all: no diffusion and
    no Lyapunov solve.  With them, the stable points get their diffusions
    from one stack, their covariances from _lyapunov_solves and their
    values from _measures on the stack of covariances, as a (k, n_ids)
    array in request order, NaN where a point has no value.  A stacked
    eigen-solve that fails is redone one matrix at a time, so the error
    lands on its point.  Each point's outcome is that of steady_state,
    drift_matrix, its verdict, diffusion_matrix, lyapunov_solve and
    measure_values in turn; an error outside NO_STEADY_STATE is raised.
    The measure ids are resolved first (measure_plan), so an unknown one
    raises before any work.
    """
    ids = tuple(measure_ids)
    plan = measure_plan(ids)
    k = len(f.omega_d)
    ss, errors = steady_states(f)
    drifts = drift_matrix(f, ss)
    live = _except(k, errors)
    abscissa = np.full(k, np.nan)
    done, abscissae = _each(spectral_abscissa, drifts[live], errors, live)
    abscissa[done] = abscissae
    stable = StabilityVerdict.from_abscissa(abscissa, f.omega_d).stable
    at = np.flatnonzero(stable)
    values = np.full((k, len(ids)), np.nan)
    if not ids:
        return ChunkOutcome(abscissa, stable, drifts[:0], at[:0], values, errors)
    D, failed = diffusion_matrices(_take(f, at))
    keep = _except(len(at), failed)
    errors.update((int(at[j]), exc) for j, exc in failed.items())
    at = at[keep]
    V, solved, failed = _lyapunov_solves(drifts[at], D[keep])
    errors.update((int(at[j]), exc) for j, exc in failed.items())
    at = at[solved]
    measured, found = _each(lambda stack: _measures(stack, plan)[0], V, errors, at)
    values[measured] = np.reshape(found, (len(measured), len(ids)))
    return ChunkOutcome(abscissa, stable, V, at, values, errors)


VERDICT_BAND = 1e-9  # geev decides within this * max(omega_d, max|A|) of the threshold


def _schur_verdict(A: np.ndarray, omega_d: float):
    """The stability verdict on one drift that StabilityVerdict.from_abscissa
    gives on spectral_abscissa(A), from a real Schur form of the drift
    instead of its own eigen-solve: (stable, scale, schur), scale = max|A|
    (1 for a zero drift) and schur the _schur factors of A / scale.

    The verdict compares scale * max(wr) with the threshold.  Within
    VERDICT_BAND * max(omega_d, scale) of it, where the last bits of gees'
    and geev's spectra could disagree, and where gees fails,
    spectral_abscissa decides, so every verdict is geev's; a non-finite
    drift raises its LinAlgError there.
    """
    scale = np.abs(A).max() or 1.0
    threshold = -STABILITY_EPS_FACTOR * omega_d
    schur = None
    if math.isfinite(scale):
        gees, _ = _lapack()
        schur = _, _, wr, info = _schur(A / scale, gees, _gees_lwork(len(A)))
        abscissa = scale * wr[wr.argmax()]
        if info == 0 and abs(abscissa - threshold) > VERDICT_BAND * max(omega_d, scale):
            return abscissa < threshold, scale, schur
    return spectral_abscissa(A) < threshold, scale, schur


def steady_covariance(p: SystemParams):
    """Steady state and (if stable) the 10x10 covariance at one point, as
    (ss, V), V None where the verdict is unstable.  One Schur form of the
    drift serves both the verdict (_schur_verdict) and the Lyapunov solve;
    each verdict, covariance bit and error is that of steady_state,
    drift_matrix, StabilityVerdict.from_abscissa on spectral_abscissa,
    diffusion_matrix and lyapunov_solve in turn, raised at the same step."""
    ss = steady_state(p)
    A = drift_matrix(p, ss)
    stable, scale, schur = _schur_verdict(A, p.omega_d)
    if not stable:
        return ss, None
    D = diffusion_matrix(p)
    if np.count_nonzero(np.isfinite(D)) < D.size:
        raise GaussianError(_NON_FINITE)
    return ss, _checked(A, D, _sylvester(schur, D / -scale, _lapack()[1]))


def measure_values(V: np.ndarray, measure_ids) -> dict:
    """Requested entanglement measures evaluated on a 10x10 covariance, as a
    {measure id: value} dict, from the ids' cached measure_plan: by
    _pair_value for a plan of one pair and no triple, else by _measures."""
    if V.shape != (2 * len(MODE_LABELS),) * 2:
        raise GaussianError(f"measures need a 10x10 covariance; have shape {V.shape}")
    ids = tuple(measure_ids)
    plan = measure_plan(ids)
    if plan.n_pairs == 1 and not len(plan.split_pairs):
        return dict.fromkeys(ids, _pair_value(V, plan))
    return dict(zip(ids, _measures(V[None], plan)[0][0]))


def _pair_value(V: np.ndarray, plan: _Plan) -> np.float64:
    """_measures' value for one covariance and a plan of one pair and no
    triple, bit for bit and with the same errors: the same eigen-solve,
    with the pairing and positivity checks and the mean of each pair on the
    four magnitudes as Python floats instead of (1, 2) arrays."""
    w = (V.take(plan.index) * plan.signs).reshape(4, 4)
    try:
        raw = np.abs(eigvals(_I_OMEGA[2] @ w))
    except np.linalg.LinAlgError as exc:  # a non-finite entry, or LAPACK's failure
        raise GaussianError(f"eigen-solver failure: {exc}") from exc
    raw.sort()
    lo, hi, lo2, hi2 = raw.tolist()
    if ((hi - lo) / max(hi, 1e-300) > PAIRING_RTOL
            or (hi2 - lo2) / max(hi2, 1e-300) > PAIRING_RTOL):
        raise GaussianError(f"symplectic eigenvalue pairing failure: spectrum {raw!r}")
    nu = 0.5 * (lo + hi)
    if not nu > 0.0:
        raise GaussianError(f"degenerate symplectic spectrum: minimum symplectic "
                            f"eigenvalue {nu:.3g} is not positive")
    e = -np.log(2.0 * nu)
    return e if e > 0.0 else np.float64(0.0)


def full_report(p: SystemParams) -> EntanglementReport:
    """Every bipartite negativity plus both tripartite contangles at one point,
    by measure id, and each contangle's clamped partitions by mode label.

    An unstable point yields a report with ``stable=False`` and no values.
    """
    ss, V = steady_covariance(p)
    if V is None:
        return EntanglementReport(stable=False, steady=ss)
    values, raw = _measures(V[None], measure_plan(MEASURE_IDS))
    return EntanglementReport(
        stable=True, steady=ss,
        values=dict(zip(MEASURE_IDS, values[0])),
        partitions={mid: {MODE_LABELS[k]: x for k, x in zip(_BLOCK_OF[mid], parts)}
                    for mid, parts in zip(TRIPARTITE_MEASURES, _clamped(raw[0]))},
    )
