"""Steady-state amplitudes, drift/diffusion matrices and the stability verdict.

Quadrature ordering of the 10-dimensional fluctuation vector: cavity-1 (U, W),
cavity-2 (U, W), magnon (u, w), phonon (x, y), ensemble (u, w).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .model import ParameterError, SystemParams, thermal_occupation

MODE_LABELS = ("a1", "a2", "n", "d", "e")

STABILITY_EPS_FACTOR = 1e-9  # stability threshold is -1e-9 * omega_d


class SteadyStateError(RuntimeError):
    """Raised when the mean-field steady state cannot be computed."""


@dataclass(frozen=True)
class SteadyState:
    """Mean amplitudes of the five modes and the effective magnon detuning.
    For a chunk (steady_states), its fields are the (k,) arrays of its
    points."""

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
        systems within 1e-9 * omega_d of the imaginary axis are unstable.
        Given (k,) arrays, its fields are the (k,) arrays of the verdicts."""
        threshold = -STABILITY_EPS_FACTOR * omega_d
        return cls(abscissa < threshold, abscissa, threshold - abscissa)


_SC_MIXING = 0.5
_SC_MAX_ITER = 10_000
_SC_TOL = 1e-12  # convergence tolerance on the detuning, in units of omega_d
_SC_TINY = 1e-30  # a divisor of degree k is zero below this * omega_d**k


def steady_state(p: SystemParams) -> SteadyState:
    """Driven steady state of the five-mode network.

    With ``delta_n_tilde_override`` set, the closed form is evaluated once at
    that detuning.  Otherwise the effective detuning is found by damped
    fixed-point iteration of ``delta_n + g_nd * <x>`` (mixing ``_SC_MIXING``)
    to ``_SC_TOL * omega_d``, with at most ``_SC_MAX_ITER`` iterations.

    The closed form is derived by eliminating the ensemble, magnon and
    cavity-2 amplitudes from the mean-field fixed-point equations.  Its
    detuning-independent terms are computed once, before the loop; each
    product keeps the left-to-right operand order of the full expression.
    """
    pinned = p.delta_n_tilde_override is not None
    return _iterate(p, p.delta_n_tilde_override if pinned else p.delta_n, 1)


def _iterate(p, dnt: float, first: int) -> SteadyState:
    """steady_state from iteration ``first`` on, at the detuning that
    iteration starts from (the one entry point of the scalar loop)."""
    try:
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
        tiny_S, tiny_beta = _SC_TINY * p.omega_d**4, _SC_TINY * p.omega_d**2
        tiny_rate = _SC_TINY * p.omega_d
        ge_singular, kn_may_vanish = abs(ge) < tiny_rate, kappa_n < tiny_rate
        tol = _SC_TOL * p.omega_d

        pinned = p.delta_n_tilde_override is not None
        for it in range(first, _SC_MAX_ITER + 1):
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
    except OverflowError as exc:  # a square or |<n>|^2 beyond the float range
        raise SteadyStateError(f"overflow in steady-state solve: {exc}") from None
    raise SteadyStateError(
        f"non-convergent self-consistency after {_SC_MAX_ITER} iterations "
        f"(last delta_n_tilde = {dnt!r})"
    )


# The array mean field below gives every point the bits of _iterate.  A
# complex (k,) array is a (2, k) float array of real and imaginary parts, and
# each operation is CPython's (Objects/complexobject.c): a float operand is
# promoted to complex(x, 0.0), a product is _Py_c_prod (its terms reordered
# only where IEEE addition and multiplication commute exactly), a quotient is
# _Py_c_quot, abs is hypot and ** 2 is pow.  numpy's complex division would
# multiply by a reciprocal and give other bits.

_I = np.array([[0.0], [1.0]])  # 1j
_MINUS_I = np.array([[-0.0], [-1.0]])  # -1j, the negation of 1j
_ROTATE = np.array([[-1.0], [1.0]])
_SWAP = np.array([[1.0], [-1.0]])
_HUGE = sys.float_info.max / 2  # below it hypot(re, im) cannot overflow
# Fewer live points than this finish on the scalar loop: a few points cost
# more as arrays than as scalars, and non-convergent ones would otherwise
# take 10^4 array iterations.  It must exceed the non-convergent points of a
# chunk: 2000 seed-62 strong-drive points have 29 and 41 per 1000-point chunk.
# Measured on 1000-point chunks, per point: the scmap.ini map 5.6 us at 64,
# 5.5 at 24, 5.8 all array, 34.9 all scalar; the strong-drive set 358 us at
# 64, 754 at 24, 704 all array, 393 all scalar (on 200-point chunks: 400 us
# at 24, 410 at 64).
_ARRAY_MIN_LIVE = 64


def _cx(x):
    """complex(x, 0.0) per point."""
    return np.stack([x, np.zeros_like(x)])


def _rot(a):
    """[-a.imag, a.real], so that a * b = a * b.real + _rot(a) * b.imag."""
    return a[..., ::-1, :] * _ROTATE


def _mul(a, b, a_rot=None):
    """a * b; pass _rot(a) when a is a loop constant."""
    return a * b[0] + (_rot(a) if a_rot is None else a_rot) * b[1]


def _divisors(b):
    """What _Py_c_quot takes from each divisor of a (..., 2, k) stack: which
    branch it takes (by the real part when |re| >= |im|), the ratio and the
    denominator, and max(|re|, |im|) unless a part is NaN."""
    abs_b = np.abs(b)
    by_real = abs_b[..., 0, :] >= abs_b[..., 1, :]
    big = np.where(by_real, b[..., 0, :], b[..., 1, :])
    small = np.where(by_real, b[..., 1, :], b[..., 0, :])
    ratio = small / big
    return by_real, ratio, big + small * ratio, np.abs(big)


def _quot(a, by_real, ratio, denom):
    """a / b, b given by its _divisors: (a.real + a.imag * ratio) / denom and
    (a.imag - a.real * ratio) / denom by the real part, else
    (a.real * ratio + a.imag) / denom and (a.imag * ratio - a.real) / denom."""
    swapped = a[::-1] * _SWAP
    return np.where(by_real, a + swapped * ratio, a * ratio + swapped) / denom


def _point(f, i: int) -> SimpleNamespace:
    """Point i of an array chunk with the attributes steady_state reads,
    as Python scalars, a NaN field being None."""
    values = {name: float(a[i]) for name, a in vars(f).items()}
    return SimpleNamespace(**{name: None if math.isnan(v) else v
                              for name, v in values.items()})


def steady_states(f) -> tuple[SteadyState, dict]:
    """steady_state of every point of a chunk ``f`` (gaussian.evaluate_chunk),
    with the same bits, iteration counts and SteadyStateErrors: a SteadyState
    of (k,) arrays, and the SteadyStateError of each point that raised one,
    by position (its array entries are meaningless).  Any other error is
    raised, that of the first point that raises one.

    The closed form and the damped loop run on arrays of the live points; a
    point leaves at its own iteration.  A point that a cheap screen cannot
    clear continues on the scalar loop from the iteration it is at, and that
    raises what steady_state would: its denominators (max(|re|, |im|) bounds
    hypot from below and, under _HUGE, from above), a non-finite <x>, or
    being live when fewer than _ARRAY_MIN_LIVE points are.
    """
    k = len(f.omega_d)
    wd = f.omega_d
    with np.errstate(all="ignore"):
        ka2 = _cx(f.kappa_a) + _mul(_I, _cx(f.delta_2))
        ge = _cx(f.gamma_e) + _mul(_I, _cx(f.delta_e))
        ka1_ge = _mul(_cx(f.kappa_a) + _mul(_I, _cx(f.delta_1)), ge)
        g_na2 = np.float_power(f.g_na, 2.0)
        G_ae2 = _cx(np.float_power(f.G_ae, 2.0))
        J2_ge = _mul(_cx(np.float_power(f.J, 2.0)), ge)
        Omega_l_ka2 = _mul(_cx(f.Omega_l), ka2)
        drive_l = _mul(_cx(g_na2 * f.Omega_l), ge)
        drive_n = _mul(_cx(f.g_na * f.Omega_n * f.J), ge)
        mi_J, i_gna = _mul(_MINUS_I, _cx(f.J)), _mul(_I, _cx(f.g_na))
        i_gna_Omega_n = _mul(i_gna, _cx(f.Omega_n))
        tiny = np.stack([_SC_TINY * np.float_power(wd, 4.0), _SC_TINY * np.float_power(wd, 2.0)])
        tiny_rate = _SC_TINY * wd
        pinned = ~np.isnan(f.delta_n_tilde_override)
        start = np.where(pinned, f.delta_n_tilde_override, f.delta_n)
        # the scalar loop takes the checks of kn and ge
        m_ge = _divisors(ge)[3]
        scalar = ~((m_ge >= tiny_rate) & (m_ge <= _HUGE) & (f.kappa_n >= tiny_rate))
        handoff = [(i, start[i], 1) for i in np.flatnonzero(scalar).tolist()]
        mi_Gae, ge_all = _mul(_MINUS_I, _cx(f.G_ae)), ge

        # the products with kn, then those with beta, each as one stack
        by_kn = np.stack([ka2, J2_ge, Omega_l_ka2, mi_J])
        by_beta = np.stack([ka1_ge, G_ae2])
        live = np.flatnonzero(~scalar)
        state = [np.take(c, live, axis=-1) for c in (
            start, _cx(f.kappa_n), by_kn, _rot(by_kn), _cx(g_na2), by_beta, _rot(by_beta),
            ge, _rot(ge), drive_l, drive_n, i_gna, _rot(i_gna), i_gna_Omega_n,
            _cx(f.Omega_n), -(f.g_nd / wd), f.g_nd, tiny, _SC_TOL * wd, pinned, start)]
        out = np.full((3, 2, k), np.nan)  # a1, a2 and n of the finished points
        x_out, dnt_out = np.full(k, np.nan), np.full(k, np.nan)
        iterations = np.zeros(k, dtype=np.int64)
        it = 1
        while len(live) and len(live) >= _ARRAY_MIN_LIVE and it <= _SC_MAX_ITER:
            (dnt, kappa_n, by_kn, by_kn_r, g_na2, by_beta, by_beta_r, ge, ge_r,
             drive_l, drive_n, i_gna, i_gna_r, i_gna_Omega_n, Omega_n, x_per_n2,
             g_nd, tiny, tol, pinned, delta_n) = state
            # the divisors S, beta and kn in one stack
            b = np.empty((3,) + kappa_n.shape)
            kn = np.multiply(_I, dnt, out=b[2])
            kn += kappa_n
            ka2_kn, J2_ge_kn, Olka2_kn, mi_J_kn = by_kn * kn[0] + by_kn_r * kn[1]
            beta = np.add(ka2_kn, g_na2, out=b[1])
            ka1_ge_beta, G_ae2_beta = by_beta * beta[0] + by_beta_r * beta[1]
            S = np.add(ka1_ge_beta, G_ae2_beta, out=b[0])
            S += J2_ge_kn
            by_real, ratio, denom, m = _divisors(b)
            a1 = _quot(_mul(ge, Olka2_kn, ge_r) + drive_l - drive_n,
                       by_real[0], ratio[0], denom[0])
            a2 = _quot(_mul(mi_J_kn, a1) - i_gna_Omega_n, by_real[1], ratio[1], denom[1])
            n = _quot(Omega_n - _mul(i_gna, a2, i_gna_r), by_real[2], ratio[2], denom[2])
            x = x_per_n2 * np.float_power(np.hypot(n[0], n[1]), 2.0)
            target = delta_n + g_nd * x
            screened = (m[:2] >= tiny) & (m[:2] <= _HUGE)
            cleared = screened[0] & screened[1] & np.isfinite(x)
            finished = cleared & (pinned | (np.abs(target - dnt) < tol))
            if finished.any() or not cleared.all():
                at = live[finished]
                out[:, :, at] = np.stack([a1, a2, n])[:, :, finished]
                x_out[at], dnt_out[at] = x[finished], dnt[finished]
                iterations[at] = np.where(pinned[finished], 0, it)
                handoff += zip(live[~cleared].tolist(), dnt[~cleared].tolist(),
                               repeat(it))
                stay = cleared & ~finished
                live, target = live[stay], target[stay]
                state = [np.compress(stay, c, axis=-1) for c in state]
            state[0] = (1.0 - _SC_MIXING) * state[0] + _SC_MIXING * target
            it += 1
        handoff += zip(live.tolist(), state[0].tolist(), repeat(it))
        e = _quot(_mul(mi_Gae, out[0]), *_divisors(ge_all)[:3])
    a1, a2, e, n = (np.ascontiguousarray(z.T).view(complex)[:, 0]
                    for z in (out[0], out[1], e, out[2]))
    errors = {}
    for i, dnt, first in sorted(handoff):  # in point order, as steady_state would raise
        try:
            ss = _iterate(_point(f, i), float(dnt), first)
        except SteadyStateError as exc:
            errors[i] = exc
            continue
        a1[i], a2[i], e[i], n[i] = ss.a1, ss.a2, ss.e, ss.n
        x_out[i], dnt_out[i], iterations[i] = ss.x_mean, ss.delta_n_tilde, ss.iterations
    return SteadyState(a1, a2, e, n, x_out, dnt_out, iterations), errors


def drift_matrix(p, ss) -> np.ndarray:
    """10x10 drift matrix of the linearized quadrature dynamics at the steady
    state.  Row pairs (1-based): a1 1-2, a2 3-4, magnon 5-6, phonon 7-8,
    ensemble 9-10.

    Also takes a chunk (gaussian.evaluate_chunk) with its SteadyState of
    (k,) arrays (steady_states), and then returns the (k, 10, 10) stack of
    the drifts of its points.
    """
    d1, d2, de = p.delta_1, p.delta_2, p.delta_e
    dnt = ss.delta_n_tilde
    ka, kn, ge, gd = p.kappa_a, p.kappa_n, p.gamma_e, p.gamma_d
    gna, Gnd, Gae, J, wd = p.g_na, p.G_nd, p.G_ae, p.J, p.omega_d
    zero = 0.0 * wd  # +0.0 in the shape of a field
    A = np.array((
       -ka,    d1,    zero,  J,     zero,  zero,  zero,  zero,  zero,  Gae,
       -d1,   -ka,   -J,     zero,  zero,  zero,  zero,  zero, -Gae,   zero,
        zero,  J,    -ka,    d2,    zero,  gna,   zero,  zero,  zero,  zero,
       -J,     zero, -d2,   -ka,   -gna,   zero,  zero,  zero,  zero,  zero,
        zero,  zero,  zero,  gna,  -kn,    dnt,  -Gnd,   zero,  zero,  zero,
        zero,  zero, -gna,   zero, -dnt,  -kn,    zero,  zero,  zero,  zero,
        zero,  zero,  zero,  zero,  zero,  zero,  zero,  wd,    zero,  zero,
        zero,  zero,  zero,  zero,  zero,  Gnd,  -wd,   -gd,    zero,  zero,
        zero,  Gae,   zero,  zero,  zero,  zero,  zero,  zero, -ge,    de,
       -Gae,   zero,  zero,  zero,  zero,  zero,  zero,  zero, -de,   -ge,
    ), dtype=float)
    return A.T.reshape(A.shape[1:] + (10, 10))


def _diffusion(p, z_a1, z_a2, z_n, z_d) -> np.ndarray:
    """diffusion_matrix of a point, or the (k, 10, 10) stack of a chunk, given
    the occupations of cavity 1, cavity 2, the magnon and the phonon."""
    a1 = p.kappa_a * (2.0 * z_a1 + 1.0)
    a2 = p.kappa_a * (2.0 * z_a2 + 1.0)
    n = p.kappa_n * (2.0 * z_n + 1.0)
    d = p.gamma_d * (2.0 * z_d + 1.0)
    ge = p.gamma_e
    diag = np.array((a1, a1, a2, a2, n, n, 0.0 * p.omega_d, d, ge, ge))
    D = np.zeros(diag.shape[1:] + (100,))
    D.T[::11] = diag  # flat entry 11 * i is entry (i, i)
    return D.reshape(diag.shape[1:] + (10, 10))


def diffusion_matrix(p: SystemParams) -> np.ndarray:
    """Diagonal noise-strength matrix fixed by the input-noise correlations.

    The ensemble rows carry bare ``gamma_e`` (vacuum atomic noise), unlike the
    thermally weighted photon/magnon/phonon rows.
    """
    return _diffusion(p, *(thermal_occupation(omega, p.T) for omega in
                           (p.omega_c1, p.omega_c2, p.omega_n, p.omega_d)))


def diffusion_matrices(f) -> tuple[np.ndarray, dict]:
    """diffusion_matrix of every point of a chunk as a (k, 10, 10) stack,
    and the ParameterError of each point whose occupation raised one, by
    position (its matrix is meaningless).  An occupation is computed once per
    distinct (carrier, T), with the scalar thermal_occupation."""
    occupations = np.zeros((4, len(f.T)))
    errors = {}
    cache = {}
    carriers = zip(f.omega_c1.tolist(), f.omega_c2.tolist(), f.omega_n.tolist(),
                   f.omega_d.tolist(), f.T.tolist())
    for i, (*omegas, T) in enumerate(carriers):
        try:
            for j, omega in enumerate(omegas):
                z = cache.get((omega, T))
                if z is None:  # errors are not cached: -0.0 and 0.0 share a key
                    z = cache[omega, T] = thermal_occupation(omega, T)
                occupations[j, i] = z
        except ParameterError as exc:
            errors[i] = exc
    return _diffusion(f, *occupations), errors


_geev = _umath_linalg.eigvals  # numpy's eigenvalue gufunc (LAPACK geev), bound once


def _no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals of a float64 or complex128 (..., n, n) array, with
    its checks and error texts, in one gufunc call: the spectra as complex
    arrays with numpy's bits (numpy also returns them so, unless a real
    input's spectra are all real, when it drops their zero imaginary parts).
    A matrix that is not square or not finite, and a LAPACK failure, raise
    LinAlgError."""
    if a.ndim < 2:
        raise LinAlgError(f"{a.ndim}-dimensional array given. "
                          "Array must be at least two-dimensional")
    if a.shape[-1] != a.shape[-2]:
        raise LinAlgError("Last 2 dimensions of the array must be square")
    # counting is np.isfinite(a).all() without the Python layer of .all()
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise LinAlgError("Array must not contain infs or NaNs")
    return _geev(a, signature="D->D" if a.dtype.kind == "c" else "d->D")


def spectral_abscissa(A: np.ndarray):
    """Largest real part of the spectrum of a matrix (a float) or of each
    matrix in an (..., n, n) stack (an array), from one eigen-solve call; a
    LAPACK failure raises LinAlgError."""
    abscissa = eigvals(np.asarray(A, dtype=float)).real.max(axis=-1)
    return float(abscissa) if abscissa.ndim == 0 else abscissa

