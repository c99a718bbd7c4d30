"""Derivative-free maximization of an entanglement measure and critical-
temperature search.

The optimizer is a seeded multi-restart Nelder-Mead over a box in
(delta_1, delta_2, delta_n_tilde, delta_e, J), all in omega_d units.
Unstable points score zero.  The bounded Nelder-Mead is this module's own
(_nelder_mead): it takes the steps of scipy's, bit for bit, without loading
scipy.optimize.  So is the start scan's generator (_uniform_scan): it draws
numpy.random.default_rng's bits without loading numpy.random.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (MEASURE_IDS, NO_STEADY_STATE, _lapack, measure_plan, measure_values,
                       steady_covariance)
from .model import SystemParams, updated_in_omega_d_units
from .sweep import _usable_cpus

OPT_PARAMS = ("delta_1", "delta_2", "delta_n_tilde", "delta_e", "J")

ENTANGLEMENT_FLOOR = 1e-4  # below this a measure counts as vanished
T_FLOOR = 1e-3  # kelvin
TC_TOL = 1e-3  # kelvin, critical_temperature's default bisection tolerance


class OptimizeError(RuntimeError):
    pass


class NonMonotoneProfile(OptimizeError):
    """Measure-vs-temperature curve is not monotone decreasing."""

    def __init__(self, message: str, samples):
        super().__init__(message)
        self.samples = samples


@dataclass(frozen=True)
class OptimizeSpec:
    measure: str
    box: dict[str, tuple[float, float]]  # omega_d units; lo == hi pins a param
    restarts: int = 6
    max_evaluations: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.measure not in MEASURE_IDS:
            raise OptimizeError(f"unknown measure id {self.measure!r}")
        if not self.box:
            raise OptimizeError("empty optimization box")
        for name, (lo, hi) in self.box.items():
            if name not in OPT_PARAMS:
                raise OptimizeError(
                    f"unknown box parameter {name!r}; choose from {OPT_PARAMS}"
                )
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise OptimizeError(
                    f"box for {name!r} must have finite bounds, got ({lo!r}, {hi!r})")
            if lo > hi:
                raise OptimizeError(f"box for {name!r} has lo > hi")
            if not math.isfinite(hi - lo):
                raise OptimizeError(
                    f"box for {name!r} is wider than the largest float: ({lo!r}, {hi!r})")
        if self.restarts < 1:
            raise OptimizeError("restarts must be >= 1")
        if self.max_evaluations < 1:
            raise OptimizeError("max_evaluations must be >= 1")
        if self.seed < 0:
            raise OptimizeError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OptimumReport:
    best_point: dict[str, float]  # omega_d units
    best_value: float
    evaluations: int
    restarts: list[dict] = field(default_factory=list)


def evaluate_measure(p: SystemParams, measure_id: str) -> float | None:
    """Measure value at one parameter point, or None where the point is
    unstable (gaussian.steady_covariance).  A point with no steady state
    raises its NO_STEADY_STATE error: maximize scores it 0, and
    critical_temperature lets it through.  The id is resolved first
    (gaussian.measure_plan, cached), so an unknown one raises before any
    work."""
    ids = (measure_id,)
    measure_plan(ids)
    _, V = steady_covariance(p)
    if V is None:
        return None
    return measure_values(V, ids)[measure_id]


def maximize(spec: OptimizeSpec, base: SystemParams,
             workers: int | None = None) -> OptimumReport:
    """Box-constrained maximization of one measure by seeded direct search.

    A deterministic random scan seeds the best `restarts` simplex starts;
    each restart runs bounded Nelder-Mead within the evaluation budget its
    predecessors left and stops before the call that would exceed it, so the
    report counts at most ``max_evaluations`` evaluations and a run cut by
    its budget is an exact prefix of the uncut run.  The returned point is
    the first best stable one encountered.  The scan is ``_uniform_scan``,
    which draws numpy.random.default_rng(seed).uniform's bits without
    loading numpy.random, and the descent is ``_nelder_mead``, which gives
    the bits scipy's bounded Nelder-Mead gave.

    Up to ``workers`` forked processes (default: no limit), at most one per
    restart and per CPU this process may use, run the restarts ahead with
    the budget the scan left.  A restart that ended within its serial budget
    is taken as it ran; any other is replayed here from its run's points.
    So the report, or the error, is the serial one.  One process, one
    restart or no ``fork`` start method: all run here.

    The Lyapunov solve's LAPACK (``gaussian._lapack``) is bound before the
    pool forks, so the workers inherit it.
    """
    _lapack()

    if workers is not None and workers < 1:
        raise OptimizeError(f"workers must be at least 1, got {workers}")
    names = [n for n in OPT_PARAMS if n in spec.box]
    free = [n for n in names if spec.box[n][0] < spec.box[n][1]]
    fixed = {n: spec.box[n][0] for n in names if n not in free}
    lo = np.array([spec.box[n][0] for n in free])
    hi = np.array([spec.box[n][1] for n in free])

    # best: (value, point); record: {clipped point bytes: value or None} of a
    # speculative run; restart: the index of the shared limit a pool worker obeys
    state = {"evals": 0, "best": None, "record": None, "restart": None}

    def offer(value, point) -> None:  # strict >: the first of equal values stays
        if state["best"] is None or value > state["best"][0]:
            state["best"] = (value, point)

    def objective(x_free) -> float:
        x_free = x_free.clip(lo, hi)
        point = dict(fixed)
        point.update(zip(free, x_free.tolist()))  # floats: CPython's complex bits
        j, record, key = state["restart"], state["record"], x_free.tobytes()
        if j is not None and state["evals"] >= limits[j]:
            raise _LimitReached
        state["evals"] += 1
        if record is not None and key in record:
            value = record[key]
        else:
            try:
                value = evaluate_measure(updated_in_omega_d_units(base, point),
                                         spec.measure)
            except NO_STEADY_STATE:
                value = None
            if record is not None:
                record[key] = value
        if value is None:
            return 0.0
        offer(value, dict(point))
        return value

    restart_log: list[dict] = []
    if free:
        n_scan = min(max(8 * spec.restarts, 32), max(1, spec.max_evaluations // 4))
        scan = _uniform_scan(spec.seed, lo, hi, n_scan)
        scan[0] = 0.5 * (lo + hi)
        scanned = sorted(
            ((objective(x), tuple(x)) for x in scan), key=lambda t: -t[0]
        )
        starts = [np.array(x) for _, x in scanned[: spec.restarts]]
    else:  # a pinned box: no scan, and its one evaluation is its restart
        restart_log.append({"start": dict(fixed), "best_value": objective(np.empty(0)),
                            "nfev": 1})
        starts = []

    def descend(start, maxfev):
        return _nelder_mead(lambda x: -objective(x), _initial_simplex(start, lo, hi),
                            lo, hi, maxfev)

    def speculate(j):
        """Restart j in a pool worker: (record, (fun, nfev, own best) or None if cut)."""
        state.update(evals=0, best=None, record={}, restart=j)
        try:
            fun, nfev = descend(starts[j], spare)
        except _LimitReached:
            return state["record"], None
        return state["record"], (fun, nfev, state["best"])

    spare = spec.max_evaluations - state["evals"]
    n = min(workers or len(starts), len(starts), _usable_cpus())
    pool = None
    try:
        if n > 1 and spare > 0:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
                limits = context.RawArray("q", [spare] * len(starts))
                pool = ProcessPoolExecutor(n, mp_context=context, initializer=_share,
                                           initargs=(speculate,))
                ahead = [pool.submit(_speculate, j) for j in range(len(starts))]
        for k, start in enumerate(starts):
            budget = spec.max_evaluations - state["evals"]
            if budget <= 0:
                break
            run = None
            if pool is not None:
                # a restart costs at least its simplex, so restart j > k
                # cannot get more than this
                for j in range(k, len(starts)):
                    limits[j] = max(0, budget - (len(free) + 1) * (j - k))
                try:
                    state["record"], run = ahead[k].result()
                except Exception:  # replayed live: a serial error recurs there
                    state["record"] = {}
            if run is not None and run[1] < budget:
                fun, nfev, best = run
                state["evals"] += nfev
                if best is not None:
                    offer(*best)
            else:
                fun, nfev = descend(start, budget)
            restart_log.append({
                "start": dict(zip(free, (float(v) for v in start))),
                "best_value": float(-fun),
                "nfev": int(nfev),
            })
    finally:
        if pool is not None:
            limits[:] = [0] * len(starts)
            pool.shutdown(cancel_futures=True)

    if state["best"] is None:
        raise OptimizeError("no stable point found in the box")
    value, point = state["best"]
    return OptimumReport(best_point=point, best_value=value,
                         evaluations=state["evals"], restarts=restart_log)


class _LimitReached(Exception):
    """A speculative restart reached its shared call limit."""


_SPECULATE = None  # the running maximize's speculate(j), set in each pool worker


def _share(speculate) -> None:
    global _SPECULATE
    _SPECULATE = speculate


def _speculate(j: int):
    return _SPECULATE(j)


_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64): the seed's
    32-bit words, least significant first, hashed into a 4-word pool
    (O'Neill's seed_seq_fe), then 8 words drawn from the pool, paired low
    word first."""
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)

    def hasher(mult: int, step: int):
        def hashmix(value: int) -> int:
            nonlocal mult
            value ^= mult
            mult = mult * step & _MASK32
            value = value * mult & _MASK32
            return value ^ value >> 16
        return hashmix

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    draw = hasher(0x8B51F9DD, 0x58F38DED)
    words = [draw(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform_scan(seed, lo, hi, n: int) -> np.ndarray:
    """numpy.random.default_rng(seed).uniform(lo, hi, size=(n, len(lo))),
    bit for bit, on Python integers: PCG64 (O'Neill, HMC-CS-2014-0905;
    XSL-RR 128/64, a step before each output) seeded as numpy seeds it, and
    lo + (hi - lo) * (53 bits / 2**53) in C order.  The seed goes through
    operator.index, so a numpy integer gives the words of its int."""
    s0, s1, i0, i1 = _seed_words(operator.index(seed))
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULTIPLIER + inc) & _MASK128
    units = []
    for _ in range(n * len(lo)):
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        units.append(((x >> rot | x << (64 - rot)) & _MASK64) >> 11)
    return lo + (hi - lo) * (np.array(units, dtype=float).reshape(n, len(lo)) * 2.0**-53)


def _initial_simplex(start, lo, hi):
    """Axis-aligned simplex around the start, kept inside the box."""
    n = len(start)
    simplex = np.tile(start, (n + 1, 1))
    for i in range(n):
        step = 0.05 * (hi[i] - lo[i])
        if start[i] + step > hi[i]:
            step = -step
        simplex[i + 1, i] += step
    return simplex


class _Spent(Exception):
    """A Nelder-Mead run reached its maxfev calls."""


def _nelder_mead(f, simplex, lo, hi, maxfev):
    """Minimize f over the box [lo, hi] by Nelder-Mead (Nelder & Mead, Comput.
    J. 7, 308 (1965)) from an (n+1, n) simplex: (smallest value of the final
    simplex, calls of f).

    This is scipy's ``minimize(method="Nelder-Mead")`` with bounds, an
    initial simplex, ``xatol=1e-4`` and ``fatol=1e-10``, operation for
    operation (scipy 1.17), so it gives the same bits.  Simplex vertices
    above hi are reflected into the box, then every vertex and trial point
    is clipped to it, and f gets a copy of each.  A run stops before the
    call that would exceed ``maxfev``, possibly inside a step, and the
    simplex is re-sorted after each step.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.where(simplex > hi, 2 * hi - simplex, simplex).clip(lo, hi)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        return f(x.copy())

    def ordered(sim, fsim):
        ind = fsim.argsort()
        return sim[ind], fsim[ind]

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _Spent:
        pass
    # scipy sorts twice here; argsort is not stable, so the second may move ties
    sim, fsim = ordered(*ordered(sim, fsim))
    while nfev < maxfev:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= 1e-4
                    and np.abs(fsim[0] - fsim[1:]).max() <= 1e-10):
                break
            xbar = sim[:-1].sum(0) / n
            xr = ((1 + rho) * xbar - rho * sim[-1]).clip(lo, hi)
            fxr = call(xr)
            if fxr < fsim[0]:  # expand
                xe = ((1 + rho * chi) * xbar - rho * chi * sim[-1]).clip(lo, hi)
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = ((1 + psi * rho) * xbar - psi * rho * sim[-1]).clip(lo, hi)
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                else:  # contract inside
                    xc = ((1 - psi) * xbar + psi * sim[-1]).clip(lo, hi)
                    fxc = call(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = (sim[0] + sigma * (sim[j] - sim[0])).clip(lo, hi)
                        fsim[j] = call(sim[j])
        except _Spent:
            pass
        sim, fsim = ordered(sim, fsim)
    return np.min(fsim), nfev


def critical_temperature(p: SystemParams, measure: str, T_max: float,
                         tol: float = TC_TOL) -> float:
    """Temperature at which a measure first drops below 1e-4.

    Bisection on [1 mK, T_max] to within ``tol`` (default ``TC_TOL``), or until
    no float lies between its ends, after a coarse scan that verifies a
    monotone-decreasing profile.
    """
    if measure not in MEASURE_IDS:
        raise OptimizeError(f"unknown measure id {measure!r}")
    if not T_FLOOR < T_max < math.inf:  # NaN fails too
        raise OptimizeError(
            f"T_max must be finite and exceed the {T_FLOOR} K floor, got {T_max!r}")
    if not 0.0 < tol < math.inf:  # at tol <= 0 the bisection never ends
        raise OptimizeError(f"tol must be a positive finite temperature, got {tol!r}")

    def value_at(T: float) -> float:
        v = evaluate_measure(p.updated(T=T), measure)
        return 0.0 if v is None else v

    v_floor = value_at(T_FLOOR)
    if v_floor < ENTANGLEMENT_FLOOR:
        raise OptimizeError(
            f"not entangled at floor temperature ({measure}={v_floor:.3e} "
            f"at T={T_FLOOR} K)"
        )
    n_samples = 9
    temps = [T_FLOOR + i * (T_max - T_FLOOR) / (n_samples - 1)
             for i in range(1, n_samples)]  # the floor's value is v_floor
    samples = [(T_FLOOR, v_floor)] + [(T, value_at(T)) for T in temps]
    slack = 1e-6 * v_floor
    for (_, v_lo), (_, v_hi) in zip(samples, samples[1:]):
        if v_hi > v_lo + slack:
            raise NonMonotoneProfile(
                f"non-monotone profile for {measure}; sampled curve attached",
                samples=samples,
            )
    below = [T for T, v in samples if v < ENTANGLEMENT_FLOOR]
    if not below:
        raise OptimizeError(
            f"{measure} still above {ENTANGLEMENT_FLOOR} at T_max={T_max} K"
        )
    hi = below[0]
    lo = max(T for T, v in samples if T < hi and v >= ENTANGLEMENT_FLOOR)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if value_at(mid) < ENTANGLEMENT_FLOOR:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
