"""Shared oracles and samplers for the test suite.

The Lyapunov time-integration oracle and the random stable-point sampler are
deliberately independent of the library's solve path.
"""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import cavmag
from cavmag import SystemParams, gaussian
from cavmag.dynamics import (
    MODE_LABELS,
    StabilityVerdict,
    SteadyState,
    diffusion_matrix,
    drift_matrix,
    spectral_abscissa,
    steady_state,
)
from cavmag.model import FIELDS

# Parameter box explored by the bundled sweeps, in omega_d units.
SAMPLING_BOX = {
    "delta_1": (-3.0, 2.0),
    "delta_2": (-3.0, 2.0),
    "delta_e": (-2.0, 2.0),
    "delta_n_tilde": (0.4, 2.0),
    "J": (0.2, 1.6),
}


@pytest.fixture(scope="session")
def base_params() -> SystemParams:
    return SystemParams()


def draw_params(rng: np.random.Generator, base: SystemParams) -> SystemParams:
    wd = base.omega_d
    return base.updated(
        delta_1=rng.uniform(*SAMPLING_BOX["delta_1"]) * wd,
        delta_2=rng.uniform(*SAMPLING_BOX["delta_2"]) * wd,
        delta_e=rng.uniform(*SAMPLING_BOX["delta_e"]) * wd,
        delta_n_tilde_override=rng.uniform(*SAMPLING_BOX["delta_n_tilde"]) * wd,
        J=rng.uniform(*SAMPLING_BOX["J"]) * wd,
    )


def sample_stable_params(seed: int, count: int,
                         base: SystemParams | None = None) -> list[SystemParams]:
    """Deterministic draw of `count` linearly stable parameter points."""
    base = base if base is not None else SystemParams()
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("stable-point sampler is starving")
        p = draw_params(rng, base)
        A = drift_matrix(p, steady_state(p))
        if verdict_of(A, p.omega_d).stable:
            out.append(p)
    return out


def positions(*labels) -> list[int]:
    """The positions of these modes in the network covariance."""
    return [MODE_LABELS.index(m) for m in labels]


def verdict_of(A: np.ndarray, omega_d: float) -> StabilityVerdict:
    """The stability verdict on one drift, from its own eigen-solve."""
    return StabilityVerdict.from_abscissa(spectral_abscissa(A), omega_d)


def failing_gees(monkeypatch) -> None:
    """Every gees call from gaussian reports that LAPACK found no Schur form
    (an info above 0), with the factors it did find."""
    gees, trsyl = gaussian._lapack()

    def failing(*args, **kwargs):
        *out, _ = gees(*args, **kwargs)
        return (*out, 11)

    monkeypatch.setattr(gaussian, "_lapack", lambda: (failing, trsyl))


def param_arrays(ps) -> SimpleNamespace:
    """The fields of a list of points as (k,) float arrays, NaN where a field
    is None: a chunk as the array kernels take it."""
    return SimpleNamespace(**{name: np.array([getattr(p, name) for p in ps], dtype=float)
                              for name in FIELDS})


def mean_states(mean) -> list:
    """Per point of a chunk's dynamics.steady_states, (SteadyState of (k,)
    arrays, errors): its SteadyState, with Python scalars, or its error."""
    ss, errors = mean
    columns = zip(*(a.tolist() for a in vars(ss).values()))
    return [errors.get(i) or SteadyState(*values) for i, values in enumerate(columns)]


def integrate_lyapunov(A: np.ndarray, D: np.ndarray, omega_d: float,
                       rtol: float = 1e-10, max_doublings: int = 200) -> np.ndarray:
    """Time integration of dV/dt = A V + V A^T + D from V(0) = I/2.

    Exact flow-map composition with interval doubling: V(t+s) =
    Phi(s) V(t) Phi(s)^T + S(s) with Phi = expm(A s) and S the accumulated
    noise integral.  Runs until the defect A V + V A^T + D is below
    ``rtol * ||D||_F`` (in omega_d-scaled units).
    """
    A = np.asarray(A, dtype=float) / omega_d
    D = np.asarray(D, dtype=float) / omega_d
    n = A.shape[0]
    t0 = 1e-3 / np.linalg.norm(A, 2)
    phi = expm(A * t0)
    AD = A @ D
    A2D = A @ AD
    # third-order series for the short-time noise integral
    S = (t0 * D + 0.5 * t0**2 * (AD + AD.T)
         + t0**3 / 6.0 * (A2D + A2D.T + 2.0 * AD @ A.T))
    V = 0.5 * np.eye(n)
    d_norm = np.linalg.norm(D)
    for _ in range(max_doublings):
        V = phi @ V @ phi.T + S
        defect = np.linalg.norm(A @ V + V @ A.T + D)
        if defect < rtol * d_norm:
            return V * 1.0
        S = S + phi @ S @ phi.T
        phi = phi @ phi
    raise RuntimeError(f"Lyapunov time integration stalled (defect {defect:.3e})")


def two_mode_squeezed(r: float) -> np.ndarray:
    """Covariance of a two-mode squeezed vacuum, vacuum variance 1/2."""
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    Z = np.diag([1.0, -1.0])
    I2 = np.eye(2)
    return 0.5 * np.block([[c * I2, s * Z], [s * Z, c * I2]])


def random_physical_covariance(rng: np.random.Generator, n_modes: int,
                               spread: float = 1.0) -> np.ndarray:
    """Random physical covariance: M M^T + I/2 has symplectic spectrum >= 1/2."""
    m = rng.normal(0.0, spread, size=(2 * n_modes, 2 * n_modes))
    return m @ m.T + 0.5 * np.eye(2 * n_modes)


def report_line(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")


def diffusion_for(p: SystemParams):
    return diffusion_matrix(p)


def drift_for(p: SystemParams):
    return drift_matrix(p, steady_state(p))


def run_fresh(script: str, *args: str) -> None:
    """Runs a script in a new interpreter, with ``args`` as its sys.argv[1:]:
    the test process has imported scipy, so import guards are checked there."""
    src = str(Path(cavmag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
