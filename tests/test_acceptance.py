"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run pytest with -s to see them).

Two criteria are strict expected failures, kept faithful rather than loosened:

* criterion 3b: the pre-clamp residual-contangle monogamy bound of -1e-8 is
  violated structurally (down to ~-1e-3) at a few percent of random stable
  points; the squared logarithmic negativity is not exactly monogamous for
  mixed three-mode Gaussian states, so the clamp in `residual_contangle` is
  doing real work rather than absorbing rounding noise.
* criterion 6: the magnon-ensemble negativity over the symmetric-detuning
  grid peaks at delta_a = -0.55 omega_d, the mirror of the referenced +0.5;
  the model reproduces every other referenced landmark (criteria 5 and 7, and
  the full-plane magnon-ensemble maximum near (-2.7, -1.3)), so the +0.5
  reference appears to carry a sign slip and is unattainable as stated.
"""
import math

import numpy as np
import pytest

from cavmag.cli import main as cli_main
from cavmag.config import build_grid_specs, build_optimize_spec, build_system, load_layers
from cavmag.dynamics import (
    StabilityVerdict,
    diffusion_matrix,
    drift_matrix,
    spectral_abscissa,
    steady_state,
)
from cavmag.gaussian import (
    log_negativity,
    lyapunov_solve,
    one_vs_two_negativity,
    reduce,
    steady_covariance,
    symplectic_eigenvalues,
)
from cavmag.model import SystemParams
from cavmag.optimize import critical_temperature, evaluate_measure, maximize
from cavmag.sweep import STABLE, run_grid

from conftest import (
    integrate_lyapunov,
    positions,
    report_line,
    sample_stable_params,
    two_mode_squeezed,
)

WD = SystemParams().omega_d

# operating points optimized per measure (omega_d units):
# (delta_1, delta_2, delta_n_tilde, delta_e, J)
OPERATING_POINTS = {
    "EN_a1n": (-1.41, -0.68, -0.65, -1.63, 0.35),
    "EN_a1d": (-0.04, 0.85, 0.77, 0.99, 1.28),
    "EN_ne": (0.76, -0.52, 0.77, -0.63, 0.8),
    "EN_de": (0.28, -0.84, 0.6, -1.07, 1.06),
}
# The stored a1n magnon detuning (-0.65) gives a linearly unstable system
# (positive drift spectrum); the sign-flipped +0.65 is stable and is the
# point used for its temperature scan.
A1N_STABLE_DNT = +0.65

TC_BANDS_K = {
    "EN_de": (0.140, 0.260),
    "EN_ne": (0.140, 0.260),
    "EN_a1n": (0.120, 0.220),
    "EN_a1d": (0.125, 0.235),
}


def params_at(measure: str, stable_variant: bool = False) -> SystemParams:
    d1, d2, dnt, de, j = OPERATING_POINTS[measure]
    if stable_variant and measure == "EN_a1n":
        dnt = A1N_STABLE_DNT
    return SystemParams().updated(
        delta_1=d1 * WD, delta_2=d2 * WD, delta_n_tilde_override=dnt * WD,
        delta_e=de * WD, J=j * WD)


def preset_grid(name: str):
    cfg = load_layers(preset=name)
    specs = build_grid_specs(cfg, build_system(cfg))
    return specs


def grid_to_array(spec, result):
    n0, n1 = spec.axes[0].points, spec.axes[1].points
    # the first measure; NaN off the stable rows
    values = next(iter(result.measures.values())).reshape(n0, n1)
    return (np.array(spec.axes[0].values()), np.array(spec.axes[1].values()),
            values)


def local_maxima(values):
    """Strict 8-neighbourhood local maxima of a 2-d array (NaN-tolerant)."""
    peaks = []
    for i in range(1, values.shape[0] - 1):
        for j in range(1, values.shape[1] - 1):
            c = values[i, j]
            if np.isnan(c) or c <= 0:
                continue
            patch = values[i - 1:i + 2, j - 1:j + 2]
            if c >= np.nanmax(patch):
                peaks.append((i, j, c))
    return peaks


def test_criterion_1_lyapunov_oracle_equivalence():
    """Direct solve vs time integration at 50 random stable points."""
    worst_rel, worst_res = 0.0, 0.0
    for p in sample_stable_params(seed=101, count=50):
        A = drift_matrix(p, steady_state(p))
        D = diffusion_matrix(p)
        V = lyapunov_solve(A, D)
        V_oracle = integrate_lyapunov(A, D, p.omega_d)
        rel = np.linalg.norm(V - V_oracle) / np.linalg.norm(V_oracle)
        residual = (np.linalg.norm(A @ V + V @ A.T + D)
                    / max(1.0, np.linalg.norm(D)))
        worst_rel, worst_res = max(worst_rel, rel), max(worst_res, residual)
    passed = worst_rel < 1e-4 and worst_res <= 1e-8
    report_line("criterion 1", passed,
                f"worst oracle deviation {worst_rel:.2e} (< 1e-4), "
                f"worst scaled residual {worst_res:.2e} (<= 1e-8)")
    assert worst_rel < 1e-4
    assert worst_res <= 1e-8


def test_criterion_2_analytic_negativity_oracle():
    """Two-mode squeezed covariance: negativity equals 2r to 1e-9."""
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0):
        e = log_negativity(two_mode_squeezed(r))
        worst = max(worst, abs(e - 2.0 * r))
    report_line("criterion 2", worst <= 1e-9,
                f"max |E - 2r| = {worst:.2e} over r in (0.1, 0.5, 1, 2)")
    assert worst <= 1e-9


def _criterion_3_data():
    points = sample_stable_params(seed=103, count=200)
    min_eig = math.inf
    min_residual = math.inf
    for p in points:
        _, V = steady_covariance(p)
        min_eig = min(min_eig, symplectic_eigenvalues(V)[0])
        for triple in (positions("a1", "n", "d"), positions("n", "d", "e")):
            V3 = reduce(V, triple)
            for k in range(3):
                others = [m for m in range(3) if m != k]
                raw = (one_vs_two_negativity(V3, k) ** 2
                       - log_negativity(reduce(V3, [k, others[0]])) ** 2
                       - log_negativity(reduce(V3, [k, others[1]])) ** 2)
                min_residual = min(min_residual, raw)
    return min_eig, min_residual


_C3_CACHE: list = []


def _c3():
    if not _C3_CACHE:
        _C3_CACHE.append(_criterion_3_data())
    return _C3_CACHE[0]


def test_criterion_3a_physicality_suite():
    """Every symplectic eigenvalue of V is >= 1/2 - 1e-6 at 200 stable points."""
    min_eig, _ = _c3()
    report_line("criterion 3a", min_eig >= 0.5 - 1e-6,
                f"minimum symplectic eigenvalue {min_eig:.9f} (>= 0.5 - 1e-6)")
    assert min_eig >= 0.5 - 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="squared-log-negativity monogamy is violated structurally (worst "
           "pre-clamp residual ~ -1e-3 over the sampled box); the -1e-8 bound "
           "is unattainable, see the module docstring and the notes ledger")
def test_criterion_3b_monogamy_bound():
    """Pre-clamp residual contangles stay above -1e-8 (expected failure)."""
    _, min_residual = _c3()
    report_line("criterion 3b", min_residual >= -1e-8,
                f"worst pre-clamp monogamy residual {min_residual:.3e} (>= -1e-8)")
    assert min_residual >= -1e-8


def test_criterion_4_decoupling_exactness():
    """J = 0 kills all cross-cavity pairs; G_nd = 0 kills all phonon pairs."""
    cross = [positions(*pair) for pair in (("a1", "a2"), ("a1", "n"), ("a1", "d"),
                                           ("a2", "e"), ("n", "e"), ("d", "e"))]
    phonon = [positions(*pair) for pair in (("a1", "d"), ("a2", "d"), ("n", "d"), ("d", "e"))]
    worst = 0.0
    rng = np.random.default_rng(104)
    for _ in range(5):
        d1, d2, de = rng.uniform(-2, 2, 3)
        dnt = rng.uniform(0.5, 1.5)
        base = SystemParams().updated(
            delta_1=d1 * WD, delta_2=d2 * WD, delta_e=de * WD,
            delta_n_tilde_override=dnt * WD)
        _, V = steady_covariance(base.updated(J=0.0))
        if V is not None:
            worst = max(worst, *(log_negativity(reduce(V, pair)) for pair in cross))
        _, V = steady_covariance(base.updated(G_nd=0.0))
        if V is not None:
            worst = max(worst, *(log_negativity(reduce(V, pair)) for pair in phonon))
    report_line("criterion 4", worst < 1e-12,
                f"largest decoupled-pair negativity {worst:.2e} (< 1e-12)")
    assert worst < 1e-12


def test_criterion_5_detuning_plane_maxima_locations():
    """Phonon-ensemble negativity over the (delta_1, delta_2) plane peaks
    near (0, 0) and near (-2, -2) (101 x 101 grid, anchors within 0.5)."""
    [(_, spec)] = preset_grid("fig2a")
    assert spec.axes[0].points == spec.axes[1].points == 101
    xs, ys, values = grid_to_array(spec, run_grid(spec))
    global_max = np.nanmax(values)
    peaks = [(xs[i], ys[j], c) for i, j, c in local_maxima(values)
             if c >= 0.5 * global_max]
    found = {}
    for anchor in ((0.0, 0.0), (-2.0, -2.0)):
        near = [p for p in peaks
                if math.hypot(p[0] - anchor[0], p[1] - anchor[1]) <= 0.5]
        found[anchor] = max(near, key=lambda p: p[2]) if near else None
    detail = ", ".join(
        f"near {a}: " + (f"({p[0]:+.2f},{p[1]:+.2f}) EN={p[2]:.4f}" if p else "none")
        for a, p in found.items())
    passed = all(found.values())
    report_line("criterion 5", passed, detail + f"; global max {global_max:.4f}")
    assert all(found.values())


@pytest.mark.xfail(
    strict=True,
    reason="the symmetric-sweep magnon-ensemble optimum sits at "
           "delta_a = -0.55 omega_d, mirror of the referenced +0.5; "
           "unattainable as stated, see the module docstring and notes ledger")
def test_criterion_6_magnon_ensemble_optimum_location():
    """Magnon-ensemble maximum on the symmetric grid within 0.3 of +0.5
    (expected failure; the measured optimum is the mirror point)."""
    [(_, spec)] = preset_grid("fig4a")
    xs, _, values = grid_to_array(spec, run_grid(spec))
    i, j = np.unravel_index(np.nanargmax(values), values.shape)
    argmax_delta_a = xs[i]
    report_line("criterion 6", abs(argmax_delta_a - 0.5) <= 0.3,
                f"EN_ne optimum at delta_a = {argmax_delta_a:+.3f} omega_d "
                f"(required within 0.3 of +0.5)")
    assert abs(argmax_delta_a - 0.5) <= 0.3


def test_criterion_7_peak_migration_with_hopping():
    """The antisymmetric phonon-ensemble peak moves from near -omega_d
    toward zero as J grows 0.4 -> 1.4, monotonically up to one grid step."""
    argmaxes = []
    das = np.linspace(-2.0, 1.0, 61)
    step = das[1] - das[0]
    for j_wd in (0.4, 0.6, 0.8, 1.0, 1.2, 1.4):
        base = SystemParams().updated(J=j_wd * WD)
        best = (-1.0, None)
        for da in das:
            p = base.updated(delta_1=-da * WD, delta_2=da * WD)
            v = evaluate_measure(p, "EN_de")
            if v is not None and v > best[0]:
                best = (v, da)
        argmaxes.append(best[1])
    violations = sum(1 for a, b in zip(argmaxes, argmaxes[1:])
                     if b < a - step - 1e-12)
    passed = (abs(argmaxes[0] - (-1.0)) <= 0.3
              and argmaxes[-1] >= -0.25
              and violations <= 1)
    report_line("criterion 7", passed,
                "argmax(delta_a) per J: "
                + ", ".join(f"{a:+.2f}" for a in argmaxes)
                + f"; monotonicity violations {violations} (<= 1)")
    assert abs(argmaxes[0] - (-1.0)) <= 0.3
    assert argmaxes[-1] >= -0.25
    assert violations <= 1


def test_criterion_8_critical_temperature_bands():
    """Critical temperatures at the four operating points, +/-30% bands."""
    # record the stored a1n point's verdict rather than silently fixing it
    unstable = params_at("EN_a1n")
    verdict = StabilityVerdict.from_abscissa(
        spectral_abscissa(drift_matrix(unstable, steady_state(unstable))), unstable.omega_d)
    assert not verdict.stable

    results = {}
    for measure, (lo, hi) in TC_BANDS_K.items():
        t_c = critical_temperature(params_at(measure, stable_variant=True),
                                   measure, T_max=0.5)
        results[measure] = (t_c, lo <= t_c <= hi)
    detail = ", ".join(f"{m}: {t * 1e3:.0f} mK ({'ok' if ok else 'OUT'})"
                       for m, (t, ok) in results.items())
    passed = all(ok for _, ok in results.values())
    report_line("criterion 8", passed, detail)
    assert passed


def test_criterion_9_tripartite_positivity():
    """Both mode triples carry genuine tripartite entanglement somewhere
    on their referenced detuning sweeps."""
    specs = dict(preset_grid("fig8"))
    maxima = {}
    for name, measure in (("a1nd", "R_a1nd"), ("nde", "R_nde")):
        result = run_grid(specs[name])
        (delta_a,) = result.axis_values  # a one-axis grid
        best = max((v, da) for v, da, code in zip(result.measures[measure].tolist(), delta_a,
                                                  result.codes.tolist()) if code == STABLE)
        maxima[measure] = best
    passed = all(v > 1e-6 for v, _ in maxima.values())
    report_line("criterion 9", passed,
                ", ".join(f"max {m} = {v:.4f} at delta_a = {da:+.2f}"
                          for m, (v, da) in maxima.items()))
    assert passed


def test_criterion_10_optimizer_floor():
    """maximize over each operating point's shipped box meets or beats the
    measure value at the stored coordinates (0 for the unstable a1n row)."""
    lines = []
    passed = True
    for measure, preset in (("EN_a1n", "table2_a1n"), ("EN_a1d", "table2_a1d"),
                            ("EN_ne", "table2_ne"), ("EN_de", "table2_de")):
        cfg = load_layers(preset=preset)
        base = build_system(cfg)
        spec = build_optimize_spec(cfg)
        floor = evaluate_measure(params_at(measure), measure)
        floor = 0.0 if floor is None else floor
        report = maximize(spec, base)
        ok = report.best_value >= floor
        passed &= ok
        lines.append(f"{measure}: best {report.best_value:.4f} vs floor "
                     f"{floor:.4f} ({'ok' if ok else 'BELOW'})")
    report_line("criterion 10", passed, "; ".join(lines))
    assert passed


def test_criterion_11_preset_determinism(tmp_path):
    """Byte-identical CSV output: repeated runs, serial vs 8 workers."""
    outs = [tmp_path / name for name in ("first", "second", "threads")]
    for out, workers in zip(outs, ("1", "1", "8")):
        code = cli_main(["sweep", "--preset", "fig8", "--out", str(out),
                         "--workers", workers])
        assert code == 0
    names = ["a1nd.csv", "nde.csv"]
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        and (outs[0] / n).read_bytes() == (outs[2] / n).read_bytes()
        for n in names)
    report_line("criterion 11", identical,
                "fig8 CSVs byte-identical across reruns and 8-worker run")
    assert identical
