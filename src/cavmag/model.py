"""Physical parameters, thermal environment, drive converters and regime checks.

Unit convention: every rate, frequency and detuning is stored as an angular
frequency in rad/s.  Detunings are mode frequency minus drive frequency.
Sweep axes and reports are expressed in units of the phonon frequency
``omega_d``; temperatures are kelvin.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

# CODATA 2018 values, recorded in output metadata for reproducibility.
HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K
EPS0 = 8.8541878128e-12  # F / m

TWO_PI = 2.0 * math.pi

_OMEGA_D = TWO_PI * 10e6  # phonon frequency of the default parameter set

# (carrier frequency field, detuning field) pairs resolved against omega_l
_FREQ_PAIRS = (
    ("omega_c1", "delta_1"),
    ("omega_c2", "delta_2"),
    ("omega_e", "delta_e"),
    ("omega_n", "delta_n"),
)

# fields that SystemParams may derive from others (a sum can overflow)
_DERIVED = tuple(name for pair in _FREQ_PAIRS for name in pair)


class ParameterError(ValueError):
    """Raised when a parameter set is inconsistent or out of range."""


@dataclass(frozen=True)
class SystemParams:
    """Rates, detunings, couplings and drives of the five-mode network.

    Modes: cavity-1 photons (a1), cavity-2 photons (a2), magnon (n),
    phonon (d), collective atomic excitation (e).  Carrier frequencies that
    are omitted are derived as ``omega_l + detuning``; when both a carrier
    and its detuning are supplied they must agree to 1e-9 * omega_d.

    ``delta_n_tilde_override`` pins the effective magnon detuning and skips
    the self-consistency loop; without it ``delta_n`` must be given.
    The defaults are the paper's reference parameter set.
    """

    omega_d: float = _OMEGA_D
    omega_l: float = TWO_PI * 10e9
    delta_1: float | None = _OMEGA_D
    delta_2: float | None = -_OMEGA_D
    delta_e: float | None = -_OMEGA_D
    delta_n: float | None = None
    delta_n_tilde_override: float | None = 0.9 * _OMEGA_D
    omega_c1: float | None = None
    omega_c2: float | None = None
    omega_e: float | None = None
    omega_n: float | None = None
    kappa_a: float = TWO_PI * 1e6
    kappa_n: float = TWO_PI * 1e6
    gamma_e: float = TWO_PI * 1e6
    gamma_d: float = TWO_PI * 100.0
    g_na: float = TWO_PI * 3.2e6
    g_nd: float = TWO_PI * 0.2
    G_nd: float = TWO_PI * 4.8e6
    G_ae: float = TWO_PI * 6e6
    J: float = 0.8 * _OMEGA_D
    Omega_l: float = TWO_PI * 6.4e9
    Omega_n: float = TWO_PI * 2.4e11
    T: float = 0.010

    def __post_init__(self):
        if not self.omega_d > 0:
            raise ParameterError("omega_d must be positive")
        for name in ("kappa_a", "kappa_n", "gamma_e", "gamma_d", "T"):
            if not getattr(self, name) >= 0:  # NaN fails this test too
                raise ParameterError(f"{name} must be non-negative")
        # NaN or inf would only fail later, in an eigen-solve or a thermal
        # occupation, under another name
        self._check_finite(vars(self))
        tol = 1e-9 * self.omega_d
        for freq_name, det_name in _FREQ_PAIRS:
            freq = getattr(self, freq_name)
            det = getattr(self, det_name)
            if det is None and freq is not None:
                object.__setattr__(self, det_name, freq - self.omega_l)
            elif det is not None and freq is None:
                object.__setattr__(self, freq_name, self.omega_l + det)
            elif det is not None and freq is not None:
                if abs(det - (freq - self.omega_l)) > tol:
                    raise ParameterError(
                        f"{det_name}={det!r} inconsistent with "
                        f"{freq_name}={freq!r} and omega_l={self.omega_l!r}"
                    )
        if self.delta_1 is None or self.delta_2 is None or self.delta_e is None:
            raise ParameterError("delta_1, delta_2 and delta_e are required")
        if self.delta_n is None and self.delta_n_tilde_override is None:
            raise ParameterError(
                "either delta_n or delta_n_tilde_override must be given"
            )
        if self.omega_n is None:
            # carrier for the magnon thermal occupation; the few-MHz shift
            # between bare and effective detuning is irrelevant at 10 GHz
            object.__setattr__(
                self, "omega_n", self.omega_l + self.delta_n_tilde_override
            )
        self._check_finite(_DERIVED)

    def _check_finite(self, names) -> None:
        for name in names:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")

    def updated(self, **changes) -> "SystemParams":
        """Return a copy with ``changes`` applied and derived fields re-resolved.

        Changing a detuning silently drops the stored carrier frequency of the
        same mode (and vice versa) so the pair is re-derived instead of
        tripping the consistency check.  Changing ``omega_l`` keeps the
        detunings and re-derives every carrier not set explicitly.
        """
        for freq_name, det_name in _FREQ_PAIRS:
            if det_name in changes and freq_name not in changes:
                changes[freq_name] = None
            elif freq_name in changes and det_name not in changes:
                changes[det_name] = None
            elif "omega_l" in changes and freq_name not in changes:
                changes[freq_name] = None
        if "delta_n_tilde_override" in changes and "omega_n" not in changes:
            if self.delta_n is None and "delta_n" not in changes:
                changes["omega_n"] = None
        return type(self)(**{**vars(self), **changes})

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))


def updated_in_omega_d_units(base: SystemParams, values: dict) -> SystemParams:
    """``base.updated`` with ``values`` given as sweeps, boxes and overrides
    give them: rates and detunings in units of ``omega_d``, ``T`` in kelvin,
    and ``delta_n_tilde`` for the pinned effective magnon detuning."""
    wd = base.omega_d
    changes = {}
    for name, value in values.items():
        if name == "T":
            changes["T"] = value
        elif name == "delta_n_tilde":
            changes["delta_n_tilde_override"] = value * wd
        else:
            changes[name] = value * wd
    return base.updated(**changes)


@dataclass(frozen=True)
class CouplingDerivation:
    """Microscopic quantities backing the drive and coupling converters."""

    nu: float = 3.6e-27  # atomic transition dipole moment, C m
    V_cav: float = 3.0e-6  # cavity mode volume, m^3
    N_atoms: float = 1.0e7
    Gamma_gyro: float = TWO_PI * 28e9  # gyromagnetic ratio, rad/s/T
    rho_spin: float = 4.22e27  # spin density, m^-3
    V_sphere: float = 4.0 / 3.0 * math.pi * (125e-6) ** 3  # m^3
    B0: float = 5.3e-5  # magnon drive field amplitude, T
    P_drive: float = 4.7e-10  # cavity drive input power, W
    spin_number: float = 2.5

    def __post_init__(self):
        # NaN passes the sign checks below and silences a regime warning
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        for name in ("V_cav", "N_atoms", "Gamma_gyro", "rho_spin",
                     "V_sphere", "spin_number"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        # drives and the dipole may be zero (switched off), never negative
        for name in ("nu", "B0", "P_drive"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")

    @property
    def N_spins(self) -> float:
        return self.rho_spin * self.V_sphere


def thermal_occupation(omega: float, T: float) -> float:
    """Bose occupation 1/(exp(hbar*omega/kB*T) - 1); exactly 0 at T = 0."""
    if omega <= 0:
        raise ParameterError(f"omega must be positive, got {omega!r}")
    if not T >= 0:
        raise ParameterError(f"T must be non-negative, got {T!r}")
    kt = KB * T
    if kt == 0.0:  # T = 0, or kB*T below the smallest float: the T -> 0 limit
        return 0.0
    x = HBAR * omega / kt
    if x == 0.0:  # T = inf, or hbar*omega/kB*T below the smallest float
        raise ParameterError(f"thermal occupation diverges at omega={omega!r}, T={T!r}")
    if x > 700:  # expm1 overflows; the occupation is exp(-x) to this accuracy
        return math.exp(-x) if x < 745 else 0.0
    return 1.0 / math.expm1(x)


def rabi_from_power(P: float, kappa_a: float, omega_l: float) -> float:
    """Cavity drive Rabi rate sqrt(2*P*kappa_a / (hbar*omega_l)).

    P = 0 is accepted and means no drive.
    """
    if P < 0:
        raise ParameterError("drive power must be non-negative")
    if kappa_a <= 0 or omega_l <= 0:
        raise ParameterError("kappa_a and omega_l must be positive")
    return math.sqrt(2.0 * P * kappa_a / (HBAR * omega_l))


def rabi_from_field(cd: CouplingDerivation) -> float:
    """Magnon drive Rabi rate (sqrt(5)/4) * Gamma * sqrt(N_spins) * B0."""
    return math.sqrt(5.0) / 4.0 * cd.Gamma_gyro * math.sqrt(cd.N_spins) * cd.B0


def collective_coupling(cd: CouplingDerivation, omega_1: float) -> float:
    """Collective atom-cavity rate g*sqrt(N) with g = nu*sqrt(omega_1/(2*hbar*eps0*V))."""
    if omega_1 <= 0:
        raise ParameterError("omega_1 must be positive")
    g = cd.nu * math.sqrt(omega_1 / (2.0 * HBAR * EPS0 * cd.V_cav))
    return g * math.sqrt(cd.N_atoms)


def validate_regime(p: SystemParams, ss, cd: CouplingDerivation | None = None) -> list[str]:
    """Diagnostics for the approximations behind the linearized model.

    Returns a (possibly empty) list of warning strings; never raises.  The
    atom-number-dependent checks run only when ``cd`` is supplied.
    """
    warnings = []
    fast = 100.0 * max(p.g_na, p.kappa_a, p.kappa_n, p.gamma_e)
    slow_carrier = min(p.omega_c1, p.omega_c2, p.omega_n, p.omega_e)
    if slow_carrier < fast:
        warnings.append(
            "rwa: a carrier frequency is below 100x the fastest rate "
            f"({slow_carrier:.3e} < {fast:.3e} rad/s)"
        )
    q = math.inf if p.gamma_d == 0 else p.omega_d / p.gamma_d
    if q < 1000.0:
        warnings.append(f"mechanical-q: omega_d/gamma_d = {q:.3g} < 1000")
    n_mag = abs(ss.n)
    a1_mag = abs(ss.a1)
    if cd is not None:
        cap = 0.01 * 2.0 * cd.N_spins * cd.spin_number
        if n_mag**2 >= cap:
            warnings.append(
                f"low-excitation: |<n>|^2 = {n_mag**2:.3e} exceeds 1% of "
                f"2*N_spins*spin_number = {cap:.3e}"
            )
    if a1_mag < 10.0 or n_mag < 10.0:
        warnings.append(
            "small-amplitude: |<a1>| or |<n>| below 10 "
            f"(|<a1>|={a1_mag:.3g}, |<n>|={n_mag:.3g}); linearization suspect"
        )
    if cd is not None:
        g_single = p.G_ae / math.sqrt(cd.N_atoms)
        lhs = g_single**2 / (p.delta_e**2 + p.gamma_e**2)
        rhs = math.inf if a1_mag == 0 else 1.0 / a1_mag**2
        if lhs >= rhs:
            warnings.append(
                "atom-cavity-coupling: g^2/(delta_e^2+gamma_e^2) = "
                f"{lhs:.3e} is not small against |<a1>|^-2 = {rhs:.3e}"
            )
    return warnings
