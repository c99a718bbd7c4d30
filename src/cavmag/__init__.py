"""Steady-state Gaussian entanglement of a driven two-cavity magnomechanical
network: five coupled modes (two microwave cavities, an atomic ensemble, a
magnon and a phonon mode), linearized quadrature dynamics, Lyapunov steady
covariance, logarithmic negativities and residual contangles."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    CouplingDerivation,
    SystemParams,
    collective_coupling,
    rabi_from_field,
    rabi_from_power,
    thermal_occupation,
    validate_regime,
)
from .dynamics import (  # noqa: F401
    MODE_LABELS,
    StabilityVerdict,
    SteadyState,
    diffusion_matrix,
    drift_matrix,
    spectral_abscissa,
    steady_state,
)
from .gaussian import (  # noqa: F401
    MEASURE_IDS,
    EntanglementReport,
    full_report,
    log_negativity,
    lyapunov_solve,
    one_vs_two_negativity,
    reduce,
    residual_contangle,
    symplectic_eigenvalues,
)
from .sweep import Axis, GridSpec, SweepResult, emit_csv, run_grid  # noqa: F401
from .optimize import (  # noqa: F401
    OptimizeSpec,
    OptimumReport,
    critical_temperature,
    maximize,
)
