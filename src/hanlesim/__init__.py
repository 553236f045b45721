"""Transient response of degenerate two-level atoms to a switched magnetic field.

Density-matrix simulation and analysis toolkit for Hanle-type coherence
resonances: builds the optical Bloch equations for an Fg -> Fe transition
driven by resonant light in a longitudinal magnetic field, solves them in
closed form through the relaxation-mode spectrum, simulates square-wave
field switching, and fits the resulting absorption transients.

Units: the excited-state decay rate is 1 and hbar = 1, so times are in
excited-state lifetimes and all rates, Rabi and Zeeman frequencies are in
units of the excited-state decay rate.
"""

from .angular import AngMom, polarization, q_matrix, wigner3j
from .dynamics import (
    SwitchSchedule,
    TransientTrace,
    propagate_integrated,
    propagate_modal,
    split_phases,
    steady_state,
    switched_transient,
    trajectory_physicality,
    transit_time,
)
from .fit import FitModel, FitResult, fit, rate_vs_intensity
from .liouvillian import (
    Liouvillian,
    TransitionSpec,
    absorption,
    build_liouvillian,
    coupling_matrix,
    devectorize,
    hamiltonian,
    vectorize,
)
from .presets import get_preset, list_presets
from .spectral import (
    EigenMode,
    OpenLambdaSpec,
    classify_groups,
    dark_state,
    eigenmodes,
    intensity_sweep,
    open_lambda_liouvillian,
    sweep_modes,
)
from .traceio import load_trace, save_fit, save_trace

__version__ = "0.1.0"

__all__ = [
    "AngMom",
    "polarization",
    "q_matrix",
    "wigner3j",
    "TransitionSpec",
    "Liouvillian",
    "hamiltonian",
    "coupling_matrix",
    "build_liouvillian",
    "vectorize",
    "devectorize",
    "absorption",
    "SwitchSchedule",
    "TransientTrace",
    "steady_state",
    "propagate_modal",
    "propagate_integrated",
    "switched_transient",
    "split_phases",
    "trajectory_physicality",
    "transit_time",
    "EigenMode",
    "eigenmodes",
    "classify_groups",
    "dark_state",
    "OpenLambdaSpec",
    "open_lambda_liouvillian",
    "sweep_modes",
    "intensity_sweep",
    "FitModel",
    "FitResult",
    "fit",
    "rate_vs_intensity",
    "load_trace",
    "save_trace",
    "save_fit",
    "get_preset",
    "list_presets",
    "__version__",
]
