"""Engineered-bath numerics for a laser-cooled optomechanical system.

A driven beam-splitter mode, a laser-cooled mechanical resonator and a
cooling cavity together act as a tunable low-frequency bath for a photonic
mode: the drive frequency sets a chemical potential and the cooling drive
sets the temperature. This package evaluates the bath's effective spectral
density and frequency-dependent temperature, the resulting photon transition
rates and grand-canonical occupation, and the dynamical stability limits,
each backed by an independent brute-force oracle.
"""

__version__ = "0.1.0"

import importlib

from .params import (
    DriveSpec,
    SystemParams,
    equilibrium_displacement,
    optimal_detuning,
    pump_coupling,
    q_zpf_squared,
    steady_state_amplitude,
    thermal_occupation,
)
from .response import (
    PoleError,
    chi_q,
    chi_q0,
    chi_q_inv,
    lorentzian,
    lorentzian_asymmetry,
    self_energy,
)
from .spectrum import (
    BathSpectrum,
    DivergenceError,
    beta_eff,
    beta_eff_low,
    beta_eff_low_expansion,
    beta_opt,
    beta_opt_expansion,
    compute_spectrum,
    damping_kernel,
    default_grid,
    detailed_balance_coth,
    eta_eff,
    eta_opt,
    g_c_max,
    j_eff,
    ohmic_j,
)
from .rates import (
    NonEquilibriumError,
    RateTable,
    compute_rates,
    fgr_rates,
    gamma_rates,
    occupation,
    occupation_with_loss,
    s_qq,
)
from .stability import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    StabilityMap,
    StabilityReport,
    UnstableError,
    drift_matrix_full,
    drift_matrix_qc,
    eigen_stable,
    full_criteria,
    routh_hurwitz_qc,
    stability_map,
    stability_report,
)
from .msi import (
    HBAR_SI,
    MsiGeometry,
    enhanced_coupling_from_hardware,
    msi_coupling,
)

# The oracle layer loads scipy on first use of one of its names. Not cached
# here, so a tracer's patch of the defining module is seen and undone.
_ORACLES = dict.fromkeys(
    ["CorrelationSeries", "SampleMoments", "c_qq_optical", "c_qq_representation",
     "c_qq_thermal", "c_qq_total", "correlation_series", "diffusion_matrix",
     "langevin_trajectory", "lyapunov_covariance"], "correlation") | {"QuadratureError": "_quad"}


def __getattr__(name):  # PEP 562
    if name not in _ORACLES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_ORACLES[name]}", __name__), name)
