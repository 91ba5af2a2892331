"""Parameter set, unit conventions and steady-state pump relations.

Everything downstream works in natural units hbar = k_B = M = 1, with all
rates and detunings quoted in units of the mechanical frequency omega_m.
In these units the mechanical zero-point spread is q_zpf = sqrt(1/(2 omega_m)),
so hbar*G^2 = 2 g^2 omega_m for a pump-enhanced coupling g = G * q_zpf, and
user input reduces to the two coupling frequencies g_a, g_c.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, asdict

import numpy as np

SQRT3 = math.sqrt(3.0)


def finite_real(name: str, value) -> float:
    """``value`` as a float if it is a finite real number, not a bool; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SystemParams:
    """All physical rates, detunings and couplings of the driven system.

    Frequencies are in units of omega_m, inverse temperature ``beta`` is
    hbar*beta in units of 1/omega_m, and ``cutoff`` is the exponential
    roll-off frequency of the Ohmic mechanical bath.
    """

    omega_m: float = 1.0     # mechanical frequency, the global unit
    gamma_m: float = 0.0     # mechanical damping rate, >= 0
    kappa_b: float = 1.0     # beam-splitter cavity linewidth, > 0
    kappa_c: float = 1.0     # cooling cavity linewidth, > 0
    kappa_a: float = 0.0     # system cavity loss, >= 0 (0 = perfect cavity)
    delta_a: float = -1.0    # drive-frame detuning of the system mode
    delta_b: float = 0.0     # detuning of the beam-splitter drive
    delta_c: float = -SQRT3 / 2.0  # detuning of the cooling drive (signed)
    g_a: float = 0.0         # pump-enhanced system-bath coupling, >= 0
    g_c: float = 0.0         # pump-enhanced cooling coupling, >= 0
    beta: float = 1.0        # hbar * (inverse bath temperature), > 0
    cutoff: float = 1e3      # Ohmic exponential cutoff, > 0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, finite_real(f.name, getattr(self, f.name)))
        positive = ("omega_m", "kappa_b", "kappa_c", "beta", "cutoff")
        nonneg = ("gamma_m", "kappa_a", "g_a", "g_c")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in nonneg:
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "SystemParams":
        """Build from a flat key-value mapping; unknown keys are an error.

        Values must be real numbers: JSON booleans and strings are rejected
        rather than coerced.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown parameter(s): {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


def q_zpf_squared(omega_m: float = 1.0) -> float:
    """Zero-point position variance hbar/(2 M omega_m) in natural units."""
    return 1.0 / (2.0 * omega_m)


def thermal_occupation(omega, beta):
    """Bose occupation 1/(exp(beta*omega) - 1), for floats or arrays.

    Used for the mechanical environment and, at beta_eff, for the photons.
    Past beta*omega ~ 709 expm1 overflows to inf and the occupation is 0,
    which is the exact limit, so that overflow is not warned about.
    """
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(beta * omega)


@dataclass(frozen=True)
class DriveSpec:
    """Raw drive description used to derive a pump-enhanced coupling.

    ``coupling`` is the bare optomechanical coupling already folded to a
    frequency (G0 * q_zpf), ``amplitude`` the input drive amplitude
    (square-root photon flux, non-negative after phase absorption) and
    ``detuning`` the drive detuning.
    """

    coupling: float
    amplitude: float
    detuning: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("drive amplitude must be non-negative")


def steady_state_amplitude(drive: DriveSpec, kappa: float) -> tuple[complex, float]:
    """Steady cavity amplitude sqrt(kappa)*a_in / (i*Delta - kappa/2).

    Returns the complex amplitude together with its magnitude; the magnitude
    is what enters the pump-enhanced coupling once the phase is absorbed
    into the drive definition.
    """
    if not kappa > 0:
        raise ValueError("kappa must be > 0")
    amp = math.sqrt(kappa) * drive.amplitude / (1j * drive.detuning - kappa / 2.0)
    return amp, abs(amp)


def pump_coupling(drive: DriveSpec, kappa: float) -> float:
    """Pump-enhanced coupling g = (G0 q_zpf) * |steady amplitude|."""
    _, mag = steady_state_amplitude(drive, kappa)
    return drive.coupling * mag


def equilibrium_displacement(g_c0: float, c_s: complex, omega_m: float = 1.0) -> float:
    """Static displacement -G_c0 |c_s|^2 / omega_m^2 balancing radiation pressure."""
    return -g_c0 * abs(c_s) ** 2 / omega_m**2


def optimal_detuning(kappa_c: float) -> float:
    """Red-detuned cooling detuning with 4*delta_c^2 = 3*kappa_c^2.

    This choice cancels the curvature of the low-frequency effective
    temperature, making it flat around omega = 0.
    """
    if not kappa_c > 0:
        raise ValueError("kappa_c must be > 0")
    return -(SQRT3 / 2.0) * kappa_c
