"""Michelson-Sagnac hardware helper.

Translates interferometer geometry into the beam-splitter optomechanical
coupling, and a physical drive into the dimensionless pump-enhanced coupling
used everywhere else. This is the only place SI units appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .params import finite_real

HBAR_SI = 1.054571817e-34  # J*s


@dataclass(frozen=True)
class MsiGeometry:
    """Interferometer at its dark fringe: membrane reflectivity and lengths.

    r_m is the membrane amplitude reflectivity magnitude, omega_0 the cavity
    resonance (absolute angular frequency), and d, L, l the arm lengths in
    meters; the effective cavity length is their sum.
    """

    r_m: float
    omega_0: float
    d: float
    L: float
    l: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, finite_real(f.name, getattr(self, f.name)))
        # r_m = 0 (fully transparent membrane) is allowed and decouples the
        # modes; r_m = 1 would close the Sagnac path entirely
        if not 0 <= self.r_m < 1:
            raise ValueError("membrane reflectivity must satisfy 0 <= r_m < 1")
        if self.omega_0 <= 0:
            raise ValueError("cavity resonance must be positive")
        for name in ("d", "L", "l"):
            if getattr(self, name) <= 0:
                raise ValueError(f"length {name} must be positive")

    @property
    def effective_length(self) -> float:
        return self.d + self.L + self.l


def msi_coupling(geo: MsiGeometry) -> float:
    """Bare beam-splitter coupling G_a0 = r_m * omega_0 / effective_length.

    Angular frequency per meter of membrane displacement; linear in r_m and
    omega_0, inverse-linear in the effective length.
    """
    return geo.r_m * geo.omega_0 / geo.effective_length


def enhanced_coupling_from_hardware(geo: MsiGeometry, b_s: float, mass: float,
                                    omega_m: float) -> float:
    """Dimensionless pump-enhanced coupling g_a from hardware numbers.

    g_a = G_a0 * |b_s| * sqrt(hbar/(2 M omega_m)) / omega_m with everything
    in SI; the result is in units of omega_m and feeds SystemParams.g_a.
    """
    if mass <= 0 or omega_m <= 0:
        raise ValueError("mass and omega_m must be positive")
    q_zpf = math.sqrt(HBAR_SI / (2.0 * mass * omega_m))
    return msi_coupling(geo) * abs(b_s) * q_zpf / omega_m


def g_a_from_hardware_block(block: dict) -> float:
    """Evaluate the hardware block of a configuration document.

    Expects keys r_m, omega_0, d, L, l, b_s, mass, omega_m_si (SI units)
    and returns the dimensionless g_a.
    """
    required = {"r_m", "omega_0", "d", "L", "l", "b_s", "mass", "omega_m_si"}
    missing = required - set(block)
    if missing:
        raise ValueError(f"hardware block missing keys: {sorted(missing)}")
    unknown = set(block) - required
    if unknown:
        raise ValueError(f"hardware block has unknown keys: {sorted(unknown)}")
    values = {key: finite_real(f"hardware {key}", block[key]) for key in block}
    geo = MsiGeometry(**{f.name: values[f.name] for f in fields(MsiGeometry)})
    return enhanced_coupling_from_hardware(
        geo, values["b_s"], values["mass"], values["omega_m_si"]
    )
