"""Complex frequency response of the laser-cooled mechanical mode.

All functions are pure in (omega, params), accept scalars or numpy arrays,
and satisfy f(-omega) = conj(f(omega)) on the real axis.
"""

from __future__ import annotations

import numpy as np

from .params import SystemParams

class PoleError(ArithmeticError):
    """The (dressed) inverse susceptibility underflowed at a real frequency."""


def chi_q0_inv(omega, p: SystemParams):
    """Inverse bare susceptibility omega_m^2 - omega^2 - i*omega*gamma_m (M=1)."""
    return p.omega_m**2 - omega * omega - 1j * omega * p.gamma_m


def _at_pole(inv):
    """Where an inverse response is treated as an exact pole: |inv| below the underflow scale."""
    return np.abs(inv) < 1e-300


def chi_q0(omega, p: SystemParams):
    """Bare mechanical susceptibility 1/(omega_m^2 - omega^2 - i*omega*gamma_m).

    Raises PoleError when the inverse underflows, which happens only at
    gamma_m = 0, omega = +/- omega_m.
    """
    inv = chi_q0_inv(omega, p)
    if np.any(_at_pole(inv)):
        raise PoleError("bare susceptibility pole (gamma_m = 0 at omega = +/- omega_m)")
    return 1.0 / inv


def self_energy(omega, p: SystemParams):
    """Optical self-energy of the mechanical mode from the cooling cavity.

    Sigma(omega) = 2 g_c^2 omega_m * [1/((delta_c+omega) + i*kappa_c/2)
                                      + 1/((delta_c-omega) - i*kappa_c/2)],
    where 2 g_c^2 omega_m carries hbar*G_c^2 in natural units.
    """
    pref = p.sideband_weight
    half = 0.5j * p.kappa_c
    return pref * (1.0 / ((p.delta_c + omega) + half) + 1.0 / ((p.delta_c - omega) - half))


def chi_q_inv(omega, p: SystemParams):
    """Inverse dressed susceptibility chi_q0_inv + Sigma."""
    return chi_q0_inv(omega, p) + self_energy(omega, p)


def chi_q(omega, p: SystemParams):
    """Dressed mechanical susceptibility 1/(chi_q0_inv(omega) + Sigma(omega))."""
    inv = chi_q_inv(omega, p)
    if np.any(_at_pole(inv)):
        raise PoleError("dressed susceptibility pole")
    return 1.0 / inv


def lorentzian(omega, p: SystemParams):
    """Cooling-cavity sideband filter, a unit-area Lorentzian.

    L(omega) = (kappa_c/2pi) / ((omega + delta_c)^2 + kappa_c^2/4),
    peaked at omega = -delta_c with full width kappa_c.
    """
    return (p.kappa_c / (2.0 * np.pi)) / ((omega + p.delta_c) ** 2 + p.kappa_c**2 / 4.0)


def lorentzian_asymmetry(omega, p: SystemParams):
    """L(omega) - L(-omega) in a cancellation-free form.

    The difference collapses to -4*omega*delta_c times the product of the
    two Lorentzian denominators; evaluating it this way keeps full relative
    precision at omega -> 0 where the direct subtraction loses digits.
    """
    k24 = p.kappa_c**2 / 4.0
    num = (omega - p.delta_c) ** 2 + k24
    den = (omega + p.delta_c) ** 2 + k24
    return (p.kappa_c / (2.0 * np.pi)) * (-4.0 * omega * p.delta_c) / (num * den)
