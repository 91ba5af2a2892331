"""Quantum noise spectrum, photon transition rates and equilibrium occupation.

A photonic mode sitting at detuning Omega = -delta_a above the drive
exchanges quanta with the engineered bath at golden-rule rates set by the
two-sided noise spectrum of the mechanical coordinate. Their ratio obeys a
detailed-balance condition at the frequency-dependent bath temperature, so
the drive frequency acts as a chemical potential for the photons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _table
from .params import SystemParams, q_zpf_squared, thermal_occupation
from .spectrum import _checked_grid, beta_eff, j_eff


class NonEquilibriumError(ValueError):
    """No equilibrium occupation exists (gain regime or loss-dominated balance)."""


def _noise_sides(omega, p: SystemParams):
    """(S(-Omega), S(+Omega), beta_eff, n_eff) at Omega > 0, for a float or an array.

    The one evaluation path of every rate quantity: j_eff and beta_eff are
    evaluated once and n_eff = 1/expm1(Omega*beta_eff) is the raw Bose
    factor, negative in the gain regime.
    """
    j = j_eff(omega, p)
    be = beta_eff(omega, p)
    n = thermal_occupation(omega, be)
    return 2.0 * j * n, 2.0 * j * (n + 1.0), be, n


def _rate_prefactor(p: SystemParams) -> float:
    return p.g_a**2 / q_zpf_squared(p.omega_m)


def s_qq(omega: float, p: SystemParams) -> float:
    """Two-sided quantum noise spectrum of the mechanical coordinate.

    S(omega > 0) = 2 j_eff(omega) (n_eff + 1)   (emission side),
    S(omega < 0) = 2 j_eff(|omega|) n_eff       (absorption side),
    with n_eff the Bose function at beta_eff(|omega|). The asymmetry of the
    two sides encodes the effective temperature.
    """
    if omega == 0:
        raise ValueError("s_qq requires omega != 0")
    absorption, emission, _, _ = _noise_sides(abs(omega), p)
    return float(emission if omega > 0 else absorption)


def gamma_rates(omega: float, p: SystemParams) -> tuple[float, float]:
    """Photon emission and absorption coefficients (gamma_plus, gamma_minus).

    gamma_plus = (g_a^2/q_zpf^2) S(-Omega) = 4 g_a^2 omega_m j_eff n_eff,
    gamma_minus = (g_a^2/q_zpf^2) S(+Omega) = 4 g_a^2 omega_m j_eff (n_eff+1);
    their difference is the net thermalization rate 4 g_a^2 omega_m j_eff.
    """
    if omega <= 0:
        raise ValueError("gamma_rates requires Omega > 0")
    absorption, emission, _, _ = _noise_sides(omega, p)
    pref = _rate_prefactor(p)
    return float(pref * absorption), float(pref * emission)


def fgr_rates(n: int, omega: float, p: SystemParams) -> tuple[float, float]:
    """Golden-rule transition rates from the n-photon state.

    rate(n -> n+1) = (n+1) gamma_plus, rate(n -> n-1) = n gamma_minus.
    """
    if n < 0:
        raise ValueError("photon number must be >= 0")
    gp, gm = gamma_rates(omega, p)
    return (n + 1) * gp, n * gm


def occupation(omega: float, p: SystemParams, *, allow_gain: bool = False) -> float:
    """Equilibrium photon number 1/(exp(Omega*beta_eff(Omega)) - 1).

    In the gain regime (beta_eff <= 0) no equilibrium exists; the raw Bose
    expression is only returned behind ``allow_gain``.
    """
    if omega <= 0:
        raise ValueError("occupation requires Omega > 0")
    _, _, be, n = _noise_sides(omega, p)
    if be <= 0 and not allow_gain:
        raise NonEquilibriumError(
            f"beta_eff({omega:g}) = {be:g} <= 0: gain regime, no equilibrium occupation"
        )
    return float(n)


def occupation_with_loss(omega: float, p: SystemParams) -> float:
    """Steady photon number with cavity loss folded into the balance.

    (n+1)/n = (gamma_minus + kappa_a)/gamma_plus, so
    n = gamma_plus / (gamma_minus + kappa_a - gamma_plus); strictly below
    the lossless occupation for kappa_a > 0, and undefined when loss plus
    absorption cannot beat emission.
    """
    if omega <= 0:
        raise ValueError("occupation_with_loss requires Omega > 0")
    if p.kappa_a == 0.0:
        return occupation(omega, p)
    gp, gm = gamma_rates(omega, p)
    den = gm + p.kappa_a - gp
    if den <= 0:
        raise NonEquilibriumError(
            "gamma_minus + kappa_a <= gamma_plus: no steady occupation"
        )
    return gp / den


@dataclass
class RateTable:
    """Rows of (Omega, gamma_plus, gamma_minus, n_bar, n_bar_lossy)."""

    omega: np.ndarray
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    n_bar: np.ndarray
    n_bar_lossy: np.ndarray

    def columns(self) -> dict:
        """The table's columns by output name, in output order."""
        return {"Omega": self.omega, "gamma_plus": self.gamma_plus,
                "gamma_minus": self.gamma_minus, "n_bar": self.n_bar,
                "n_bar_lossy": self.n_bar_lossy}

    def to_csv(self) -> str:
        return _table.to_csv(self.columns())

    def to_json(self) -> str:
        return _table.to_json(self.columns())


def compute_rates(p: SystemParams, grid=None) -> RateTable:
    """Tabulate rates and occupations over an Omega grid.

    Gain-regime or loss-dominated points get NaN occupations rather than
    silently negative ones; the rates themselves are always reported. Each
    occupation column is NaN exactly where its scalar function raises
    NonEquilibriumError, so n_bar_lossy can exist where n_bar does not.
    """
    grid = _checked_grid(p, grid)
    absorption, emission, be, n = _noise_sides(grid, p)
    pref = _rate_prefactor(p)
    gp, gm = pref * absorption, pref * emission
    nb = np.where(be > 0, n, np.nan)
    if p.kappa_a == 0.0:
        nbl = nb.copy()
    else:
        den = gm + p.kappa_a - gp
        nbl = np.divide(gp, den, out=np.full_like(grid, np.nan), where=den > 0)
    return RateTable(omega=grid, gamma_plus=gp, gamma_minus=gm, n_bar=nb, n_bar_lossy=nbl)
