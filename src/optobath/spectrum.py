"""Engineered-bath spectral density and frequency-dependent temperature.

The laser-cooled mechanical mode, together with its thermal environment and
the cooling cavity, acts on the photonic system as a single bath described
by a spectral density j_eff(omega) and an inverse temperature beta_eff(omega).
This module evaluates both, their closed-form low-frequency limits, the
laser-cooling-dominated forms, and the coupling threshold g_c_max beyond
which the low-frequency damping changes sign.

ohmic_j, j_eff and beta_eff check their arguments once per call, then
evaluate a private formula that checks nothing. The adaptive integrands,
which QUADPACK samples one float at a time, call those formulas directly;
a non-finite integral raises QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _table
from ._quad import spectral_integral
from .params import SystemParams, check_frequency, count_at_least, finite_real, thermal_occupation
from .response import PoleError, _at_pole, chi_q_inv, lorentzian, lorentzian_asymmetry

FLAG_OK = ""
FLAG_POLE = "pole"
FLAG_NONTHERMAL = "nonthermal"

_TINY = np.finfo(float).tiny


class DivergenceError(ArithmeticError):
    """A closed-form expression diverges at the supplied parameters."""


def _coupling_weight(p: SystemParams) -> float:
    """pi * hbar * G_c^2 = 2 pi g_c^2 omega_m in natural units."""
    return 2.0 * math.pi * p.g_c**2 * p.omega_m


def _r2(p: SystemParams) -> float:
    return p.delta_c**2 + p.kappa_c**2 / 4.0


def _require_bath(p: SystemParams) -> None:
    """ValueError unless gamma_m > 0 or g_c^2 > 0 (a g_c^2 that underflows couples nothing)."""
    if p.gamma_m == 0.0 and p.g_c**2 == 0.0:
        raise ValueError("no bath: gamma_m = 0 and g_c^2 = 0")


def ohmic_j(omega, p: SystemParams):
    """Ohmic mechanical spectral density gamma_m * omega * exp(-omega/cutoff)."""
    check_frequency("ohmic_j: omega", omega, allow_zero=True)
    return _ohmic_j(omega, p)


def _ohmic_j(omega, p: SystemParams):
    return p.gamma_m * omega * np.exp(-np.asarray(omega, dtype=float) / p.cutoff)


def j_eff(omega, p: SystemParams):
    """Effective spectral density of the engineered bath.

    j_eff = |chi_q|^2 * { J(omega) + pi hbar G_c^2 (L(omega) - L(-omega)) }.
    Positive everywhere in the stable red-detuned regime; the sideband
    asymmetry supplies the low-frequency support that the bare Ohmic bath,
    gated by the narrow mechanical resonance, lacks.
    """
    check_frequency("j_eff: omega", omega)
    if np.any(_at_pole(chi_q_inv(omega, p))):
        raise PoleError("dressed susceptibility pole inside j_eff")
    return _j_eff(omega, p)


def _j_eff(omega, p: SystemParams):
    mod2 = 1.0 / np.abs(chi_q_inv(omega, p)) ** 2
    return mod2 * (_ohmic_j(omega, p) + _coupling_weight(p) * lorentzian_asymmetry(omega, p))


def beta_eff(omega, p: SystemParams):
    """Frequency-dependent inverse temperature of the engineered bath.

    Defined by the balance of upward and downward bath fluxes,
        exp(omega*beta_eff) = (J*(n+1) + w*L(omega)) / (J*n + w*L(-omega)),
    with n the thermal occupation at the mechanical temperature and
    w = pi hbar G_c^2. Evaluated as log1p of the flux imbalance over the
    downward flux, which stays accurate at omega -> 0; where a cold bath
    makes the downward flux underflow, as the log of the flux ratio.
    Negative values (population inversion, blue-detuned drive) are returned
    as data.
    """
    check_frequency("beta_eff: omega", omega)
    _require_bath(p)
    return _beta_eff(omega, p)


def _beta_eff(omega, p: SystemParams):
    w = _coupling_weight(p)
    j = _ohmic_j(omega, p)
    nbar = thermal_occupation(omega, p.beta)
    imbalance = j + w * lorentzian_asymmetry(omega, p)
    coupled_down = w * lorentzian(-np.asarray(omega, dtype=float), p)
    downward = j * nbar + coupled_down
    underflow = downward < _TINY
    if not underflow.any():
        return np.log1p(imbalance / downward) / omega
    # Cold bath: take the flux ratio in logs, log n = -bw - log(1 - exp(-bw)).
    # log J is taken in its factors, since J itself underflows past ~745 cutoffs.
    om = np.asarray(omega, dtype=float)
    bw = p.beta * om
    with np.errstate(divide="ignore"):
        log_j = np.log(p.gamma_m * om) - om / p.cutoff
        log_down = np.logaddexp(log_j - bw - np.log(-np.expm1(-bw)), np.log(coupled_down))
        log_imbalance = log_j if w == 0.0 else np.log(imbalance)
        x = np.where(underflow, np.logaddexp(0.0, log_imbalance - log_down),
                     np.log1p(imbalance / np.where(underflow, 1.0, downward)))
    return x / omega


def detailed_balance_coth(omega, p: SystemParams):
    """Right-hand side of the hyperbolic form of the balance condition.

    coth(omega*beta_eff/2) = (J*coth(beta*omega/2) + w*(L+ + L-)) / (J + w*(L+ - L-)).
    Kept as an independent cross-check of beta_eff; the exponential form is
    the production path because inverting coth is ill-conditioned near 0.
    """
    check_frequency("detailed_balance_coth: omega", omega)
    _require_bath(p)
    w = _coupling_weight(p)
    j = _ohmic_j(omega, p)
    om = np.asarray(omega, dtype=float)
    num = j / np.tanh(p.beta * om / 2.0) + w * (lorentzian(om, p) + lorentzian(-om, p))
    den = j + w * lorentzian_asymmetry(omega, p)
    return num / den


def beta_opt(omega, p: SystemParams):
    """Inverse temperature in the laser-cooling-dominated limit (gamma_m -> 0).

    exp(omega*beta_opt) = ((omega-delta_c)^2 + kappa_c^2/4)
                        / ((omega+delta_c)^2 + kappa_c^2/4);
    independent of g_c and gamma_m.
    """
    check_frequency("beta_opt: omega", omega)
    if p.delta_c == 0.0:
        raise ValueError("beta_opt requires delta_c != 0")
    den = (np.asarray(omega, dtype=float) + p.delta_c) ** 2 + p.kappa_c**2 / 4.0
    return np.log1p(-4.0 * np.asarray(omega, dtype=float) * p.delta_c / den) / omega


def beta_opt_expansion(p: SystemParams) -> tuple[float, float]:
    """Constant and omega^2 coefficients of beta_opt around omega = 0.

    beta_opt = -4 delta_c / r2  -  delta_c (4 delta_c^2 - 3 kappa_c^2)
               / (3 r2^3) * omega^2 + O(omega^4),  r2 = delta_c^2 + kappa_c^2/4.
    The omega^2 term vanishes exactly at the optimal detuning
    4 delta_c^2 = 3 kappa_c^2.
    """
    if p.delta_c == 0.0:
        raise ValueError("beta_opt_expansion requires delta_c != 0")
    r2 = _r2(p)
    const = -4.0 * p.delta_c / r2
    quad_coeff = -p.delta_c * (4.0 * p.delta_c**2 - 3.0 * p.kappa_c**2) / (3.0 * r2**3)
    return const, quad_coeff


def _eta_den_core(p: SystemParams) -> float:
    """omega_m*r2 + 4 g_c^2 delta_c, guarding the threshold zero.

    The zero sits exactly at g_c = g_c_max; a relative tolerance absorbs the
    rounding of a threshold value that went through a square root.
    """
    core = p.omega_m * _r2(p) + 4.0 * p.g_c**2 * p.delta_c
    if abs(core) < 1e-12 * p.omega_m * _r2(p):
        raise DivergenceError("low-frequency slope diverges: g_c at threshold")
    return core


def eta_opt(p: SystemParams) -> float:
    """Low-frequency Ohmic slope of j_eff in the laser-cooling-dominated limit.

    eta_opt = -4 g_c^2 delta_c kappa_c
              / (omega_m * (omega_m*r2 + 4 g_c^2 delta_c)^2).
    Diverges at the threshold coupling g_c_max.
    """
    return -4.0 * p.g_c**2 * p.delta_c * p.kappa_c / (p.omega_m * _eta_den_core(p) ** 2)


def eta_eff(p: SystemParams) -> float:
    """Low-frequency Ohmic slope of j_eff including the thermal environment.

    eta_eff = (gamma_m*r2^2 - 4 g_c^2 delta_c kappa_c omega_m)
              / (omega_m^2 * (omega_m*r2 + 4 g_c^2 delta_c)^2),
    exact in gamma_m, reducing to eta_opt at gamma_m = 0. The omega_m^2
    power in the denominator is fixed by requiring j_eff(omega)/omega ->
    eta_eff and the gamma_m -> 0 reduction to hold simultaneously.
    """
    r2 = _r2(p)
    num = p.gamma_m * r2**2 - 4.0 * p.g_c**2 * p.delta_c * p.kappa_c * p.omega_m
    return num / (p.omega_m**2 * _eta_den_core(p) ** 2)


def g_c_max(p: SystemParams) -> float:
    """Cooling-coupling threshold g_c_max = sqrt(omega_m*r2 / (4|delta_c|)).

    Defined for red detuning only; at the optimal detuning it equals
    sqrt(kappa_c*omega_m/(2*sqrt(3))) = kappa_c/2 when omega_m = sqrt(3)kappa_c/2.
    """
    if p.delta_c >= 0:
        raise ValueError("g_c_max is defined for red detuning (delta_c < 0)")
    return math.sqrt(p.omega_m * _r2(p) / (4.0 * abs(p.delta_c)))


def beta_eff_low(p: SystemParams) -> float:
    """Closed-form omega -> 0 limit of beta_eff.

    beta_eff(0) = beta * (gamma_m*r2^2 - 4 g_c^2 delta_c kappa_c omega_m)
                  / (r2 * (gamma_m*r2 + g_c^2 beta kappa_c omega_m)).
    """
    _require_bath(p)
    r2 = _r2(p)
    den = r2 * (p.gamma_m * r2 + p.g_c**2 * p.beta * p.kappa_c * p.omega_m)
    num = p.beta * (p.gamma_m * r2**2 - 4.0 * p.g_c**2 * p.delta_c * p.kappa_c * p.omega_m)
    return num / den


def beta_eff_low_expansion(p: SystemParams) -> tuple[float, float]:
    """Zeroth and first order in gamma_m of the low-frequency beta_eff.

    beta_eff(0) ~ -4 delta_c/r2
                  + gamma_m * (4 delta_c + beta*r2) / (g_c^2 beta kappa_c omega_m).
    The first-order coefficient is negative for a hot mechanical bath
    (beta*r2 < 4|delta_c|), so thermal contact raises the effective
    temperature; the sign flips only when beta*r2 > 4|delta_c|.
    """
    if not (p.g_c > 0 and p.beta > 0):
        raise ValueError("expansion requires g_c > 0 and beta > 0")
    r2 = _r2(p)
    zeroth = -4.0 * p.delta_c / r2
    first = (4.0 * p.delta_c + p.beta * r2) / (p.g_c**2 * p.beta * p.kappa_c * p.omega_m)
    return zeroth, first


def damping_kernel(t: float, p: SystemParams) -> float:
    """Time-domain damping kernel of the engineered bath.

    gamma_eff(t) = Theta(t) * (2/pi) * integral_0^inf (j_eff/omega) cos(omega t).
    In the low-frequency Ohmic regime the kernel is a near-delta whose
    running integral approaches eta_eff.
    """
    _require_bath(p)
    if finite_real("t", t) < 0:
        return 0.0
    f = lambda w: (2.0 / math.pi) * _j_eff(w, p) / w
    return spectral_integral(f, p, t=t, kind="cos")


def default_grid(p: SystemParams, n: int = 400):
    """Logarithmic grid of n frequencies, 1e-4 to 4 omega_m: the Ohmic limit and the resonance."""
    n = count_at_least("n", n, 1)
    return np.logspace(math.log10(1e-4 * p.omega_m), math.log10(4.0 * p.omega_m), n)


def _checked_grid(p: SystemParams, grid) -> np.ndarray:
    """``grid`` as a float array, default_grid(p) when None; 1-d, ascending, finite, > 0."""
    grid = default_grid(p) if grid is None else np.asarray(grid, dtype=float)
    check_frequency("grid points", grid)
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a non-empty, strictly ascending 1-d array")
    return grid


@dataclass
class BathSpectrum(_table.Table):
    """Paired (j_eff, beta_eff) samples over an ascending positive grid."""

    grid: np.ndarray
    j_eff: np.ndarray
    beta_eff: np.ndarray
    flags: list[str] = field(default_factory=list)

    def t_eff(self) -> np.ndarray:
        """Effective temperature 1/beta_eff per grid point (may be negative)."""
        with np.errstate(divide="ignore"):
            return 1.0 / self.beta_eff

    def columns(self) -> dict:
        """The table's columns by output name, in output order."""
        return {"omega": self.grid, "j_eff": self.j_eff, "beta_eff": self.beta_eff,
                "t_eff": self.t_eff(), "flags": self.flags}


def compute_spectrum(p: SystemParams, grid=None) -> BathSpectrum:
    """Evaluate (j_eff, beta_eff) over a grid, flagging poles and gain points.

    Grid points where the dressed response is singular are flagged "pole"
    and carry NaN; points with beta_eff <= 0 are flagged "nonthermal" but
    keep their values so blue-detuned sweeps still render.
    """
    _require_bath(p)
    grid = _checked_grid(p, grid)
    pole = _at_pole(chi_q_inv(grid, p))
    j = np.full_like(grid, np.nan)
    b = np.full_like(grid, np.nan)
    ok = ~pole
    if np.any(ok):
        j[ok] = j_eff(grid[ok], p)
        b[ok] = beta_eff(grid[ok], p)
    flags = np.where(pole, FLAG_POLE, np.where(b <= 0, FLAG_NONTHERMAL, FLAG_OK)).tolist()
    return BathSpectrum(grid=grid, j_eff=j, beta_eff=b, flags=flags)
