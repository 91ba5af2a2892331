"""Brute-force oracles: time-domain correlations, Lyapunov covariance, SDE runs.

Everything here exists to validate the spectral shortcuts elsewhere in the
package by an independent route: direct quadrature of the coordinate
autocorrelation, the steady-state covariance from the Lyapunov equation, and
Euler-Maruyama ensembles of the quadrature Langevin dynamics. Each
contribution to the autocorrelation has one array-native integrand, shared by
the adaptive c_qq_* oracles and the fixed-grid correlation_series;
c_qq_total is one integral of the summed integrand. The white-noise
oracles (Lyapunov, trajectories) are valid only at gamma_m = 0, where every
noise source entering the 4x4 system is delta-correlated; thermal Brownian
noise is colored and is validated in the frequency domain instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from . import _table
from ._quad import frequency_cutoff, resonance_peak, spectral_integral
from .params import SystemParams
from .response import chi_q, lorentzian, lorentzian_asymmetry
from .spectrum import beta_eff, j_eff, ohmic_j
from .stability import STABLE, drift_matrix_qc, eigen_stable


def _integrands(p: SystemParams, which: str):
    """(f_cos, f_sin) of one contribution to C_qq, or None if it is not coupled.

    C(t) = integral_0^inf dw [f_cos(w) cos(wt) - i f_sin(w) sin(wt)], the
    formulas being those of c_qq_thermal and c_qq_optical; "total" sums the
    coupled parts. Both functions take a float or an array of omega > 0, so
    the adaptive and the fixed-grid routes evaluate the same integrand.
    """
    if which not in ("thermal", "optical", "total"):
        raise ValueError("which must be thermal | optical | total")
    thermal = which != "optical" and p.gamma_m > 0
    optical = which != "thermal" and p.g_c > 0
    if not (thermal or optical):
        return None
    weight = 2.0 * p.g_c**2 * p.omega_m

    def f_cos(w):
        mod2, value = abs(chi_q(w, p)) ** 2, 0.0
        if thermal:
            value += ohmic_j(w, p) * mod2 / np.tanh(p.beta * w / 2.0) / math.pi
        if optical:
            value += weight * mod2 * (lorentzian(w, p) + lorentzian(-w, p))
        return value

    def f_sin(w):
        mod2, value = abs(chi_q(w, p)) ** 2, 0.0
        if thermal:
            value += ohmic_j(w, p) * mod2 / math.pi
        if optical:
            value += weight * mod2 * lorentzian_asymmetry(w, p)
        return value

    return f_cos, f_sin


def _adaptive(p: SystemParams, t: float, pair) -> complex:
    """integral f_cos(w) cos(wt) - i f_sin(w) sin(wt) adaptively, as conj C(-t) at t < 0."""
    if pair is None:
        return 0.0 + 0.0j
    f_cos, f_sin = pair
    value = (spectral_integral(f_cos, p, t=abs(t), kind="cos")
             - 1j * spectral_integral(f_sin, p, t=abs(t), kind="sin"))
    return value.conjugate() if t < 0 else value


def c_qq_thermal(t: float, p: SystemParams) -> complex:
    """Coordinate autocorrelation fed by the Ohmic mechanical bath.

    C_F(t) = integral_0^inf dw (J(w) |chi_q(w)|^2 / pi)
             * [coth(beta w / 2) cos(wt) - i sin(wt)].
    """
    return _adaptive(p, t, _integrands(p, "thermal"))


def c_qq_optical(t: float, p: SystemParams) -> complex:
    """Coordinate autocorrelation fed by the cooling cavity's vacuum noise.

    C_c(t) = integral_0^inf dw (2 g_c^2 omega_m) |chi_q(w)|^2
             * [exp(-iwt) L(w) + exp(+iwt) L(-w)],
    the two terms being the cooling and counter-rotating (heating) sidebands.
    """
    return _adaptive(p, t, _integrands(p, "optical"))


def c_qq_total(t: float, p: SystemParams) -> complex:
    """Full coordinate autocorrelation: one integral of the summed integrand."""
    return _adaptive(p, t, _integrands(p, "total"))


def c_qq_representation(t: float, p: SystemParams) -> complex:
    """The same autocorrelation rebuilt from (j_eff, beta_eff).

    C(t) = (1/pi) integral_0^inf dw j_eff(w)
           * [coth(w beta_eff(w) / 2) cos(wt) - i sin(wt)].
    Agreement with c_qq_total is the defining property of the engineered
    bath description.
    """

    def f_cos(w):
        coth = 1.0 + 2.0 / np.expm1(w * beta_eff(w, p))
        return j_eff(w, p) * coth / math.pi

    def f_sin(w):
        return j_eff(w, p) / math.pi

    return _adaptive(p, t, (f_cos, f_sin))


@dataclass
class CorrelationSeries:
    """C_qq(t) samples on an ascending time grid, tagged by contribution."""

    times: np.ndarray
    values: np.ndarray
    tag: str  # thermal | optical | total

    def to_csv(self) -> str:
        return _table.to_csv({"t": self.times, "re": self.values.real,
                              "im": self.values.imag, "tag": [self.tag] * len(self.times)})


def _dense_frequency_grid(p: SystemParams, n: int = 30000) -> np.ndarray:
    """Fixed grid for bulk time series: geometric ladders off the resonance.

    The resonance tails fall as 1/(omega - w_peak)^2 over many decades when
    the peak is narrow, so grid spacing must scale with the distance from
    the peak; a linear window plus log background cannot resolve the tails.
    """
    w_peak, width = resonance_peak(p)
    cut = frequency_cutoff(p)
    floor = 1e-6 * p.omega_m
    n_side = n // 4
    core = np.linspace(w_peak - width, w_peak + width, n // 4)
    below = w_peak - np.geomspace(width, max(w_peak - floor, 2.0 * width), n_side)
    above = w_peak + np.geomspace(width, cut - w_peak, n_side)
    background = np.geomspace(floor, cut, n - 2 * n_side - n // 4)
    w = np.concatenate([below, core, above, background])
    return np.unique(w[(w >= floor) & (w <= cut)])


def correlation_series(p: SystemParams, times, which: str = "total",
                       n_freq: int = 30000) -> CorrelationSeries:
    """Evaluate C_qq on many time points at once by fixed-grid quadrature.

    Uses a trapezoidal rule on a resonance-resolving grid; accuracy is
    limited by the grid (~1e-4 relative for the default), which is ample for
    the Fourier-consistency checks. For single times at tight tolerance use
    the adaptive c_qq_* functions.
    """
    pair = _integrands(p, which)
    times = np.asarray(times, dtype=float)
    w = _dense_frequency_grid(p, n_freq)
    f_cos, f_sin = (np.zeros_like(w), np.zeros_like(w)) if pair is None else (f(w) for f in pair)

    values = np.empty(len(times), dtype=complex)
    chunk = max(1, int(2e7 / len(w)))
    for start in range(0, len(times), chunk):
        ts = times[start:start + chunk, None]
        phase = w[None, :] * ts
        re = np.trapezoid(f_cos[None, :] * np.cos(phase), w, axis=1)
        im = np.trapezoid(f_sin[None, :] * np.sin(phase), w, axis=1)
        values[start:start + chunk] = re - 1j * im
    return CorrelationSeries(times=times, values=values, tag=which)


def diffusion_matrix(p: SystemParams) -> np.ndarray:
    """Symmetrized white-noise diffusion of the 4x4 system at gamma_m = 0.

    Vacuum input on the cooling cavity contributes kappa_c/2 on each of
    X_c, Y_c; the thermal force row is zero because J vanishes with gamma_m.
    """
    return np.diag([0.0, 0.0, p.kappa_c / 2.0, p.kappa_c / 2.0])


def _white_noise_drift(p: SystemParams, oracle: str) -> np.ndarray:
    """The 4x4 drift matrix, if p is a strictly stable point at gamma_m = 0."""
    if p.gamma_m != 0.0:
        raise ValueError(f"{oracle} oracle requires gamma_m = 0 (thermal noise is colored)")
    a = drift_matrix_qc(p)
    abscissa, verdict = eigen_stable(a)
    if verdict != STABLE:
        raise ValueError(f"drift matrix not strictly stable (abscissa {abscissa:.3e})")
    return a


def lyapunov_covariance(p: SystemParams) -> np.ndarray:
    """Steady-state covariance V solving A V + V A^T + D = 0.

    Valid only at gamma_m = 0 (all noise white) and for a strictly stable
    drift matrix. The residual of the returned solution is checked below
    1e-10 before it is handed back.
    """
    a = _white_noise_drift(p, "Lyapunov")
    d = diffusion_matrix(p)
    v = solve_continuous_lyapunov(a, -d)
    v = 0.5 * (v + v.T)
    residual = np.abs(a @ v + v @ a.T + d).max()
    if residual > 1e-10:
        raise ArithmeticError(f"Lyapunov residual {residual:.3e} above 1e-10")
    return v


@dataclass
class SampleMoments:
    """Ensemble second moments of (Q, P, X_c, Y_c) with standard errors."""

    second: np.ndarray       # time-averaged diagonal second moments, mean over trajectories
    stderr: np.ndarray       # standard error of that mean
    n_traj: int
    n_samples: int
    seed: int


def langevin_trajectory(p: SystemParams, *, seed: int, duration: float = 200.0,
                        dt: float = 0.004, n_traj: int = 1000,
                        burn_in: float = 50.0) -> SampleMoments:
    """Euler-Maruyama ensemble moments of the white-noise quadrature dynamics.

    Each trajectory's post-burn-in time average of u_i^2 counts as one
    sample; the returned stderr is over trajectories, which absorbs the
    autocorrelation within a run. Aborts if any trajectory diverges
    (unstable parameters slipped through).
    """
    a = _white_noise_drift(p, "trajectory")
    if dt > 0.01 / max(p.omega_m, p.kappa_c):
        raise ValueError("dt too coarse: require dt <= 0.01/max(omega_m, kappa_c)")

    n_steps = int(round(duration / dt))
    n_burn = min(int(round(burn_in / dt)), n_steps - 1)
    rng = np.random.default_rng(seed)
    step = np.eye(4) + a.T * dt
    sqrt_d = np.sqrt(np.diag(diffusion_matrix(p)) * dt)

    u = np.zeros((n_traj, 4))
    acc = np.zeros((n_traj, 4))
    count = 0
    for i in range(n_steps):
        u = u @ step + rng.standard_normal((n_traj, 4)) * sqrt_d
        if i >= n_burn:
            acc += u * u
            count += 1
        if i % 2000 == 0 and not np.all(np.isfinite(u)):
            raise RuntimeError(f"trajectory diverged at t = {i * dt:.1f}")
    if not np.all(np.isfinite(acc)):
        raise RuntimeError("trajectory diverged before the final step")
    per_traj = acc / count
    return SampleMoments(
        second=per_traj.mean(axis=0),
        stderr=per_traj.std(axis=0, ddof=1) / math.sqrt(n_traj),
        n_traj=n_traj,
        n_samples=count,
        seed=seed,
    )
