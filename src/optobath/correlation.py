"""Brute-force oracles: time-domain correlations, Lyapunov covariance, SDE runs.

Everything here exists to validate the spectral shortcuts elsewhere in the
package by an independent route: direct quadrature of the coordinate
autocorrelation, the steady-state covariance from the Lyapunov equation, and
ensembles of the quadrature Langevin dynamics stepped by their exact Gaussian
transition, where dt sets only how often a trajectory is sampled. Each
contribution to the autocorrelation has one array-native integrand, shared by
the adaptive c_qq_* oracles and the fixed-grid correlation_series, whose
Gauss-Legendre sums are GEMMs of phase tables built by doubling, along time
on a uniform time grid and along uniform runs of nodes otherwise, where each
time costs one complex exponential per run and log2 K per frequency block of
K panels; c_qq_total is one integral of the summed integrand. The
white-noise oracles (Lyapunov, trajectories) are valid only at gamma_m = 0,
where every noise source entering the 4x4 system is delta-correlated;
thermal Brownian noise is colored and is validated in the frequency domain
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from . import _table
from ._quad import QuadratureError, frequency_cutoff, spectral_integral
from .params import SystemParams, count_at_least, fan_out, finite_real, finite_reals, usable_cpus
from .response import chi_q_inv, lorentzian, lorentzian_asymmetry
from .spectrum import _bath_terms, _beta_eff, _j_eff, _ohmic_j, _require_bath
from .stability import require_stable, resonances


def _integrands(p: SystemParams, which: str):
    """(f_cos, f_sin) of one contribution to C_qq, or None if it is not coupled.

    C(t) = integral_0^inf dw [f_cos(w) cos(wt) - i f_sin(w) sin(wt)], the
    formulas being those of c_qq_thermal and c_qq_optical; "total" sums the
    coupled parts. Both functions take a float or an array of omega > 0, so
    the adaptive and the fixed-grid routes evaluate the same integrand.
    p is checked here, once: the shared "no bath" ValueError if it couples
    neither part, UnstableError if it has no steady state.
    """
    if which not in ("thermal", "optical", "total"):
        raise ValueError("which must be thermal | optical | total")
    _require_bath(p)
    require_stable(p)
    thermal = which != "optical" and p.gamma_m > 0
    optical = which != "thermal" and p.g_c > 0
    if not (thermal or optical):
        return None
    weight = p.sideband_weight

    def f_cos(w):
        mod2, value = abs(1.0 / chi_q_inv(w, p)) ** 2, 0.0
        if thermal:
            value += _ohmic_j(w, p) * mod2 / np.tanh(p.beta * w / 2.0) / math.pi
        if optical:
            value += weight * mod2 * (lorentzian(w, p) + lorentzian(-w, p))
        return value

    def f_sin(w):
        mod2, value = abs(1.0 / chi_q_inv(w, p)) ** 2, 0.0
        if thermal:
            value += _ohmic_j(w, p) * mod2 / math.pi
        if optical:
            value += weight * mod2 * lorentzian_asymmetry(w, p)
        return value

    return f_cos, f_sin


def _adaptive(p: SystemParams, t: float, pair) -> complex:
    """integral f_cos(w) cos(wt) - i f_sin(w) sin(wt) adaptively, as conj C(-t) at t < 0."""
    t = finite_real("t", t)
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


def _representation_integrands(p: SystemParams):
    """(f_cos, f_sin) of c_qq_representation; p is checked once, as in _integrands."""
    _require_bath(p)
    require_stable(p)

    def f_cos(w):
        terms = _bath_terms(w, p)
        coth = 1.0 + 2.0 / np.expm1(w * _beta_eff(w, p, terms))
        return _j_eff(w, p, terms) * coth / math.pi

    def f_sin(w):
        return _j_eff(w, p, _bath_terms(w, p)) / math.pi

    return f_cos, f_sin


def c_qq_representation(t: float, p: SystemParams) -> complex:
    """The same autocorrelation rebuilt from (j_eff, beta_eff).

    C(t) = (1/pi) integral_0^inf dw j_eff(w)
           * [coth(w beta_eff(w) / 2) cos(wt) - i sin(wt)].
    Agreement with c_qq_total is the defining property of the engineered
    bath description.
    """
    return _adaptive(p, t, _representation_integrands(p))


@dataclass
class CorrelationSeries:
    """C_qq(t) samples at the given times, in their order, tagged by contribution."""

    times: np.ndarray
    values: np.ndarray
    tag: str  # thermal | optical | total

    def to_csv(self) -> str:
        return _table.to_csv({"t": self.times, "re": self.values.real,
                              "im": self.values.imag, "tag": [self.tag] * len(self.times)})


def _gauss_frequency_grid(p: SystemParams, n: int):
    """Composite 4-point Gauss-Legendre rule on one partition of [0, cut] into blocks.

    Each pole (omega_j, gamma_j) of stability.resonances has tails falling
    as 1/(omega - omega_j)^2 over many decades when it is narrow, so block
    edges are uniform in u(omega) = sum_j asinh((omega - omega_j) / gamma_j),
    linear across each pole and geometric away from it; u is inverted by
    interpolation on 2001 samples per pole, uniform in its own asinh. Each
    block holds K equal panels (K the largest power of two <= n / 240), so
    Gauss node g of block b is a run of K uniform nodes of one weight.
    Returns (starts, h, w, q): the B blocks have panel widths h, run
    r = g B + b has nodes starts[r] + h[b] k, k < K, and w and q list every
    node and weight in (k, run) order, 4 K B of them with B = floor(n / 4K).
    """
    w_j, g_j = resonances(p).T
    cut = frequency_cutoff(p)
    k = 2 ** int(math.log2(n / 240))
    s = np.linspace(np.arcsinh(-w_j / g_j), np.arcsinh((cut - w_j) / g_j), 2001)
    omega = np.unique(w_j + g_j * np.sinh(s))
    u = np.arcsinh((omega[:, None] - w_j) / g_j).sum(axis=1)
    edges = np.interp(np.linspace(u[0], u[-1], n // (4 * k) + 1), u, omega)
    edges[[0, -1]] = 0.0, cut
    x, v = np.polynomial.legendre.leggauss(4)
    h = np.diff(edges) / k  # panel width in each block
    starts = (edges[:-1] + np.outer(0.5 * (x + 1.0), h)).ravel()  # runs in (g, block) order
    w = (starts + np.tile(h, 4) * np.arange(k)[:, None]).ravel()
    q = np.tile(np.outer(0.5 * v, h).ravel(), k)
    return starts, h, w, q


_TABLE_SIZE = 1 << 21  # complex entries per phase table (per slice of nodes, uniform grid)
_CHUNK_SIZE = 1 << 17  # complex entries per chunk's table on any other grid: 2 MiB, one core's L2


def _doubled(first: np.ndarray, m: int, w: np.ndarray, step) -> np.ndarray:
    """Rows first * exp(i w k step) for k < m, by doubling.

    Rows [k, 2k) are rows [0, k) times one directly evaluated exp(i w k step),
    w * step broadcast to a row, so each entry is a product of <= log2(m) + 1.
    """
    table = np.empty((m, *first.shape), complex)
    table[0] = first
    k = 1
    while k < m:
        np.multiply(table[:min(k, m - k)], np.exp(1j * (w * (k * step))), out=table[k:2 * k])
        k *= 2
    return table


def correlation_series(p: SystemParams, times, which: str = "total",
                       n_freq: int = 30000) -> CorrelationSeries:
    """Evaluate C_qq on many time points at once by fixed-grid quadrature.

    Sums composite 4-point Gauss-Legendre panels that partition [0, cut].
    Against adaptive c_qq_total at t in {0, 0.3, 1, 5, 13, 50, 120, 200} the
    default grid is off by at most 4.4e-10, 4.3e-10 and 1.3e-11 |C(0)| at
    fig1-cooled, fig1-cold and fig1-bare, near that reference's own tolerance;
    against the regression theorem by 2.0e-11 at fig1-cold for t <= 200, and
    by up to 8.6e-10 where a narrow cooling sideband sits away from omega_m.
    The error grows with t once the panels far from the poles are wide against
    2 pi / t; at n_freq = 1000 it is below 2e-9 |C(0)| for t <= 13.

    With the integrand as a e^{iwt} + conj(b e^{iwt}), real a and b, a grid
    uniform to 4 ulps of max|t| is evaluated at t0 + k h, which may differ
    from the given times by those ulps: t_k = t0 + (jB + l) h, B ~ sqrt(n), is
    one complex GEMM of e^{iw jBh} against [a, b] e^{iw(t0 + lh)}, both tables
    built by doubling in time, summed over slices of the nodes, each table
    within 2^21 entries. Any other grid doubles along each run of nodes
    s + k d instead, e^{iwt} = e^{its} (e^{itd})^k: the 4 runs of a block share
    d, so each time takes one exponential per run and log2 K per block, and
    one real GEMM of [a, b] against the table per chunk of times, each table
    within 2^17 entries (2 MiB, one core's L2 cache). The chunks run on up to
    two of the CPUs the process may run on, the caller one of them, so at most
    2^18 entries are in flight; a chunk's width does not depend on that count,
    so neither does any bit of the result.
    """
    pair = _integrands(p, which)
    times = finite_reals("times", times)
    if times.ndim != 1:
        raise ValueError("times must be a 1-d array")
    n_freq = count_at_least("n_freq", n_freq, 1000)
    starts, h_block, w, q = _gauss_frequency_grid(p, n_freq)
    q_cos, q_sin = (0.0 * q, 0.0 * q) if pair is None else (q * f(w) for f in pair)
    # q_cos cos(wt) - i q_sin sin(wt) = a e^{iwt} + conj(b e^{iwt}), a, b = (q_cos -+ q_sin)/2
    ab = 0.5 * np.array([q_cos - q_sin, q_cos + q_sin])
    if not np.isfinite(ab).all():
        raise QuadratureError("correlation_series: integrand not finite on the frequency grid")
    n, n_fine = len(times), 1
    if n >= 3:
        step = (times[-1] - times[0]) / (n - 1)
        grid = times[0] + np.arange(n) * step
        if np.abs(times - grid).max() <= 4.0 * np.spacing(np.abs(times).max()):
            t0, h, n_fine = times[0], step, math.isqrt(n - 1) + 1
    if n_fine > 1:
        ab = ab * np.exp(1j * (w * t0))
        n_a = -(-n // n_fine)
        width, sums = max(1, _TABLE_SIZE // max(n_a, 2 * n_fine)), 0.0
        for s in (slice(j, j + width) for j in range(0, len(w), width)):
            right = _doubled(ab[:, s], n_fine, w[s], h).reshape(2 * n_fine, -1).T  # a_0, b_0, ...
            sums = sums + _doubled(np.ones(right.shape[0]), n_a, w[s], n_fine * h) @ right
    else:
        sums = np.empty((n, 2), complex)
        chunk = max(1, _CHUNK_SIZE // len(w))

        def fill(j):
            t = times[j:j + chunk]
            first = np.exp(1j * np.outer(starts, t)).reshape(4, len(h_block), len(t))
            table = _doubled(first, len(w) // len(starts), h_block[:, None], t)  # (k, g, block, t)
            sums[j:j + chunk] = (ab @ table.reshape(-1, len(t)).view(float)).view(complex).T

        chunks = range(0, n, chunk)
        fan_out(fill, chunks, min(usable_cpus(), 2, len(chunks)))  # at most two tables at once
    values = (sums[:, 0::2] + sums[:, 1::2].conj()).ravel()[:n]
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
    return require_stable(p)


def lyapunov_covariance(p: SystemParams) -> np.ndarray:
    """Steady-state covariance V solving A V + V A^T + D = 0.

    Valid only at gamma_m = 0 (all noise white) and for a strictly stable
    drift matrix (UnstableError otherwise). The residual of the returned
    solution is checked below 1e-10 before it is handed back.
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
    """Ensemble moments of the white-noise quadrature dynamics, stepped exactly.

    Each step u <- u F^T + xi R is the exact Gaussian transition over dt, with
    F = exp(A dt) and R the symmetric square root of the step's noise
    covariance Q, so dt only sets how often a trajectory is sampled. Each
    trajectory's post-burn-in time average of u_i^2 counts as one sample;
    the returned stderr is over trajectories, which absorbs the
    autocorrelation within a run.
    """
    a = _white_noise_drift(p, "trajectory")
    n_traj = count_at_least("n_traj", n_traj, 2)
    if not (0 < dt <= duration < math.inf and 0 <= burn_in < duration):
        raise ValueError("need 0 < dt <= duration < inf, 0 <= burn_in < duration")
    n_steps = round(duration / dt)
    n_burn = round(burn_in / dt)
    if n_burn >= n_steps:
        raise ValueError("burn_in leaves no step to average at this dt")

    # Van Loan: expm([[-A, D], [0, A^T]] dt) = [[., F^-1 Q], [0, F^T]]. Noise enters
    # through the cavity alone, so Q is rank-deficient to rounding at small dt.
    m = expm(np.block([[-a, diffusion_matrix(p)], [np.zeros((4, 4)), a.T]]) * dt)
    f_t = m[4:, 4:]
    w, v = np.linalg.eigh(f_t.T @ m[:4, 4:])
    r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    rng = np.random.default_rng(seed)
    u = np.zeros((n_traj, 4))
    acc = np.zeros((n_traj, 4))
    for i in range(n_steps):
        u = u @ f_t + rng.standard_normal((n_traj, 4)) @ r
        if i >= n_burn:
            acc += u * u
    if not np.all(np.isfinite(acc)):
        raise RuntimeError("trajectory diverged before the final step")
    per_traj = acc / (n_steps - n_burn)
    return SampleMoments(second=per_traj.mean(axis=0),
                         stderr=per_traj.std(axis=0, ddof=1) / math.sqrt(n_traj),
                         n_traj=n_traj, n_samples=n_steps - n_burn, seed=seed)
