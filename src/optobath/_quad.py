"""Adaptive quadrature helpers for spectral integrals.

The integrands here are smooth apart from one dressed mechanical resonance,
which can be arbitrarily narrow (width ~ gamma_m/2 when the cooling drive is
off). Every routine therefore splits the axis at the located peak and, for
oscillatory weights cos(omega*t) / sin(omega*t) over wide segments, switches
to the dedicated oscillatory rule.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .params import SystemParams
from .response import chi_q_inv

# Segments spanning more than this many oscillation periods use the
# weighted (QAWO) rule instead of the plain adaptive one.
_OSC_PERIODS = 3.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def frequency_cutoff(p: SystemParams) -> float:
    """Truncation point for nominally infinite frequency integrals.

    Beyond max(10*cutoff, 50*kappa_c, 50*omega_m) every integrand used here
    is suppressed at least as fast as omega^-4 by the susceptibility tails
    or exponentially by the Ohmic cutoff.
    """
    return max(10.0 * p.cutoff, 50.0 * p.kappa_c, 50.0 * p.omega_m)


def resonance_peak(p: SystemParams) -> tuple[float, float]:
    """Locate the dressed mechanical resonance and estimate its half-width.

    Returns (omega_peak, width). The peak is found by minimizing
    |chi_q_inv|^2 on (0, 3*omega_m]; the width follows from the imaginary
    part of the inverse response at the peak.
    """
    res = minimize_scalar(
        lambda w: abs(chi_q_inv(w, p)) ** 2,
        bounds=(1e-9 * p.omega_m, 3.0 * p.omega_m),
        method="bounded",
        options={"xatol": 1e-12 * p.omega_m},
    )
    w_peak = float(res.x)
    width = abs(chi_q_inv(w_peak, p).imag) / (2.0 * w_peak)
    return w_peak, max(width, 1e-12 * p.omega_m)


def breakpoints(p: SystemParams) -> list[float]:
    """Interior subdivision points bracketing the resonance and the knees.

    The resonance tails fall off as 1/(omega - w_peak)^2 over many decades
    when the peak is narrow, so the edges march geometrically away from the
    peak; a single wide segment there defeats the adaptive rule.
    """
    w_peak, width = resonance_peak(p)
    cut = frequency_cutoff(p)
    pts = {w_peak, 5.0 * p.omega_m, 20.0 * p.omega_m}
    offset = width
    while offset < 5.0 * p.omega_m:
        pts.add(w_peak - offset)
        pts.add(w_peak + offset)
        offset *= 10.0
    return sorted(x for x in pts if 0.0 < x < cut)


def _segment(f, lo, hi, t, kind, epsabs, epsrel, inner_points):
    if kind == "plain" or t * (hi - lo) < _OSC_PERIODS * 2.0 * np.pi:
        if kind == "cos":
            g = lambda w: f(w) * np.cos(w * t)
        elif kind == "sin":
            g = lambda w: f(w) * np.sin(w * t)
        else:
            g = f
        pts = [x for x in inner_points if lo < x < hi] or None
        out = quad(g, lo, hi, points=pts, limit=400, epsabs=epsabs, epsrel=epsrel,
                   full_output=1)
    else:
        out = quad(f, lo, hi, weight=kind, wvar=t, limit=400, epsabs=epsabs,
                   epsrel=epsrel, full_output=1)
    return out[0], out[1]


def spectral_integral(f, p: SystemParams, *, t: float = 0.0, kind: str = "plain",
                      upper: float | None = None, epsabs: float = 1e-10,
                      epsrel: float = 1e-8) -> float:
    """Integrate f(omega) [* cos/sin(omega*t)] over (0, cutoff], piecewise.

    ``kind`` selects the weight: "plain", "cos" or "sin". At t = 0 the
    "sin" integral is 0 and the "cos" one is the plain integral. Raises
    QuadratureError when the accumulated error estimate exceeds a loose
    multiple of the requested tolerance, reporting the achieved value.
    """
    if (p.g_c == 0.0 and p.gamma_m == 0.0) or (kind == "sin" and t == 0):
        return 0.0
    hi = frequency_cutoff(p) if upper is None else upper
    inner = breakpoints(p)
    edges = [0.0] + [x for x in inner if x < hi] + [hi]
    if kind != "plain" and t * edges[1] >= _OSC_PERIODS * 2.0 * np.pi:
        # The oscillatory rule samples its segment's ends, and integrands
        # divided by omega are undefined at 0: the plain rule, which does
        # not sample ends, takes the first half period.
        edges.insert(1, np.pi / t)
    total = 0.0
    err = 0.0
    for lo, up in zip(edges[:-1], edges[1:]):
        val, e = _segment(f, lo, up, t, kind, epsabs, epsrel, inner)
        total += val
        err += e
    tol = max(epsabs, epsrel * abs(total))
    if err > 1e4 * tol and err > 1e-5 * abs(total):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance "
            f"{tol:.3e} (value {total:.6e})"
        )
    return total
