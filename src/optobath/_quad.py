"""Adaptive quadrature helpers for spectral integrals.

Every integral carries a cos(omega*t) or sin(omega*t) weight and one fixed
tolerance. The integrands are smooth apart from the poles of the 4x4 system
(stability.resonances), any of which can be arbitrarily narrow: gamma_m/2
at the mechanical pole when the cooling drive is off. The axis is split at
every pole; segments spanning several periods of the weight use the
oscillatory rule.

QUADPACK samples an integrand one float at a time, so callers pass formulas
without per-sample checks and check their parameters once; a sum that is
not finite raises QuadratureError.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .params import SystemParams
from .stability import resonances

# Segments spanning more than this many oscillation periods use the weighted
# (QAWO) rule; the first never does, so its _WEIGHTS lookup rejects other kinds.
_OSC_PERIODS = 3.0
_EPSABS, _EPSREL = 1e-10, 1e-8
_QUAD_OPTS = dict(limit=400, epsabs=_EPSABS, epsrel=_EPSREL, full_output=1)
_WEIGHTS = {"cos": np.cos, "sin": np.sin}


class QuadratureError(RuntimeError):
    """Quadrature gave a non-finite value or failed to reach the requested tolerance."""


def frequency_cutoff(p: SystemParams) -> float:
    """Truncation point for nominally infinite frequency integrals.

    Beyond max(10*cutoff, 50*kappa_c, 50*omega_m) every integrand used here
    is suppressed at least as fast as omega^-4 by the susceptibility tails
    or exponentially by the Ohmic cutoff.
    """
    return max(10.0 * p.cutoff, 50.0 * p.kappa_c, 50.0 * p.omega_m)


def breakpoints(p: SystemParams) -> list[float]:
    """Interior subdivision points: the knees, and every pole with a ladder around it.

    A pole's tails fall off as 1/(omega - omega_j)^2 over many decades when it
    is narrow, and one wide segment there defeats the adaptive rule, so the
    ladder is omega_j +- gamma_j 10^k for every offset gamma_j 10^k < 5 omega_m.
    """
    cut = frequency_cutoff(p)
    pts = {5.0 * p.omega_m, 20.0 * p.omega_m}
    for w_j, offset in resonances(p).tolist():
        pts.add(w_j)
        while offset < 5.0 * p.omega_m:
            pts.update((w_j - offset, w_j + offset))
            offset *= 10.0
    return sorted(x for x in pts if 0.0 < x < cut)


def _segment(f, lo, hi, t, kind):
    if t * (hi - lo) < _OSC_PERIODS * 2.0 * np.pi:
        weight = _WEIGHTS[kind]
        return quad(lambda w: f(w) * weight(w * t), lo, hi, **_QUAD_OPTS)[:2]
    return quad(f, lo, hi, weight=kind, wvar=t, **_QUAD_OPTS)[:2]


def spectral_integral(f, p: SystemParams, *, t: float, kind: str) -> float:
    """Integrate f(omega) * cos/sin(omega*t) over (0, cutoff], piecewise.

    ``kind`` selects the weight, "cos" or "sin"; any other value raises
    KeyError. At t = 0 the "sin" integral is 0. Raises QuadratureError when
    the accumulated error estimate exceeds a loose multiple of the fixed
    tolerance (1e-10 absolute, 1e-8 relative), reporting the achieved value,
    or when the sum is not finite (f was NaN or infinite at some sample).
    """
    if kind == "sin" and t == 0:
        return 0.0
    hi = frequency_cutoff(p)
    edges = [0.0, *breakpoints(p), hi]
    if t * edges[1] >= _OSC_PERIODS * 2.0 * np.pi:
        # The oscillatory rule samples its segment's ends, and integrands
        # divided by omega are undefined at 0: the plain rule, which does
        # not sample ends, takes the first half period.
        edges.insert(1, np.pi / t)
    total = 0.0
    err = 0.0
    for lo, up in zip(edges[:-1], edges[1:]):
        val, e = _segment(f, lo, up, t, kind)
        total += val
        err += e
    if not math.isfinite(total):
        raise QuadratureError(f"integral not finite ({total}): integrand not finite on (0, {hi:g}]")
    tol = max(_EPSABS, _EPSREL * abs(total))
    if err > 1e4 * tol and err > 1e-5 * abs(total):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance "
            f"{tol:.3e} (value {total:.6e})"
        )
    return total
