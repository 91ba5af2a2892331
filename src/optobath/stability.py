"""Drift matrices, analytic stability criteria and the eigenvalue oracle.

The linearized quadrature dynamics are du/dt = A u + noise. Analytic
sign conditions on the characteristic polynomial give closed-form stability
boundaries; the authoritative verdict is always the spectral abscissa of A,
with the analytic criteria property-tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _table
from .params import SQRT3, SystemParams, fan_out, usable_cpus

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"
_VERDICTS = np.array([STABLE, MARGINAL, UNSTABLE], dtype=object)

# Spectral abscissae inside this band are reported as marginal: strict
# Routh-Hurwitz inequalities do not classify the boundary.
MARGIN = 1e-9
_CELL_BUDGET = 1 << 16  # cells in flight in _classify: 18 MiB of 6x6 matrices across its slices
_MIN_SLICE = 384  # cells; below this a slice saves less than its share of a pool costs


class UnstableError(ValueError):
    """No steady state: the 4x4 drift matrix is not strictly stable."""

    def __init__(self, verdict: str, abscissa: float):
        super().__init__(f"drift matrix not strictly stable (abscissa {abscissa:.3e})")
        self.verdict = verdict


def drift_matrices(c) -> np.ndarray:
    """Drift matrices over (Q, P, X_c, Y_c, X_a, Y_a), shape (..., 6, 6).

    ``c`` maps SystemParams field names to floats or to arrays that
    broadcast together; the leading shape is their broadcast shape. The
    4x4 matrix of the cooled mechanics alone is the top-left block.
    """
    om, gm, kc, dc, gc, ga, da = (
        np.asarray(c[k], dtype=float)
        for k in ("omega_m", "gamma_m", "kappa_c", "delta_c", "g_c", "g_a", "delta_a")
    )
    m = np.zeros(np.broadcast_shapes(om.shape, gm.shape, kc.shape, dc.shape, gc.shape,
                                     ga.shape, da.shape) + (6, 6))
    m[..., 0, 1] = om
    m[..., 1, 0] = -om
    m[..., 1, 1] = -gm
    m[..., 1, 2] = m[..., 3, 0] = 2.0 * gc
    m[..., 1, 4] = m[..., 5, 0] = 2.0 * ga
    m[..., 2, 2] = m[..., 3, 3] = -kc / 2.0
    m[..., 2, 3] = -dc
    m[..., 3, 2] = dc
    m[..., 4, 5] = -da
    m[..., 5, 4] = da
    return m


def drift_matrix_qc(p: SystemParams) -> np.ndarray:
    """4x4 drift matrix over (Q, P, X_c, Y_c) for the cooled mechanics alone."""
    return drift_matrices(vars(p))[:4, :4].copy()


def drift_matrix_full(p: SystemParams) -> np.ndarray:
    """6x6 drift matrix over (Q, P, X_c, Y_c, X_a, Y_a) with the probe coupled."""
    return drift_matrices(vars(p))


def routh_hurwitz_qc(p: SystemParams) -> tuple[float, bool]:
    """Analytic criterion for the 4x4 system at red detuning.

    Returns (value, stable) with value = p.threshold_core, which is
    omega_m r2 + 4 g_c^2 delta_c; the system is stable iff the value is
    positive. The zero of the value in g_c coincides with g_c_max.
    """
    if p.delta_c >= 0:
        raise ValueError("criterion applies to red detuning (delta_c < 0)")
    value = p.threshold_core
    return value, value > 0


def _at_optimal(c):
    """Elementwise at_optimal_detuning over a field mapping of floats or arrays."""
    dc, kc = c["delta_c"], c["kappa_c"]
    return (dc < 0) & (np.abs(4.0 * dc * dc - 3.0 * (kc * kc)) <= 1e-9 * 3.0 * (kc * kc))


def at_optimal_detuning(p: SystemParams) -> bool:
    """True when 4*delta_c^2 = 3*kappa_c^2 within 1e-9 relative (red branch)."""
    return bool(_at_optimal(vars(p)))


def analytic_criteria(c):
    """(s1, s2, s3, verdict) of full_criteria over a field mapping of floats or arrays.

    Elementwise and unchecked: the caller restricts the result to where the
    criteria apply (optimal detuning, gamma_m = 0).
    """
    om, kc, da, gc, ga = (c[k] for k in ("omega_m", "kappa_c", "delta_a", "g_c", "g_a"))
    gc2 = gc * gc
    s1 = om * kc - 2.0 * SQRT3 * gc2
    s2 = -da
    s3 = 2.0 * SQRT3 * da * gc2 - 4.0 * (ga * ga) * kc - da * kc * om
    return s1, s2, s3, (s1 > 0) & (s2 > 0) & (s3 > 0)


def full_criteria(p: SystemParams) -> tuple[float, float, float, bool]:
    """Analytic criteria (s1, s2, s3, verdict) for the 6x6 system.

    Valid at optimal detuning with gamma_m treated as zero:
        s1 = omega_m kappa_c - 2 sqrt(3) g_c^2 > 0,
        s2 = -delta_a > 0,
        s3 = 2 sqrt(3) delta_a g_c^2 - 4 g_a^2 kappa_c - delta_a kappa_c omega_m > 0.
    Together they bound omega_m kappa_c > 2 sqrt(3) g_c^2 + 4 g_a^2 kappa_c/|delta_a|.
    """
    if not at_optimal_detuning(p):
        raise ValueError("analytic criteria require optimal detuning 4*delta_c^2 = 3*kappa_c^2")
    return analytic_criteria(vars(p))


def _abscissae(m):
    """Spectral abscissae and eigenvalues of one real drift matrix or a stack of them."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("drift matrix must be finite")
    eigs = np.linalg.eigvals(m)
    if not np.all(np.isfinite(eigs)):
        raise ArithmeticError("eigenvalue solver failed to converge")
    return eigs.real.max(axis=-1), eigs


def _verdicts(abscissa):
    """Three-way verdicts for spectral abscissae, each one of the three module constants."""
    return _VERDICTS[np.where(np.abs(abscissa) < MARGIN, 1, np.where(abscissa < 0, 0, 2))]


def eigen_stable(m: np.ndarray) -> tuple[float, str]:
    """Spectral abscissa of a real drift matrix and the three-way verdict."""
    abscissa, _ = _abscissae(m)
    return float(abscissa), _verdicts(abscissa)


def require_stable(p: SystemParams) -> np.ndarray:
    """The 4x4 drift matrix of p if it is strictly stable, else UnstableError."""
    a = drift_matrix_qc(p)
    abscissa, verdict = eigen_stable(a)
    if verdict != STABLE:
        raise UnstableError(verdict, abscissa)
    return a


def resonances(p: SystemParams) -> np.ndarray:
    """Rows (omega_j, gamma_j), omega_j >= 0, of the 4x4 poles -gamma_j + i omega_j.

    The Q-spectrum, and every oracle integrand, peaks at these eigenvalues of
    drift_matrix_qc(p): one row per conjugate pair, one at omega = 0 per real
    (overdamped) eigenvalue, gamma_j floored at 1e-12 omega_m.
    """
    eigs = _abscissae(drift_matrix_qc(p))[1]
    eigs = eigs[eigs.imag >= 0]
    return np.column_stack([eigs.imag, np.maximum(-eigs.real, 1e-12 * p.omega_m)])


@dataclass
class StabilityReport:
    """Analytic criterion values next to the eigenvalue verdict."""

    s1: float | None
    s2: float | None
    s3: float | None
    rh_value: float | None
    rh_stable: bool | None
    eig_stable: str
    spectral_abscissa: float
    eigenvalues: np.ndarray


def stability_report(p: SystemParams) -> StabilityReport:
    """Evaluate every applicable criterion plus the eigenvalue oracle.

    Analytic fields are None where their validity conditions fail
    (off-optimal detuning for s1..s3, blue detuning for the 4x4 criterion).
    The eigenvalues are stability_map's: of the 6x6 matrix when g_a > 0,
    of the 4x4 matrix otherwise.
    """
    abscissa, eigs = _abscissae(drift_matrix_full(p) if p.g_a > 0 else drift_matrix_qc(p))
    s1 = s2 = s3 = None
    if at_optimal_detuning(p):
        s1, s2, s3, _ = full_criteria(p)
    rh_value = rh_ok = None
    if p.delta_c < 0:
        rh_value, rh_ok = routh_hurwitz_qc(p)
    return StabilityReport(
        s1=s1,
        s2=s2,
        s3=s3,
        rh_value=rh_value,
        rh_stable=rh_ok,
        eig_stable=_verdicts(abscissa),
        spectral_abscissa=float(abscissa),
        eigenvalues=eigs,
    )


_SWEEPABLE = ("g_c", "g_a", "delta_a", "delta_c", "kappa_c", "gamma_m")


@dataclass
class StabilityMap:
    """Raster of verdicts over a 2-d parameter grid."""

    var1: str
    values1: np.ndarray
    var2: str
    values2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    abscissa: np.ndarray
    analytic: np.ndarray  # object array of bool or None
    eigen: np.ndarray     # verdict strings
    disagree: np.ndarray  # bool; only set where the analytic form applies

    def _cells(self) -> dict:
        """Per-cell fields in output order; s1..s3 are None where they do not apply."""
        na = lambda s: np.where(np.isnan(s), None, s)
        return {"s1": na(self.s1), "s2": na(self.s2), "s3": na(self.s3),
                "abscissa": self.abscissa, "analytic": self.analytic,
                "eigen": self.eigen, "disagree": self.disagree}

    def to_csv(self) -> str:
        """One row per cell, var1 varying slowest; each axis value is formatted once."""
        cells1, cells2 = _table._cells(self.values1), _table._cells(self.values2)
        return _table.to_csv({self.var1: [c for c in cells1 for _ in cells2],
                              self.var2: cells2 * len(cells1),
                              **{k: np.ravel(v) for k, v in self._cells().items()}})

    def to_json(self) -> str:
        """The raster as nested lists, one inner list per var1 value."""
        return _table.to_json({"var1": self.var1, "values1": self.values1,
                               "var2": self.var2, "values2": self.values2, **self._cells()})


def _classify(cells) -> dict:
    """StabilityMap's per-cell fields, flat, with at most _CELL_BUDGET cells in flight.

    ``cells`` maps SystemParams fields to floats and equal-length 1-d arrays. The eigenvalue
    verdict reads the 6x6 matrix where g_a > 0 and the 4x4 one otherwise (a decoupled probe's
    undamped rotation would mask the bath engine's own stability); each cell's matrix goes to
    ``eigvals`` once. The analytic criteria apply, and are evaluated, only at optimal detuning
    with gamma_m = 0 (elsewhere s1..s3 are NaN and analytic is None); disagree is set where
    they apply and the abscissa is not marginal. The cells are cut into one slice per CPU the
    process may run on, at most _CELL_BUDGET // workers cells each, and filled in place by
    ``fan_out``: the caller and workers - 1 pool threads take slices in turn (``eigvals``
    releases the GIL). Where a slice would hold fewer than _MIN_SLICE cells the map runs
    inline. No cell's result depends on its slice.
    """
    (n,) = np.broadcast_shapes(*(np.shape(value) for value in cells.values()))
    cells = {name: np.broadcast_to(value, n) for name, value in cells.items()}
    out = {name: np.full(n, fill, kind) for name, kind, fill in zip(
        ("s1", "s2", "s3", "abscissa", "analytic", "eigen", "disagree"), "ddddOO?",
        (np.nan, np.nan, np.nan, np.nan, None, None, False))}
    workers = usable_cpus()
    share = -(-n // workers)
    size = min(max(1, _CELL_BUDGET // workers), share if share >= _MIN_SLICE else n)

    def fill(i):
        c, o = ({name: v[i:i + size] for name, v in d.items()} for d in (cells, out))
        coupled = c["g_a"] > 0
        for cut, k in ((coupled, 6), (~coupled, 4)):
            if cut.any():
                mats = drift_matrices({name: v[cut] for name, v in c.items()})[:, :k, :k]
                o["abscissa"][cut] = _abscissae(mats)[0]
        o["eigen"][...] = _verdicts(o["abscissa"])
        applies = _at_optimal(c) & (c["gamma_m"] == 0.0)
        if applies.any():
            *criteria, ok = analytic_criteria({name: v[applies] for name, v in c.items()})
            for name, value in zip(("s1", "s2", "s3", "analytic"), (*criteria, ok)):
                o[name][applies] = value
            eigen = o["eigen"][applies]
            o["disagree"][applies] = (eigen != MARGINAL) & (ok != (eigen == STABLE))

    fan_out(fill, range(0, n, size), workers)
    return out


def stability_map(p: SystemParams, var1: str, values1, var2: str, values2) -> StabilityMap:
    """Sweep two different parameters, recording each cell's verdicts by ``_classify``'s rules."""
    for v in (var1, var2):
        if v not in _SWEEPABLE:
            raise ValueError(f"cannot sweep {v!r}; choose from {_SWEEPABLE}")
    if var1 == var2:
        raise ValueError(f"var1 and var2 must be different parameters, both are {var1!r}")
    values1 = np.asarray(values1, dtype=float)
    values2 = np.asarray(values2, dtype=float)
    if any(v.ndim != 1 or v.size == 0 for v in (values1, values2)):
        raise ValueError("sweep grids must be non-empty 1-d arrays")

    for var, values in {var1: values1, var2: values2}.items():
        for v in (values.min(), values.max()):  # NaN reaches both; each field rule is an interval
            replace(p, **{var: float(v)})  # SystemParams rejects invalid swept values

    n1, n2 = len(values1), len(values2)
    cells = _classify({**vars(p), var1: np.repeat(values1, n2), var2: np.tile(values2, n1)})
    return StabilityMap(var1=var1, values1=values1, var2=var2, values2=values2,
                        **{name: value.reshape(n1, n2) for name, value in cells.items()})
