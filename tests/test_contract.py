"""The argument contract of every public function of a frequency or a time.

Rates and occupations describe the bath only at a finite Omega > 0, and the
correlation oracles only at a finite t. Each such function rejects any
other argument with a ValueError that says so, instead of returning NaN.
The drive, hardware and golden-rule helpers reject a non-finite number or a
bool the same way, and a finite input whose result overflows. Counts (photon
number, grid size, frequency nodes, trajectories) must be integers, not bools,
at or above their floor. Both tables take a non-empty, strictly ascending 1-d
grid.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import optobath as ob

OF_OMEGA = {
    "ohmic_j": ob.ohmic_j,
    "j_eff": ob.j_eff,
    "beta_eff": ob.beta_eff,
    "beta_opt": ob.beta_opt,
    "detailed_balance_coth": ob.detailed_balance_coth,
    "s_qq": ob.s_qq,
    "gamma_rates": ob.gamma_rates,
    "fgr_rates": lambda w, p: ob.fgr_rates(1, w, p),
    "occupation": ob.occupation,
    "occupation_with_loss": ob.occupation_with_loss,
    "compute_spectrum": lambda w, p: ob.compute_spectrum(p, [w]),
    "compute_rates": lambda w, p: ob.compute_rates(p, [w]),
}

OF_TIME = {
    "c_qq_thermal": ob.c_qq_thermal,
    "c_qq_optical": ob.c_qq_optical,
    "c_qq_total": ob.c_qq_total,
    "c_qq_representation": ob.c_qq_representation,
    "damping_kernel": ob.damping_kernel,
    "correlation_series": lambda t, p: ob.correlation_series(p, [t]),
}

NON_FINITE = (math.nan, math.inf, -math.inf)

CASES = [(name, value) for name in (*OF_OMEGA, *OF_TIME) for value in NON_FINITE]
# ohmic_j is defined at omega = 0, where it vanishes
CASES += [(name, 0.0) for name in OF_OMEGA if name != "ohmic_j"]


@pytest.mark.parametrize("name, value", CASES, ids=[f"{n}-{v}" for n, v in CASES])
def test_rejects_argument_outside_domain(fig1, name, value):
    with pytest.raises(ValueError, match="finite"):
        {**OF_OMEGA, **OF_TIME}[name](value, fig1)


@pytest.mark.parametrize("times", [0.5, [[0.0, 0.5], [1.0, 1.5]]], ids=["scalar", "2d"])
def test_series_rejects_times_not_1d(fig1, times):
    with pytest.raises(ValueError, match="times must be a 1-d array"):
        ob.correlation_series(fig1, times)


@pytest.mark.parametrize("n_freq", [0, 1, True, -5, 100.0, 3, 8, 999])
def test_series_rejects_n_freq_below_grid_floor(fig1, n_freq):
    # below 1000 frequencies the grid cannot resolve the resonance: 3 and 8
    # gave C(0) in the thousands where it is about 1.14
    with pytest.raises(ValueError, match="n_freq must be an integer >= 1000"):
        ob.correlation_series(fig1, [0.0, 1.0], n_freq=n_freq)


@pytest.mark.parametrize("n_freq", [1000, np.int64(1000)], ids=["int", "numpy_int"])
def test_series_accepts_n_freq_at_grid_floor(fig1, n_freq):
    series = ob.correlation_series(fig1, [0.0, 1.0, 5.0], n_freq=n_freq)
    c0 = abs(ob.c_qq_total(0.0, fig1))
    for t, v in zip(series.times, series.values):
        assert abs(v - ob.c_qq_total(t, fig1)) < 1e-3 * c0


def _hardware_coupling(**overrides):
    geometry = ob.MsiGeometry(r_m=0.3, omega_0=1e15, d=0.03, L=0.05, l=0.02)
    return ob.enhanced_coupling_from_hardware(
        geometry, **{"b_s": 1e4, "mass": 1e-11, "omega_m": 1e6, **overrides})


HELPER_CASES = {
    "steady_state_amplitude-kappa-inf":
        (lambda p: ob.steady_state_amplitude(ob.DriveSpec(1, 1, 0), math.inf), "finite"),
    "optimal_detuning-inf": (lambda p: ob.optimal_detuning(math.inf), "finite"),
    "equilibrium_displacement-nan": (lambda p: ob.equilibrium_displacement(math.nan, 1), "finite"),
    "pump_coupling-coupling-nan":
        (lambda p: ob.pump_coupling(ob.DriveSpec(math.nan, 1, 0), 1.0), "finite"),
    "drive_spec-amplitude-bool": (lambda p: ob.DriveSpec(1.0, True, 0.0), "finite"),
    "hardware-b_s-nan": (lambda p: _hardware_coupling(b_s=math.nan), "finite"),
    "hardware-mass-nan": (lambda p: _hardware_coupling(mass=math.nan), "finite"),
    "hardware-omega_m-inf": (lambda p: _hardware_coupling(omega_m=math.inf), "finite"),
    "fgr_rates-n-nan": (lambda p: ob.fgr_rates(math.nan, 0.3, p), "integer"),
    "fgr_rates-n-1.5": (lambda p: ob.fgr_rates(1.5, 0.3, p), "integer"),
    "fgr_rates-n-bool": (lambda p: ob.fgr_rates(True, 0.3, p), "integer"),
    "equilibrium_displacement-omega_m-0":
        (lambda p: ob.equilibrium_displacement(1.0, 1.0, 0.0), "omega_m must be > 0"),
    "equilibrium_displacement-omega_m-negative":
        (lambda p: ob.equilibrium_displacement(1.0, 1.0, -1.0), "omega_m must be > 0"),
    "steady_state_amplitude-overflow":
        (lambda p: ob.steady_state_amplitude(ob.DriveSpec(1.0, 1e308, 0.0), 1.0), "not finite"),
    "pump_coupling-overflow":
        (lambda p: ob.pump_coupling(ob.DriveSpec(1e300, 1e10, 0.0), 1.0), "not finite"),
    "equilibrium_displacement-overflow":
        (lambda p: ob.equilibrium_displacement(1e300, 1e10, 1.0), "not finite"),
    "default_grid-n-bool": (lambda p: ob.default_grid(p, n=True), "n must be an integer >= 1"),
    "default_grid-n-0": (lambda p: ob.default_grid(p, n=0), "n must be an integer >= 1"),
    "default_grid-n-2.5": (lambda p: ob.default_grid(p, n=2.5), "n must be an integer >= 1"),
    "langevin_trajectory-n_traj-2.5":
        (lambda p: ob.langevin_trajectory(replace(p, gamma_m=0.0), seed=1, n_traj=2.5),
         "n_traj must be an integer >= 2"),
}


@pytest.mark.parametrize("name", HELPER_CASES)
def test_helpers_reject_non_finite_input(fig1, name):
    call, message = HELPER_CASES[name]
    with pytest.raises(ValueError, match=message):
        call(fig1)


GRIDS_NOT_ASCENDING_1D = {"0d": 0.3, "2d": [[0.1, 0.2], [0.3, 0.4]], "empty": [],
                          "unsorted": [0.2, 0.1], "repeated": [0.1, 0.1]}


@pytest.mark.parametrize("table", ["compute_spectrum", "compute_rates"])
@pytest.mark.parametrize("grid", GRIDS_NOT_ASCENDING_1D)
def test_tables_reject_grid_not_ascending_1d(fig1, table, grid):
    with pytest.raises(ValueError, match="strictly ascending"):
        getattr(ob, table)(fig1, GRIDS_NOT_ASCENDING_1D[grid])
