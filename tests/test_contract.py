"""The argument contract of every public function of a frequency or a time.

Rates and occupations describe the bath only at a finite Omega > 0, and the
correlation oracles only at a finite t. Each such function rejects any
other argument with a ValueError that says so, instead of returning NaN.
The drive, hardware and golden-rule helpers reject a non-finite number or a
bool the same way, and a finite input whose result overflows. Counts (photon
number, grid size, frequency nodes, trajectories) must be integers, not bools,
at or above their floor. Both tables take a non-empty, strictly ascending 1-d
grid.

At stable working points drawn over several decades of every parameter,
each of these functions returns a finite value, a documented flag or a named
refusal, and never warns.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import optobath as ob
from optobath.spectrum import FLAG_NONTHERMAL, FLAG_POLE
from optobath.stability import require_stable

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
    "optimal_detuning-0": (lambda p: ob.optimal_detuning(0.0), "kappa_c must be > 0"),
    "beta_opt-delta_c-0":
        (lambda p: ob.beta_opt(0.3, replace(p, delta_c=0.0)), "requires delta_c != 0"),
    "beta_opt_expansion-delta_c-0":
        (lambda p: ob.beta_opt_expansion(replace(p, delta_c=0.0)), "requires delta_c != 0"),
    "beta_eff_low_expansion-g_c-0":
        (lambda p: ob.beta_eff_low_expansion(replace(p, g_c=0.0)), "requires g_c > 0"),
    "stability_map-empty-sweep":
        (lambda p: ob.stability_map(p, "g_c", [], "g_a", [0.1]), "must be non-empty"),
    "hardware-mass-0": (lambda p: _hardware_coupling(mass=0.0), "must be positive"),
    "hardware-overflow":
        (lambda p: _hardware_coupling(b_s=1e300, mass=1e-12, omega_m=1e-6), "not finite"),
    "hardware-q_zpf-underflow":
        (lambda p: _hardware_coupling(mass=1e-300, omega_m=1e-30), "not finite"),
    "msi_coupling-overflow":
        (lambda p: ob.msi_coupling(ob.MsiGeometry(0.5, 1e308, 1e-10, 1e-10, 1e-10)), "not finite"),
    "msi_geometry-length-overflow":
        (lambda p: ob.MsiGeometry(0.5, 1e15, 1e308, 1e308, 1e308), "not finite"),
    "stability_map-0d-sweep":
        (lambda p: ob.stability_map(p, "g_c", 0.1, "g_a", [0.1]), "must be non-empty"),
    "stability_map-2d-sweep":
        (lambda p: ob.stability_map(p, "g_c", [[0.1, 0.2], [0.3, 0.4]], "g_a", [0.1]),
         "must be non-empty"),
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


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _or_zero(lo, hi):
    """Log-uniform in [lo, hi], or 0.0 in about one draw in four."""
    return st.tuples(st.sampled_from([0.0, 1.0, 1.0, 1.0]), _log_uniform(lo, hi)).map(
        lambda pair: pair[0] * pair[1])


MODERATE_POINTS = st.builds(
    ob.SystemParams,
    omega_m=st.just(1.0),
    gamma_m=_or_zero(1e-8, 1e-1),
    kappa_c=_log_uniform(1e-2, 1e2),
    kappa_a=_or_zero(1e-4, 1e1),
    delta_a=_log_uniform(1e-2, 1e2).map(lambda x: -x),
    # red detuning in 17 draws of 20
    delta_c=st.tuples(st.sampled_from([-1.0] * 17 + [1.0] * 3),
                      _log_uniform(1e-2, 1e2)).map(lambda pair: pair[0] * pair[1]),
    g_a=_log_uniform(1e-4, 1.0),
    g_c=_or_zero(1e-3, 1.0),
    beta=_log_uniform(1e-5, 1e2),
    cutoff=_log_uniform(1.0, 1e4),
)

REFUSALS = (ValueError, ob.PoleError, ob.DivergenceError)

SCALAR_CALLS = {
    "j_eff": ob.j_eff,
    "beta_eff": ob.beta_eff,
    "detailed_balance_coth": ob.detailed_balance_coth,
    "s_qq+": ob.s_qq,
    "s_qq-": lambda w, p: ob.s_qq(-w, p),
    "gamma_rates": ob.gamma_rates,
    "occupation": ob.occupation,
    "occupation_with_loss": ob.occupation_with_loss,
    "beta_opt": ob.beta_opt,
    "beta_eff_low": lambda w, p: ob.beta_eff_low(p),
    "eta_eff": lambda w, p: ob.eta_eff(p),
    "eta_opt": lambda w, p: ob.eta_opt(p),
    "g_c_max": lambda w, p: ob.g_c_max(p),
    "beta_opt_expansion": lambda w, p: ob.beta_opt_expansion(p),
    "beta_eff_low_expansion": lambda w, p: ob.beta_eff_low_expansion(p),
}


@settings(max_examples=200, deadline=None)
@given(p=MODERATE_POINTS, omega=_log_uniform(1e-8, 1e12))
# g_c = 0 past ~745 cutoffs, where the Ohmic J underflows to 0
@example(p=ob.SystemParams(gamma_m=1e-6, g_a=0.45, beta=1e-4, cutoff=417.0), omega=1.9e10)
def test_stable_point_gives_finite_value_flag_or_named_refusal(p, omega):
    try:
        require_stable(p)
    except ob.UnstableError:
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in SCALAR_CALLS.items():
            try:
                value = call(omega, p)
            except REFUSALS:
                continue
            assert np.isfinite(value).all(), f"{name}({omega!r}) = {value!r} at {p}"
        try:
            spec = ob.compute_spectrum(p, [omega])
        except REFUSALS:
            spec = None
        if spec is not None:
            values = np.array([spec.j_eff[0], spec.beta_eff[0]])
            if spec.flags == [FLAG_POLE]:
                assert np.isnan(values).all()
            else:
                assert np.isfinite(values).all(), f"compute_spectrum({omega!r}) at {p}"
                assert (spec.flags == [FLAG_NONTHERMAL]) == (spec.beta_eff[0] <= 0)
        try:
            table = ob.compute_rates(p, [omega])
        except REFUSALS:
            return
    assert np.isfinite([table.gamma_plus[0], table.gamma_minus[0]]).all()
    # a NaN occupation is the documented flag of no equilibrium
    assert not np.isinf([table.n_bar[0], table.n_bar_lossy[0]]).any()
