"""The argument contract of every public function of a frequency or a time.

Rates and occupations describe the bath only at a finite Omega > 0, and the
correlation oracles only at a finite t. Each such function rejects any
other argument with a ValueError that says so, instead of returning NaN.
"""

import math

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
