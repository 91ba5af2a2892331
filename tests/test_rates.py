import math
from dataclasses import replace

import numpy as np
import pytest

from optobath import (
    NonEquilibriumError,
    SystemParams,
    beta_eff,
    compute_rates,
    default_grid,
    fgr_rates,
    gamma_rates,
    j_eff,
    occupation,
    occupation_with_loss,
    q_zpf_squared,
    s_qq,
)


class TestSqq:
    def test_zero_temperature_bath_has_no_absorption_side(self):
        cold = SystemParams(gamma_m=1e-3, g_c=0.0, beta=500.0)
        assert s_qq(-0.5, cold) < 1e-80
        assert s_qq(0.5, cold) > 0

    def test_asymmetry_encodes_effective_temperature(self, fig1):
        w = 0.3
        ratio = s_qq(w, fig1) / s_qq(-w, fig1)
        assert ratio == pytest.approx(math.exp(w * beta_eff(w, fig1)), rel=1e-12)

    def test_rejects_zero_frequency(self, fig1):
        with pytest.raises(ValueError):
            s_qq(0.0, fig1)


class TestGammaRates:
    def test_decoupled_probe(self, fig1):
        p = replace(fig1, g_a=0.0)
        assert gamma_rates(0.5, p) == (0.0, 0.0)

    def test_two_path_consistency(self, fig1):
        pref = fig1.g_a**2 / q_zpf_squared(fig1.omega_m)
        for w in (0.05, 0.3, 1.0, 2.5):
            gp, gm = gamma_rates(w, fig1)
            assert gp == pref * s_qq(-w, fig1)
            assert gm == pref * s_qq(w, fig1)

    def test_detailed_balance_ratio(self, fig1):
        for w in (0.1, 0.5, 1.7):
            gp, gm = gamma_rates(w, fig1)
            assert gm / gp == pytest.approx(math.exp(w * beta_eff(w, fig1)), rel=1e-12)

    def test_difference_is_net_thermalization_rate(self, fig1):
        for w in (0.1, 0.5, 1.7):
            gp, gm = gamma_rates(w, fig1)
            expected = 4 * fig1.g_a**2 * fig1.omega_m * j_eff(w, fig1)
            assert gm - gp == pytest.approx(expected, rel=1e-12)

    def test_narrowband_versus_broadband(self, fig1, fig1_bare):
        # the bare bath thermalizes efficiently only near the mechanical
        # resonance; cooling moves the support to low frequencies
        near_res = 1.0 - 1e-6
        net = lambda p, w: gamma_rates(w, p)[1] - gamma_rates(w, p)[0]
        assert net(fig1_bare, near_res) > net(fig1_bare, 0.1) * 1e9
        assert net(fig1, 0.1) > net(fig1_bare, 0.1) * 1e3

    def test_rejects_nonpositive_omega(self, fig1):
        with pytest.raises(ValueError):
            gamma_rates(-0.5, fig1)


class TestFgrRates:
    def test_vacuum_has_no_downward_channel(self, fig1):
        up, down = fgr_rates(0, 0.5, fig1)
        gp, _ = gamma_rates(0.5, fig1)
        assert up == gp
        assert down == 0

    def test_linear_scaling(self, fig1):
        gp, gm = gamma_rates(0.5, fig1)
        up, down = fgr_rates(3, 0.5, fig1)
        assert up == pytest.approx(4 * gp, rel=1e-15)
        assert down == pytest.approx(3 * gm, rel=1e-15)

    def test_balance_at_equilibrium_occupation(self, fig1):
        for w in (0.1, 0.8):
            n = occupation(w, fig1)
            gp, gm = gamma_rates(w, fig1)
            assert (n + 1) * gp == pytest.approx(n * gm, rel=1e-12)

    def test_rejects_negative_n(self, fig1):
        with pytest.raises(ValueError):
            fgr_rates(-1, 0.5, fig1)


class TestOccupation:
    def test_analytic_inversion(self, fig1):
        # find Omega with Omega*beta_eff = ln 2, where n must be exactly 1
        from scipy.optimize import brentq

        w = brentq(lambda x: x * beta_eff(x, fig1) - math.log(2.0), 1e-3, 2.0)
        assert occupation(w, fig1) == pytest.approx(1.0, rel=1e-10)

    def test_low_frequency_value(self, fig1):
        # oracle: direct Bose inversion at the low-frequency temperature,
        # 1/(exp(0.1*2.838) - 1) = 3.047
        assert occupation(0.1, fig1) == pytest.approx(3.047, rel=2e-3)

    def test_deep_boltzmann_tail(self, fig1_bare):
        # bare bath: beta_eff = beta, so n ~ exp(-Omega*beta) at large Omega
        cold = replace(fig1_bare, beta=2.0)
        assert occupation(10.0, cold) < 1e-8
        assert occupation(10.0, cold) < occupation(5.0, cold) < occupation(1.0, cold)

    def test_monotone_decreasing_at_flat_temperature(self, fig1):
        ws = np.linspace(1e-3, 1e-2, 20)
        ns = [occupation(w, fig1) for w in ws]
        assert np.all(np.diff(ns) < 0)

    def test_gain_regime_flagged(self, fig1):
        blue = replace(fig1, delta_c=+1.0)
        with pytest.raises(NonEquilibriumError):
            occupation(0.1, blue)
        assert occupation(0.1, blue, allow_gain=True) < 0


class TestOccupationWithLoss:
    def test_lossless_reduction_is_exact(self, fig1):
        for w in (0.05, 0.3, 1.1):
            assert occupation_with_loss(w, fig1) == occupation(w, fig1)

    def test_overdamped_cavity_empties(self, fig1):
        lossy = replace(fig1, kappa_a=1e6)
        assert occupation_with_loss(0.3, lossy) < 1e-4

    def test_matched_loss_halves_occupation(self, fig1):
        gp, gm = gamma_rates(0.3, fig1)
        matched = replace(fig1, kappa_a=gm - gp)
        assert occupation_with_loss(0.3, matched) == pytest.approx(
            occupation(0.3, fig1) / 2.0, rel=1e-9
        )

    def test_loss_strictly_lowers_occupation(self, fig1):
        lossy = replace(fig1, kappa_a=0.1)
        for w in (0.05, 0.3, 1.1):
            assert occupation_with_loss(w, lossy) < occupation(w, fig1)

    def test_no_steady_state_reported(self, fig1):
        blue = replace(fig1, delta_c=+1.0, kappa_a=1e-12)
        with pytest.raises(NonEquilibriumError):
            occupation_with_loss(0.1, blue)


class TestRateTable:
    def test_columns_and_rows(self, fig1):
        table = compute_rates(fig1, default_grid(fig1, n=25))
        lines = table.to_csv().splitlines()
        assert lines[0] == "Omega,gamma_plus,gamma_minus,n_bar,n_bar_lossy"
        assert len(lines) == 26

    def test_thermal_regime_invariants(self, fig1):
        table = compute_rates(fig1, default_grid(fig1, n=50))
        assert np.all(table.gamma_plus >= 0)
        assert np.all(table.gamma_minus >= table.gamma_plus)
        assert np.all(table.n_bar > 0)

    def test_gain_points_are_nan_not_negative(self, fig1):
        blue = replace(fig1, delta_c=+1.0)
        table = compute_rates(blue, np.array([0.05, 0.1]))
        assert np.all(np.isnan(table.n_bar))

    def test_lossy_column(self, fig1):
        lossy = replace(fig1, kappa_a=0.05)
        table = compute_rates(lossy, default_grid(fig1, n=20))
        assert np.all(table.n_bar_lossy < table.n_bar)


@pytest.mark.parametrize("delta_c,kappa_a", [(-1.0, 0.0), (-1.0, 0.3), (1.0, 0.0),
                                             (1.0, 0.5), (0.6, 1.0)])
def test_compute_rates_matches_pointwise_route(fig1, delta_c, kappa_a):
    """Each row equals the scalar functions, NaN exactly where they raise.

    The array and scalar evaluations of j_eff and beta_eff may differ by an
    ulp; the loss balance cancels up to 2*n_bar + 1 ~ 1e4 of them on this
    grid, which rtol = 1e-10 covers.
    """
    p = replace(fig1, delta_c=delta_c, kappa_a=kappa_a)
    grid = default_grid(p, n=60)
    ref = np.full((len(grid), 4), np.nan)
    for i, w in enumerate(grid):
        ref[i, :2] = gamma_rates(w, p)
        for col, fn in ((2, occupation), (3, occupation_with_loss)):
            try:
                ref[i, col] = fn(w, p)
            except NonEquilibriumError:
                pass
    table = compute_rates(p, grid)
    got = np.column_stack([table.gamma_plus, table.gamma_minus, table.n_bar,
                           table.n_bar_lossy])
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0, equal_nan=True)
