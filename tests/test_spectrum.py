import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from optobath import (
    DivergenceError,
    SystemParams,
    beta_eff,
    beta_eff_low,
    beta_eff_low_expansion,
    beta_opt,
    beta_opt_expansion,
    chi_q,
    compute_rates,
    compute_spectrum,
    damping_kernel,
    default_grid,
    detailed_balance_coth,
    eta_eff,
    eta_opt,
    g_c_max,
    gamma_rates,
    j_eff,
    ohmic_j,
)

SQRT3 = math.sqrt(3.0)


class TestOhmic:
    def test_vanishes_at_dc(self, fig1):
        assert ohmic_j(0.0, fig1) == 0

    def test_linear_regime(self, fig1):
        # 1e-6 * 1 * exp(-1e-3) = 9.99e-7
        assert ohmic_j(1.0, fig1) == pytest.approx(9.99e-7, rel=1e-3)

    def test_cutoff_knee(self):
        p = SystemParams(gamma_m=0.1, cutoff=5.0)
        assert ohmic_j(5.0, p) == pytest.approx(0.1 * 5.0 * math.exp(-1))

    def test_rejects_negative(self, fig1):
        with pytest.raises(ValueError):
            ohmic_j(-1.0, fig1)


class TestJeff:
    def test_reduces_to_dressed_ohmic(self, fig1_bare):
        w = default_grid(fig1_bare, n=50)
        expected = np.abs(chi_q(w, fig1_bare)) ** 2 * ohmic_j(w, fig1_bare)
        assert j_eff(w, fig1_bare) == pytest.approx(expected, rel=1e-12)

    def test_low_frequency_slope_matches_closed_form(self, fig1):
        w = 1e-4
        assert j_eff(w, fig1) / w == pytest.approx(eta_eff(fig1), rel=1e-6)

    def test_broad_low_frequency_support(self, fig1, fig1_bare):
        # cooling opens the band below the mechanical resonance by orders
        # of magnitude relative to the bare Ohmic bath
        w = np.array([0.01, 0.1, 0.3])
        assert np.all(j_eff(w, fig1) > 1e3 * j_eff(w, fig1_bare))

    def test_positive_in_stable_red_detuned_regime(self, fig1):
        w = default_grid(fig1)
        assert np.all(j_eff(w, fig1) > 0)

    def test_rejects_nonpositive_omega(self, fig1):
        with pytest.raises(ValueError):
            j_eff(0.0, fig1)


class TestBetaEff:
    def test_bare_bath_recovers_beta(self, fig1_bare):
        w = default_grid(fig1_bare, n=100)
        assert np.all(
            np.abs(beta_eff(w, fig1_bare) - fig1_bare.beta) <= 1e-12 * fig1_bare.beta
        )

    @settings(max_examples=100, deadline=None)
    @given(log_beta_omega=st.floats(-6.0, 3.0), omega=st.floats(1e-3, 30.0))
    @example(log_beta_omega=3.0, omega=1.0)
    @example(log_beta_omega=math.log10(3000.0), omega=3.0)
    def test_bare_bath_recovers_beta_at_any_temperature(self, log_beta_omega, omega):
        # from beta*omega ~ 710 up the thermal occupation in the downward
        # flux underflows; beta_eff must still be beta, not inf
        p = SystemParams(gamma_m=1e-3, g_c=0.0, beta=10.0**log_beta_omega / omega)
        assert abs(beta_eff(omega, p) - p.beta) <= 1e-12 * p.beta
        assert compute_spectrum(p, np.array([omega])).flags == [""]

    @pytest.mark.parametrize("omega", [7.46e5, 1e6, 1e7])
    def test_bare_bath_recovers_beta_past_ohmic_underflow(self, fig1_bare, omega):
        # from omega ~ 745 cutoffs J underflows to 0; beta_eff must still be beta, not NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = beta_eff(omega, fig1_bare)
            spec = compute_spectrum(fig1_bare, np.array([omega]))
            table = compute_rates(fig1_bare, np.array([omega]))
            rates = gamma_rates(omega, fig1_bare)
        assert abs(value - fig1_bare.beta) <= 1e-12 * fig1_bare.beta
        assert spec.flags == [""]
        rows = [spec.j_eff, spec.beta_eff, *table.columns().values(), rates]
        assert all(np.isfinite(row).all() for row in rows)

    def test_low_frequency_temperature_reduction(self, fig1):
        # closed-form limit 2.8382; T_eff/T = 1e-4/2.8382 = 3.52e-5
        low = beta_eff_low(fig1)
        assert low == pytest.approx(2.8381670353727726, rel=1e-12)
        assert fig1.beta / low == pytest.approx(3.52e-5, rel=1e-2)
        assert beta_eff(1e-4, fig1) == pytest.approx(low, rel=1e-4)

    def test_blue_detuning_gives_negative_temperature(self, fig1):
        blue = replace(fig1, delta_c=+1.0)
        assert beta_eff(0.1, blue) < 0

    def test_cooling_direction(self, fig1):
        # where the sideband asymmetry beats the thermal Boltzmann factor,
        # the engineered bath is colder than the mechanical environment
        from optobath import lorentzian

        for w in (0.1, 0.5, 1.0):
            if lorentzian(w, fig1) / lorentzian(-w, fig1) > math.exp(w * fig1.beta):
                assert beta_eff(w, fig1) > fig1.beta

    def test_no_bath_rejected(self):
        p = SystemParams(gamma_m=0.0, g_c=0.0)
        with pytest.raises(ValueError, match="no bath"):
            beta_eff(0.5, p)

    def test_coth_form_equivalence(self, fig1):
        w = default_grid(fig1, n=60)
        lhs = 1.0 / np.tanh(beta_eff(w, fig1) * w / 2.0)
        rhs = detailed_balance_coth(w, fig1)
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * np.abs(rhs))


class TestBetaOpt:
    def test_low_frequency_constant(self, fig1):
        # -4*delta_c/r2 = 3.0 at the unit working point
        assert beta_opt(1e-9, fig1) == pytest.approx(3.0, rel=1e-12)

    def test_unit_frequency_value(self, fig1):
        # ratio (4 + 1/3)/(1/3) = 13
        assert beta_opt(1.0, fig1) == pytest.approx(math.log(13.0), rel=1e-12)

    def test_matches_beta_eff_without_thermal_contact(self, fig1_cold):
        w = default_grid(fig1_cold, n=100)
        assert np.all(
            np.abs(beta_eff(w, fig1_cold) - beta_opt(w, fig1_cold))
            <= 1e-12 * np.abs(beta_opt(w, fig1_cold))
        )


class TestBetaOptExpansion:
    def test_curvature_vanishes_at_optimal_detuning(self, fig1):
        const, curv = beta_opt_expansion(fig1)
        assert const == pytest.approx(3.0, rel=1e-12)
        assert curv == pytest.approx(0.0, abs=1e-12)

    def test_generic_detuning_values(self):
        p = SystemParams(delta_c=-1.0, kappa_c=1.0)
        const, curv = beta_opt_expansion(p)
        assert const == pytest.approx(3.2, rel=1e-12)
        assert curv == pytest.approx(0.17066666666666666, rel=1e-12)

    def test_flatness_of_numerical_curvature(self, fig1):
        const, _ = beta_opt_expansion(fig1)
        h = 1e-3
        curv = (beta_opt(h, fig1) - const) / h**2
        assert abs(curv) < 1e-6 * const
        bent = replace(fig1, kappa_c=fig1.kappa_c * 1.1)
        const_b, _ = beta_opt_expansion(bent)
        curv_b = (beta_opt(h, bent) - const_b) / h**2
        assert abs(curv_b) > 1e-2 * const_b


class TestEtaAndThreshold:
    def test_eta_opt_vanishes_without_cooling(self, fig1_bare):
        assert eta_opt(replace(fig1_bare, gamma_m=0.0)) == 0

    def test_eta_opt_value(self, fig1_cold):
        # 0.9353074360871938 / 0.27387777777777784, direct substitution
        assert eta_opt(fig1_cold) == pytest.approx(3.4150541298976598, rel=1e-12)

    def test_eta_eff_value(self, fig1):
        # (1.7778e-6 + 0.93530744)/0.27387778, direct substitution
        assert eta_eff(fig1) == pytest.approx(3.415060621033203, rel=1e-12)

    def test_eta_eff_reduces_to_eta_opt(self, fig1_cold):
        assert eta_eff(fig1_cold) == pytest.approx(eta_opt(fig1_cold), rel=1e-12)

    def test_eta_diverges_at_threshold(self, fig1_cold):
        critical = replace(fig1_cold, g_c=g_c_max(fig1_cold))
        with pytest.raises(DivergenceError):
            eta_opt(critical)
        near = replace(fig1_cold, g_c=g_c_max(fig1_cold) * (1 - 1e-7))
        assert eta_opt(near) > 1e10

    def test_threshold_values(self, fig1):
        assert g_c_max(fig1) == pytest.approx(1 / SQRT3, rel=1e-12)
        assert g_c_max(fig1) == pytest.approx(fig1.kappa_c / 2, rel=1e-12)
        p = SystemParams(delta_c=-1.0, kappa_c=2.0)
        assert g_c_max(p) == pytest.approx(0.7071067811865476, rel=1e-12)

    def test_threshold_scales_as_sqrt_omega_m(self):
        p1 = SystemParams(delta_c=-1.0, kappa_c=2.0, omega_m=1.0)
        p4 = SystemParams(delta_c=-1.0, kappa_c=2.0, omega_m=4.0)
        assert g_c_max(p4) == pytest.approx(2.0 * g_c_max(p1), rel=1e-12)

    def test_threshold_requires_red_detuning(self):
        with pytest.raises(ValueError):
            g_c_max(SystemParams(delta_c=0.5))

    @settings(max_examples=50, deadline=None)
    @given(
        kappa_c=st.floats(0.3, 3.0),
        frac=st.floats(0.05, 0.95),
        gamma_m=st.floats(0.0, 1e-3),
    )
    def test_eta_eff_positive_in_stable_regime(self, kappa_c, frac, gamma_m):
        p = SystemParams(
            gamma_m=gamma_m, kappa_c=kappa_c, delta_c=-SQRT3 / 2 * kappa_c, beta=1e-4
        )
        p = replace(p, g_c=frac * g_c_max(p))
        assert eta_eff(p) > 0


class TestBetaEffLow:
    def test_reduces_to_flat_constant_without_thermal_contact(self, fig1_cold):
        assert beta_eff_low(fig1_cold) == pytest.approx(3.0, rel=1e-12)

    def test_reduces_to_beta_without_cooling(self, fig1_bare):
        assert beta_eff_low(fig1_bare) == pytest.approx(fig1_bare.beta, rel=1e-12)

    @pytest.mark.parametrize("g_c", [0.0, 1e-170], ids=["zero", "square_underflows"])
    def test_no_bath_rejected_like_beta_eff(self, g_c):
        # 1e-170 squares to 0.0: the closed form would divide 0 by 0
        p = SystemParams(gamma_m=0.0, g_c=g_c)
        for evaluate in (lambda: beta_eff_low(p), lambda: beta_eff(0.5, p)):
            with pytest.raises(ValueError, match="no bath"):
                evaluate()

    def test_expansion_coefficients(self, fig1):
        zeroth, first = beta_eff_low_expansion(fig1)
        assert zeroth == pytest.approx(3.0, rel=1e-12)
        assert first == pytest.approx(-171061.04420167487, rel=1e-10)
        # first-order estimate lands within half a percent of the closed form
        approx = zeroth + first * fig1.gamma_m
        assert approx == pytest.approx(beta_eff_low(fig1), rel=5e-3)

    def test_expansion_sign_condition(self):
        # the correction raises temperature unless beta*r2 > 4|delta_c|
        hot = SystemParams(delta_c=-1.0, kappa_c=1.0, g_c=0.4, beta=1e-4)
        _, first_hot = beta_eff_low_expansion(hot)
        assert first_hot < 0
        cold = replace(hot, beta=10.0)
        _, first_cold = beta_eff_low_expansion(cold)
        assert 10.0 * (1 + 0.25) > 4.0
        assert first_cold > 0

    def test_low_frequency_extrapolation(self, fig1):
        low = beta_eff_low(fig1)
        for w in (1e-3, 1e-4, 1e-5):
            assert beta_eff(w, fig1) == pytest.approx(low, rel=1e-4)
        for w in (1e-3, 1e-4, 1e-5):
            assert j_eff(w, fig1) / w == pytest.approx(eta_eff(fig1), rel=1e-4)

    @settings(max_examples=100, deadline=None)
    @given(
        omega_m=st.floats(0.4, 2.5),
        kappa_c=st.floats(0.3, 3.0),
        frac=st.floats(0.05, 0.9),
        gamma_m=st.floats(0.0, 1e-4),
    )
    def test_low_frequency_limits_scale_with_omega_m(self, omega_m, kappa_c, frac,
                                                     gamma_m):
        # the closed forms carry explicit omega_m powers; probing away from
        # omega_m = 1 is the only way to pin them
        p = SystemParams(
            omega_m=omega_m, gamma_m=gamma_m, kappa_c=kappa_c,
            delta_c=-SQRT3 / 2 * kappa_c, beta=1e-4,
        )
        p = replace(p, g_c=frac * g_c_max(p))
        w = 1e-4 * omega_m
        assert j_eff(w, p) / w == pytest.approx(eta_eff(p), rel=1e-4)
        assert beta_eff(w, p) == pytest.approx(beta_eff_low(p), rel=1e-4)


class TestDampingKernel:
    def test_causal(self, fig1):
        assert damping_kernel(-0.5, fig1) == 0.0

    def test_running_integral_recovers_ohmic_slope(self, fig1):
        # integral_0^T gamma_eff dt = (2/pi) integral dw (j_eff/w) sin(wT)/w
        from optobath._quad import spectral_integral

        T = 50.0 / fig1.kappa_c
        val = spectral_integral(
            lambda w: (2 / math.pi) * j_eff(w, fig1) / w**2, fig1, t=T, kind="sin"
        )
        assert val == pytest.approx(eta_eff(fig1), rel=0.05)

    def test_matches_dense_trapezoid_without_cooling(self, fig1_bare):
        # independent fixed-grid quadrature of the dressed-Ohmic integrand;
        # the linear window must cover the slow 1/(omega - omega_m)^2 tails
        # around the narrow resonance, not just its core
        w_peak = fig1_bare.omega_m
        grids = [
            np.linspace(1e-8, w_peak - 5e-3, 20000, endpoint=False),
            np.linspace(w_peak - 5e-3, w_peak + 5e-3, 400001),
            np.geomspace(w_peak + 5e-3, 50.0, 20000),
        ]
        w = np.unique(np.concatenate(grids))
        f = np.abs(chi_q(w, fig1_bare)) ** 2 * ohmic_j(w, fig1_bare) / w
        for t in (0.0, 0.3):
            oracle = (2 / math.pi) * np.trapezoid(f * np.cos(w * t), w)
            assert damping_kernel(t, fig1_bare) == pytest.approx(oracle, rel=1e-4)


def test_quadrature_nonconvergence_reported():
    from optobath import QuadratureError
    from optobath._quad import spectral_integral

    p = SystemParams(g_c=0.3, kappa_c=1.0, delta_c=-0.8, gamma_m=0.0)
    nasty = lambda w: math.sin(1e7 / (w + 1e-12)) * 1e3
    with pytest.raises(QuadratureError, match="tolerance"):
        spectral_integral(nasty, p, t=0.0, kind="cos")


def test_unknown_weight_rejected(fig1):
    # only cos and sin weights exist; any other kind is not integrated unweighted
    from optobath._quad import spectral_integral

    with pytest.raises(KeyError):
        spectral_integral(lambda w: 1.0, fig1, t=0.0, kind="plain")


def test_non_finite_integral_reported():
    from optobath import QuadratureError
    from optobath._quad import spectral_integral

    p = SystemParams(g_c=0.3, kappa_c=1.0, delta_c=-0.8, gamma_m=0.0)
    calls = []

    def nan_once(w):
        calls.append(w)
        return math.nan if len(calls) == 10 else 1.0

    with pytest.raises(QuadratureError, match="not finite"):
        spectral_integral(nan_once, p, t=0.0, kind="cos")


@pytest.mark.parametrize("name, omega, message", [
    *[("ohmic_j", w, "ohmic_j: omega must be finite and >= 0") for w in (-1.0, math.nan, math.inf)],
    *[(n, w, f"{n}: omega must be finite and > 0")
      for n in ("j_eff", "beta_eff") for w in (0.0, math.nan, math.inf)],
])
def test_public_bath_functions_check_omega(fig1, name, omega, message):
    # the formulas inside the adaptive integrands skip these checks; the
    # public functions keep them, for a float and inside an array
    fn = {"ohmic_j": ohmic_j, "j_eff": j_eff, "beta_eff": beta_eff}[name]
    for arg in (omega, np.array([0.5, omega])):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(arg, fig1)


class TestBathSpectrumObject:
    def test_default_grid_shape(self, fig1):
        spec = compute_spectrum(fig1)
        assert len(spec.grid) == 400
        assert np.all(np.diff(spec.grid) > 0)
        assert np.all(spec.grid > 0)
        assert np.all(np.isfinite(spec.j_eff))
        assert all(f == "" for f in spec.flags)

    def test_pole_points_flagged(self):
        # at delta_c = 0 the two self-energy terms cancel identically, so the
        # undamped mechanical pole survives on the grid while the cooling
        # drive keeps the bath defined
        p = SystemParams(gamma_m=0.0, g_c=0.3, kappa_c=1.0, delta_c=0.0)
        spec = compute_spectrum(p, np.array([0.5, 1.0, 2.0]))
        assert spec.flags[1] == "pole"
        assert math.isnan(spec.j_eff[1])
        assert np.isfinite(spec.j_eff[0]) and np.isfinite(spec.j_eff[2])

    def test_no_bath_rejected(self):
        p = SystemParams(gamma_m=0.0, g_c=0.0)
        with pytest.raises(ValueError, match="no bath"):
            compute_spectrum(p, np.array([0.5, 1.0, 2.0]))

    def test_nonthermal_flagged(self, fig1):
        blue = replace(fig1, delta_c=+1.0)
        spec = compute_spectrum(blue, np.array([0.05, 0.1, 0.2]))
        assert all(f == "nonthermal" for f in spec.flags)
        assert np.all(spec.beta_eff < 0)

    def test_csv_shape_and_header(self, fig1):
        spec = compute_spectrum(fig1, np.array([0.1, 0.2]))
        lines = spec.to_csv().splitlines()
        assert lines[0] == "omega,j_eff,beta_eff,t_eff,flags"
        assert len(lines) == 3

    def test_json_mirrors_csv(self, fig1):
        import json

        spec = compute_spectrum(fig1, np.array([0.1, 0.2]))
        data = json.loads(spec.to_json())
        assert data["omega"] == [0.1, 0.2]
        assert data["j_eff"][0] == pytest.approx(spec.j_eff[0])

    def test_grid_validation(self, fig1):
        with pytest.raises(ValueError):
            compute_spectrum(fig1, np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            compute_spectrum(fig1, np.array([-0.1, 0.2]))

    @pytest.mark.parametrize("grid", [[np.nan], [np.inf], [0.1, np.nan, 0.3]])
    def test_rejects_non_finite_grid(self, fig1, grid):
        with pytest.raises(ValueError, match="finite"):
            compute_spectrum(fig1, grid)
