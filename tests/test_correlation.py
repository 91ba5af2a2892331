import math
from dataclasses import replace

import numpy as np
import pytest

from optobath import (
    SystemParams,
    c_qq_optical,
    c_qq_representation,
    c_qq_thermal,
    c_qq_total,
    chi_q,
    correlation_series,
    damping_kernel,
    diffusion_matrix,
    drift_matrix_qc,
    langevin_trajectory,
    lyapunov_covariance,
    ohmic_j,
    s_qq,
)


class TestThermalContribution:
    def test_vanishes_without_thermal_contact(self, fig1_cold):
        assert c_qq_thermal(0.7, fig1_cold) == 0

    def test_equal_time_value_is_real(self, fig1):
        val = c_qq_thermal(0.0, fig1)
        assert val.imag == 0

    def test_equal_time_against_dense_trapezoid(self, fig1):
        # independent fixed-grid route through the same integrand
        w_res, width = fig1.omega_m, fig1.gamma_m
        w = np.unique(
            np.concatenate(
                [
                    np.linspace(1e-8, w_res - 50 * width, 30000, endpoint=False),
                    np.linspace(w_res - 50 * width, w_res + 50 * width, 200000),
                    np.geomspace(w_res + 50 * width, 50.0, 30000),
                ]
            )
        )
        f = ohmic_j(w, fig1) * np.abs(chi_q(w, fig1)) ** 2 / np.pi
        oracle = np.trapezoid(f / np.tanh(fig1.beta * w / 2.0), w)
        assert c_qq_thermal(0.0, fig1).real == pytest.approx(oracle, rel=1e-2)


class TestOpticalContribution:
    def test_vanishes_without_cooling(self, fig1_bare):
        assert c_qq_optical(0.3, fig1_bare) == 0

    def test_equal_time_real_and_positive(self, fig1):
        val = c_qq_optical(0.0, fig1)
        assert val.imag == 0
        assert val.real > 0

    def test_equal_time_against_dense_trapezoid(self, fig1):
        # independent fixed-grid route, sideband Lorentzians written out here
        w = np.unique(np.concatenate([np.linspace(1e-8, 5.0, 200001),
                                      np.geomspace(5.0, 1e3, 20000)]))
        kc, dc = fig1.kappa_c, fig1.delta_c

        def lorentz(x):
            return kc / (2 * np.pi) / ((x + dc) ** 2 + kc**2 / 4)

        mod2 = np.abs(chi_q(w, fig1)) ** 2
        f = 2 * fig1.g_c**2 * fig1.omega_m * mod2 * (lorentz(w) + lorentz(-w))
        oracle = np.trapezoid(f, w)
        assert c_qq_optical(0.0, fig1).real == pytest.approx(oracle, rel=1e-6)

    def test_net_cooling_sign(self, fig1):
        # red detuning damps: the odd part of the correlation starts negative
        assert c_qq_optical(0.1, fig1).imag < 0


class TestTotalAndRepresentation:
    def test_representation_equivalence_at_equal_time(self, fig1_cold):
        a = c_qq_total(0.0, fig1_cold)
        b = c_qq_representation(0.0, fig1_cold)
        assert abs(a - b) / abs(b) < 1e-3

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 5.0])
    def test_representation_equivalence(self, fig1_cold, t):
        a = c_qq_total(t, fig1_cold)
        b = c_qq_representation(t, fig1_cold)
        assert abs(a - b) / abs(b) < 1e-3

    @pytest.mark.parametrize("params", ["fig1", "fig1_bare"])
    def test_representation_equivalence_at_long_time(self, params, request):
        # at t = 200 the oscillatory rule covers the segment that starts at
        # omega = 0, where j_eff and beta_eff are undefined
        p = request.getfixturevalue(params)
        c0 = abs(c_qq_total(0.0, p))
        a, b = c_qq_total(200.0, p), c_qq_representation(200.0, p)
        assert np.isfinite(a) and abs(a - b) < 1e-3 * c0
        assert math.isfinite(damping_kernel(200.0, p))

    def test_decay_at_long_times(self, fig1_cold):
        c0 = abs(c_qq_total(0.0, fig1_cold))
        assert abs(c_qq_total(100.0, fig1_cold)) < 1e-3 * c0

    def test_conjugate_symmetry(self, fig1_cold):
        for t in (0.7, -0.7):
            assert c_qq_total(-t, fig1_cold) == pytest.approx(
                np.conj(c_qq_total(t, fig1_cold)), rel=1e-10
            )


class TestCorrelationSeries:
    @pytest.mark.parametrize("which", ["thermal", "optical", "total"])
    def test_matches_adaptive_route(self, fig1, which):
        # fig1 couples both contributions, so every branch of the integrand runs
        adaptive = {"thermal": c_qq_thermal, "optical": c_qq_optical, "total": c_qq_total}
        times = np.array([0.0, 0.5, 1.0, 5.0])
        series = correlation_series(fig1, times, which=which)
        for t, v in zip(times, series.values):
            ref = adaptive[which](t, fig1)
            assert abs(v - ref) / abs(ref) < 1e-3

    def test_matches_adaptive_route_with_narrow_resonance(self, fig1_bare):
        # the bare resonance is 1e-6 wide; the fixed grid must still resolve
        # its 1/(omega - omega_m)^2 tails
        times = np.array([0.0, 1.0, 5.0])
        series = correlation_series(fig1_bare, times, which="total")
        for t, v in zip(times, series.values):
            ref = c_qq_total(t, fig1_bare)
            assert abs(v - ref) / abs(ref) < 1e-4

    def test_csv_columns(self, fig1_cold):
        series = correlation_series(fig1_cold, [0.0, 0.1], which="optical")
        lines = series.to_csv().splitlines()
        assert lines[0] == "t,re,im,tag"
        assert lines[1].endswith(",optical")

    def test_rejects_unknown_tag(self, fig1_cold):
        with pytest.raises(ValueError):
            correlation_series(fig1_cold, [0.0], which="everything")

    def test_fourier_transform_reproduces_noise_spectrum(self, fig1_cold):
        # S(omega) = 2 Re integral_0^inf C(t) exp(i omega t) dt, sampled
        # Fourier route vs the two-sided spectral construction
        dt = 0.01
        times = np.arange(0.0, 200.0 + dt / 2, dt)
        series = correlation_series(fig1_cold, times, which="total")
        for w in (0.05, 0.2, 0.7, 1.3, 2.0):
            transform = 2.0 * np.trapezoid(
                (series.values * np.exp(1j * w * times)).real, times
            )
            assert transform == pytest.approx(s_qq(w, fig1_cold), rel=1e-2)


class TestLyapunovCovariance:
    def test_weakly_coupled_cavity_is_vacuum(self):
        # exactly g_c = 0 leaves the mechanics undamped (marginal), so probe
        # the vacuum limit with a coupling whose backaction is O(g_c^2)
        p = SystemParams(gamma_m=0.0, g_c=0.01, kappa_c=1.0, delta_c=-0.8)
        v = lyapunov_covariance(p)
        assert v[2, 2] == pytest.approx(0.5, rel=2e-3)
        assert v[3, 3] == pytest.approx(0.5, rel=2e-3)

    def test_residual_contract(self, fig1_cold):
        v = lyapunov_covariance(fig1_cold)
        a = drift_matrix_qc(fig1_cold)
        d = diffusion_matrix(fig1_cold)
        assert np.abs(a @ v + v @ a.T + d).max() < 1e-10

    def test_matches_spectral_variance(self, fig1_cold):
        v = lyapunov_covariance(fig1_cold)
        spectral = fig1_cold.omega_m * c_qq_representation(0.0, fig1_cold).real
        assert v[0, 0] == pytest.approx(spectral, rel=1e-3)

    def test_rejects_thermal_contact(self, fig1):
        with pytest.raises(ValueError, match="gamma_m"):
            lyapunov_covariance(fig1)

    def test_rejects_unstable(self, fig1_cold):
        with pytest.raises(ValueError, match="stable"):
            lyapunov_covariance(replace(fig1_cold, g_c=0.7))


class TestLangevinTrajectory:
    def test_vacuum_moments(self):
        p = SystemParams(gamma_m=0.0, g_c=0.05, kappa_c=1.0, delta_c=-0.8)
        mom = langevin_trajectory(p, seed=11, duration=60.0, dt=0.005, n_traj=200,
                                  burn_in=20.0)
        assert mom.second[2] == pytest.approx(0.5, abs=4 * mom.stderr[2] + 0.01)

    def test_consistent_with_lyapunov(self, fig1_cold):
        v = lyapunov_covariance(fig1_cold)
        mom = langevin_trajectory(fig1_cold, seed=3, duration=120.0, dt=0.004,
                                  n_traj=300, burn_in=40.0)
        assert abs(mom.second[0] - v[0, 0]) < 3.5 * mom.stderr[0] + 0.01 * v[0, 0]

    def test_seed_reproducibility(self, fig1_cold):
        kw = dict(seed=42, duration=20.0, dt=0.005, n_traj=20, burn_in=5.0)
        a = langevin_trajectory(fig1_cold, **kw)
        b = langevin_trajectory(fig1_cold, **kw)
        assert np.array_equal(a.second, b.second)
        assert np.array_equal(a.stderr, b.stderr)

    def test_rejects_coarse_step(self, fig1_cold):
        with pytest.raises(ValueError, match="dt"):
            langevin_trajectory(fig1_cold, seed=1, dt=0.1)

    def test_rejects_unstable_parameters(self, fig1_cold):
        with pytest.raises(ValueError, match="stable"):
            langevin_trajectory(replace(fig1_cold, g_c=0.7), seed=1)
