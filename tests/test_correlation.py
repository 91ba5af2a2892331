import itertools
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm

from optobath import (
    SystemParams,
    c_qq_optical,
    c_qq_representation,
    c_qq_thermal,
    c_qq_total,
    chi_q,
    correlation_series,
    damping_kernel,
    detailed_balance_coth,
    diffusion_matrix,
    drift_matrix_qc,
    langevin_trajectory,
    lyapunov_covariance,
    ohmic_j,
    s_qq,
)
from optobath import correlation
from optobath._quad import QuadratureError, breakpoints, frequency_cutoff
from optobath.correlation import _gauss_frequency_grid, _integrands, _representation_integrands
from optobath.spectrum import g_c_max
from optobath.stability import UnstableError, require_stable, resonances
from optobath.validate import fig1_bare, fig1_cooled

# (delta_c, kappa_c, g_c) at gamma_m = 0, beta = 1e-4: a cooling sideband narrower
# than the hybrid poles and away from omega_m, between the 5 and 20 omega_m knees at -10
NARROW_SIDEBANDS = [(-3.0, 1e-2, 0.05), (-3.0, 1e-3, 0.02), (-10.0, 1e-3, 0.05),
                    (-0.2, 1e-3, 0.01)]


def narrow_sideband(delta_c, kappa_c, g_c):
    return SystemParams(delta_c=delta_c, kappa_c=kappa_c, g_c=g_c, beta=1e-4)


def regression_theorem(p, times, dt):
    """C(t_k) at t_k = k dt from [e^{At} V]_QQ - (i/2) [e^{At}]_QP, gamma_m = 0."""
    step = expm(require_stable(p) * dt)
    rows = np.empty((len(times), 4))  # row Q of e^{A t_k}
    rows[0] = [1.0, 0.0, 0.0, 0.0]
    for k in range(1, len(times)):
        rows[k] = rows[k - 1] @ step
    return rows @ lyapunov_covariance(p)[:, 0] - 0.5j * rows[:, 1]


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

    def test_total_resolves_sideband_between_knees(self):
        # the sideband pole at omega = 10 brings its own breakpoint ladder; the
        # adaptive rule's relative tolerance is 1e-8
        p = narrow_sideband(-10.0, 1e-3, 0.05)
        reference = regression_theorem(p, np.arange(0.0, 13.05, 0.1), 0.1)[[0, 3, 10, 50, 130]]
        adaptive = np.array([c_qq_total(t, p) for t in (0.0, 0.3, 1.0, 5.0, 13.0)])
        assert np.abs(adaptive - reference).max() < 1e-8 * abs(reference[0])

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

    def test_matches_regression_theorem_on_fourier_grid(self, fig1_cold):
        # at gamma_m = 0 every noise is white, so for t >= 0 the quantum
        # regression theorem gives C(t) = [e^{At} V]_QQ - (i/2) [e^{At}]_QP,
        # a reference that shares no quadrature with the series
        dt = 0.01
        times = np.arange(0.0, 200.0 + dt / 2, dt)
        series = correlation_series(fig1_cold, times, which="total")
        reference = regression_theorem(fig1_cold, times, dt)
        c0 = abs(reference[0])
        assert np.abs(series.values - reference).max() < 1e-4 * c0

    @pytest.mark.parametrize("g_c", [0.45, 0.1, 0.55], ids=["fig1_cold", "g_c_0.1", "g_c_0.55"])
    def test_matches_regression_theorem_to_rule_error(self, fig1_cold, g_c):
        # the Gauss panels partition [0, cut], so only the rule's own error
        # is left: about 1e-11 |C(0)| up to t = 200 at the default size, and
        # about 2e-9 at n_freq = 1000 while its panels stay narrow against
        # 2 pi / t (t <= 13)
        p = replace(fig1_cold, g_c=g_c)
        dt = 0.01
        times = np.arange(0.0, 200.0 + dt / 2, dt)
        reference = regression_theorem(p, times, dt)
        c0 = abs(reference[0])
        assert np.abs(correlation_series(p, times).values - reference).max() < 1e-9 * c0
        short = times <= 13.0
        coarse = correlation_series(p, times[short], n_freq=1000).values
        assert np.abs(coarse - reference[short]).max() < 1e-8 * c0

    @settings(max_examples=60, deadline=None)
    @given(detuning=st.floats(0.1, 10.0), log_kappa=st.floats(-3.0, math.log10(2.0)),
           frac=st.floats(0.05, 0.95))
    @example(detuning=0.1, log_kappa=-3.0, frac=0.05)
    def test_matches_regression_theorem_at_any_cooling_point(self, detuning, log_kappa, frac):
        # every pole of the drift matrix grades the grid, so a narrow cooling
        # sideband far from omega_m keeps its mass. The worst of 1500 draws is
        # 7.9e-10 |C(0)|; the @example, with a mechanical pole 1.3e-8 wide,
        # reads 6.0e-10
        p = SystemParams(delta_c=-detuning, kappa_c=10.0**log_kappa, beta=1e-4)
        p = replace(p, g_c=frac * g_c_max(p))
        try:
            require_stable(p)
        except UnstableError:
            assume(False)
        times = np.arange(101) * 0.5
        reference = regression_theorem(p, times, 0.5)
        error = np.abs(correlation_series(p, times).values - reference).max()
        assert error < 5e-9 * abs(reference[0])

    @pytest.mark.parametrize("preset, times", [
        ("fig1", np.linspace(3.3, 17.1, 777)),
        ("fig1", np.linspace(12.0, -3.0, 1001)),
        ("fig1", np.array([0.4, 2.9])),
        ("fig1", np.array([-1.0, 0.5, 2.0])),
        ("fig1", np.arange(1001) * 0.2 + np.where(np.arange(1001) == 500, np.spacing(100.0), 0.0)),
        ("fig1", np.linspace(0.0, 200.0, 20001)),
        ("fig1_cold", np.linspace(0.0, 200.0, 20001)),
        ("fig1_bare", np.linspace(0.0, 200.0, 20001)),
        ("fig1", np.linspace(0.0, 2000.0, 100001)),
        ("fig1_cold", np.linspace(0.0, 2000.0, 100001)),
    ], ids=["offset_linspace", "descending_through_zero", "n2", "n3", "jittered_one_ulp",
            "n20001", "n20001_cold", "n20001_bare", "n100001", "n100001_cold"])
    def test_uniform_grid_matches_per_time_calls(self, request, preset, times):
        # a uniform grid takes the phase tables built by doubling, whose
        # entries are products of up to log2(sqrt(n)) + 1 factors on each
        # side; a single time takes phases doubled along each frequency block,
        # products of up to log2(K) + 1 factors, so the two routes must agree
        # to rounding
        p = request.getfixturevalue(preset)
        series = correlation_series(p, times)
        c0 = abs(correlation_series(p, [0.0]).values[0])
        n = len(times)
        probes = np.unique(np.r_[0, 1, n - 2, n - 1, np.linspace(0, n - 1, 9).astype(int)])
        for k in probes:
            single = correlation_series(p, [times[k]]).values[0]
            assert abs(series.values[k] - single) <= 1e-13 * c0

    @pytest.mark.parametrize("preset", ["fig1", "fig1_cold", "fig1_bare"])
    def test_irregular_times_match_uniform_route(self, request, preset):
        # 300 irregular times take tables doubled along each frequency block,
        # in several chunks of times; the last point of a uniform grid ending
        # at the same time takes tables doubled along time. Each time is 1000 h
        # with h a multiple of 2^-30, so that grid reproduces it exactly and
        # only table rounding is compared: at fig1_bare C(t) barely decays, and
        # one ulp of time there is already about 1e-13 |C(0)|
        p = request.getfixturevalue(preset)
        steps = np.round(np.random.default_rng(11).uniform(0.0, 2.0, 300) * 2**30)
        times = np.sort(steps) * 2.0**-30 * 1000.0
        series = correlation_series(p, times).values
        c0 = abs(correlation_series(p, [0.0]).values[0])
        for k in np.linspace(0, len(times) - 1, 11).astype(int):
            uniform = correlation_series(p, np.linspace(0.0, times[k], 1001)).values[-1]
            assert abs(series[k] - uniform) <= 1e-13 * c0

    @pytest.mark.parametrize("times, limit_mib", [
        (np.linspace(0.0, 2000.0, 100001), 160),
        (np.sort(np.random.default_rng(5).uniform(0.0, 200.0, 300)), 48),
    ], ids=["uniform_n100001", "irregular_n300"])
    def test_phase_tables_stay_within_memory_bound(self, fig1, times, limit_mib):
        # both routes build their tables a slice of nodes or a chunk of times
        # at a time; whole tables would take about 381 and 122 MiB here
        tracemalloc.start()
        try:
            correlation_series(fig1, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    def test_irregular_chunks_fit_cache_sized_budget(self, fig1):
        # the block route builds one 2^17-entry (2 MiB) table per chunk of
        # times, at most two chunks at once (at most 2^18 entries in flight),
        # and frees each before that thread builds its next
        times = np.sort(np.random.default_rng(5).uniform(0.0, 200.0, 300))
        tracemalloc.start()
        try:
            correlation_series(fig1, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_moved_time_takes_direct_route_with_same_values(self, fig1):
        # moving one time by 1e-9 makes the grid non-uniform, so every time
        # takes the frequency-block route; the others must not notice
        times = np.arange(301) * 0.5
        moved = times.copy()
        moved[137] += 1e-9
        uniform = correlation_series(fig1, times).values
        direct = correlation_series(fig1, moved).values
        c0 = abs(uniform[0])
        assert np.abs(np.delete(direct - uniform, 137)).max() <= 1e-13 * c0

    def test_empty_times_give_empty_series(self, fig1_cold):
        series = correlation_series(fig1_cold, [])
        assert len(series.times) == len(series.values) == 0

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_core_count_never_changes_a_bit(self, fig1, monkeypatch, pin_cores, pools, cores):
        # 300 irregular times in 75 chunks of 4 (2^17 // 29952 nodes), against the chunks
        # in turn on one core; at most two chunks run at once, the caller taking some
        times = np.sort(np.random.default_rng(5).uniform(0.0, 200.0, 300))
        pin_cores(1)
        whole = correlation_series(fig1, times).values
        pin_cores(cores)
        threads, doubled = [], correlation._doubled

        def recorded(*args):
            threads.append(threading.get_ident())
            return doubled(*args)

        monkeypatch.setattr(correlation, "_doubled", recorded)
        split = correlation_series(fig1, times).values
        assert split.tobytes() == whole.tobytes()
        assert threading.get_ident() in threads and len(set(threads)) <= 2
        assert pools == ([1] if cores > 1 else [])

    def test_chunk_error_reaches_the_caller(self, fig1, monkeypatch, pin_cores):
        # the fifth chunk's table fails; its error, not a wrapper, reaches the caller,
        # and the helper thread has stopped by then
        pin_cores(2)
        boom, calls, doubled = RuntimeError("fifth table"), itertools.count(1), correlation._doubled

        def failing(*args):
            if next(calls) == 5:
                raise boom
            return doubled(*args)

        monkeypatch.setattr(correlation, "_doubled", failing)
        times = np.sort(np.random.default_rng(5).uniform(0.0, 200.0, 300))
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            correlation_series(fig1, times)
        assert caught.value is boom and threading.active_count() == before

    @pytest.mark.parametrize("times", [[], [0.1, 0.5, 2.0]], ids=["empty", "one_chunk"])
    def test_fewer_than_two_chunks_make_no_pool(self, fig1, pin_cores, pools, times):
        pin_cores(2)
        assert len(correlation_series(fig1, times).values) == len(times)
        assert pools == []


class TestGaussFrequencyGrid:
    @settings(max_examples=100, deadline=None)
    @given(
        omega_m=st.floats(0.05, 2.5),
        gamma_m=st.one_of(st.just(0.0), st.floats(1e-7, 2.0)),
        kappa_c=st.floats(0.3, 3.0),
        detuning=st.floats(0.3, 2.0),
        frac=st.floats(0.0, 0.95),
        n=st.sampled_from([1000, 12345, 30000]),
    )
    # hybrid poles at 0.23 and 1.33 near threshold, and a 5e-7-wide mechanical pole
    @example(omega_m=1.0, gamma_m=1e-6, kappa_c=2 / math.sqrt(3), detuning=0.866,
             frac=0.9, n=30000)
    @example(omega_m=1.0, gamma_m=1e-6, kappa_c=2 / math.sqrt(3), detuning=0.866,
             frac=0.0, n=1000)
    def test_panels_partition_zero_to_cut(self, omega_m, gamma_m, kappa_c, detuning, frac, n):
        p = SystemParams(omega_m=omega_m, gamma_m=gamma_m, kappa_c=kappa_c,
                         delta_c=-detuning * kappa_c, beta=1e-4)
        p = replace(p, g_c=frac * g_c_max(p))
        try:
            require_stable(p)
        except UnstableError:
            assume(False)
        starts, h, w, q = _gauss_frequency_grid(p, n)
        cut, k = frequency_cutoff(p), 2 ** int(math.log2(n / 240))
        assert len(w) == len(q) == 4 * k * (n // (4 * k)) == 4 * k * len(h)
        assert np.all((w > 0) & (w < cut)) and np.all(q > 0)
        assert q.sum() == pytest.approx(cut, rel=1e-12)
        assert np.array_equal(starts + np.tile(h, 4) * np.arange(k)[:, None], w.reshape(k, -1))


class TestBreakpoints:
    @pytest.mark.parametrize("p", [
        fig1_cooled(), replace(fig1_cooled(), gamma_m=0.0), fig1_bare(),
        *(narrow_sideband(*point) for point in NARROW_SIDEBANDS),
        SystemParams(gamma_m=1e-6, kappa_c=2 / math.sqrt(3), delta_c=-0.866 * 2 / math.sqrt(3),
                     beta=1e-4),
        SystemParams(gamma_m=3.0, beta=1e-4),
    ], ids=["fig1", "fig1_cold", "fig1_bare", "sideband_3_1e-2", "sideband_3_1e-3",
            "sideband_10", "sideband_0.2", "mechanical_5e-7", "overdamped"])
    def test_every_pole_is_bracketed(self, p):
        # each pole and the first rung of its ladder are edges of the adaptive
        # segments; an overdamped pole sits at 0, which is no interior point
        pts, cut = breakpoints(p), frequency_cutoff(p)
        for w_j, g_j in resonances(p):
            if 0.0 < w_j < cut:
                assert w_j in pts
            if g_j < 5.0 * p.omega_m:
                assert w_j + g_j in pts


class TestNoBath:
    @pytest.mark.parametrize("call", [
        lambda p: damping_kernel(1.0, p),
        lambda p: c_qq_total(0.5, p),
        lambda p: correlation_series(p, [0.0, 1.0]),
        lambda p: c_qq_representation(0.5, p),
        lambda p: detailed_balance_coth(0.5, p),
    ], ids=["damping_kernel", "c_qq_total", "correlation_series", "c_qq_representation",
            "detailed_balance_coth"])
    def test_rejected_with_shared_message(self, call):
        with pytest.raises(ValueError, match="no bath: gamma_m = 0 and g_c\\^2 = 0"):
            call(SystemParams(gamma_m=0.0, g_c=0.0))

    def test_uncoupled_contribution_of_series_is_zero(self, fig1_cold):
        # a bath exists (g_c > 0); only its thermal part is uncoupled, as for
        # c_qq_thermal in TestThermalContribution
        assert np.all(correlation_series(fig1_cold, [0.0, 1.0], which="thermal").values == 0)


class TestNoSteadyState:
    # gamma_m = 0 and delta_c = 0 leave the mechanics undamped: the 4x4 abscissa is 0
    @pytest.mark.parametrize("call", [
        lambda p: c_qq_total(0.5, p),
        lambda p: c_qq_representation(0.5, p),
        lambda p: correlation_series(p, [0.0, 0.5]),
    ], ids=["c_qq_total", "c_qq_representation", "correlation_series"])
    def test_refused(self, call):
        with pytest.raises(UnstableError, match="not strictly stable"):
            call(SystemParams(gamma_m=0.0, g_c=0.3, kappa_c=1.0, delta_c=0.0))


class TestIntegrandChecks:
    """The integrands check nothing per sample; their callers check once per call."""

    @pytest.mark.parametrize("point", ["fig1", "fig1_bare", "warm"])
    def test_scalar_and_array_routes_agree(self, point, request):
        # QUADPACK samples with Python floats, whose complex division and
        # builtin abs round unlike numpy's array loops: a few eps apart, not
        # bit for bit, both here and before the integrands lost their checks
        p = (replace(request.getfixturevalue("fig1"), gamma_m=1e-3) if point == "warm"
             else request.getfixturevalue(point))
        w = 10.0 ** np.random.default_rng(5).uniform(-4.0, 3.0, 200)
        for f in (*_integrands(p, "total"), *_representation_integrands(p)):
            array = f(w)
            scalar = np.array([f(float(x)) for x in w])
            assert np.all(np.isfinite(array))
            np.testing.assert_allclose(scalar, array, rtol=16 * np.finfo(float).eps, atol=0)

    def test_series_refuses_non_finite_grid_integrand(self, fig1, monkeypatch):
        one_nan = lambda w: np.where(w == w[len(w) // 2], np.nan, 1.0)
        monkeypatch.setattr(correlation, "_integrands", lambda p, which: (one_nan, one_nan))
        with pytest.raises(QuadratureError, match="not finite"):
            correlation_series(fig1, [0.0, 1.0])


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
        assert abs(mom.second[0] - v[0, 0]) < 3.5 * mom.stderr[0]

    def test_seed_reproducibility(self, fig1_cold):
        kw = dict(seed=42, duration=20.0, dt=0.005, n_traj=20, burn_in=5.0)
        a = langevin_trajectory(fig1_cold, **kw)
        b = langevin_trajectory(fig1_cold, **kw)
        assert np.array_equal(a.second, b.second)
        assert np.array_equal(a.stderr, b.stderr)

    def test_coarse_step_is_exact(self, fig1_cold):
        # the exact Gaussian step has no discretization error, so a coarse dt
        # still samples the stationary covariance
        v = lyapunov_covariance(fig1_cold)
        mom = langevin_trajectory(fig1_cold, seed=1, dt=0.1, n_traj=300)
        assert abs(mom.second[0] - v[0, 0]) <= 3.0 * mom.stderr[0]

    def test_rejects_unstable_parameters(self, fig1_cold):
        with pytest.raises(ValueError, match="stable"):
            langevin_trajectory(replace(fig1_cold, g_c=0.7), seed=1)

    @pytest.mark.parametrize("kwargs", [
        dict(duration=0.001, dt=0.002),
        dict(duration=0.0, dt=0.002),
        dict(duration=1.0, dt=-0.002),
        dict(duration=1.0, dt=0.002, n_traj=1),
        dict(duration=1.0, dt=0.002, burn_in=5.0),
        dict(duration=1.0, dt=0.002, burn_in=-5.0),
        dict(duration=1.0, dt=0.002, burn_in=math.inf),
        dict(duration=1.0, dt=0.4, burn_in=0.9),
    ], ids=["duration_below_dt", "zero_duration", "negative_dt", "one_trajectory",
            "burn_in_beyond_duration", "negative_burn_in", "infinite_burn_in",
            "burn_in_rounds_to_last_step"])
    def test_rejects_arguments_without_moments(self, fig1_cold, kwargs):
        with pytest.raises(ValueError):
            langevin_trajectory(fig1_cold, seed=1, **{"burn_in": 0.0, **kwargs})
