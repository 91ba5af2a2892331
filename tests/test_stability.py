import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optobath import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    SystemParams,
    UnstableError,
    drift_matrix_full,
    drift_matrix_qc,
    eigen_stable,
    full_criteria,
    g_c_max,
    langevin_trajectory,
    lyapunov_covariance,
    routh_hurwitz_qc,
    stability_map,
    stability_report,
)
from optobath.stability import _classify, at_optimal_detuning, require_stable
from optobath.validate import fig1_cooled

SQRT3 = math.sqrt(3.0)


class TestDriftMatrixQc:
    def test_entries_at_working_point(self, fig1):
        m = drift_matrix_qc(fig1)
        k = fig1.kappa_c / 2
        expected = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, -1e-6, 0.9, 0.0],
                [0.0, 0.0, -k, 1.0],
                [0.9, 0.0, -1.0, -k],
            ]
        )
        assert m == pytest.approx(expected)

    def test_decoupled_blocks_without_cooling(self, fig1_bare):
        m = drift_matrix_qc(fig1_bare)
        assert np.all(m[:2, 2:] == 0)
        assert np.all(m[2:, :2] == 0)

    def test_trace(self, fig1):
        assert np.trace(drift_matrix_qc(fig1)) == pytest.approx(
            -fig1.gamma_m - fig1.kappa_c
        )

    def test_zero_pattern(self, fig1):
        m = drift_matrix_qc(fig1)
        for idx in [(0, 0), (0, 2), (0, 3), (1, 3), (2, 0), (2, 1), (3, 1)]:
            assert m[idx] == 0


class TestDriftMatrixFull:
    def test_probe_decoupled_structure(self, fig1):
        m = drift_matrix_full(replace(fig1, g_a=0.0))
        assert np.array_equal(m[:4, :4], drift_matrix_qc(fig1))
        assert np.all(m[:4, 4:] == 0)
        assert np.all(m[4:, :4] == 0)
        assert m[4, 5] == -fig1.delta_a
        assert m[5, 4] == fig1.delta_a

    def test_marginal_probe_row_at_zero_detuning(self, fig1):
        m = drift_matrix_full(replace(fig1, delta_a=0.0))
        assert np.all(m[4, :] == 0)

    def test_entries_at_working_point(self, fig1):
        p = replace(fig1, delta_a=-2.5)
        m = drift_matrix_full(p)
        assert m[1, 4] == 0.9
        assert m[5, 0] == 0.9
        assert m[4, 5] == 2.5
        assert m[5, 4] == -2.5
        assert np.trace(m) == pytest.approx(-p.gamma_m - p.kappa_c)


class TestRouthHurwitzQc:
    def test_stable_working_point(self, fig1):
        value, ok = routh_hurwitz_qc(fig1)
        assert value == pytest.approx(0.5233333333333333, rel=1e-12)
        assert ok

    def test_marginal_at_threshold(self, fig1):
        p = replace(fig1, g_c=g_c_max(fig1))
        value, ok = routh_hurwitz_qc(p)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert not ok

    def test_unstable_above_threshold(self, fig1):
        value, ok = routh_hurwitz_qc(replace(fig1, g_c=0.6))
        assert value == pytest.approx(-0.10666666666666669, rel=1e-12)
        assert not ok

    def test_rejects_blue_detuning(self, fig1):
        with pytest.raises(ValueError):
            routh_hurwitz_qc(replace(fig1, delta_c=0.5))

    def test_threshold_matches_g_c_max(self, fig1_cold):
        lo, hi = 0.01, 0.8
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            _, ok = routh_hurwitz_qc(replace(fig1_cold, g_c=mid))
            if ok:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(g_c_max(fig1_cold), rel=1e-12)

    def test_eigen_threshold_at_nonunit_omega_m(self):
        p = SystemParams(omega_m=2.0, gamma_m=0.0, kappa_c=1.3,
                         delta_c=-SQRT3 / 2 * 1.3)
        lo, hi = 0.01, 3.0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            _, verdict = eigen_stable(drift_matrix_qc(replace(p, g_c=mid)))
            if verdict == STABLE:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(g_c_max(p), rel=1e-9)


class TestFullCriteria:
    def test_probe_decoupled_reduces_to_s1_s2(self, fig1_cold):
        p = replace(fig1_cold, g_a=0.0, delta_a=-2.0)
        s1, s2, s3, ok = full_criteria(p)
        assert s3 == pytest.approx(abs(p.delta_a) * s1, rel=1e-12)
        assert ok == (s1 > 0 and s2 > 0)

    def test_binding_detuning_bound(self, fig1_cold):
        # s3 = 0 at |delta_a| = 0.9353074/0.4532200 = 2.0637
        p = replace(fig1_cold, delta_a=-2.0636942675159236)
        s1, s2, s3, _ = full_criteria(p)
        assert s3 == pytest.approx(0.0, abs=1e-12)
        stable = full_criteria(replace(p, delta_a=-2.07))[3]
        unstable = full_criteria(replace(p, delta_a=-2.06))[3]
        assert stable and not unstable

    def test_shallow_probe_detuning_unstable(self, fig1_cold):
        p = replace(fig1_cold, delta_a=-1.0)
        s1, s2, s3, ok = full_criteria(p)
        assert s3 == pytest.approx(-0.4820874747733377, rel=1e-12)
        assert not ok

    def test_rejects_off_optimal_detuning(self, fig1_cold):
        with pytest.raises(ValueError):
            full_criteria(replace(fig1_cold, delta_c=-0.9))


class TestEigenStable:
    def test_known_diagonal_spectrum(self):
        absc, verdict = eigen_stable(np.diag([-1.0, -2.0, -3.0, -4.0]))
        assert absc == pytest.approx(-1.0)
        assert verdict == STABLE

    def test_agrees_with_analytic_at_working_point(self, fig1):
        _, verdict = eigen_stable(drift_matrix_qc(fig1))
        assert verdict == STABLE
        assert routh_hurwitz_qc(fig1)[1]

    def test_agrees_with_analytic_above_threshold(self, fig1):
        p = replace(fig1, g_c=0.6)
        _, verdict = eigen_stable(drift_matrix_qc(p))
        assert verdict == UNSTABLE
        assert not routh_hurwitz_qc(p)[1]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eigen_stable(np.array([[np.nan, 0.0], [0.0, -1.0]]))


class TestRequireStable:
    def test_returns_drift_matrix_at_stable_point(self, fig1_cold):
        assert np.array_equal(require_stable(fig1_cold), drift_matrix_qc(fig1_cold))

    @pytest.mark.parametrize("g_c, verdict", [(0.7, UNSTABLE), (0.0, MARGINAL)])
    def test_names_the_verdict(self, fig1_cold, g_c, verdict):
        with pytest.raises(UnstableError) as exc:
            require_stable(replace(fig1_cold, g_c=g_c))
        assert exc.value.verdict == verdict

    def test_white_noise_oracles_use_it(self, fig1_cold):
        unstable = replace(fig1_cold, g_c=0.7)
        with pytest.raises(UnstableError):
            lyapunov_covariance(unstable)
        with pytest.raises(UnstableError):
            langevin_trajectory(unstable, seed=1)


@settings(max_examples=300, deadline=None)
@given(
    omega_m=st.floats(0.4, 2.5),
    kappa_c=st.floats(0.2, 3.0),
    g_c=st.floats(0.0, 1.0),
    g_a=st.floats(0.0, 0.6),
    delta_a=st.floats(-5.0, -0.1),
)
def test_oracle_equivalence_property(omega_m, kappa_c, g_c, g_a, delta_a):
    p = SystemParams(
        omega_m=omega_m, gamma_m=0.0, kappa_c=kappa_c,
        delta_c=-SQRT3 / 2 * kappa_c, g_c=g_c, g_a=g_a, delta_a=delta_a,
    )
    *_, analytic = full_criteria(p)
    abscissa, verdict = eigen_stable(drift_matrix_full(p))
    if verdict != MARGINAL:
        assert analytic == (verdict == STABLE)


@settings(max_examples=150, deadline=None)
@given(
    omega_m=st.floats(0.4, 2.5),
    kappa_c=st.floats(0.2, 3.0),
    delta_c=st.floats(-3.0, -0.05),
    g_c=st.floats(0.0, 1.0),
    gamma_m=st.floats(1e-9, 0.5),
)
def test_rh_matches_eigenvalues_red_detuned(omega_m, kappa_c, delta_c, g_c, gamma_m):
    p = SystemParams(omega_m=omega_m, gamma_m=gamma_m, kappa_c=kappa_c,
                     delta_c=delta_c, g_c=g_c)
    _, analytic = routh_hurwitz_qc(p)
    abscissa, verdict = eigen_stable(drift_matrix_qc(p))
    if verdict != MARGINAL:
        assert analytic == (verdict == STABLE)


@settings(max_examples=150, deadline=None)
@given(
    kappa_c=st.floats(0.2, 3.0),
    delta_c=st.floats(-3.0, -0.05),
    g_c=st.floats(0.0, 1.0),
    gamma_m=st.floats(1e-6, 1.0),
)
def test_damping_never_destabilizes(kappa_c, delta_c, g_c, gamma_m):
    p0 = SystemParams(gamma_m=0.0, kappa_c=kappa_c, delta_c=delta_c, g_c=g_c)
    abscissa, verdict = eigen_stable(drift_matrix_qc(p0))
    if verdict == STABLE:
        _, damped = eigen_stable(drift_matrix_qc(replace(p0, gamma_m=gamma_m)))
        assert damped == STABLE


class TestStabilityReport:
    def test_report_fields(self, fig1):
        rep = stability_report(fig1)
        assert rep.eig_stable in (STABLE, UNSTABLE, MARGINAL)
        assert rep.rh_stable is True
        assert rep.s1 is not None
        assert len(rep.eigenvalues) == 6

    def test_analytic_fields_none_when_inapplicable(self, fig1):
        rep = stability_report(replace(fig1, delta_c=-0.5))
        assert rep.s1 is None
        assert rep.rh_stable is not None
        rep_blue = stability_report(replace(fig1, delta_c=+1.0))
        assert rep_blue.rh_stable is None

    def test_decoupled_probe_uses_4x4_matrix(self, fig1):
        # at g_a = 0 the probe is an undamped rotation, which would pin the
        # 6x6 abscissa at 0 and report every working point marginal
        rep = stability_report(replace(fig1, g_a=0.0))
        assert len(rep.eigenvalues) == 4
        assert rep.eig_stable == STABLE
        smap = stability_map(fig1, "g_a", np.array([0.0]), "g_c", np.array([fig1.g_c]))
        assert (rep.spectral_abscissa, rep.eig_stable) == (smap.abscissa[0, 0], smap.eigen[0, 0])


class TestStabilityMap:
    def test_threshold_boundary_without_probe(self, fig1_cold):
        values = np.linspace(0.0, 0.7, 50)
        smap = stability_map(fig1_cold, "g_c", values, "g_a", np.array([0.0, 0.0001]))
        verdicts = smap.eigen[:, 0]
        stable_gs = values[verdicts == STABLE]
        unstable_gs = values[verdicts == UNSTABLE]
        gmax = g_c_max(fig1_cold)
        assert stable_gs.max() < gmax < unstable_gs.min()
        assert not smap.disagree.any()

    def test_probe_detuning_boundary(self, fig1_cold):
        deltas = np.linspace(-3.0, -1.0, 81)
        smap = stability_map(fig1_cold, "g_c", np.array([0.45]), "delta_a", deltas)
        verdicts = smap.eigen[0]
        boundary = 2.0636942675159236
        for verdict, d in zip(verdicts, deltas):
            if verdict == MARGINAL:
                continue
            assert (verdict == STABLE) == (abs(d) > boundary)
        assert not smap.disagree.any()

    def test_marginal_band_labelled(self, fig1_cold):
        gmax = g_c_max(fig1_cold)
        smap = stability_map(
            fig1_cold, "g_c", np.array([gmax]), "g_a", np.array([0.0, 1e-12])
        )
        assert smap.eigen[0, 0] == MARGINAL

    def test_csv_header(self, fig1_cold):
        smap = stability_map(
            fig1_cold, "g_c", np.array([0.1, 0.2]), "g_a", np.array([0.0, 0.1])
        )
        lines = smap.to_csv().splitlines()
        assert lines[0] == "g_c,g_a,s1,s2,s3,abscissa,analytic,eigen,disagree"
        assert len(lines) == 5

    def test_rejects_unknown_variable(self, fig1_cold):
        with pytest.raises(ValueError):
            stability_map(fig1_cold, "beta", np.array([0.1]), "g_a", np.array([0.1]))

    def test_rejects_same_variable_twice(self, fig1_cold):
        # var2 would overwrite var1 in every cell, so the var1 column would
        # print values that were never applied
        with pytest.raises(ValueError, match="different"):
            stability_map(fig1_cold, "g_c", np.array([0.1, 0.9]), "g_c", np.array([0.2, 0.3]))


def per_cell_map(p, var1, values1, var2, values2):
    """Reference route for stability_map: one replace() and one matrix per cell."""
    shape = (len(values1), len(values2))
    ref = {
        "s1": np.full(shape, np.nan), "s2": np.full(shape, np.nan),
        "s3": np.full(shape, np.nan), "abscissa": np.empty(shape),
        "analytic": np.empty(shape, dtype=object), "eigen": np.empty(shape, dtype=object),
        "disagree": np.zeros(shape, dtype=bool),
    }
    for i, v1 in enumerate(values1):
        for k, v2 in enumerate(values2):
            cell = replace(p, **{var1: float(v1), var2: float(v2)})
            m = drift_matrix_full(cell) if cell.g_a > 0 else drift_matrix_qc(cell)
            a, verdict = eigen_stable(m)
            ref["abscissa"][i, k] = a
            ref["eigen"][i, k] = verdict
            if at_optimal_detuning(cell) and cell.gamma_m == 0.0:
                c1, c2, c3, ok = full_criteria(cell)
                ref["s1"][i, k], ref["s2"][i, k], ref["s3"][i, k] = c1, c2, c3
                ref["analytic"][i, k] = ok
                if verdict != MARGINAL:
                    ref["disagree"][i, k] = ok != (verdict == STABLE)
            else:
                ref["analytic"][i, k] = None
    return ref


def _sweep_values(var, rng, base):
    """Random values of one swept parameter, with its special points mixed in."""
    n = int(rng.integers(2, 9))
    draws = {
        "g_c": lambda: np.append(rng.uniform(0.0, 0.8, n), [0.0, g_c_max(base)]),
        "g_a": lambda: np.append(rng.uniform(0.0, 0.6, n), 0.0),
        "delta_a": lambda: rng.uniform(-5.0, -0.1, n),
        "delta_c": lambda: np.append(rng.uniform(-1.5, 1.0, n), base.delta_c),
        "kappa_c": lambda: np.append(rng.uniform(0.3, 2.0, n), base.kappa_c),
        "gamma_m": lambda: np.append(rng.uniform(0.0, 0.1, n), 0.0),
    }
    return rng.permutation(draws[var]())


SWEPT_PAIRS = [("g_c", "g_a"), ("g_c", "delta_a"), ("delta_c", "kappa_c"),
               ("gamma_m", "g_a"), ("kappa_c", "g_c"), ("delta_a", "gamma_m"),
               ("g_a", "delta_c")]


def assert_map_matches_reference(p, var1, values1, var2, values2):
    smap = stability_map(p, var1, values1, var2, values2)
    ref = per_cell_map(p, var1, values1, var2, values2)
    for name in ("s1", "s2", "s3", "abscissa", "eigen", "disagree"):
        np.testing.assert_array_equal(getattr(smap, name), ref[name], err_msg=name)
    assert smap.analytic.tolist() == ref["analytic"].tolist()
    for (i, k), abscissa in np.ndenumerate(smap.abscissa):
        rep = stability_report(replace(p, **{var1: float(values1[i]), var2: float(values2[k])}))
        assert (rep.spectral_abscissa, rep.eig_stable) == (abscissa, smap.eigen[i, k])
    return smap


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(SWEPT_PAIRS), seed=st.integers(0, 2**32 - 1))
def test_stability_map_matches_per_cell_route(pair, seed):
    base = replace(fig1_cooled(), gamma_m=0.0)
    rng = np.random.default_rng(seed)
    var1, var2 = pair
    assert_map_matches_reference(base, var1, _sweep_values(var1, rng, base),
                                 var2, _sweep_values(var2, rng, base))


def test_stability_map_matches_per_cell_route_at_special_cells(fig1_cold):
    smap = assert_map_matches_reference(fig1_cold, "g_c", np.array([0.2, g_c_max(fig1_cold)]),
                                        "g_a", np.array([0.0, 0.3]))
    assert smap.eigen[1, 0] == MARGINAL
    smap = assert_map_matches_reference(fig1_cold, "delta_c",
                                        np.array([-0.9, fig1_cold.delta_c]),
                                        "g_a", np.array([0.0, 0.3]))
    assert smap.analytic[0, 0] is None and smap.analytic[1, 0] is not None


@pytest.mark.parametrize("var,value", [("kappa_c", 0.0), ("gamma_m", -1e-3),
                                       ("g_a", -0.1), ("delta_a", math.inf)])
def test_invalid_swept_value_rejected(fig1_cold, var, value):
    with pytest.raises(ValueError):
        stability_map(fig1_cold, var, np.array([value, 0.5]), "g_c", np.array([0.1]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_classification_matches_per_cell_route(fig1_cold, seed):
    # the stability oracle's 1-d draws of (g_c, g_a, delta_a), with g_a = 0
    # mixed in so the 4x4 overwrite runs on a 1-d stack
    rng = np.random.default_rng(seed)
    n = 40
    g_c = rng.uniform(0.0, 0.8, n)
    g_a = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.0, 0.6, n))
    d_a = rng.uniform(-5.0, -0.1, n)
    assert 0 < np.sum(g_a == 0) < n
    cells = _classify({**vars(fig1_cold), "g_c": g_c, "g_a": g_a, "delta_a": d_a}, (n,))
    for i in range(n):
        cell = replace(fig1_cold, g_c=g_c[i], g_a=g_a[i], delta_a=d_a[i])
        abscissa, verdict = eigen_stable(
            drift_matrix_full(cell) if cell.g_a > 0 else drift_matrix_qc(cell))
        *_, ok = full_criteria(cell)
        assert (cells["abscissa"][i], cells["eigen"][i]) == (abscissa, verdict)
        assert cells["disagree"][i] == (verdict != MARGINAL and ok != (verdict == STABLE))
