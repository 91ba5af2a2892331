"""Cross-check registry: every analytic shortcut against its brute-force oracle.

Each check returns a dict with ``status`` in {"pass", "fail", "skip"}, the
measured quantity, its tolerance and a human-readable detail string. The CLI
``validate`` command serializes the full report as JSON; the acceptance test
suite runs the same checks one criterion at a time.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from . import correlation, rates, spectrum, stability
from .params import SystemParams, fig1_bare, fig1_cooled


def _result(name, status, measured=None, tolerance=None, detail=""):
    return {
        "name": name,
        "status": status,
        "measured": measured,
        "tolerance": tolerance,
        "detail": detail,
    }


def _passfail(name, ok, measured, tolerance, detail=""):
    return _result(name, "pass" if ok else "fail", measured, tolerance, detail)


def check_temperature_reduction(p: SystemParams | None = None) -> dict:
    """Low-frequency inverse temperature at the cooled working point.

    beta_eff(0) must equal 2.838 within 1e-3 and imply a temperature
    reduction within one decade of 1e-5.
    """
    q = fig1_cooled()
    value = spectrum.beta_eff_low(q)
    ratio = q.beta / value
    ok = abs(value - 2.838) <= 1e-3 and abs(math.log10(ratio / 1e-5)) <= 1.0
    return _passfail(
        "temperature-reduction", ok, value, 1e-3,
        f"beta_eff_low = {value:.6f}, T_eff/T = {ratio:.3e}",
    )


def check_threshold_identity(p: SystemParams | None = None) -> dict:
    """g_c_max equals kappa_c/2 at omega_m = -delta_c = sqrt(3) kappa_c / 2."""
    q = replace(fig1_cooled(), gamma_m=0.0)
    value = spectrum.g_c_max(q)
    rel = abs(value - q.kappa_c / 2.0) / (q.kappa_c / 2.0)
    return _passfail("threshold-identity", rel <= 1e-12, rel, 1e-12,
                     f"g_c_max = {value:.15f}, kappa_c/2 = {q.kappa_c / 2.0:.15f}")


def check_flat_detuning(p: SystemParams | None = None) -> dict:
    """Curvature of beta_opt at omega = 0 vanishes only at optimal detuning."""
    q = fig1_cooled()
    h = 1e-3
    const, _ = spectrum.beta_opt_expansion(q)
    curv = (spectrum.beta_opt(h, q) - const) / h**2
    ok_flat = abs(curv) < 1e-6 * const

    q2 = replace(q, kappa_c=q.kappa_c * 1.1)
    const2, _ = spectrum.beta_opt_expansion(q2)
    curv2 = (spectrum.beta_opt(h, q2) - const2) / h**2
    ok_bent = abs(curv2) > 1e-2 * const2
    return _passfail(
        "flat-detuning", ok_flat and ok_bent, abs(curv) / const, 1e-6,
        f"optimal curvature/const = {abs(curv) / const:.2e}, "
        f"perturbed = {abs(curv2) / const2:.2e}",
    )


def check_detailed_balance(p: SystemParams | None = None) -> dict:
    """gamma_minus/gamma_plus = exp(Omega*beta_eff), table and scalar rates; loss balance.

    n_bar = gamma_plus/(gamma_minus - gamma_plus) to 8 eps (2 n_bar + 1) relative, the
    cancellation of the difference (worst of 300 random stable points: 1.9).
    """
    q = p if p is not None else fig1_cooled()
    if q.g_a == 0:
        return _result("detailed-balance", "skip", detail="g_a = 0: rates vanish")
    grid = spectrum.default_grid(q, n=100)
    table = rates.compute_rates(q, grid)
    # gamma_rates is the public scalar route to the same rates, so its rows
    # must balance too; perfbench's rates.gamma_rates layer times these calls.
    scalar = [(w, *rates.gamma_rates(w, q)) for w in grid[::10]]
    array = np.column_stack([grid, table.gamma_plus, table.gamma_minus])
    omega, gp, gm = np.vstack([array, scalar]).T
    emits = gp != 0
    expected = np.exp(omega[emits] * spectrum.beta_eff(omega[emits], q))
    worst = float(np.max(np.abs(gm[emits] / gp[emits] - expected) / expected, initial=0.0))
    # NaN n_bar marks a gain-regime row with no occupation
    rows = (table.n_bar > 0) & (table.gamma_plus > 0)
    n_bar, gp, gm = table.n_bar[rows], table.gamma_plus[rows], table.gamma_minus[rows]
    gap = np.abs(gp / (gm - gp) - n_bar) / (n_bar * np.finfo(float).eps * (2.0 * n_bar + 1.0))
    balance = float(np.max(gap, initial=0.0))
    ok = worst <= 1e-12 and balance <= 8.0
    return _passfail("detailed-balance", ok, worst, 1e-12,
                     f"worst ratio error {worst:.2e}, loss-balance error "
                     f"{balance:.2f} eps (2 n_bar + 1), bound 8")


def check_stability_oracle(p: SystemParams | None = None, *, seed: int) -> dict:
    """Analytic 6x6 criteria vs eigenvalues over 10000 random draws, plus the
    g_a = 0 boundary in g_c against g_c_max."""
    t0 = time.monotonic()
    n_draws = 10000
    base = replace(fig1_cooled(), gamma_m=0.0)
    rng = np.random.default_rng(seed)
    g_c = rng.uniform(0.0, 0.8, n_draws)
    g_a = rng.uniform(0.0, 0.6, n_draws)
    d_a = rng.uniform(-5.0, -0.1, n_draws)
    cells = stability._classify({**vars(base), "g_c": g_c, "g_a": g_a, "delta_a": d_a})
    outside = cells["eigen"] != stability.MARGINAL
    disagreements = int(cells["disagree"].sum())

    lo, hi = 0.01, 0.8
    probe = replace(base, g_a=0.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        _, verdict = stability.eigen_stable(
            stability.drift_matrix_qc(replace(probe, g_c=mid)))
        if verdict == stability.STABLE:
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)
    target = spectrum.g_c_max(base)
    rel = abs(boundary - target) / target
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and rel <= 1e-6 and elapsed <= 60.0
    return _passfail(
        "stability-oracle", ok, disagreements, 0,
        f"{int(outside.sum())}/{n_draws} draws outside margin, "
        f"{disagreements} disagreements, boundary rel err {rel:.2e}, "
        f"elapsed {elapsed:.1f}s",
    )


def _white_noise_point(name: str, p: SystemParams | None, no_cooling: str):
    """(p or fig1-cooled at gamma_m = 0, None), or (None, skip result) without a steady state."""
    q = replace(p if p is not None else fig1_cooled(), gamma_m=0.0)
    if q.g_c == 0:
        return None, _result(name, "skip", detail=f"g_c = 0: {no_cooling}")
    try:
        stability.require_stable(q)
    except stability.UnstableError as exc:
        return None, _result(name, "skip",
                             detail=f"parameters not strictly stable ({exc.verdict})")
    return q, None


def check_representation_equivalence(p: SystemParams | None = None) -> dict:
    """c_qq_total vs the (j_eff, beta_eff) integral at t in {0, 0.5, 1, 5}."""
    q, skip = _white_noise_point("representation-equivalence", p,
                                 "correlations vanish at gamma_m = 0")
    if skip:
        return skip
    worst = 0.0
    for t in (0.0, 0.5, 1.0, 5.0):
        a = correlation.c_qq_total(t, q)
        b = correlation.c_qq_representation(t, q)
        worst = max(worst, abs(a - b) / abs(b))
    return _passfail("representation-equivalence", worst <= 1e-3, worst, 1e-3,
                     f"worst relative mismatch {worst:.2e}")


def check_variance_consistency(p: SystemParams | None = None, *, seed: int) -> dict:
    """Lyapunov <Q^2> vs the spectral integral, then 1000 Monte Carlo trajectories vs Lyapunov."""
    t0 = time.monotonic()
    q, skip = _white_noise_point("variance-consistency", p,
                                 "no steady covariance at gamma_m = 0")
    if skip:
        return skip
    v = correlation.lyapunov_covariance(q)
    c0 = correlation.c_qq_representation(0.0, q).real
    spectral = q.omega_m * c0
    rel = abs(v[0, 0] - spectral) / spectral

    mc = correlation.langevin_trajectory(q, seed=seed, duration=200.0, dt=0.05, n_traj=1000)
    dev = abs(mc.second[0] - v[0, 0]) / mc.stderr[0]
    elapsed = time.monotonic() - t0
    ok = rel <= 1e-3 and dev <= 3.0 and elapsed <= 120.0
    return _passfail(
        "variance-consistency", ok, rel, 1e-3,
        f"lyapunov/spectral rel err {rel:.2e}, MC deviation {dev:.2f} sigma, "
        f"elapsed {elapsed:.1f}s",
    )


def check_reduction_chain(p: SystemParams | None = None) -> dict:
    """beta_eff(gamma_m=0) = beta_opt, eta_eff(gamma_m=0) = eta_opt,
    beta_eff(g_c=0) = beta, each to 1e-12 on a 100-point grid."""
    q = p if p is not None else fig1_cooled()
    if q.delta_c >= 0:
        return _result("reduction-chain", "skip", detail="requires red detuning")
    grid = spectrum.default_grid(q, n=100)
    cooled = replace(q, gamma_m=0.0, g_c=q.g_c if q.g_c > 0 else 0.45)
    opt = spectrum.beta_opt(grid, cooled)
    worst = float(np.max(np.abs(spectrum.beta_eff(grid, cooled) - opt) / np.abs(opt)))
    eta_rel = abs(spectrum.eta_eff(cooled) - spectrum.eta_opt(cooled)) / spectrum.eta_opt(cooled)
    bare = replace(q, g_c=0.0, gamma_m=q.gamma_m if q.gamma_m > 0 else 1e-6)
    worst_bare = float(np.max(np.abs(spectrum.beta_eff(grid, bare) - bare.beta) / bare.beta))
    worst_all = max(worst, eta_rel, worst_bare)
    return _passfail("reduction-chain", worst_all <= 1e-12, worst_all, 1e-12,
                     f"beta_opt {worst:.2e}, eta {eta_rel:.2e}, bare {worst_bare:.2e}")


def check_lowfreq_bandwidth(p: SystemParams | None = None) -> dict:
    """Net thermalization rate below 0.5*omega_m: cooled vs bare > 1e3.

    The net rate gamma_minus - gamma_plus = 4 g_a^2 omega_m j_eff measures
    how fast the photon mode equilibrates; the cooled bath must dominate the
    bare, resonance-gated one by three decades across the low-frequency band.
    """
    cooled, bare = fig1_cooled(), fig1_bare()
    grid = spectrum.default_grid(cooled)
    grid = grid[grid < 0.5 * cooled.omega_m]
    tables = [rates.compute_rates(q, grid) for q in (cooled, bare)]
    cooled_net, bare_net = (float(np.sum(t.gamma_minus - t.gamma_plus)) for t in tables)
    ratio = cooled_net / bare_net
    return _passfail("lowfreq-bandwidth", ratio > 1e3, ratio, 1e3,
                     f"net-rate ratio {ratio:.3e} over {len(grid)} points")


CHECKS = (
    check_temperature_reduction,
    check_threshold_identity,
    check_flat_detuning,
    check_detailed_balance,
    check_stability_oracle,
    check_representation_equivalence,
    check_variance_consistency,
    check_reduction_chain,
    check_lowfreq_bandwidth,
)


def run_checks(p: SystemParams | None = None, *, seed: int) -> dict:
    """Run every registered check and assemble the machine-readable report."""
    results = []
    for check in CHECKS:
        if check in (check_stability_oracle, check_variance_consistency):
            results.append(check(p, seed=seed))
        else:
            results.append(check(p))
    passed = all(r["status"] != "fail" for r in results)
    return {
        "passed": passed,
        "seed": seed,
        "params": (p if p is not None else fig1_cooled()).to_dict(),
        "checks": results,
    }
