"""The four benchmark workloads: inputs from a seed, one op, and its output check.

Each workload is one user path. An op is what a user waits for; its output
is checked after the timed loop, against a route that does not share the
code under test where one exists (golden bytes, the library against the
CLI, adaptive quadrature against the fixed-grid series, the validate gates).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import optobath as ob
from optobath import cli, correlation, spectrum
from optobath.validate import fig1_cooled


GOLDEN = {
    "fig1_cooled_spectrum.csv": ["spectrum", "--preset", "fig1-cooled"],
    "fig1_bare_spectrum.csv": ["spectrum", "--preset", "fig1-bare"],
    "fig1_cooled_rates.csv": ["rates", "--preset", "fig1-cooled"],
    "fig1_bare_rates.csv": ["rates", "--preset", "fig1-bare"],
    "fig3_spectrum.csv": ["spectrum", "--preset", "fig3"],
}

# SystemParams field -> CLI override flag (the CLI's documented spellings).
_FLAGS = {"g_a": "--ga", "g_c": "--gc"}

FULL = {"grid": 400, "raster": 50, "uniform_times": 1001, "irregular_times": 300,
        "irregular_probes": 4}
TINY = {"grid": 40, "raster": 10, "uniform_times": 101, "irregular_times": 30,
        "irregular_probes": 2}


class Verdict:
    __slots__ = ("ok", "detail", "counts")

    def __init__(self, ok, detail="", counts=None):
        self.ok, self.detail = bool(ok), detail
        self.counts = counts or {}


def call_cli(argv, tracer=None, span=None):
    """Run ``optobath <argv>`` in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        record = stack.enter_context(tracer.span(span)) if tracer and span else None
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        rc = cli.main(argv)
        if record is not None:
            record[5].update(rc=rc, bytes_out=len(out.getvalue()))
    return rc, out.getvalue(), err.getvalue()


def param_flags(p):
    flags = []
    for key, value in p.to_dict().items():
        flags += [_FLAGS.get(key, "--" + key.replace("_", "-")), repr(float(value))]
    return flags


def qc_abscissa(p):
    """Spectral abscissa of the 4x4 (Q, P, X_c, Y_c) drift matrix.

    Built here from the equations of motion rather than taken from
    ``optobath.stability``, so the refusal check does not trust the code it
    checks.
    """
    a = np.array([
        [0.0, p.omega_m, 0.0, 0.0],
        [-p.omega_m, -p.gamma_m, 2.0 * p.g_c, 0.0],
        [0.0, 0.0, -p.kappa_c / 2.0, -p.delta_c],
        [2.0 * p.g_c, 0.0, p.delta_c, -p.kappa_c / 2.0],
    ])
    return float(np.max(np.linalg.eigvals(a).real))


def _red_threshold(delta_c, kappa_c, omega_m=1.0):
    """g_c_max of the red-detuned point with the same |delta_c| (closed form)."""
    r2 = delta_c**2 + kappa_c**2 / 4.0
    return math.sqrt(omega_m * r2 / (4.0 * abs(delta_c)))


def _is_named_refusal(exc):
    return type(exc).__module__.startswith("optobath")


class Workload:
    name = ""
    setup_reps = 3
    cross_ops = 1        # ops run for this workload in another workload's traced pass
    pool_size = 64
    reference = "scalar"  # calib.Reference kernel that mirrors the op's work

    def __init__(self, seed, sizes):
        self.seed = seed
        self.sizes = sizes

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])

    def make_inputs(self):
        rng = self.rng(0)
        return [self.make_input(rng, i) for i in range(self.pool_size)]

    def make_input(self, rng, i):
        raise NotImplementedError

    def op(self, inp, tracer):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError

    def run_checks(self):
        """Checks made once per run, each counted as one attempted item."""
        return []

    def known_defects(self, ops, traced):
        """Known program defects this run reproduced, for the report line.

        Each is a defect of the library that the timed ops do not go
        through, or one the checks route round by a stated reference; it is
        probed or counted here so that it stays visible until it is fixed.
        None of it counts in ``attempted`` or ``failed``.
        """
        return {}

    def corrupt(self, inp, out):
        """Return ``out`` with one checked value changed, for the self-test."""
        raise NotImplementedError


class Figures(Workload):
    name = "figures"
    setup_reps = 5
    cross_ops = 2
    pool_size = 256

    def make_input(self, rng, i):
        # Working points cycle through the 16 corners of the documented
        # sweep (red/blue detuning, g_c below/above threshold, kappa_a zero or
        # not, gamma_m zero or not) in a fixed order, so every run of a given
        # length holds the same mix; the seed draws the values inside a corner.
        k = i % 16
        blue, above, lossy, thermal = k & 1, (k >> 1) & 1, (k >> 2) & 1, (k >> 3) & 1
        base = fig1_cooled()
        mag = rng.uniform(0.8, 1.2)
        threshold = _red_threshold(mag, base.kappa_c)
        frac = rng.uniform(1.05, 1.3) if above else rng.uniform(0.2, 0.95)
        p = replace(
            base,
            delta_c=mag if blue else -mag,
            g_c=frac * threshold,
            g_a=rng.uniform(0.05, 0.6),
            delta_a=rng.uniform(-3.0, -1.0),
            kappa_a=rng.uniform(0.1, 1.0) if lossy else 0.0,
            gamma_m=1e-6 * rng.uniform(0.5, 2.0) if thermal else 0.0,
        )
        return {"params": p, "flags": param_flags(p)}

    def argvs(self, flags):
        n, m = str(self.sizes["grid"]), str(self.sizes["raster"])
        return {
            "spectrum": ["spectrum", *flags, "--grid-count", n],
            "rates": ["rates", *flags, "--grid-count", n],
            "stability": ["stability", *flags, "--count1", m, "--count2", m],
        }

    def op(self, inp, tracer):
        return {cmd: call_cli(argv, tracer, "cli." + cmd)
                for cmd, argv in self.argvs(inp["flags"]).items()}

    def library(self, p):
        """The library's rows for the same parameters and grids as the CLI."""
        n, m = self.sizes["grid"], self.sizes["raster"]
        grid = np.logspace(math.log10(1e-4), math.log10(4.0), n)
        return {
            "spectrum": lambda: ob.compute_spectrum(p, grid).to_csv(),
            "rates": lambda: contract_rates(p, grid),
            "stability": lambda: ob.stability_map(
                p, "g_c", np.linspace(0.0, 0.7, m), "g_a", np.linspace(0.0, 0.6, m)
            ).to_csv(),
        }

    def check(self, inp, out):
        p = inp["params"]
        problems, counts = [], {"api_lossy_gap_rows": 0}
        for cmd, make in self.library(p).items():
            rc, text, err = out[cmd]
            try:
                expected, refusal = make(), None
            except Exception as exc:  # a named library refusal is checked below
                expected, refusal = None, exc
            if cmd == "rates" and refusal is None:
                expected, counts["api_lossy_gap_rows"] = expected
            if rc == 0 and refusal is None:
                if text != expected:
                    problems.append(f"{cmd}: CLI rows differ from library rows")
            elif rc != 0 and refusal is not None:
                if not (qc_abscissa(p) > 0 and err.strip() and _is_named_refusal(refusal)):
                    problems.append(f"{cmd}: refusal at a point not found unstable "
                                    f"({type(refusal).__name__}: {refusal})")
            else:
                problems.append(f"{cmd}: CLI exit {rc} but library "
                                f"{'refused: ' + repr(refusal) if refusal else 'returned rows'}")
        return Verdict(not problems, "; ".join(problems), counts=counts)

    def run_checks(self):
        golden_dir = Path("tests/golden")
        verdicts = []
        for name, argv in GOLDEN.items():
            rc, text, _ = call_cli(argv)
            same = rc == 0 and text.encode() == (golden_dir / name).read_bytes()
            verdicts.append(Verdict(same, "" if same else f"{name} no longer byte-identical"))
        return verdicts

    def known_defects(self, ops, traced):
        gaps = [op["verdict"].counts.get("api_lossy_gap_rows", 0) for op in ops]
        return {"n_bar_lossy_api_gap": {
            "reproduced": any(gaps), "ops": sum(g > 0 for g in gaps), "rows": sum(gaps),
            "detail": "compute_rates leaves n_bar_lossy NaN where occupation_with_loss "
                      "gives a value; the CLI rows carry it"}}

    def corrupt(self, inp, out):
        rc, text, err = out["spectrum"]
        return {**out, "spectrum": (rc, text.replace("e-", "e+", 1), err)}


def contract_rates(p, grid):
    """The library's rate table with the n_bar_lossy hole filled in.

    ``compute_rates`` leaves n_bar_lossy NaN on every row where the lossless
    occupation raises, although ``occupation_with_loss`` gives a value there
    by its own contract (ROADMAP item 4, e.g. blue detuning with
    kappa_a > 0); the CLI fills it in. The reference for the CLI takes the
    value from ``occupation_with_loss`` on those rows. Returns the CSV text
    and the number of rows filled, which is the size of the API's gap.
    """
    table = ob.compute_rates(p, grid)
    filled = 0
    for i in np.flatnonzero(np.isnan(table.n_bar) & np.isnan(table.n_bar_lossy)):
        try:
            value = ob.occupation_with_loss(grid[i], p)
        except ob.NonEquilibriumError:
            continue
        if not math.isnan(value):
            table.n_bar_lossy[i] = value
            filled += 1
    return table.to_csv(), filled


def stable_point(rng, i):
    """Strictly stable red-detuned point for the i-th op of a series workload.

    Every third point has a narrow resonance (weak cooling), the others a
    broad one, and thermal contact alternates. Narrow and broad points cost
    different amounts; an uneven mix keeps the median op inside one group
    instead of on the gap between them. C(t) exists only for a strictly
    stable drift matrix, so points are redrawn until the 4x4 spectral
    abscissa is below -1e-3.
    """
    base = fig1_cooled()
    while True:
        mag = rng.uniform(0.8, 1.2)
        threshold = _red_threshold(mag, base.kappa_c)
        frac = rng.uniform(0.05, 0.15) if i % 3 == 0 else rng.uniform(0.5, 0.9)
        p = replace(base, delta_c=-mag, g_c=frac * threshold,
                    gamma_m=1e-6 * rng.uniform(0.5, 2.0) if i % 2 else 0.0)
        if qc_abscissa(p) < -1e-3:
            return p


# Past t ~ 6*pi / (first quadrature breakpoint), which is above 17 for every
# point stable_point draws, the adaptive c_qq_representation and
# damping_kernel raise one of these.
ADAPTIVE_T_MAX = 15.0
OMEGA_ZERO_ERRORS = ("j_eff requires omega > 0", "beta_eff requires omega > 0")


def series_gap(p, times, values, indices):
    """Worst |series - adaptive c_qq_total| / |C(0)| over the given indices.

    Callers also hold every series value to |C(t)| <= C(0), which the
    Cauchy-Schwarz inequality gives for a stationary autocorrelation.
    """
    c0 = abs(correlation.c_qq_total(0.0, p))
    worst = max(abs(values[k] - correlation.c_qq_total(float(times[k]), p)) for k in indices)
    return worst / c0, c0


class SeriesUniform(Workload):
    name = "series-uniform"
    setup_reps = 3
    pool_size = 32
    reference = "stream"

    def make_input(self, rng, i):
        p = stable_point(rng, i)
        n = self.sizes["uniform_times"]
        times = np.arange(n) * rng.uniform(0.05, 0.2)
        probes = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
        return {"params": p, "times": times, "probes": [0, *map(int, probes)]}

    def op(self, inp, tracer):
        return correlation.correlation_series(inp["params"], inp["times"]).values

    def check(self, inp, out):
        if not np.all(np.isfinite(out)) or len(out) != len(inp["times"]):
            return Verdict(False, "series has non-finite values or wrong length")
        gap, c0 = series_gap(inp["params"], inp["times"], out, inp["probes"])
        bound = np.abs(out).max() / c0
        return Verdict(gap <= 1e-3 and bound <= 1 + 1e-3,
                       f"series vs adaptive {gap:.2e} |C(0)|, max |C(t)| {bound:.6f} |C(0)|")

    def corrupt(self, inp, out):
        out = out.copy()
        out[inp["probes"][1]] += 0.05 * abs(out[0])
        return out


class SeriesIrregular(Workload):
    name = "series-irregular"
    setup_reps = 3
    pool_size = 32
    reference = "mixed"

    def make_input(self, rng, i):
        p = stable_point(rng, i)
        n, k = self.sizes["irregular_times"], self.sizes["irregular_probes"]
        # The adaptive routes are probed at k of the series times, drawn below
        # ADAPTIVE_T_MAX; past it they can hit the defect run_checks records.
        early = rng.uniform(0.0, ADAPTIVE_T_MAX, k)
        times = np.sort(np.concatenate([early, rng.uniform(0.0, 200.0, n - k)]))
        probes = np.searchsorted(times, early)
        return {"params": p, "times": times, "probes": [int(k) for k in probes]}

    def op(self, inp, tracer):
        p, times = inp["params"], inp["times"]
        series = correlation.correlation_series(p, times).values
        at = [float(times[k]) for k in inp["probes"]]
        return {
            "series": series,
            "total": [correlation.c_qq_total(t, p) for t in at],
            "representation": [correlation.c_qq_representation(t, p) for t in at],
            "damping": [spectrum.damping_kernel(t, p) for t in at],
        }

    def check(self, inp, out):
        p = inp["params"]
        series = out["series"]
        if not np.all(np.isfinite(series)) or len(series) != len(inp["times"]):
            return Verdict(False, "series has non-finite values or wrong length")
        if not np.all(np.isfinite(out["damping"])):
            return Verdict(False, "damping kernel not finite")
        c0 = abs(correlation.c_qq_total(0.0, p))
        gap = max(abs(series[k] - c) for k, c in zip(inp["probes"], out["total"])) / c0
        rep = max(abs(a - b) for a, b in zip(out["total"], out["representation"])) / c0
        bound = np.abs(series).max() / c0
        ok = gap <= 1e-3 and rep <= 1e-3 and bound <= 1 + 1e-3
        return Verdict(ok, f"series vs adaptive {gap:.2e}, representation {rep:.2e}, "
                           f"max |C(t)| {bound:.6f} |C(0)|")

    def known_defects(self, ops, traced):
        """The adaptive representation and damping kernel at the longest time.

        At this time the oscillatory rule on the first quadrature segment
        evaluates the integrand at omega = 0, where j_eff and beta_eff raise
        ValueError. The op's own adaptive probes stay below ADAPTIVE_T_MAX.
        """
        inp = self.make_inputs()[0]
        p, t = inp["params"], float(inp["times"][-1])
        found = {}
        for name, fn in (("c_qq_representation", correlation.c_qq_representation),
                         ("damping_kernel", spectrum.damping_kernel)):
            try:
                value = fn(t, p)
            except ValueError as exc:
                found[name] = {"reproduced": str(exc) in OMEGA_ZERO_ERRORS,
                               "detail": f"{name}(t={t:.1f}): {exc}"}
                continue
            found[name] = {"reproduced": False, "detail": f"{name}(t={t:.1f}) = {value!r}"}
        return {"adaptive_long_time": found}

    def corrupt(self, inp, out):
        series = out["series"].copy()
        series[inp["probes"][0]] += 0.05 * np.abs(series).max()
        return {**out, "series": series}


# The CLI's default seed. Every validate op runs it: the Euler-Maruyama
# 3-sigma gate fails at some other seeds (see MC_GATE_SEED), and an op must
# not fail for that.
VALIDATE_SEED = 20240801
# A seed at which variance-consistency's Monte Carlo gate fails, 3.30 sigma,
# while the Lyapunov/spectral part passes: once in 87 ops at derived seeds.
MC_GATE_SEED = 2109704804
_MC_DEVIATION = re.compile(r"MC deviation ([0-9.]+) sigma")


class Validate(Workload):
    name = "validate"
    setup_reps = 2
    pool_size = 16
    reference = "langevin"

    def make_input(self, rng, i):
        return {"seed": VALIDATE_SEED}

    def op(self, inp, tracer):
        return call_cli(["validate", "--preset", "fig1-cooled", "--seed", str(inp["seed"])],
                        tracer, "cli.validate")

    def check(self, inp, out):
        rc, text, err = out
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return Verdict(False, f"exit {rc}, report is not JSON: {err.strip()[:200]}")
        checks = report.get("checks", [])
        bad = [c for c in checks if c.get("status") != "pass"]
        ok = rc == 0 and report.get("passed") is True and not bad and \
            report.get("seed") == inp["seed"] and len(checks) > 0
        counts = {"failed_checks": sum(c.get("status") == "fail" for c in checks)}
        detail = "; ".join(f"{c.get('name')}: {c.get('detail')}" for c in bad)
        return Verdict(ok, "" if ok else f"exit {rc}, not passing: {detail}", counts=counts)

    def known_defects(self, ops, traced):
        """validate at MC_GATE_SEED: does the Monte Carlo gate still fail alone?

        The probe is one more 9 s op, so only traced runs make it.
        """
        if not traced:
            return {"mc_gate_3sigma": {"reproduced": None, "seed": MC_GATE_SEED,
                                       "detail": "probed in traced runs only"}}
        rc, text, _ = self.op({"seed": MC_GATE_SEED}, None)
        checks = json.loads(text).get("checks", [])
        bad = [c for c in checks if c.get("status") != "pass"]
        match = _MC_DEVIATION.search(bad[0].get("detail", "")) if len(bad) == 1 else None
        return {"mc_gate_3sigma": {
            "reproduced": bool(rc == 1 and match and bad[0].get("name") ==
                               "variance-consistency" and float(match.group(1)) > 3.0),
            "seed": MC_GATE_SEED,
            "detail": "; ".join(f"{c.get('name')}: {c.get('detail')}" for c in bad)}}

    def corrupt(self, inp, out):
        rc, text, err = out
        return rc, text.replace('"status": "pass"', '"status": "fail"', 1), err


def timed_loop(wl, pool, seconds, reference, tracer=None, corrupt_first=False):
    """Run ops one at a time until they have taken ``seconds`` in all.

    Each op is checked as soon as it ends, outside its timing, and its
    output is then dropped, so peak memory does not grow with the op count.
    The workload's reference kernel is timed just before and just after
    each op; the op's ``scale`` comes from those two samples.
    """
    done, busy = [], 0.0
    while busy < seconds:
        i = len(done)
        op = {"id": f"{wl.name}/{i}", "input": pool[i % len(pool)], "error": None}
        if tracer:
            tracer.op = op["id"]
        before = reference.sample()
        t0 = time.perf_counter()
        try:
            op["output"] = wl.op(op["input"], tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            op["output"], op["error"] = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        op["latency"] = t1 - t0
        op["scale"] = reference.scale(before, reference.sample())
        check_ops(wl, [op], tracer, corrupt_first and i == 0)
        op["output"] = None
        done.append(op)
        busy += t1 - t0
    return done


def check_ops(wl, ops, tracer=None, corrupt_first=False):
    """Attach a verdict to every op; checks run outside the op's timing."""
    for n, op in enumerate(ops):
        if tracer:
            tracer.op = op["id"]
        if op["error"] is not None:
            op["verdict"] = Verdict(False, op["error"])
            continue
        out = wl.corrupt(op["input"], op["output"]) if corrupt_first and n == 0 else op["output"]
        try:
            op["verdict"] = wl.check(op["input"], out)
        except Exception as exc:  # a check that cannot evaluate the output fails it
            op["verdict"] = Verdict(False, f"check raised {type(exc).__name__}: {exc}")
    if tracer:
        tracer.op = None


WORKLOADS = {w.name: w for w in (Figures, SeriesUniform, SeriesIrregular, Validate)}
