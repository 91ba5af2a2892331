"""The traced run: spans around each layer's public functions, per-layer metrics.

A traced run of workload W first repeats W's timed loop without tracing, then
with the wrappers below installed, so the two rates give the tracing
overhead. Every per-layer metric is printed on every workload: a layer that
W never calls is measured on a few ops of its home workload, run traced after
W's loop. Metrics taken from spans prefer W's own ops.
"""

from __future__ import annotations

import inspect
import statistics
import time

import numpy as np

from spans import Tracer

# Per-pair cost of the trapezoid evaluation of C(t) on a (times x freqs)
# table, counted from array sizes: phase product, cos, sin, two weightings,
# two multiply-add reductions; five float64 temporaries of that table.
SERIES_FLOPS_PER_PAIR = 9
SERIES_BYTES_PER_PAIR = 5 * 8

THREAD_PROBE_POINTS = 3

# Where a span name is measured when the traced workload never calls it:
# the workload the metric is meant to move on.
HOME = {
    "cli": "figures", "spectrum.compute_spectrum": "figures",
    "rates.compute_rates": "figures", "stability.stability_map": "figures",
    "rates.gamma_rates": "validate", "cli.validate": "validate", "validate": "validate",
    "correlation.langevin": "validate",
    "response.chi_q_inv": "series-uniform", "correlation.series": "series-uniform",
}
DEFAULT_HOME = "series-irregular"   # adaptive quadrature and the c_qq_* oracles


def home_of(name):
    for prefix in (name, name.split(".")[0]):
        if prefix in HOME:
            return HOME[prefix]
    return DEFAULT_HOME


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


def instrument(tracer):
    """Install the span wrappers; return the validate check span names."""
    from optobath import correlation, validate

    def nan_rows(table):
        bad = np.isnan(table.n_bar) | np.isnan(table.n_bar_lossy)
        return {"nan_rows": int(bad.sum())}

    series_args = _bound(correlation.correlation_series)
    langevin_args = _bound(correlation.langevin_trajectory)

    def series_attrs(args, kwargs):
        a = series_args(args, kwargs)
        return {"n_times": int(np.size(a["times"])), "n_freq_arg": int(a["n_freq"])}

    def langevin_attrs(args, kwargs):
        a = langevin_args(args, kwargs)
        return {"traj_steps": int(a["n_traj"]) * int(round(a["duration"] / a["dt"]))}

    table = [
        ("optobath.spectrum", "compute_spectrum", "spectrum.compute_spectrum", {}),
        ("optobath.spectrum", "damping_kernel", "spectrum.damping_kernel", {}),
        ("optobath.rates", "compute_rates", "rates.compute_rates",
         {"attrs_after": nan_rows}),
        ("optobath.rates", "gamma_rates", "rates.gamma_rates", {}),
        ("optobath.stability", "stability_map", "stability.stability_map",
         {"attrs_after": lambda m: {"cells": int(np.size(m.abscissa))}}),
        ("optobath.response", "chi_q_inv", "response.chi_q_inv",
         {"keep": lambda a, k: np.size(a[0]) >= 1000,
          "attrs_of": lambda a, k: {"size": int(np.size(a[0]))}}),
        ("optobath.correlation", "correlation_series", "correlation.series",
         {"attrs_of": series_attrs}),
        ("optobath.correlation", "c_qq_total", "correlation.c_qq_total", {}),
        ("optobath.correlation", "c_qq_representation", "correlation.c_qq_representation", {}),
        ("optobath.correlation", "langevin_trajectory", "correlation.langevin",
         {"attrs_of": langevin_attrs}),
        ("optobath._quad", "breakpoints", "quad.breakpoints", {}),
        ("optobath._quad", "spectral_integral", "quad.spectral_integral", {}),
    ]
    check_names = []
    for fn in validate.CHECKS:
        name = "validate." + fn.__name__.removeprefix("check_").replace("_", "-")
        table.append(("optobath.validate", fn.__name__, name, {}))
        check_names.append(name)
    for module, attr, name, opts in table:
        tracer.instrument(module, attr, name, **opts)
    return check_names


def thread_probes(W, seed, sizes, tracer, nproc):
    """Wall time of CLI spectrum/rates at --threads T over --threads 1.

    T is 2, or fewer when fewer cores are available. The two settings
    alternate on the same points; their outputs must be byte-identical.
    """
    threads = min(2, nproc)
    fig = W.Figures(seed, sizes)
    rng = fig.rng(1)
    points = [fig.make_input(rng, i) for i in range(THREAD_PROBE_POINTS)]
    times = {("spectrum", 1): [], ("spectrum", threads): [], ("rates", 1): [],
             ("rates", threads): []}
    verdicts = []
    for inp in points:
        argvs = fig.argvs(inp["flags"])
        for cmd in ("spectrum", "rates"):
            texts = {}
            for n in (1, threads, 1, threads):
                t0 = time.perf_counter()
                rc, text, _ = W.call_cli(argvs[cmd] + ["--threads", str(n)], tracer,
                                         f"cli.{cmd}.threads{n}")
                times[(cmd, n)].append(time.perf_counter() - t0)
                texts.setdefault(n, set()).add((rc, text))
            same = len(texts[1] | texts[threads]) == 1
            verdicts.append(W.Verdict(same, "" if same else f"{cmd} --threads {threads} "
                                      "output differs from --threads 1"))
    ratios = {cmd: statistics.median(times[(cmd, threads)]) / statistics.median(times[(cmd, 1)])
              for cmd in ("spectrum", "rates")}
    return ratios, threads, verdicts


def traced(W, wl, pool, plain_ops, seconds, reference, seed, sizes, corrupt_first,
           nproc, root):
    """Traced pass for workload ``wl``; returns (metrics, verdicts, report)."""
    tracer = Tracer()
    check_names = instrument(tracer)
    try:
        ops = W.timed_loop(wl, pool, seconds, reference, tracer, corrupt_first)
        cross = []
        for name, cls in W.WORKLOADS.items():
            if name == wl.name:
                continue
            other = cls(seed, sizes)
            other_pool = other.make_inputs()
            done = []
            for i in range(cls.cross_ops):
                tracer.op = f"{name}/x{i}"
                out = other.op(other_pool[i], tracer)
                done.append({"id": tracer.op, "input": other_pool[i], "output": out,
                             "error": None})
            W.check_ops(other, done, tracer)
            cross += done
        ratios, threads, probe_verdicts = thread_probes(W, seed, sizes, tracer, nproc)
    finally:
        tracer.restore()

    every = plain_ops + ops + cross
    verdicts = [op["verdict"] for op in every] + probe_verdicts

    plain_rate = len(plain_ops) / sum(op["latency"] * op["scale"] for op in plain_ops)
    traced_rate = len(ops) / sum(op["latency"] * op["scale"] for op in ops)
    metrics = layer_metrics(tracer, wl.name, check_names, ratios, every)
    metrics["trace.overhead_ratio"] = (traced_rate / plain_rate, "ratio")

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(trace_path, {"workload": wl.name, "seed": seed})
    report = {
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "thread_probe_threads": threads,
        "span_summary": tracer.summary(),
        "trace_file": str(trace_path.relative_to(root)),
    }
    return metrics, verdicts, report


def layer_metrics(tracer, home, check_names, ratios, ops):
    index = {id(s): i for i, s in enumerate(tracer.spans)}

    def spans(name):
        found = tracer.closed(name, home) or tracer.closed(name, home_of(name))
        if not found:
            raise LookupError(f"no {name} span recorded")
        return found

    def busy(name):
        return statistics.median(s[2] - s[1] for s in spans(name))

    m = {}
    for name in ("cli.spectrum", "cli.rates", "cli.stability", "cli.validate",
                 "spectrum.compute_spectrum", "spectrum.damping_kernel",
                 "rates.compute_rates", "rates.gamma_rates", "stability.stability_map",
                 "response.chi_q_inv", "correlation.series", "correlation.c_qq_total",
                 "correlation.c_qq_representation", "quad.breakpoints",
                 "quad.spectral_integral", *check_names):
        m[name + "_s"] = (busy(name), "s")

    cli_spans = [s for c in ("cli.spectrum", "cli.rates", "cli.stability") for s in spans(c)]
    m["cli.refusals"] = (sum(s[5]["rc"] != 0 for s in cli_spans), "count")
    per_op = {}
    for s in cli_spans:
        per_op[s[4]] = per_op.get(s[4], 0) + s[5]["bytes_out"]
    m["cli.bytes_out"] = (statistics.median(per_op.values()), "B")
    m["cli.spectrum.threads_ratio"] = (ratios["spectrum"], "ratio")
    m["cli.rates.threads_ratio"] = (ratios["rates"], "ratio")

    m["rates.nan_rows"] = (statistics.median(s[5]["nan_rows"] for s in spans("rates.compute_rates")),
                           "count")
    m["stability.cells_per_s"] = (
        statistics.median(s[5]["cells"] / (s[2] - s[1]) for s in spans("stability.stability_map")),
        "1/s")

    freq = {}
    for s in tracer.spans:
        if s[0] == "response.chi_q_inv" and s[3] >= 0 and s[2] is not None:
            freq.setdefault(s[3], s[5]["size"])
    pairs = [(s[5]["n_times"] * freq.get(index[id(s)], s[5]["n_freq_arg"]), s[2] - s[1])
             for s in spans("correlation.series")]
    n_pairs = statistics.median(p for p, _ in pairs)
    m["correlation.series.pairs"] = (n_pairs, "count")
    m["correlation.series.pairs_per_s"] = (statistics.median(p / t for p, t in pairs), "1/s")
    m["correlation.series.flops"] = (SERIES_FLOPS_PER_PAIR * n_pairs, "flop")
    m["correlation.series.bytes_computed"] = (SERIES_BYTES_PER_PAIR * n_pairs, "B")

    steps = statistics.median(s[5]["traj_steps"] for s in spans("correlation.langevin"))
    m["correlation.langevin.traj_steps"] = (steps, "count")
    m["correlation.langevin.steps_per_s"] = (steps / busy("validate.variance-consistency"), "1/s")

    failed_checks = [op["verdict"].counts["failed_checks"] for op in ops
                     if op["id"].startswith("validate/") and op["verdict"].counts]
    m["validate.failed_checks"] = (statistics.median(failed_checks), "count")
    return m
