"""Closed-loop benchmark of optobath: one client, one op in flight.

Usage, from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

The workloads and metrics are declared in BENCHMARK.json and described in
perfbench/README.md. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it is a fuller report (all six end-to-end
figures with their sample counts, provenance, the span summary).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
# BLAS threads are fixed before numpy loads; never more than the cores we may use.
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

P90_MIN_OPS = 100


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_library():
    src = ROOT / "src"
    if not (src / "optobath" / "__init__.py").is_file():
        raise BenchError(f"no optobath sources under {src}")
    sys.path.insert(0, str(src))
    import optobath

    if Path(optobath.__file__).resolve().parent != (src / "optobath").resolve():
        raise BenchError(f"imported optobath from {optobath.__file__}, not {src}")
    return optobath


def provenance(seed, sizes):
    import numpy
    import scipy
    import optobath

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "optobath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "sizes": sizes,
        "optobath": optobath.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
    }


def git_commit():
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def percentile(values, q):
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def end_to_end(ops, setup, verdicts):
    """The six end-to-end figures, in reference seconds (see calib.py)."""
    busy = sum(op["latency"] * op["scale"] for op in ops)
    latencies = [op["latency"] * op["scale"] for op in ops]
    p90 = percentile(latencies, 0.9) if len(ops) >= P90_MIN_OPS else None
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (sum(op["verdict"].ok for op in ops) / busy, "1/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.p90": (p90, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "fail_ratio": (sum(not v.ok for v in verdicts) / len(verdicts), "ratio"),
    }


def wall_clock(ops, setup_wall):
    """The same time figures in plain wall-clock seconds, for the report."""
    return {
        "setup_s": setup_wall,
        "ops_per_s": sum(op["verdict"].ok for op in ops) / sum(op["latency"] for op in ops),
        "op_s.p50": statistics.median(op["latency"] for op in ops),
        "scale.p50": statistics.median(op["scale"] for op in ops),
    }


def fresh_import():
    """Import optobath anew (its dependencies stay loaded); return workloads.

    The benchmark's workloads module is dropped with it, so that it binds
    the new modules.
    """
    for name in [n for n in sys.modules
                 if n == "optobath" or n.startswith("optobath.") or n == "workloads"]:
        del sys.modules[name]
    import workloads

    return workloads


def run(workload, seed, seconds, trace, sizes_name="full", corrupt_first=False):
    """Run one benchmark pass; return (result line dict, report dict)."""
    load_library()
    from calib import Reference

    t_import = time.perf_counter() - T_START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    W = fresh_import()
    cls = W.WORKLOADS[workload]
    sizes = W.TINY if sizes_name == "tiny" else W.FULL
    reference = Reference(cls.reference)

    # Set-up is importing optobath, generating the inputs and one warm-up op,
    # repeated; each repeat is scaled by the reference samples around it. The
    # first load of numpy and scipy is reported as import_s but left out:
    # no commit of this repository changes it, and its time swings with the
    # machine in a way no kernel tracks.
    setups, before = [], reference.sample()
    for _ in range(cls.setup_reps):
        t0 = time.perf_counter()
        W = fresh_import()
        wl = W.WORKLOADS[workload](seed, sizes)
        pool = wl.make_inputs()
        wl.op(pool[0], None)
        elapsed = time.perf_counter() - t0
        after = reference.sample()
        setups.append((elapsed, reference.scale(before, after)))
        before = after
    setup = statistics.median(t * k for t, k in setups)
    setup_wall = statistics.median(t for t, _ in setups)

    ops = W.timed_loop(wl, pool, seconds, reference, corrupt_first=corrupt_first)
    report = {"workload": workload, "trace": trace, "ops": len(ops), "import_s": t_import,
              "setup_runs_s": [t for t, _ in setups]}
    if trace:
        import layers

        metrics, verdicts, extra_report = layers.traced(
            W, wl, pool, ops, seconds, reference, seed, sizes, corrupt_first, NPROC, ROOT)
        report.update(extra_report)
        declared = spec["per_layer"]
    else:
        verdicts = [op["verdict"] for op in ops] + wl.run_checks()
        metrics = end_to_end(ops, setup, verdicts)
        report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["wall_clock"] = wall_clock(ops, setup_wall)
        report["op_latencies_s"] = [op["latency"] for op in ops]
        report["op_scales"] = [op["scale"] for op in ops]
        declared = spec["end_to_end"]
    report["known_defects"] = wl.known_defects(ops, trace)
    report["failures"] = sorted({v.detail for v in verdicts if not v.ok})[:20]
    report["provenance"] = provenance(seed, sizes)

    out = {}
    for m in declared:
        value, unit = metrics.get(m["name"], (None, None))
        if value is None or unit != m["unit"]:
            raise BenchError(f"metric {m['name']} not measured with unit {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    line = {
        "correct": all(v.ok for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(not v.ok for v in verdicts),
        "metrics": out,
    }
    return line, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "series-uniform", "series-irregular", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    os.chdir(ROOT)
    sys.exit(main())
