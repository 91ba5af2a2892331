"""Tiny-size self-test of the benchmark harness (about a minute, most of it validate).

    python3 perfbench/selftest.py

Runs every workload at tiny sizes with the first op's output deliberately
corrupted, and one traced run. It checks that each metric declared in
BENCHMARK.json is printed with its unit and a finite value, and that the
corrupted output is counted as a failure that makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets BLAS threads before numpy loads)


def check_line(line, declared, label):
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(line)}")
    names = [m["name"] for m in declared]
    if list(line["metrics"]) != names:
        problems.append(f"{label}: metrics {sorted(set(names) ^ set(line['metrics']))} "
                        "missing or extra")
    for m in declared:
        got = line["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} = {got}")
    if line["failed"] < 1 or line["correct"]:
        problems.append(f"{label}: corrupted output not counted "
                        f"(failed={line['failed']}, correct={line['correct']})")
    return problems


def main():
    os.chdir(run.ROOT)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in ("figures", "series-uniform", "series-irregular", "validate"):
        line, _ = run.run(workload, seed=3, seconds=0.2, trace=False, sizes_name="tiny",
                          corrupt_first=True)
        problems += check_line(line, spec["end_to_end"], f"{workload} --trace 0")
        print(f"selftest: {workload} --trace 0 done", file=sys.stderr)
    line, _ = run.run("series-irregular", seed=3, seconds=0.2, trace=True,
                      sizes_name="tiny", corrupt_first=True)
    problems += check_line(line, spec["per_layer"], "series-irregular --trace 1")
    for p in problems:
        print("selftest FAIL:", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
