"""Reference kernels that put op times in machine-independent units.

On a shared machine the same op can take 50-75% longer for tens of seconds
at a time, longer than one run, and CPU time drifts with wall time, so
medians alone cannot steady the figures. A slow phase does not slow all
code alike: interpreted Python, small numpy calls and array streaming each
suffer differently. Each workload therefore has a small kernel that mirrors
the kind of work its op does, written here without calling optobath, and
times it between consecutive ops. Each op's time is scaled by
``REFERENCE_S[kind] / (kernel time around that op)``. The result is in
reference seconds: seconds on a machine where the kernel takes
``REFERENCE_S[kind]``. A change to the program cannot move a kernel.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel times on a 2-core x86-64 Xeon VM (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31) that the first baselines were taken on, in a quiet phase.
REFERENCE_S = {"scalar": 1.6e-3, "stream": 2.2e-2, "mixed": 2.4e-2, "langevin": 2.6e-2}


class Reference:
    def __init__(self, kind, reps=3):
        rng = np.random.default_rng(20240801)
        self.kind = kind
        self.reps = reps
        self.reference_s = REFERENCE_S[kind]
        self._mats = rng.standard_normal((64, 6, 6))
        self._w = np.geomspace(1e-6, 1e3, 30000)
        self._t = np.arange(20.0)[:, None] * 0.37
        self._step = np.eye(4) + 0.002 * rng.standard_normal((4, 4))
        self._rng = rng

    def _scalar(self):
        """Per-point scalar math in the interpreter, then small eigenproblems."""
        s = 0.0
        for i in range(1, 1000):
            x = np.float64(i) * 1e-2
            s += float(np.log1p(x / (1.0 + x * x)) / x) + math.expm1(-x)
        np.linalg.eigvals(self._mats)
        return s

    def _stream(self):
        """cos/sin over a (times x frequencies) table and trapezoid sums,
        plus one fresh 40 MB array: temporaries that large are mapped and
        faulted in anew on every call, which is a third of a series op."""
        phase = self._w[None, :] * self._t
        re = np.trapezoid(np.cos(phase), self._w, axis=1)
        im = np.trapezoid(np.sin(phase), self._w, axis=1)
        return float(re.sum() + im.sum() + np.ones(5_000_000).sum())

    def _langevin(self):
        """Euler-Maruyama steps of a small linear SDE ensemble."""
        u = np.zeros((1000, 4))
        acc = np.zeros((1000, 4))
        for _ in range(400):
            u = u @ self._step + self._rng.standard_normal((1000, 4)) * 0.01
            acc += u * u
        return float(acc.sum())

    def _kernel(self):
        if self.kind == "scalar":
            return self._scalar()
        if self.kind == "stream":
            return self._stream()
        if self.kind == "mixed":
            return self._stream() + self._scalar()
        return self._langevin()

    def sample(self):
        """Fastest of ``reps`` timings of the kernel, in seconds.

        Interrupts and page faults only ever add time, so the minimum
        tracks the machine's current speed with the least jitter.
        """
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return min(times)

    def scale(self, before, after):
        return self.reference_s / (0.5 * (before + after))
