"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op). Spans are recorded only from this
directory: around the benchmark's own calls into the CLI, and by wrappers
that ``instrument`` installs over a fixed list of the library's public
functions for the length of the traced run. Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, op id, attrs]
        self._stack = []
        self.op = None
        self._patches = []   # (namespace dict, attribute, value before patching)

    @contextmanager
    def span(self, name, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, keep, attrs_of, attrs_after):
        def wrapper(*args, **kwargs):
            if keep is not None and not keep(args, kwargs):
                return fn(*args, **kwargs)
            with self.span(name, **(attrs_of(args, kwargs) if attrs_of else {})) as record:
                result = fn(*args, **kwargs)
                if attrs_after:
                    record[5].update(attrs_after(result))
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def instrument(self, module_name, attr, name, keep=None, attrs_of=None,
                   attrs_after=None):
        """Wrap ``module.attr`` wherever an optobath module has bound it.

        ``from .x import f`` copies the function into the importing module,
        so every loaded ``optobath`` namespace holding the same object is
        patched. ``keep(args, kwargs)`` filters which calls get a span;
        ``attrs_of(args, kwargs)`` and ``attrs_after(result)`` add fields to it.
        """
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrap(original, name, keep, attrs_of, attrs_after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "optobath" or mod_name.startswith("optobath.")):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    replaced = wrapper
                elif isinstance(value, tuple) and any(v is original for v in value):
                    # registries such as validate.CHECKS hold the function too
                    replaced = tuple(wrapper if v is original else v for v in value)
                else:
                    continue
                self._patches.append((space, key, value))
                space[key] = replaced
        return original, wrapper

    def restore(self):
        for space, key, original in reversed(self._patches):
            space[key] = original
        self._patches.clear()

    def closed(self, name, workload=None):
        """Finished spans called ``name``, optionally only those of one workload's ops."""
        return [s for s in self.spans
                if s[0] == name and s[2] is not None
                and (workload is None or (s[4] or "").startswith(workload + "/"))]

    def durations(self, name, workload=None):
        return [s[2] - s[1] for s in self.closed(name, workload)]

    def self_times(self):
        """Span duration minus the time its direct children cover, per span."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0 and s[2] is not None:
                child[s[3]] += s[2] - s[1]
        out = {}
        for i, s in enumerate(self.spans):
            if s[2] is not None:
                out.setdefault(s[0], []).append(s[2] - s[1] - child[i])
        return out

    def summary(self):
        """Per span name: calls, median busy time, median self time."""
        selfs = self.self_times()
        table = {}
        for name in sorted(selfs):
            busy = self.durations(name)
            table[name] = {
                "calls": len(busy),
                "busy_s.p50": statistics.median(busy),
                "self_s.p50": statistics.median(selfs[name]),
                "busy_s.total": sum(busy),
            }
        return table

    def write(self, path, header):
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [
            {"name": s[0], "start": s[1] - t0, "end": s[2] - t0, "parent": s[3],
             "op": s[4], **s[5]}
            for s in self.spans if s[2] is not None
        ]
        with open(path, "w") as fh:
            json.dump({**header, "summary": self.summary(), "spans": rows}, fh)
