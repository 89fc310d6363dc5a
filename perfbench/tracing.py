"""Spans around the calls into tvtrend's layers, recorded from outside.

Every public function of the six layer modules is wrapped wherever a module
of the package binds it: in its own module (so calls inside the module are
seen too) and in every module that imported it by name, such as
``experiments.fit`` or ``sparsity.lambda0``.  A span's self time is its
duration less the durations of the spans it encloses.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("estimator", "experiments", "theory", "diffops", "sparsity", "interpolants")


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []        # (name, start, end, index of the enclosing span or -1)
        self.fit_iters = 0
        self.fit_returned = 0
        self.fit_kkt_max = 0.0
        self.dictionary_bytes = 0
        self._stack = []       # [span index, time covered by child spans]
        self._patched = []     # (module, attribute, original)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent)
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
            self._observe(name, out)
            return out

        return traced

    def _observe(self, name, out):
        if name == "estimator.fit":
            self.fit_returned += 1
            self.fit_iters += out.iters
            self.fit_kkt_max = max(self.fit_kkt_max, out.kkt_residual)
        elif name == "diffops.block_dictionary":
            self.dictionary_bytes += out.columns.nbytes

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"tvtrend.{layer}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "tvtrend" and not modname.startswith("tvtrend."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def stat(self, name):
        return self.stats.get(name, Stat())
