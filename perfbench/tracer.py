"""Span tracing of hanlesim's layers from outside the package.

``install`` rebinds every public function of the layer modules (and the
numpy.linalg kernels they call) to a wrapper that records a span: name,
start, end, parent span and op id.  Every module binding of a function is
rebound, e.g. both ``dynamics.switched_transient`` and
``cli.switched_transient``, so a call is seen whichever name it goes
through.  Spans are kept in memory; ``per_layer`` reduces them to call
counts and self times (duration minus the time covered by direct children)
for each pass.  A few wrappers also add counts taken from arguments or results.

The tracer records only while ``active`` is true, so the benchmark's own
checks, which call the same functions, leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.linalg._linalg as _np_linalg_impl

#: hanlesim modules whose public functions form the layers; cli contributes only main
LAYER_MODULES = ("angular", "liouvillian", "dynamics", "spectral", "fit", "traceio")
#: numpy.linalg kernels traced as the ``linalg`` layer
LINALG_KERNELS = ("eig", "eigvalsh", "solve", "svd")


def _count_fit(counters, args, kwargs, result):
    counters["fit.fit.iterations"] += result.iterations
    counters["fit.fit.converged"] += bool(result.converged)


def _count_render(counters, args, kwargs, result):
    counters["traceio.render.bytes"] += len(result.encode("utf-8"))


def _count_steps(counters, args, kwargs, result):
    trace = result[0] if isinstance(result, tuple) else result
    counters["dynamics.propagate_integrated.steps"] += trace.times.size - 1


def _count_eig(counters, args, kwargs, result):
    shape = np.shape(args[0])
    counters["linalg.eig.n3"] += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3


#: extra counts per traced name; render_fit and render_table are the only
#: renderers that produce text themselves (render_trace/sweep go through render_table)
COUNTERS = {
    "fit.fit": _count_fit,
    "traceio.render_fit": _count_render,
    "traceio.render_table": _count_render,
    "dynamics.propagate_integrated": _count_steps,
    "linalg.eig": _count_eig,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counters = defaultdict(int)
        self.active = False
        self.op = None
        self._stack = []
        self._restore = []

    def wrap(self, name, func):
        count = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def _rebind(self, targets, name, func):
        wrapper = self.wrap(name, func)
        for module in targets:
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        """Rebind the layer functions in every loaded hanlesim module and numpy.linalg."""
        package = [m for n, m in sys.modules.items() if n == "hanlesim" or n.startswith("hanlesim.")]
        for short in LAYER_MODULES:
            module = sys.modules[f"hanlesim.{short}"]
            for attr, value in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    self._rebind(package, f"{short}.{attr}", value)
        self._rebind(package, "cli.main", sys.modules["hanlesim.cli"].main)
        for kernel in LINALG_KERNELS:
            self._rebind([np.linalg, _np_linalg_impl], f"linalg.{kernel}", getattr(np.linalg, kernel))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def per_layer(self) -> dict:
        """{pass index: {name: {"calls", "self_s"}}}, op ids being (pass index, op index)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, parent, op), covered in zip(self.spans, child_time):
            entry = out.setdefault(op[0], {}).setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered
        return out
