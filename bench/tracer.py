"""Span tracer for the per-layer run of the benchmark.

The tracer replaces module-level functions of ``dicke_trimer`` with wrappers
that time each call.  Every binding of a function is replaced, so a call made
through ``oracle.gradient`` or ``spectrum.gradient`` counts as a call of
``meanfield.gradient``.  Nothing under ``src/`` is edited; the bindings are
restored when the traced pass ends.

A span's self time is its duration minus the time of the spans it caused.
Spans are aggregated in memory per name, so a traced pass holds a few numbers
per layer, plus one latency per call for the layers that keep latencies.

The process pool forks its workers, which inherit the wrappers but record into
their own copies of the tracer.  Their numbers never reach the parent: with
``workers > 1`` every layer number covers the parent process only.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time
from collections import Counter

# span name -> (module, attribute); a missing attribute is skipped, so a layer
# deleted from the package reports zero calls instead of breaking the run
LAYERS = {
    "model.coefficients": ("model", "coefficients"),
    "meanfield.energy": ("meanfield", "energy"),
    "meanfield.gradient": ("meanfield", "gradient"),
    "meanfield.hessian": ("meanfield", "hessian"),
    "meanfield.solve_ground_state": ("meanfield", "solve_ground_state"),
    "meanfield.solve_np": ("meanfield", "solve_np"),
    "meanfield.solve_nsp": ("meanfield", "solve_nsp"),
    "meanfield.fsp_branch": ("meanfield", "_solve_fsp_branch"),
    "meanfield.fsp_newton": ("meanfield", "_fsp_newton"),
    "meanfield.fsp_multistart": ("meanfield", "_fsp_multistart"),
    "sweep.refine": ("sweep", "_refine_boundary"),
    "spectrum.build_quadratic": ("spectrum", "build_quadratic"),
    "spectrum.symplectic_eigenvalues": ("spectrum", "symplectic_eigenvalues"),
    "oracle.brute_force_minimize": ("oracle", "brute_force_minimize"),
    "oracle.refine_minimum": ("oracle", "refine_minimum"),
}

# modules searched for bindings of the wrapped functions
MODULES = ("dicke_trimer", "dicke_trimer.model", "dicke_trimer.meanfield",
           "dicke_trimer.spectrum", "dicke_trimer.oracle", "dicke_trimer.sweep",
           "dicke_trimer.verify")

# per-call latencies are kept for these spans only
LATENCY = ("meanfield.solve_ground_state",)

# calls of any span made while one of these spans is open are also counted
# under (scope, name)
SCOPES = ("sweep.refine",)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.latencies = {name: [] for name in LATENCY}
        self.nested = Counter()
        self.pool = Counter()
        self._open = Counter()
        self._child_s = []  # one accumulator per open span

    def _wrap(self, name, fn):
        clock = time.perf_counter
        child_s, is_open = self._child_s, self._open
        lat = self.latencies.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_s.append(0.0)
            is_open[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                is_open[name] -= 1
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - inner
                if lat is not None:
                    lat.append(dt)
                for scope in SCOPES:
                    if is_open[scope]:
                        self.nested[scope, name] += 1

        return span

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def map(self, fn, *iterables, **kwargs):
                columns = [list(it) for it in iterables]
                tasks = [t[0] if len(t) == 1 else t for t in zip(*columns)]
                tracer.pool["tasks"] += len(tasks)
                tracer.pool["task_bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
                t0 = time.perf_counter()
                results = list(super().map(fn, *columns, **kwargs))
                tracer.pool["map_s"] += time.perf_counter() - t0
                return iter(results)

        return TracedPool

    def install(self):
        """Wrap every binding of every layer; returns a function that undoes it."""
        modules = [importlib.import_module(m) for m in MODULES]
        originals = {}
        for name, (mod, attr) in LAYERS.items():
            fn = getattr(importlib.import_module(f"dicke_trimer.{mod}"), attr, None)
            if fn is not None:
                originals[id(fn)] = (fn, self._wrap(name, fn))
        sweep = importlib.import_module("dicke_trimer.sweep")
        pool = getattr(sweep, "ProcessPoolExecutor", None)
        if pool is not None:
            originals[id(pool)] = (pool, self._pool_class(pool))

        replaced = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced.append((module, attr, value))

        def restore():
            for module, attr, value in replaced:
                setattr(module, attr, value)

        return restore
