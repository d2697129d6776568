"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions of each spherediss layer
wherever a spherediss module (or the package namespace) holds them, so calls
from one module into another are caught too.  Every call records one span:
name, start and end (``perf_counter_ns``), parent span, task id and pass
index.  ``scipy.integrate.solve_ivp`` is wrapped as the ``pde`` -> scipy
boundary: the right-hand side handed to it becomes the ``pde.rhs`` span and
its returned ``nfev``/``njev``/``nlu`` and step count become counters.
Spans stay in memory and are written out by ``dump``.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: Public functions wrapped per layer module.  A name that a module no
#: longer defines is skipped, so the tracer survives API changes.
FUNCTIONS = {
    "exact": ("radius_at", "time_to_dissolution", "exact_curve", "concentration_profile"),
    "approx": ("approx_curve", "approx_radius", "blended_t0"),
    "ode": ("integrate_radius",),
    "pde": ("solve_moving_boundary",),
    "cli": ("main",),
}

#: Methods wrapped on classes: span name -> (module, class, attribute).
METHODS = {
    "curves.RadiusCurve": ("curves", "RadiusCurve", "__post_init__"),
    "ode.radius_at": ("ode", "RadiusIntegration", "radius_at"),
}

LAYER_MODULES = ("exact", "approx", "curves", "ode", "pde", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name, start ns, end ns, parent, task, pass]
        self.counters: list[tuple[str, float, int, int]] = []  # (name, value, task, pass)
        self._stack: list[int] = []
        self.task = 0
        self.pass_index = 0

    def _name(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def count(self, name: str, value: float) -> None:
        self.counters.append((name, value, self.task, self.pass_index))

    def span(self, name: str, fn, on_return=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        index = self._name(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [index, clock(), 0, stack[-1] if stack else -1, self.task, self.pass_index]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        for attr in ("cache_clear", "cache_info"):  # keep lru_cache controls reachable
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _solve_ivp(self, solve_ivp):
        def traced(fun, *args, **kwargs):
            sol = solve_ivp(self.span("pde.rhs", fun), *args, **kwargs)
            self.count("pde.nfev", sol.nfev)
            self.count("pde.njev", sol.njev)
            self.count("pde.nlu", sol.nlu)
            self.count("pde.steps", len(sol.t) - 1)  # t_eval unset: one entry per step
            return sol

        return self.span("pde.solve_ivp", traced)

    def _ode_steps(self, run) -> None:
        self.count("ode.steps", run.curve.metadata.get("steps", 0))

    def install(self) -> None:
        """Wrap every listed function and method of the imported library."""
        import scipy.integrate

        modules = {name: importlib.import_module(f"spherediss.{name}") for name in LAYER_MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, names in FUNCTIONS.items():
            for name in names:
                original = getattr(modules[layer], name, None)
                if original is None:
                    continue
                on_return = self._ode_steps if f"{layer}.{name}" == "ode.integrate_radius" else None
                wrappers[id(original)] = (original, self.span(f"{layer}.{name}", original, on_return))
        original = scipy.integrate.solve_ivp
        wrappers[id(original)] = (original, self._solve_ivp(original))
        scipy.integrate.solve_ivp = wrappers[id(original)][1]  # caught by lazy imports too

        for module_name, module in list(sys.modules.items()):
            if module_name != "spherediss" and not module_name.startswith("spherediss."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for span_name, (layer, cls_name, attr) in METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, self.span(span_name, vars(cls)[attr]))

    def clear(self) -> None:
        """Drop recorded spans and counters (between passes, with no span open)."""
        self.spans.clear()  # in place: the wrappers hold this list
        self.counters.clear()

    def dump(self, path: str) -> None:
        """Write names, spans and counters as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters},
                      handle, separators=(",", ":"))

    def absorb(self, path: str, task: int, pass_index: int) -> None:
        """Append the spans and counters another process dumped to ``path``."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        remap = [self._name(name) for name in data["names"]]
        offset = len(self.spans)
        for name, start, end, parent, _, _ in data["spans"]:
            self.spans.append([remap[name], start, end, parent + offset if parent >= 0 else -1,
                               task, pass_index])
        self.counters.extend((name, value, task, pass_index)
                             for name, value, _, _ in data["counters"])

    def per_pass(self) -> dict[int, dict[str, float]]:
        """``{pass: {"<span>.calls", "<span>.self_s", "<counter>": value}}``."""
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        if self.spans:
            spans = np.asarray(self.spans, dtype=np.int64)
            duration = spans[:, 2] - spans[:, 1]
            covered = np.zeros(len(spans), dtype=np.int64)
            nested = spans[:, 3] >= 0
            np.add.at(covered, spans[nested, 3], duration[nested])
            self_ns = duration - covered
            for (name, pass_index), ns in zip(spans[:, [0, 5]].tolist(), self_ns.tolist()):
                bucket = totals[pass_index]
                bucket[f"{self.names[name]}.calls"] += 1
                bucket[f"{self.names[name]}.self_s"] += ns * 1e-9
        for name, value, _, pass_index in self.counters:
            totals[pass_index][name] += value
        return {p: dict(values) for p, values in totals.items()}
