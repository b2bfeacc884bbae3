"""Spans around the calls into rateaudit's layers, recorded from outside.

The package modules import each other's functions by name
(`from .generator import build_superoperator`), so a function is wrapped in
every rateaudit module namespace that holds it; methods are wrapped on their
class.  Span targets record (name, start, end, parent, request); count
targets, which run up to a million times a request, only count calls.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, qualified name) -> the layer metric names `<module>.<qualname>.*`
SPAN_TARGETS = (
    ("cli", "load_spec_file"),
    ("cli", "render_report"),
    ("generator", "build_superoperator"),
    ("generator", "choi"),
    ("matcore", "eig_general"),
    ("matcore", "numerical_kernel"),
    ("bounds", "audit_rates"),
    ("positivity", "check_map_class"),
    ("positivity", "check_conditional_k_positivity"),
    ("positivity", "extended_superoperator"),
    ("positivity", "check_ccp"),
    ("timedep", "propagator"),
    ("timedep", "build_grid"),
)
COUNT_TARGETS = (
    ("positivity", "schwarz_defect"),
    ("generator", "Superoperator.apply"),
    ("matcore", "as_matrix"),
    ("timedep", "TimeDependentSpec.at"),
)
ROOT = "cli.main"  # one span per request, opened by the benchmark loop


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every layer metric, in report order."""
    out = []
    for module, qual in ((None, ROOT),) + SPAN_TARGETS:
        name = qual if module is None else f"{module}.{qual}"
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{m}.{q}.calls", "count") for m, q in COUNT_TARGETS]
    return out


class Tracer:
    """In-memory spans; a span's self time is its duration minus its children's."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, request id, self time)
        self.calls = {}
        self.request = None
        self._stack = []  # [span index, time covered by children]
        self._undo = []

    def _open(self):
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, 0.0])
        return time.perf_counter()

    def _close(self, name, start):
        end = time.perf_counter()
        index, covered = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.spans[index] = (name, start, end, parent[0] if parent else None, self.request,
                             duration - covered)
        self.calls[name] = self.calls.get(name, 0) + 1

    def span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)

        return wrapper

    def request_wrapper(self, fn):
        """Wrap the per-request entry point: each call opens a new request's
        root span."""
        span = self.span_wrapper(ROOT, fn)

        def wrapper(*args, **kwargs):
            self.request = 0 if self.request is None else self.request + 1
            return span(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target; `uninstall` puts the originals back."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "rateaudit"]
        for targets, make in ((SPAN_TARGETS, self.span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for module, qual in targets:
                mod = importlib.import_module(f"rateaudit.{module}")
                owner_name, _, attr = qual.rpartition(".")
                name = f"{module}.{qual}"
                if owner_name:
                    owner = getattr(mod, owner_name)
                    original = owner.__dict__[attr]
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))
                    continue
                original = getattr(mod, attr)
                wrapped = make(name, original)
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is original]:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, scale) -> dict:
        """Layer metrics; scale[request] multiplies that request's self times."""
        self_s = {}
        for name, _, _, _, request, own in self.spans:
            self_s[name] = self_s.get(name, 0.0) + own * scale[request]
        out = {}
        for name, unit in metric_names():
            layer, _, kind = name.rpartition(".")
            value = self.calls.get(layer, 0) if kind == "calls" else self_s.get(layer, 0.0)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, own in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "request": request, "self": own}) + "\n")
