"""Outside-in tracing of hopfrot's layers.

The library itself carries no instrumentation.  ModuleTracer wraps every
public function of each traced module and rebinds the wrapper under every
name that refers to the function in any loaded ``hopfrot.*`` namespace, so
calls between modules (and within one, through module globals) are caught.
Private helpers are not wrapped: their time counts as self time of the
nearest wrapped caller, which is the module whose public entry point they
serve.  Spans are aggregated on the fly rather than stored, because one
verify pass makes over 10^5 of them.

A wrapper costs time of its own: part of it inside its span (the clock
read and the call through the wrapper), part outside (the call into the
wrapper and its bookkeeping).  Left alone, the inside part would count as
the callee's self time and the outside part as the caller's.
``wrapper_cost`` measures both parts once on a no-op function, and the
tracer takes them off the self times they would inflate; their total is
reported apart, as calls times cost.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

import numpy

MODULES = ("cli", "verify", "rotations", "hopf", "su2", "sphere", "quat")


class ModuleTracer:
    """Per-module call counts and self time (span time minus child spans).

    ``labels`` maps "module.function" to a function of the call's
    arguments that returns a key; such calls also accumulate their
    inclusive time in ``labelled[key] = [calls, seconds]``.  ``cost`` is
    the (inside, outside) wrapper cost per call from ``wrapper_cost``; it
    is taken off every self time and labelled time it would inflate.
    """

    def __init__(self, labels=None, cost: tuple[float, float] = (0.0, 0.0)):
        self.cost = cost
        self.calls = dict.fromkeys(MODULES, 0)
        self.self_s = dict.fromkeys(MODULES, 0.0)
        self.labelled: dict = {}
        self._labels = labels or {}
        self._stack: list[float] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"hopfrot.{short}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(obj, short, self._labels.get(f"{short}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "hopfrot" and not modname.startswith("hopfrot."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def _wrap(self, fn, module: str, label):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        labelled = self.labelled
        inside, outside = self.cost
        per_call = inside + outside
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = sum(calls.values()) if label is not None else 0
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[module] += elapsed - inside - stack.pop()
                calls[module] += 1
                if stack:
                    stack[-1] += elapsed + outside
                if label is not None:
                    nested = sum(calls.values()) - before - 1
                    acc = labelled.setdefault(label(*args, **kwargs), [0, 0.0])
                    acc[0] += 1
                    acc[1] += elapsed - inside - nested * per_call

        return traced


def wrapper_cost() -> tuple[float, float]:
    """Seconds per call that a wrapper adds (inside its span, outside it)
    beyond a plain call of the function: medians over 5 loops of 20000
    calls of a wrapped no-op, timed against the same loop unwrapped and an
    empty loop."""
    calls = 20000

    def noop(x):
        return x

    probe = ModuleTracer()
    traced = probe._wrap(noop, MODULES[0], None)
    clock = time.perf_counter
    insides, outsides = [], []
    for _ in range(5):
        probe._stack.append(0.0)
        start = clock()
        for _ in range(calls):
            traced(1.0)
        wrapped = clock() - start
        spans = probe._stack.pop()
        start = clock()
        for _ in range(calls):
            noop(1.0)
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            pass
        plain_call = (bare - (clock() - start)) / calls
        insides.append(spans / calls - plain_call)
        outsides.append((wrapped - bare - spans) / calls + plain_call)
    return statistics.median(insides), statistics.median(outsides)


class DrawTimer:
    """Stands in for numpy at a module's ``np`` name and times every method
    call on the ``np.random.Generator`` objects that module creates.
    Everything else resolves to numpy itself."""

    def __init__(self):
        self.seconds = 0.0
        self.random = _RandomProxy(self)

    def __getattr__(self, name):
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value

    def install(self, module) -> bool:
        """Replace ``module.np``; False (and nothing replaced) if the
        module does not resolve numpy under that name."""
        if getattr(module, "np", None) is not numpy:
            return False
        self._module = module
        module.np = self
        return True

    def uninstall(self) -> None:
        self._module.np = numpy


class _RandomProxy:
    def __init__(self, timer: DrawTimer):
        self._timer = timer

    def Generator(self, bit_generator):
        return _TimedGenerator(numpy.random.Generator(bit_generator), self._timer)

    def __getattr__(self, name):
        value = getattr(numpy.random, name)
        setattr(self, name, value)
        return value


class _TimedGenerator:
    def __init__(self, gen, timer: DrawTimer):
        self._gen = gen
        self._timer = timer

    def __getattr__(self, name):
        method = getattr(self._gen, name)
        if not callable(method):
            return method
        timer = self._timer
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return method(*args, **kwargs)
            finally:
                timer.seconds += clock() - start

        setattr(self, name, timed)
        return timed
