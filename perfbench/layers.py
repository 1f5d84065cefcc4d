"""Per-layer self time, measured from outside the program.

:class:`LayerTracer` replaces public functions and methods of the ``repro``
packages with timing wrappers and removes them again on :meth:`uninstall`.
Each thread keeps its own call stack of wrapped calls, so a layer's *self
time* is the time spent inside its wrapped calls minus the time spent in
wrapped calls nested below them, and work on the scenario pipeline's
producer thread is charged to that thread's stack, not to the consumer's.

:func:`install_repro_layers` wraps the layer boundaries the benchmark
reports (see ``README.md`` in this directory for the table).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import types
from typing import Callable, Dict, Iterable, List, Tuple

#: Paper drivers, in the CLI's ``EXPERIMENTS`` order, plus the tenant sweep.
DRIVER_MODULES = (
    "repro.experiments.table1_exynos",
    "repro.experiments.fig04_offsets",
    "repro.experiments.table3_storage",
    "repro.experiments.table4_capacity",
    "repro.experiments.fig09_mpki",
    "repro.experiments.fig10_performance",
    "repro.experiments.table5_energy",
    "repro.experiments.fig11_sweep",
    "repro.experiments.fig12_cvp",
    "repro.experiments.fig13_x86",
    "repro.experiments.ablation_ways",
    "repro.experiments.tenant_scale",
)

#: (module, attribute, layer) for module-level functions.  Every loaded
#: ``repro`` module that imported the function by name is patched too.
FUNCTION_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.suites", "build_workload", "workloads.build"),
    ("repro.traces.batch", "trace_arrays", "traces.decode"),
    ("repro.scenarios.compose", "remap_tenant_trace", "scenarios.compose"),
    ("repro.core.batch", "run_batched", "core.batch"),
    ("repro.core.batch", "run_scenario_batched", "core.batch"),
) + tuple((module, "run", "experiments.driver") for module in DRIVER_MODULES)

#: (module, class, method names, layer) for methods of one class.
METHOD_LAYERS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.scenarios.compose", "TraceComposer", ("__init__", "stream_batches"), "scenarios.compose"),
    ("repro.core.simulator", "FrontEndSimulator", ("run", "run_scenario", "run_scenario_batches"), "core.loop"),
    ("repro.memory.hierarchy", "MemoryHierarchy", ("fetch", "fetch_batch", "prefetch", "context_switch"), "memory"),
    ("repro.experiments.engine", "ExperimentEngine", ("run_jobs",), "experiments.engine"),
    ("repro.experiments.engine", "ResultCache", ("get",), "experiments.cache_read"),
    ("repro.experiments.engine", "ResultCache", ("put",), "experiments.cache_write"),
)

#: (base class, method names, layer): the methods are wrapped on every
#: subclass that defines them itself, so each BTB organisation and each
#: direction predictor is covered.
FAMILY_LAYERS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.btb.base", "BTBBase", ("lookup", "update", "batch_plan"), "btb"),
    ("repro.predictor.base", "DirectionPredictor", ("predict", "update"), "predictor"),
)

#: Packages whose modules are imported before wrapping, so that every class
#: of a family and every by-name import of a wrapped function is in place.
PACKAGES = ("repro.btb", "repro.predictor", "repro.frontend", "repro.memory", "repro.core",
            "repro.scenarios", "repro.traces", "repro.workloads", "repro.experiments")


class LayerTracer:
    """Self time and call counts per layer, kept per thread and merged on read."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[Dict[str, float], Dict[str, int]]] = []
        self._undo: List[Callable[[], None]] = []

    # -- measurement ------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._threads.append((state[1], state[2]))
        return state

    def _enter(self, layer: str) -> list:
        stack, _, calls = self._state()
        if not stack or stack[-1][0] != layer:
            calls[layer] = calls.get(layer, 0) + 1
        frame = [layer, self._clock(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        elapsed = self._clock() - frame[1]
        stack, seconds, _ = self._state()
        stack.pop()
        seconds[frame[0]] = seconds.get(frame[0], 0.0) + elapsed - frame[2]
        if stack:
            stack[-1][2] += elapsed

    def seconds(self) -> Dict[str, float]:
        """Self time per layer, summed over threads."""
        return self._merge(0)

    def calls(self) -> Dict[str, int]:
        """Entries into each layer from outside it, summed over threads."""
        return self._merge(1)

    def _merge(self, which: int) -> Dict:
        merged: Dict = {}
        with self._lock:
            for per_thread in self._threads:
                for layer, value in list(per_thread[which].items()):
                    merged[layer] = merged.get(layer, 0) + value
        return merged

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped to charge its self time to ``layer``.

        A generator function is timed per ``next()``: the consumer's time
        between items is not the generator's.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = self._enter(layer)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._exit(frame)
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    # -- installation -----------------------------------------------------

    def wrap_function(
        self,
        module: types.ModuleType,
        name: str,
        layer: str,
        aliases: Iterable[types.ModuleType] = (),
        on_return: Callable[[object], None] | None = None,
    ) -> None:
        """Wrap ``module.name`` and every by-name copy of it in ``aliases``."""
        original = getattr(module, name)
        target = original
        if on_return is not None:
            @functools.wraps(original)
            def observed(*args, **kwargs):
                result = original(*args, **kwargs)
                on_return(result)
                return result

            target = observed
        wrapper = self.timed(layer, target) if layer else target
        for holder in {id(m): m for m in (module, *aliases)}.values():
            if holder.__dict__.get(name) is original:
                setattr(holder, name, wrapper)
                self._undo.append(functools.partial(setattr, holder, name, original))

    def wrap_method(self, cls: type, name: str, layer: str) -> None:
        """Wrap the method ``name`` that ``cls`` itself defines."""
        original = cls.__dict__[name]
        setattr(cls, name, self.timed(layer, original))
        self._undo.append(functools.partial(setattr, cls, name, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            self._undo.pop()()


def _subclasses(base: type) -> Iterable[type]:
    for cls in base.__subclasses__():
        yield cls
        yield from _subclasses(cls)


def _import_packages() -> List[types.ModuleType]:
    import pkgutil

    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__, package_name + "."):
            importlib.import_module(info.name)
    for name in DRIVER_MODULES:
        importlib.import_module(name)
    return [m for n, m in list(sys.modules.items()) if n == "repro" or n.startswith("repro.")]


def install_repro_layers(
    tracer: LayerTracer, observers: Dict[Tuple[str, str], Callable[[object], None]] | None = None
) -> None:
    """Wrap every layer boundary of the ``repro`` packages on ``tracer``.

    ``observers`` maps ``(module, function)`` to a callback that receives
    each return value; a function listed there but not in
    :data:`FUNCTION_LAYERS` is observed without being timed.
    """
    observers = dict(observers or {})
    modules = _import_packages()
    for module_name, name, layer in FUNCTION_LAYERS:
        tracer.wrap_function(importlib.import_module(module_name), name, layer, modules,
                             on_return=observers.pop((module_name, name), None))
    for (module_name, name), callback in observers.items():
        tracer.wrap_function(importlib.import_module(module_name), name, "", modules,
                             on_return=callback)
    for module_name, class_name, methods, layer in METHOD_LAYERS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for name in methods:
            tracer.wrap_method(cls, name, layer)
    from repro.frontend.bpu import BranchPredictionUnit
    from repro.frontend.fdip import FDIPPrefetcher

    for cls, layer, wanted in (
        (BranchPredictionUnit, "frontend.bpu", lambda name: name.startswith("process")),
        (FDIPPrefetcher, "frontend.fdip", lambda name: not name.startswith("_")),
    ):
        for name, value in list(vars(cls).items()):
            if isinstance(value, types.FunctionType) and wanted(name):
                tracer.wrap_method(cls, name, layer)
    for module_name, base_name, methods, layer in FAMILY_LAYERS:
        base = getattr(importlib.import_module(module_name), base_name)
        for cls in {id(c): c for c in (base, *_subclasses(base))}.values():
            for name in methods:
                if isinstance(cls.__dict__.get(name), types.FunctionType):
                    tracer.wrap_method(cls, name, layer)
