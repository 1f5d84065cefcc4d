"""Bounded, thread-safe store of generated traces, backed by the disk cache.

Trace generation is deterministic (every workload spec carries its own seed),
so a trace is fully described by ``(workload_name, instructions)``.  The store
memoizes traces under that key with LRU eviction, replacing the unbounded
module-global cache the experiment runner used to keep: a full-scale sweep
touches dozens of workloads and an unbounded cache holds every one of them
alive for the whole run.

Generation is not cheap: on a cold 200k-instruction scenario cell it takes
longer than simulating the cell on either backend, and it is most of the
wall time of a rerun whose results all come from the result cache.  So on an in-memory miss the store first
looks in the trace tier of the active engine's ``--cache-dir`` (see
:class:`repro.experiments.engine.ResultCache`), keyed by the workload spec,
the length and :data:`repro.workloads.GENERATOR_VERSION`.  Only when the
trace is not there does it generate the trace, and then it writes it there.
Without an active engine with a cache directory the store generates, as it
always has.

The store is thread-safe (a single lock guards the mapping) and process-local:
pool workers each keep their own and share traces through the disk tier.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable, Tuple

from repro.obs import get_recorder
from repro.traces.trace import Trace

#: Default number of traces kept alive; enough for every suite of one scale.
DEFAULT_MAX_TRACES = 64


def _build_workload(name: str, instructions: int) -> Trace:
    # Imported lazily: repro.workloads imports repro.traces.trace, so a
    # top-level import here would create a package cycle.
    from repro.workloads.suites import build_workload

    return build_workload(name, instructions)


def _active_cache():
    """The active engine's on-disk cache, or None.

    No engine can be active before its module is imported, so a process that
    never imported it (a bare trace-store user) does not import it here.
    """
    engine = sys.modules.get("repro.experiments.engine")
    return None if engine is None else engine.active_cache()


class TraceStore:
    """LRU-bounded memoization of ``(workload, instructions) -> Trace``.

    ``hits``/``misses`` count in-memory lookups; of the misses,
    ``disk_hits`` were loaded from the disk tier and ``disk_writes`` were
    generated and written to it; ``corrupt`` counts malformed disk entries
    (each regenerated and overwritten).  A store with a custom ``builder``
    never uses the disk tier: its traces are not what the key describes.
    """

    def __init__(
        self,
        max_traces: int = DEFAULT_MAX_TRACES,
        builder: Callable[[str, int], Trace] | None = None,
    ) -> None:
        if max_traces <= 0:
            raise ValueError("trace store needs room for at least one trace")
        self.max_traces = max_traces
        self._builder = builder or _build_workload
        self._traces: "OrderedDict[Tuple[str, int], Trace]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_writes = 0
        self.corrupt = 0

    def get(self, workload: str, instructions: int) -> Trace:
        """Return the trace of ``workload``, loading or generating it on first use."""
        key = (workload, instructions)
        recorder = get_recorder()
        with self._lock:
            trace = self._traces.get(key)
            if trace is not None:
                self.hits += 1
                recorder.count("trace.store.hits")
                self._traces.move_to_end(key)
                return trace
            self.misses += 1
            recorder.count("trace.store.misses")
        # Load or generate outside the lock: both are slow and deterministic,
        # so a duplicate under contention is wasteful but harmless.
        cache = _active_cache() if self._builder is _build_workload else None
        if cache is None:
            trace = self._build(workload, instructions)
        else:
            trace = self._load_or_build(cache, workload, instructions)
        self.put(trace, instructions)
        return trace

    def _build(self, workload: str, instructions: int) -> Trace:
        with get_recorder().span("trace.build", workload=workload, instructions=instructions):
            return self._builder(workload, instructions)

    def _load_or_build(self, cache, workload: str, instructions: int) -> Trace:
        from repro.workloads.suites import trace_cache_key

        recorder = get_recorder()
        key = trace_cache_key(workload, instructions)
        with recorder.span("trace.load", workload=workload, instructions=instructions):
            trace = cache.get_trace(key, workload, instructions, on_corrupt=self._count_corrupt)
        if trace is not None:
            with self._lock:
                self.disk_hits += 1
            recorder.count("trace.store.disk_hits")
            return trace
        trace = self._build(workload, instructions)
        cache.put_trace(key, trace)
        with self._lock:
            self.disk_writes += 1
        recorder.count("trace.store.disk_writes")
        return trace

    def _count_corrupt(self, path: str) -> None:
        with self._lock:
            self.corrupt += 1
        get_recorder().count("trace.store.corrupt")

    def put(self, trace: Trace, instructions: int | None = None) -> None:
        """Insert an already-built trace, evicting the LRU entry if full."""
        key = (trace.name, len(trace) if instructions is None else instructions)
        with self._lock:
            self._traces[key] = trace
            self._traces.move_to_end(key)
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
                self.evictions += 1
                get_recorder().count("trace.store.evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        with self._lock:
            return key in self._traces

    def clear(self) -> None:
        """Drop every cached trace (tests use this to bound memory)."""
        with self._lock:
            self._traces.clear()


_DEFAULT_STORE = TraceStore()


def default_store() -> TraceStore:
    """The process-wide shared store used by the runner and the engine."""
    return _DEFAULT_STORE
