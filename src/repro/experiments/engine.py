"""Parallel experiment execution engine with an on-disk result cache.

The paper's evaluation is a grid — traces x organizations x budgets x FDIP —
and every cell is an independent simulation.  :class:`ExperimentEngine` turns
that observation into throughput:

* each cell becomes a hashable :class:`SimJob` that fully describes one
  simulation (workload, trace length, warmup, BTB construction, FDIP);
* jobs run either inline (``workers=1``) or on a ``ProcessPoolExecutor``
  (``workers>1``), with worker processes resolving their traces locally
  from the deterministic workload specs — nothing heavyweight is pickled;
* every finished job is memoized in-process and, when a ``cache_dir`` is
  given, persisted as JSON keyed by a content hash of the job config, so
  reruns and overlapping figures (fig09/fig10/fig11/table5 share most of
  their grid) skip completed work entirely;
* the same directory holds the generated traces: while an engine with a
  ``cache_dir`` is active (:func:`use_engine`), the trace store loads each
  trace from it instead of regenerating it, in the parent and in pool
  workers alike (see :class:`ResultCache`).

Results are bit-identical across worker counts and cache states: the engine
always round-trips :class:`SimulationResult` through the same JSON payload,
whether a job ran inline, in a worker, or was loaded from disk.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Sequence

from repro.common.config import ASIDMode, BTBStyle, default_machine_config
from repro.common.errors import ConfigurationError, TraceFormatError
from repro.common.stats import Stats
from repro.obs import JsonlRecorder, get_recorder, use_recorder
from repro.core.metrics import ScenarioResult, SimulationResult
from repro.core.simulator import FrontEndSimulator
from repro.scenarios.spec import ScenarioSpec
from repro.btb.btbx import BTBX
from repro.btb.storage import make_btb_for_budget
from repro.traces.binary_io import decode_trace, encode_trace
from repro.traces.store import TraceStore, default_store
from repro.traces.trace import Trace

#: Bump when the payload layout or simulation semantics change: stale disk
#: cache entries from an older format then miss instead of corrupting runs.
#: v2: scenario jobs (multi-tenant payloads carry per-tenant results).
#: v3: partitioned ASID mode (scenario payloads carry partition_sets; BTB set
#: indexing gained the partition remap, which shifts some aliasing patterns).
#: v4: shared code footprints (specs carry shared_fraction, payloads carry
#: duplication counters and secondary_partition_sets) and ASID-tagged /
#: partitionable Page-/Region-BTBs, which change PDede and R-BTB results in
#: multi-tenant tagged/partitioned runs.
#: v5: ASID-aware memory hierarchy (scenario jobs carry cache_asid_mode;
#: payloads carry l2_accesses/l2_misses, cache_mode, cache_partition_sets,
#: btb_access_counts and the per-scenario Table V energy report); plain-job
#: access_counts now merge BTB-X's companion traffic (energy_access_counts)
#: and reset it at the warmup boundary, changing Table V inputs.
#: v6: shared_page_split floors over the fraction's decimal value instead of
#: its binary float (0.7 of 10 pages is now 7, not 6), shifting shared-
#: footprint cells at non-binary-exact fractions; binary-exact fractions
#: (0, 0.25, 0.5, 0.75, 1) and all golden cells are unchanged, but entries
#: computed with the truncating split must miss rather than be replayed.
CACHE_FORMAT_VERSION = 6

#: SimulationResult fields carried through the payload (everything but stats).
_RESULT_FIELDS = (
    "workload",
    "btb_style",
    "btb_storage_kib",
    "fdip_enabled",
    "instructions",
    "cycles",
    "base_cycles",
    "flush_cycles",
    "resteer_cycles",
    "icache_stall_cycles",
    "btb_extra_cycles",
    "btb_misses_taken",
    "decode_resteers",
    "execute_flushes",
    "direction_mispredictions",
    "target_mispredictions",
    "taken_branches",
    "branches",
    "l1i_accesses",
    "l1i_misses",
    "l1i_misses_covered",
    "l2_accesses",
    "l2_misses",
)


@dataclass(frozen=True)
class SimJob:
    """One independent simulation: a hashable cell of an experiment grid.

    ``budget_kib`` sizes the BTB through :func:`make_btb_for_budget`; the
    way-sizing ablation instead passes an explicit BTB-X geometry via
    ``btbx_entries``/``way_offset_bits``.  Workers resolve ``workload`` to a
    trace through the deterministic suite specs, so a job is self-contained.
    """

    workload: str
    instructions: int
    warmup_instructions: int
    style: BTBStyle
    fdip_enabled: bool
    budget_kib: float | None = None
    btbx_entries: int | None = None
    way_offset_bits: tuple[int, ...] | None = None
    companion_divisor: int = 64

    def __post_init__(self) -> None:
        if self.budget_kib is None and self.way_offset_bits is None:
            raise ConfigurationError("SimJob needs a budget or an explicit BTB-X geometry")
        if self.way_offset_bits is not None and self.btbx_entries is None:
            raise ConfigurationError("explicit way sizing also needs btbx_entries")

    def config_dict(self) -> Dict[str, object]:
        """Canonical JSON-able description of the job (the cache identity)."""
        config = asdict(self)
        config["style"] = self.style.value
        if self.way_offset_bits is not None:
            config["way_offset_bits"] = list(self.way_offset_bits)
        config["cache_format"] = CACHE_FORMAT_VERSION
        return config

    def config_hash(self) -> str:
        """Content hash of the job config; the on-disk cache key."""
        canonical = json.dumps(self.config_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioJob:
    """One multi-tenant scenario cell: a hashable, cacheable experiment job.

    Mirrors :class:`SimJob` but runs a scenario spec instead of a single
    workload.  ``scenario`` names a registered preset; the resolved
    :class:`ScenarioSpec` is pinned onto the job at construction time (in the
    submitting process, where user registrations live), so worker processes
    never consult the preset registry -- a job survives ``spawn``-style pools
    even for scenarios registered only in the parent.  Tenant traces are still
    rebuilt locally from the deterministic workload specs, like plain jobs.
    """

    scenario: str
    instructions: int
    warmup_instructions: int
    style: BTBStyle
    asid_mode: ASIDMode
    fdip_enabled: bool = True
    budget_kib: float = 14.5
    #: Context-switch policy of the cache hierarchy; ``None`` is the legacy
    #: ASID-oblivious shared hierarchy (see MachineConfig.cache_asid_mode).
    cache_asid_mode: ASIDMode | None = None
    #: Resolved at construction from ``scenario`` when not given explicitly.
    spec: ScenarioSpec | None = None

    def __post_init__(self) -> None:
        if self.instructions < 1:
            raise ConfigurationError("scenario stream needs at least one instruction")
        if self.budget_kib <= 0:
            raise ConfigurationError("scenario job needs a positive storage budget")
        if self.spec is None:
            from repro.scenarios.presets import get_scenario

            object.__setattr__(self, "spec", get_scenario(self.scenario))

    def config_dict(self) -> Dict[str, object]:
        """Canonical JSON-able description of the job (the cache identity).

        Includes the resolved scenario spec, so re-registering a preset with
        different tenants or scheduling knobs changes the cache key.
        """
        config = asdict(self)
        del config["spec"]
        config["style"] = self.style.value
        config["asid_mode"] = self.asid_mode.value
        config["cache_asid_mode"] = (
            None if self.cache_asid_mode is None else self.cache_asid_mode.value
        )
        config["kind"] = "scenario"
        config["scenario_spec"] = self.spec.config_dict()
        config["cache_format"] = CACHE_FORMAT_VERSION
        return config

    def config_hash(self) -> str:
        """Content hash of the job config; the on-disk cache key."""
        canonical = json.dumps(self.config_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Anything the engine can execute, memoize and cache.
EngineJob = SimJob | ScenarioJob


@dataclass
class JobOutcome:
    """What one executed (or cache-loaded) job produced.

    ``result`` is always present (for scenario jobs it is the aggregate over
    the whole interleaved stream); ``scenario`` additionally carries the
    per-tenant breakdown when the job was a :class:`ScenarioJob`.
    """

    result: SimulationResult
    access_counts: Dict[str, float] | None = None
    scenario: ScenarioResult | None = None


def grid_jobs(
    traces: Sequence[Trace],
    styles: Sequence[BTBStyle],
    budgets_kib: Sequence[float],
    fdip_modes: Sequence[bool],
    instructions: int,
    warmup_instructions: int,
) -> List[SimJob]:
    """Expand a (budget, fdip, style, trace) grid into its job list."""
    return [
        SimJob(
            workload=trace.name,
            instructions=instructions,
            warmup_instructions=warmup_instructions,
            style=style,
            fdip_enabled=fdip,
            budget_kib=budget,
        )
        for budget in budgets_kib
        for fdip in fdip_modes
        for style in styles
        for trace in traces
    ]


# -- job execution (runs in the parent or in a worker process) ---------------


def _result_to_payload(result: SimulationResult) -> Dict[str, object]:
    return {name: getattr(result, name) for name in _RESULT_FIELDS}


def _payload_to_result(payload: Mapping[str, object]) -> SimulationResult:
    return SimulationResult(stats=Stats(), **{name: payload[name] for name in _RESULT_FIELDS})


def _execute_scenario_job(job: ScenarioJob,
                          trace_store: TraceStore | None = None) -> Dict[str, object]:
    """Run one scenario cell and serialize aggregate + per-tenant results."""
    from repro.scenarios.run import execute_scenario

    scenario_result = execute_scenario(
        job.spec,
        style=job.style,
        asid_mode=job.asid_mode,
        budget_kib=job.budget_kib,
        instructions=job.instructions,
        warmup_instructions=job.warmup_instructions,
        fdip_enabled=job.fdip_enabled,
        trace_store=trace_store,
        cache_mode=job.cache_asid_mode,
    )
    return {
        "result": _result_to_payload(scenario_result.aggregate),
        "scenario": {
            "scenario": scenario_result.scenario,
            "asid_mode": scenario_result.asid_mode,
            "cache_mode": scenario_result.cache_mode,
            "context_switches": scenario_result.context_switches,
            "partition_sets": scenario_result.partition_sets,
            "secondary_partition_sets": scenario_result.secondary_partition_sets,
            "cache_partition_sets": scenario_result.cache_partition_sets,
            "duplication": scenario_result.duplication,
            "btb_access_counts": scenario_result.btb_access_counts,
            "energy": scenario_result.energy,
            "per_tenant": {
                name: _result_to_payload(result)
                for name, result in scenario_result.per_tenant.items()
            },
        },
    }


def _payload_to_scenario(payload: Mapping[str, object]) -> ScenarioResult:
    scenario = payload["scenario"]
    return ScenarioResult(
        scenario=scenario["scenario"],
        asid_mode=scenario["asid_mode"],
        context_switches=scenario["context_switches"],
        aggregate=_payload_to_result(payload["result"]),
        per_tenant={
            name: _payload_to_result(tenant)
            for name, tenant in scenario["per_tenant"].items()
        },
        partition_sets=scenario.get("partition_sets"),
        secondary_partition_sets=scenario.get("secondary_partition_sets"),
        duplication=scenario.get("duplication"),
        cache_mode=scenario.get("cache_mode"),
        cache_partition_sets=scenario.get("cache_partition_sets"),
        btb_access_counts=scenario.get("btb_access_counts"),
        energy=scenario.get("energy"),
    )


def execute_job(job: "EngineJob", trace: Trace | None = None,
                trace_store: TraceStore | None = None) -> Dict[str, object]:
    """Run one simulation and return its serialized payload.

    The serialized form (not the live objects) is the engine's currency: it is
    what workers return, what the disk cache stores and what every caller gets
    rehydrated from, which is how serial, parallel and cached runs stay
    bit-identical.  Scenario jobs compose their own tenant traces, so the
    ``trace`` shortcut only applies to plain single-trace jobs.
    """
    if isinstance(job, ScenarioJob):
        return _execute_scenario_job(job, trace_store=trace_store)
    recorder = get_recorder()
    if trace is None:
        trace = (trace_store or default_store()).get(job.workload, job.instructions)
    machine = default_machine_config(
        btb_style=job.style, fdip_enabled=job.fdip_enabled, isa=trace.isa
    )
    if job.way_offset_bits is not None:
        btb = BTBX(
            job.btbx_entries,
            way_offset_bits=list(job.way_offset_bits),
            companion_divisor=job.companion_divisor,
            isa=trace.isa,
        )
    else:
        btb = make_btb_for_budget(job.style, job.budget_kib, isa=trace.isa)
    with recorder.span(
        "job.simulate",
        workload=job.workload,
        style=job.style.value,
        instructions=job.instructions,
    ):
        result = FrontEndSimulator(machine, btb=btb).run(
            trace, warmup_instructions=job.warmup_instructions
        )
    # Access counters are maintained unconditionally by every BTB and are tiny
    # next to the result, so they ride along in every payload; that keeps the
    # energy analysis (Table V) on the same cached cells as the MPKI and
    # performance figures instead of forking the cache key.
    # energy_access_counts() is the same merge point the scenario runner and
    # BTBEnergyModel use, so BTB-X's companion traffic is priced identically
    # whichever path computes Table V.
    return {
        "result": _result_to_payload(result),
        "access_counts": btb.energy_access_counts(),
    }


def _worker_execute(
    job: "EngineJob", record: bool = False
) -> tuple[str, Dict[str, object], List[Dict[str, object]] | None]:
    """Pool entry point: regenerate the trace(s) locally and run the job.

    With ``record`` set (the parent's recorder is enabled), the worker buffers
    its own telemetry in a pid-origin :class:`~repro.obs.JsonlRecorder` and
    ships the events back pickled with the result; the parent merges them so a
    single trace file covers the whole pool.  Telemetry never enters the
    payload itself, so disk-cache entries stay identical with recording on.
    """
    config_hash = job.config_hash()
    if not record:
        return config_hash, execute_job(job), None
    recorder = JsonlRecorder()
    with use_recorder(recorder):
        with recorder.span(
            "engine.execute", job=config_hash[:12], kind=type(job).__name__
        ):
            payload = execute_job(job)
    return config_hash, payload, recorder.drain()


def _payload_to_outcome(payload: Mapping[str, object]) -> JobOutcome:
    return JobOutcome(
        result=_payload_to_result(payload["result"]),
        access_counts=payload.get("access_counts"),
        scenario=_payload_to_scenario(payload) if "scenario" in payload else None,
    )


# -- on-disk cache -------------------------------------------------------------

#: File suffixes of the cache's two entry kinds: job payloads (JSON) and
#: generated traces (the binary format of :mod:`repro.traces.binary_io`).
_RESULT_SUFFIX = ".json"
_TRACE_SUFFIX = ".btbx"


def _entry_payload(raw: bytes) -> Dict[str, object] | None:
    """The payload of a raw result entry, or None when it is malformed.

    A well-formed entry is a JSON object whose ``payload`` is an object with
    a ``result`` object; anything else that parses (``null``, a list, a
    non-object ``result``) is as corrupt as bytes that do not.
    """
    try:
        entry = json.loads(raw)
    except ValueError:
        return None
    payload = entry.get("payload") if isinstance(entry, dict) else None
    if not isinstance(payload, dict) or not isinstance(payload.get("result"), dict):
        return None
    return payload


def _rehydrates(payload: Mapping[str, object]) -> bool:
    """True when ``payload`` turns back into a :class:`JobOutcome`."""
    try:
        _payload_to_outcome(payload)
    except (LookupError, TypeError, ValueError, AttributeError):
        return False
    return True


class ResultCache:
    """Content-addressed on-disk store of job payloads and generated traces.

    Two entry kinds share one layout.  A job's payload is a JSON file named
    by the job's config hash (``ab/<hash>.json``); a generated trace is a
    binary trace file named by :func:`repro.workloads.suites.trace_cache_key`
    (``cd/<key>.btbx``).  Entries are sharded into subdirectories by the
    key's leading hex byte, so a service-scale cache of tens of thousands of
    entries never piles every file into one directory (directory scans stay
    cheap, and concurrent writers spread their ``os.replace`` traffic across
    256 directories).  Writes go through a temp file in the entry's shard
    plus :func:`os.replace`, so concurrent processes sharing a cache
    directory never observe partial entries.  Pre-sharding result entries
    are still readable: lookups fall back to the legacy flat path, and
    maintenance walks both layouts.  An unreadable entry is a miss; a
    malformed one is also reported through the reader's ``on_corrupt``.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _shard_dir(self, key: str) -> str:
        return os.path.join(self.directory, key[:2])

    def _path(self, key: str, suffix: str = _RESULT_SUFFIX) -> str:
        return os.path.join(self._shard_dir(key), f"{key}{suffix}")

    def _legacy_path(self, config_hash: str) -> str:
        return os.path.join(self.directory, f"{config_hash}.json")

    def get(
        self, job: "EngineJob", on_corrupt: Callable[[str], None] | None = None
    ) -> Dict[str, object] | None:
        """Load the payload of ``job`` or None on a miss/corrupt entry.

        Any unreadable entry — missing, permission-denied on a shared cache
        directory, unparseable or of the wrong shape — is a miss: the job
        simply re-simulates and overwrites it.  ``on_corrupt`` is called with
        the path of each entry that exists but is malformed.  Entries written
        before sharding are found at the legacy flat path.
        """
        config_hash = job.config_hash()
        for path in (self._path(config_hash), self._legacy_path(config_hash)):
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                continue
            payload = _entry_payload(raw)
            if payload is None:
                if on_corrupt is not None:
                    on_corrupt(path)
                continue
            return payload
        return None

    def put(self, job: "EngineJob", payload: Mapping[str, object]) -> None:
        """Persist the payload of ``job`` atomically (into its shard)."""
        entry = {"job": job.config_dict(), "payload": payload}
        self._write(self._path(job.config_hash()), json.dumps(entry).encode("utf-8"))

    def get_trace(
        self,
        key: str,
        workload: str,
        instructions: int,
        on_corrupt: Callable[[str], None] | None = None,
    ) -> Trace | None:
        """Load the trace stored under ``key`` or None on a miss/corrupt entry.

        An entry that does not decode, or holds a trace of another name or
        length than ``workload`` at ``instructions``, is corrupt: it misses
        and ``on_corrupt`` is called with its path.
        """
        path = self._path(key, _TRACE_SUFFIX)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        try:
            trace = decode_trace(data)
        except TraceFormatError:
            trace = None
        if trace is None or trace.name != workload or len(trace) != instructions:
            if on_corrupt is not None:
                on_corrupt(path)
            return None
        return trace

    def put_trace(self, key: str, trace: Trace) -> None:
        """Persist ``trace`` under ``key`` atomically (into its shard)."""
        self._write(self._path(key, _TRACE_SUFFIX), encode_trace(trace))

    def _write(self, path: str, data: bytes) -> None:
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise

    def __len__(self) -> int:
        """Number of result entries (trace entries are not counted)."""
        return len(self._entry_paths())

    def _scan_dirs(self) -> List[str]:
        """The flat directory plus every shard subdirectory, scan order fixed.

        Shards that vanish mid-scan (a concurrent ``clear``) simply drop out.
        """
        dirs = [self.directory]
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return dirs
        for name in names:
            path = os.path.join(self.directory, name)
            if len(name) == 2 and os.path.isdir(path):
                dirs.append(path)
        return dirs

    def _entry_paths(self, suffixes: tuple[str, ...] = (_RESULT_SUFFIX,)) -> List[str]:
        paths: List[str] = []
        for directory in self._scan_dirs():
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            paths.extend(
                os.path.join(directory, name) for name in names if name.endswith(suffixes)
            )
        return paths

    def stats(self) -> Dict[str, object]:
        """Entry counts and bytes of each kind, and the age range of all entries.

        ``entries``/``total_bytes`` cover job payloads and
        ``trace_entries``/``trace_bytes`` the cached traces.  Entries that
        vanish mid-scan (a concurrent prune or run) are simply skipped,
        mirroring how :meth:`get` treats unreadable files.
        """
        counts = {_RESULT_SUFFIX: [0, 0], _TRACE_SUFFIX: [0, 0]}
        oldest: float | None = None
        newest: float | None = None
        for path in self._entry_paths((_RESULT_SUFFIX, _TRACE_SUFFIX)):
            try:
                info = os.stat(path)
            except OSError:
                continue
            tally = counts[os.path.splitext(path)[1]]
            tally[0] += 1
            tally[1] += info.st_size
            oldest = info.st_mtime if oldest is None else min(oldest, info.st_mtime)
            newest = info.st_mtime if newest is None else max(newest, info.st_mtime)
        return {
            "directory": self.directory,
            "entries": counts[_RESULT_SUFFIX][0],
            "total_bytes": counts[_RESULT_SUFFIX][1],
            "trace_entries": counts[_TRACE_SUFFIX][0],
            "trace_bytes": counts[_TRACE_SUFFIX][1],
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def _entry_format_versions(self) -> Iterator[int]:
        """Format version of each readable result entry, lazily.

        Every entry records the ``cache_format`` its job config was hashed
        under; pre-versioning entries report as 0, unreadable or malformed
        ones are skipped (like :meth:`get`).
        """
        for path in self._entry_paths():
            try:
                with open(path, "rb") as handle:
                    entry = json.loads(handle.read())
            except (OSError, ValueError):
                continue
            if not isinstance(entry, dict):
                continue
            job = entry.get("job")
            version = job.get("cache_format", 0) if isinstance(job, dict) else 0
            yield version if isinstance(version, int) else 0

    def format_versions(self) -> List[int]:
        """Sorted distinct on-disk format versions of the cached entries.

        A full-content scan, which is fine for the informational ``cache
        stats`` path (result caches are thousands of small JSON files).
        """
        return sorted(set(self._entry_format_versions()))

    def newer_format_than(self, version: int) -> int | None:
        """First on-disk format newer than ``version``, or None.

        Stops at the first offending entry, so guarding ``prune`` against a
        newer tool's cache does not pay a whole-directory parse when the
        very first entry already answers the question.
        """
        return next(
            (found for found in self._entry_format_versions() if found > version),
            None,
        )

    #: A ``.tmp`` file younger than this is an in-flight atomic write of a
    #: concurrent run, not a crash orphan; prune leaves it alone.
    _TMP_GRACE_SECONDS = 3600.0

    def prune(self, max_age_seconds: float | None = None) -> int:
        """Delete cached entries older than ``max_age_seconds`` (all when None).

        Both kinds go: job payloads and traces.  Returns the number of
        entries removed.  Crash-orphaned ``.tmp`` files are swept too, but
        only once they are comfortably older than any in-flight write could
        be, so pruning a cache directory a concurrent run is writing to never
        breaks that run's atomic replace.
        """
        now = time.time()
        cutoff = None if max_age_seconds is None else now - max_age_seconds
        removed = 0
        for path in self._entry_paths((_RESULT_SUFFIX, _TRACE_SUFFIX)):
            try:
                if cutoff is not None and os.stat(path).st_mtime >= cutoff:
                    continue
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        tmp_cutoff = now - self._TMP_GRACE_SECONDS
        for directory in self._scan_dirs():
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.endswith(".tmp"):
                    path = os.path.join(directory, name)
                    with contextlib.suppress(OSError):
                        if os.stat(path).st_mtime < tmp_cutoff:
                            os.unlink(path)
        return removed

    def clear(self) -> None:
        """Delete every cached entry (and any crash-orphaned temp file)."""
        for directory in self._scan_dirs():
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.endswith((_RESULT_SUFFIX, _TRACE_SUFFIX, ".tmp")):
                    with contextlib.suppress(OSError):
                        os.unlink(os.path.join(directory, name))


# -- the engine ---------------------------------------------------------------


@dataclass
class EngineCounters:
    """Where each submitted job's result came from (for tests and reports)."""

    submitted: int = 0
    executed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    #: Stream instructions actually simulated (executed jobs only -- memo and
    #: disk hits re-use results without simulating, so they add nothing).
    instructions_simulated: int = 0
    #: Malformed disk-cache entries met on lookup (each then re-simulated).
    cache_corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "instructions_simulated": self.instructions_simulated,
            "cache_corrupt": self.cache_corrupt,
        }


class ExperimentEngine:
    """Executes :class:`SimJob` lists with pooling and memoization.

    ``workers=1`` runs jobs inline (no subprocess overhead, still memoized);
    ``workers>1`` fans the cache misses out over a process pool.  One engine
    is meant to be shared across experiment drivers — its in-memory memo is
    what lets ``run-all`` simulate each overlapping grid cell exactly once.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | os.PathLike | None = None,
        trace_store: TraceStore | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("engine needs at least one worker")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.trace_store = trace_store or default_store()
        self.counters = EngineCounters()
        # LRU-bounded so a long-lived library process cannot grow the memo
        # forever (payloads are small; the bound comfortably covers a full-
        # scale sweep of 43 traces x 3 styles x 7 budgets x 2 FDIP modes).
        self._memo: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._memo_limit = 4096

    # -- execution ----------------------------------------------------------

    def run_jobs(
        self,
        jobs: Sequence["EngineJob"],
        traces: Mapping[str, Trace] | None = None,
    ) -> List[JobOutcome]:
        """Execute ``jobs`` and return their outcomes in submission order.

        ``traces`` optionally supplies already-built :class:`Trace` objects by
        workload name; inline execution uses them directly, worker processes
        always regenerate deterministically from the workload specs.
        """
        recorder = get_recorder()
        self.counters.submitted += len(jobs)
        recorder.count("engine.submitted", len(jobs))
        recorder.gauge("engine.workers", self.workers)
        hashes = [job.config_hash() for job in jobs]

        with recorder.span("engine.run_jobs", jobs=len(jobs), workers=self.workers):
            # Resolve duplicates and cache hits first; collect the true misses.
            # ``resolved`` is the call-local view, immune to memo LRU eviction.
            resolved: Dict[str, Dict[str, object]] = {}
            misses: List[tuple[str, SimJob]] = []
            with recorder.span("engine.memo_lookup", jobs=len(jobs)):
                for job, config_hash in zip(jobs, hashes):
                    if config_hash in resolved:
                        continue
                    payload = self.lookup(job, config_hash)
                    if payload is not None:
                        resolved[config_hash] = payload
                        continue
                    resolved[config_hash] = {}  # placeholder; filled by execution
                    misses.append((config_hash, job))

            for config_hash, payload in self._execute(misses, traces or {}):
                self.counters.executed += 1
                recorder.count("engine.executed")
                job = self._job_by_hash(misses, config_hash)
                self.counters.instructions_simulated += job.instructions
                recorder.count("engine.instructions_simulated", job.instructions)
                self._memoize(config_hash, payload)
                resolved[config_hash] = payload
                if self.cache is not None:
                    with recorder.span("engine.cache_write", job=config_hash[:12]):
                        self.cache.put(job, payload)

        return [_payload_to_outcome(resolved[config_hash]) for config_hash in hashes]

    def run_job(self, job: "EngineJob", trace: Trace | None = None) -> JobOutcome:
        """Convenience wrapper for a single job."""
        traces = {trace.name: trace} if trace is not None else None
        return self.run_jobs([job], traces=traces)[0]

    def lookup(
        self, job: "EngineJob", config_hash: str | None = None
    ) -> Dict[str, object] | None:
        """Resolve ``job`` from the memo or disk cache without executing it.

        Counts the hit (and promotes disk hits into the memo) exactly like
        :meth:`run_jobs` does, so callers that schedule their own execution —
        the sweep service resolves cache hits before admission control — keep
        the counters meaningful.  Returns None on a true miss.
        """
        recorder = get_recorder()
        if config_hash is None:
            config_hash = job.config_hash()
        if config_hash in self._memo:
            self.counters.memo_hits += 1
            recorder.count("engine.memo_hits")
            self._memo.move_to_end(config_hash)
            return self._memo[config_hash]
        if self.cache is not None:
            with recorder.span("engine.cache_read", job=config_hash[:12]):
                payload = self.cache.get(job, on_corrupt=self._count_corrupt)
                if payload is not None and not _rehydrates(payload):
                    # Well-formed on disk but not a payload this engine wrote.
                    self._count_corrupt(config_hash)
                    payload = None
            if payload is not None:
                self.counters.disk_hits += 1
                recorder.count("engine.disk_hits")
                self._memoize(config_hash, payload)
                return payload
        return None

    def _count_corrupt(self, entry: str) -> None:
        self.counters.cache_corrupt += 1
        get_recorder().count("engine.cache_corrupt")

    def record_executed(self, job: "EngineJob", payload: Dict[str, object]) -> None:
        """Absorb a payload executed outside :meth:`run_jobs` (service path).

        Memoizes, persists to the disk cache and advances the executed /
        instructions-simulated counters, so external executors (the sweep
        service runs cells on its own pool) look identical in ``stats()``.
        """
        recorder = get_recorder()
        config_hash = job.config_hash()
        self.counters.executed += 1
        recorder.count("engine.executed")
        self.counters.instructions_simulated += job.instructions
        recorder.count("engine.instructions_simulated", job.instructions)
        self._memoize(config_hash, payload)
        if self.cache is not None:
            with recorder.span("engine.cache_write", job=config_hash[:12]):
                self.cache.put(job, payload)

    def _execute(
        self,
        misses: Sequence[tuple[str, "EngineJob"]],
        traces: Mapping[str, Trace],
    ) -> Iterator[tuple[str, Dict[str, object]]]:
        if not misses:
            return
        recorder = get_recorder()
        if self.workers == 1 or len(misses) == 1:
            for config_hash, job in misses:
                # Scenario jobs have no single workload; they compose their own
                # tenant traces from the store.
                trace = traces.get(getattr(job, "workload", None))
                with recorder.span(
                    "engine.execute", job=config_hash[:12], kind=type(job).__name__
                ):
                    payload = execute_job(job, trace=trace, trace_store=self.trace_store)
                yield config_hash, payload
            return
        max_workers = min(self.workers, len(misses))
        record = bool(recorder.enabled)
        parent_id = recorder.current_span_id() if record else None
        submit_ts = time.time()
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=share_cache_with_worker,
            initargs=(None if self.cache is None else self.cache.directory,),
        ) as pool:
            results = pool.map(
                _worker_execute, [job for _, job in misses], [record] * len(misses)
            )
            for config_hash, payload, events in results:
                if events:
                    # The worker's root span is its engine.execute; its wall-
                    # clock start minus our submit time is the queue wait.
                    root = next(
                        (
                            e
                            for e in events
                            if e.get("type") == "span" and e.get("parent_id") is None
                        ),
                        None,
                    )
                    if root is not None:
                        recorder.emit_span(
                            "engine.queue_wait",
                            ts=submit_ts,
                            dur=max(0.0, root["ts"] - submit_ts),
                            parent_id=parent_id,
                            job=config_hash[:12],
                        )
                    recorder.merge(events, parent_id=parent_id)
                yield config_hash, payload

    @staticmethod
    def _job_by_hash(misses: Sequence[tuple[str, "EngineJob"]], config_hash: str) -> "EngineJob":
        for candidate_hash, job in misses:
            if candidate_hash == config_hash:
                return job
        raise KeyError(config_hash)  # pragma: no cover - executor invariant

    # -- bookkeeping ---------------------------------------------------------

    def _memoize(self, config_hash: str, payload: Dict[str, object]) -> None:
        self._memo[config_hash] = payload
        self._memo.move_to_end(config_hash)
        while len(self._memo) > self._memo_limit:
            self._memo.popitem(last=False)

    def clear_memo(self) -> None:
        """Drop the in-memory memo (the disk cache, if any, is kept)."""
        self._memo.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: submitted/executed/memo_hits/disk_hits."""
        return self.counters.as_dict()


# -- active-engine plumbing ---------------------------------------------------

_ACTIVE_ENGINE: ExperimentEngine | None = None


def get_active_engine() -> ExperimentEngine:
    """The engine drivers submit to when not handed one explicitly.

    Defaults to a serial, disk-cache-less engine so library users who never
    touch the CLI see the historical single-process behavior.
    """
    global _ACTIVE_ENGINE
    if _ACTIVE_ENGINE is None:
        _ACTIVE_ENGINE = ExperimentEngine(workers=1)
    return _ACTIVE_ENGINE


def set_active_engine(engine: ExperimentEngine | None) -> None:
    """Install (or with None, reset) the process-wide active engine."""
    global _ACTIVE_ENGINE
    _ACTIVE_ENGINE = engine


def active_cache() -> ResultCache | None:
    """The active engine's on-disk cache; None without one (creates no engine).

    The trace store reads and writes its trace tier here.
    """
    return None if _ACTIVE_ENGINE is None else _ACTIVE_ENGINE.cache


def share_cache_with_worker(cache_dir: str | None) -> None:
    """Pool initializer: make ``cache_dir`` the worker's active cache.

    A worker then loads the traces its parent's engine has cached (and adds
    the ones it generates), whatever the pool's start method.
    """
    set_active_engine(None if cache_dir is None else ExperimentEngine(cache_dir=cache_dir))


def clear_active_memo() -> None:
    """Clear the active engine's in-memory memo, if an engine exists.

    Does not lazily create an engine; ``clear_trace_cache`` calls this so
    "drop the caches" keeps meaning every in-process cache.
    """
    if _ACTIVE_ENGINE is not None:
        _ACTIVE_ENGINE.clear_memo()


@contextlib.contextmanager
def use_engine(engine: ExperimentEngine) -> Iterator[ExperimentEngine]:
    """Scope ``engine`` as the active engine (the CLI wraps runs in this)."""
    previous = _ACTIVE_ENGINE
    set_active_engine(engine)
    try:
        yield engine
    finally:
        set_active_engine(previous)
