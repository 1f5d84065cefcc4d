"""The asyncio sweep service: many clients, one engine, exactly-once cells.

:class:`SweepService` wraps one :class:`~repro.experiments.engine.ExperimentEngine`
(one warm trace store, one in-memory memo, one sharded disk cache) behind the
NDJSON protocol of :mod:`repro.service.protocol`.  All bookkeeping — job
records, the in-flight table, budget accounting — lives on the event-loop
thread, so there are no locks; simulations run on a shared
``ProcessPoolExecutor`` via :func:`_service_worker`.

Exactly-once semantics by config hash:

* a submitted cell already in the memo or disk cache resolves instantly
  (engine counters record the memo/disk hit);
* a cell another client is *currently* simulating attaches to the same
  in-flight entry (``service.dedup_hits``) instead of re-running;
* only true misses are scheduled on the pool, and their results flow back
  through :meth:`ExperimentEngine.record_executed`, so the engine's
  ``executed`` counter equals the number of distinct cells simulated no
  matter how many clients raced.

Admission control happens before anything is scheduled: the un-cached,
un-inflight remainder of a grid is priced in instructions against the
client's :class:`~repro.service.budget.InstructionBudget`; over-budget grids
are rejected with a scale suggestion and no simulation runs.

A janitor task periodically prunes the disk cache (age-bounded) in a thread
so the loop never blocks on directory walks.  Telemetry: connections emit
``service.accept`` spans, submissions ``service.submit``, result waits
``service.wait``, janitor sweeps ``service.janitor``; pool workers ship
their spans back exactly like the engine's own pool path.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Set

from repro.common.config import BACKEND_ENV_VAR, resolve_backend
from repro.common.errors import ConfigurationError
from repro.experiments.engine import (
    EngineJob,
    ExperimentEngine,
    _worker_execute,
    share_cache_with_worker,
)
from repro.obs import get_recorder
from repro.service import protocol
from repro.service.budget import (
    DEFAULT_BUDGET_INSTRUCTIONS,
    DEFAULT_WINDOW_SECONDS,
    InstructionBudget,
)

#: How long a ``result`` op waits for an in-flight cell by default.
DEFAULT_RESULT_TIMEOUT = 600.0


def _service_worker(
    job: EngineJob, backend: Optional[str], record: bool
) -> tuple:
    """Pool entry point: run one cell with the backend threaded explicitly.

    The service never relies on ambient ``REPRO_BACKEND`` mutations in the
    parent (the bug class this PR removes from the CLI): the chosen backend
    rides along as an argument and is scoped to the job inside the worker
    process, restored even on failure.
    """
    if backend is None:
        return _worker_execute(job, record)
    previous = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = backend
    try:
        return _worker_execute(job, record)
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = previous


@dataclass
class ServiceConfig:
    """Everything a :class:`SweepService` needs to listen and execute."""

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    cache_dir: Optional[str] = None
    backend: Optional[str] = None
    budget_instructions: int = DEFAULT_BUDGET_INSTRUCTIONS
    budget_window_seconds: float = DEFAULT_WINDOW_SECONDS
    janitor_interval_seconds: float = 300.0
    #: Entries older than this are pruned by the janitor; None keeps all.
    max_age_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("service needs at least one worker")
        if self.backend is not None:
            # Normalize (and validate) once, up front, like the CLI does.
            self.backend = resolve_backend(self.backend)


@dataclass
class JobRecord:
    """One submitted cell as one client sees it."""

    job_id: str
    client: str
    config_hash: str
    job: EngineJob
    state: str = "queued"  # queued | running | done | failed | cancelled
    source: Optional[str] = None  # executed | memo | disk | deduped
    payload: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    submitted_ts: float = field(default_factory=time.time)
    finished_ts: Optional[float] = None

    def describe(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "config_hash": self.config_hash,
            "state": self.state,
            "source": self.source,
            "error": self.error,
        }


class _Inflight:
    """One distinct cell being simulated right now, shared by its records."""

    __slots__ = ("future", "aio", "records")

    def __init__(self, future: asyncio.Future, aio: asyncio.Future):
        self.future = future  # resolves to the payload dict
        self.aio = aio  # the run_in_executor future (cancellation handle)
        self.records: List[JobRecord] = []


class SweepService:
    """The service state machine; construct, then :meth:`run` (or use
    :class:`ServiceThread`, which does both on a background thread)."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        engine: ExperimentEngine | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.engine = engine or ExperimentEngine(
            workers=self.config.workers, cache_dir=self.config.cache_dir
        )
        self.budget = InstructionBudget(
            budget_instructions=self.config.budget_instructions,
            window_seconds=self.config.budget_window_seconds,
        )
        self.address: Optional[object] = None  # socket path or (host, port)
        self.started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._stopping: Optional[asyncio.Event] = None
        self._janitor: Optional[asyncio.Task] = None
        self._jobs: Dict[str, JobRecord] = {}
        self._entries: Dict[str, _Inflight] = {}
        self._conn_tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._job_seq = itertools.count(1)
        self._conn_seq = itertools.count(1)
        self._connections = 0
        self.service_counters: Dict[str, int] = {
            "requests": 0,
            "submissions": 0,
            "rejected": 0,
            "dedup_hits": 0,
            "cells_scheduled": 0,
            "janitor_runs": 0,
            "janitor_removed": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> None:
        """Listen, serve until :meth:`request_shutdown`, then tear down."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        cache = self.engine.cache
        self._pool = ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=share_cache_with_worker,
            initargs=(None if cache is None else cache.directory,),
        )
        if self.config.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path
            )
            self.address = self.config.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
            self.address = self._server.sockets[0].getsockname()[:2]
        if self.config.max_age_seconds is not None and self.engine.cache is not None:
            self._janitor = self._loop.create_task(self._janitor_loop())
        self.started.set()
        try:
            await self._stopping.wait()
        finally:
            if self._janitor is not None:
                self._janitor.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._janitor
            self._server.close()
            await self._server.wait_closed()
            # Close idle connections so their handler tasks end on EOF rather
            # than being cancelled mid-readline when the loop shuts down
            # (which 3.11's stream machinery logs as callback exceptions).
            for writer in list(self._writers):
                with contextlib.suppress(Exception):
                    writer.close()
            if self._conn_tasks:
                await asyncio.wait(list(self._conn_tasks), timeout=5.0)
            for entry in list(self._entries.values()):
                entry.aio.cancel()
            self._pool.shutdown(wait=True, cancel_futures=True)
            if self.config.socket_path:
                with contextlib.suppress(OSError):
                    os.unlink(self.config.socket_path)

    def request_shutdown(self) -> None:
        """Ask the service to stop; safe from any thread."""
        if self._loop is None or self._stopping is None:
            return
        self._loop.call_soon_threadsafe(self._stopping.set)

    async def _janitor_loop(self) -> None:
        """Periodically prune age-expired cache entries off the loop thread."""
        recorder = get_recorder()
        interval = self.config.janitor_interval_seconds
        while True:
            await asyncio.sleep(interval)
            ts = time.time()
            t0 = time.perf_counter()
            removed = await self._loop.run_in_executor(
                None, self.engine.cache.prune, self.config.max_age_seconds
            )
            self.service_counters["janitor_runs"] += 1
            self.service_counters["janitor_removed"] += removed
            recorder.count("service.janitor_runs")
            if emit := getattr(recorder, "emit_span", None):
                emit("service.janitor", ts=ts, dur=time.perf_counter() - t0,
                     removed=removed)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        recorder = get_recorder()
        conn = f"c{next(self._conn_seq)}"
        self._connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        ts = time.time()
        t0 = time.perf_counter()
        requests = 0
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if len(line) > protocol.MAX_LINE_BYTES:
                    writer.write(protocol.encode(protocol.error_reply(
                        "?", "protocol", "request line too long")))
                    await writer.drain()
                    break
                requests += 1
                self.service_counters["requests"] += 1
                recorder.count("service.requests")
                reply = await self._dispatch(line, conn)
                writer.write(protocol.encode(reply))
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
        finally:
            self._connections -= 1
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            if emit := getattr(recorder, "emit_span", None):
                emit("service.accept", ts=ts, dur=time.perf_counter() - t0,
                     conn=conn, requests=requests)

    async def _dispatch(self, line: bytes, conn: str) -> Dict[str, object]:
        try:
            request = protocol.decode(line)
        except protocol.ProtocolError as exc:
            return protocol.error_reply("?", "protocol", str(exc))
        op = request.get("op")
        version = request.get("v", protocol.PROTOCOL_VERSION)
        if version != protocol.PROTOCOL_VERSION:
            return protocol.error_reply(
                str(op), "version",
                f"protocol {version} unsupported (server speaks {protocol.PROTOCOL_VERSION})",
            )
        client = str(request.get("client") or conn)
        try:
            if op == "ping":
                return {
                    "ok": True, "op": "ping",
                    "version": protocol.PROTOCOL_VERSION, "pid": os.getpid(),
                }
            if op == "submit":
                return self._handle_submit(request, client)
            if op == "status":
                return self._handle_status(request)
            if op == "result":
                return await self._handle_result(request)
            if op == "cancel":
                return self._handle_cancel(request)
            if op == "stats":
                return self._handle_stats()
            if op == "shutdown":
                self._stopping.set()
                return {"ok": True, "op": "shutdown"}
        except protocol.ProtocolError as exc:
            return protocol.error_reply(str(op), "bad_request", str(exc))
        except Exception as exc:  # a bad request must not kill the connection
            return protocol.error_reply(
                str(op), "internal", f"{type(exc).__name__}: {exc}"
            )
        return protocol.error_reply(
            str(op), "unknown_op", f"unknown op {op!r} (expected one of {protocol.OPS})"
        )

    # -- submit / admission --------------------------------------------------

    def _handle_submit(self, request: Dict[str, object], client: str) -> Dict[str, object]:
        recorder = get_recorder()
        with recorder.span("service.submit", client=client):
            jobs = protocol.jobs_from_wire(request.get("jobs"))
            hashes = [job.config_hash() for job in jobs]

            # Classify each distinct cell before touching the budget: cached
            # and in-flight cells are free, only true misses cost budget.
            cached: Dict[str, Dict[str, object]] = {}
            new_cells: Dict[str, EngineJob] = {}
            for job, config_hash in zip(jobs, hashes):
                if (config_hash in cached or config_hash in new_cells
                        or config_hash in self._entries):
                    continue
                payload = self.engine.lookup(job, config_hash)
                if payload is not None:
                    cached[config_hash] = payload
                else:
                    new_cells[config_hash] = job
            estimate = sum(job.instructions for job in new_cells.values())
            decision = self.budget.check(client, estimate, cells=len(new_cells))
            if not decision.allowed:
                self.service_counters["rejected"] += 1
                recorder.count("service.rejected")
                return protocol.error_reply(
                    "submit", "over_budget", decision.message,
                    budget=decision.as_dict(),
                )
            self.budget.charge(client, estimate)

            self.service_counters["submissions"] += 1
            self.engine.counters.submitted += len(jobs)
            recorder.count("engine.submitted", len(jobs))
            recorder.count("service.submitted", len(jobs))

            # Schedule the misses, then attach a record per submitted job.
            for config_hash, job in new_cells.items():
                self._schedule_cell(config_hash, job)
            self.service_counters["cells_scheduled"] += len(new_cells)
            seen: Set[str] = set()
            records = []
            for job, config_hash in zip(jobs, hashes):
                record = JobRecord(
                    job_id=f"j{next(self._job_seq)}",
                    client=client,
                    config_hash=config_hash,
                    job=job,
                )
                if config_hash in cached:
                    record.state = "done"
                    record.source = "cached"  # engine counters say which kind
                    record.payload = cached[config_hash]
                    record.finished_ts = time.time()
                else:
                    entry = self._entries[config_hash]
                    entry.records.append(record)
                    record.state = "running"
                    if config_hash in new_cells and config_hash not in seen:
                        record.source = "executed"
                    else:
                        record.source = "deduped"
                        self.service_counters["dedup_hits"] += 1
                        recorder.count("service.dedup_hits")
                seen.add(config_hash)
                self._jobs[record.job_id] = record
                records.append(record)
            return {
                "ok": True,
                "op": "submit",
                "client": client,
                "jobs": [record.describe() for record in records],
                "budget": decision.as_dict(),
                "scheduled": len(new_cells),
            }

    def _schedule_cell(self, config_hash: str, job: EngineJob) -> None:
        recorder = get_recorder()
        record_telemetry = bool(recorder.enabled)
        aio = self._loop.run_in_executor(
            self._pool, _service_worker, job, self.config.backend, record_telemetry
        )
        entry = _Inflight(future=self._loop.create_future(), aio=aio)
        self._entries[config_hash] = entry
        self._loop.create_task(self._finish_cell(config_hash, job, entry, time.time()))

    async def _finish_cell(
        self, config_hash: str, job: EngineJob, entry: _Inflight, submit_ts: float
    ) -> None:
        recorder = get_recorder()
        try:
            _, payload, events = await entry.aio
        except asyncio.CancelledError:
            self._settle(entry, config_hash, state="cancelled", error="cancelled")
            if not entry.future.done():
                entry.future.cancel()
            return
        except Exception as exc:  # worker crashed or raised
            self._settle(entry, config_hash, state="failed", error=str(exc))
            if not entry.future.done():
                entry.future.set_exception(exc)
            return
        if events:
            recorder.merge(events, parent_id=None)
        self.engine.record_executed(job, payload)
        if emit := getattr(recorder, "emit_span", None):
            emit("service.execute", ts=submit_ts,
                 dur=time.time() - submit_ts, job=config_hash[:12])
        self._settle(entry, config_hash, state="done", payload=payload)
        if not entry.future.done():
            entry.future.set_result(payload)

    def _settle(
        self,
        entry: _Inflight,
        config_hash: str,
        state: str,
        payload: Optional[Dict[str, object]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Finalize every record attached to a cell and retire its entry."""
        now = time.time()
        for record in entry.records:
            if record.state == "cancelled":
                continue
            record.state = state
            record.payload = payload
            record.error = error
            record.finished_ts = now
        self._entries.pop(config_hash, None)

    # -- status / result / cancel -------------------------------------------

    def _record_or_error(self, request: Dict[str, object], op: str):
        job_id = request.get("job_id")
        record = self._jobs.get(job_id) if isinstance(job_id, str) else None
        if record is None:
            return None, protocol.error_reply(op, "unknown_job", f"unknown job_id {job_id!r}")
        return record, None

    def _handle_status(self, request: Dict[str, object]) -> Dict[str, object]:
        record, err = self._record_or_error(request, "status")
        if err:
            return err
        return {"ok": True, "op": "status", **record.describe()}

    async def _handle_result(self, request: Dict[str, object]) -> Dict[str, object]:
        record, err = self._record_or_error(request, "result")
        if err:
            return err
        timeout = float(request.get("timeout", DEFAULT_RESULT_TIMEOUT))
        recorder = get_recorder()
        if record.state in ("queued", "running"):
            entry = self._entries.get(record.config_hash)
            if entry is not None:
                ts = time.time()
                t0 = time.perf_counter()
                try:
                    # shield(): a timed-out waiter must not cancel the shared
                    # future other clients (and the cache write) depend on.
                    await asyncio.wait_for(asyncio.shield(entry.future), timeout)
                except asyncio.TimeoutError:
                    return protocol.error_reply(
                        "result", "timeout",
                        f"job {record.job_id} still running after {timeout:.0f}s",
                        state=record.state,
                    )
                except (asyncio.CancelledError, Exception):
                    pass  # record state carries the failure below
                finally:
                    if emit := getattr(recorder, "emit_span", None):
                        emit("service.wait", ts=ts, dur=time.perf_counter() - t0,
                             job_id=record.job_id, job=record.config_hash[:12])
        if record.state == "done":
            return {
                "ok": True, "op": "result", **record.describe(),
                "payload": record.payload,
            }
        descr = record.describe()
        descr.pop("error", None)  # must not clobber the reply's error *code*
        return protocol.error_reply(
            "result", record.state or "pending",
            record.error or f"job {record.job_id} is {record.state}",
            **descr,
        )

    def _handle_cancel(self, request: Dict[str, object]) -> Dict[str, object]:
        record, err = self._record_or_error(request, "cancel")
        if err:
            return err
        if record.state in ("done", "failed", "cancelled"):
            return {"ok": True, "op": "cancel", **record.describe()}
        record.state = "cancelled"
        record.finished_ts = time.time()
        entry = self._entries.get(record.config_hash)
        if entry is not None:
            entry.records = [r for r in entry.records if r.job_id != record.job_id]
            # Only abandon the simulation when nobody else wants it; a
            # started pool future ignores cancel() and still warms the cache.
            if not entry.records:
                entry.aio.cancel()
        return {"ok": True, "op": "cancel", **record.describe()}

    # -- stats ---------------------------------------------------------------

    def _handle_stats(self) -> Dict[str, object]:
        states: Dict[str, int] = {}
        for record in self._jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        return {
            "ok": True,
            "op": "stats",
            "engine": self.engine.stats(),
            "cache": None if self.engine.cache is None else self.engine.cache.stats(),
            "trace_store_entries": len(self.engine.trace_store),
            "jobs": states,
            "inflight": len(self._entries),
            "connections": self._connections,
            "service": dict(self.service_counters),
            "budget": {
                "budget_instructions": self.budget.budget_instructions,
                "window_seconds": self.budget.window_seconds,
                "usage": self.budget.usage(),
            },
        }


class ServiceThread:
    """Run a :class:`SweepService` on a daemon thread (tests, loadtest).

    ``start()`` blocks until the server is listening and returns the bound
    address (socket path, or ``(host, port)`` for TCP); ``stop()`` shuts the
    service down and joins the thread.  Usable as a context manager.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 engine: ExperimentEngine | None = None) -> None:
        self.service = SweepService(config, engine=engine)
        self._thread: Optional[threading.Thread] = None

    def start(self, timeout: float = 30.0):
        self._thread = threading.Thread(
            target=asyncio.run, args=(self.service.run(),), daemon=True
        )
        self._thread.start()
        if not self.service.started.wait(timeout):
            raise RuntimeError("sweep service failed to start listening")
        return self.service.address

    def stop(self, timeout: float = 30.0) -> None:
        self.service.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False
