"""Aggregate a JSONL trace into a human-readable phase report.

Backs ``btbx-repro obs report <trace.jsonl>``: spans are grouped by name
into *phases* (count / total / p50 / p95), counter events with the same name
are summed across processes, and a few derived figures are computed when the
required spans are present:

* **pool utilization** -- total worker ``engine.execute`` time divided by
  (workers x wall time of the enclosing ``engine.run_jobs`` spans);
* **cache hit rates** -- memo/disk hit fractions from the engine counters
  and hit/miss/eviction fractions from the trace store counters, with the
  store's misses split into traces loaded from the disk tier
  (``trace.load`` spans, ``trace.store.disk_hits``) and traces generated
  and written to it (``trace.store.disk_writes``), plus the malformed
  entries either cache met (``engine.cache_corrupt``,
  ``trace.store.corrupt``);
* **instructions/sec per driver** -- from ``driver.*`` spans carrying an
  ``instructions`` attribute (emitted by ``run-all``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.recorder import read_trace

__all__ = ["read_trace", "percentile", "aggregate", "format_report"]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation surprises)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = int(round(q * (len(ordered) - 1)))
    return ordered[min(index, len(ordered) - 1)]


def aggregate(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce recorder events to the report structure rendered by the CLI."""
    spans = [e for e in events if e.get("type") == "span"]
    durations: Dict[str, List[float]] = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(float(span.get("dur", 0.0)))

    phases = {}
    for name in sorted(durations):
        values = durations[name]
        phases[name] = {
            "count": len(values),
            "total_s": round(sum(values), 6),
            "p50_s": round(percentile(values, 0.50), 6),
            "p95_s": round(percentile(values, 0.95), 6),
        }

    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    for event in events:
        if event.get("type") == "counter":
            counters[event["name"]] = counters.get(event["name"], 0) + event.get("value", 0)
        elif event.get("type") == "gauge":
            gauges[event["name"]] = max(gauges.get(event["name"], 0.0), event.get("value", 0.0))

    report: Dict[str, Any] = {
        "events": len(events),
        "spans": len(spans),
        "phases": phases,
        "counters": dict(sorted(counters.items())),
    }

    # Pool utilization: worker execute time over workers x run_jobs wall time.
    run_jobs_wall = sum(durations.get("engine.run_jobs", []))
    execute_busy = sum(durations.get("engine.execute", []))
    workers = gauges.get("engine.workers", 0.0)
    if run_jobs_wall > 0 and workers > 0:
        report["pool"] = {
            "workers": int(workers),
            "run_jobs_wall_s": round(run_jobs_wall, 6),
            "execute_busy_s": round(execute_busy, 6),
            "utilization": round(execute_busy / (workers * run_jobs_wall), 4),
        }

    # Cache hit rates from the engine and trace-store counters.
    caches: Dict[str, Any] = {}
    submitted = counters.get("engine.submitted", 0)
    if submitted:
        memo = counters.get("engine.memo_hits", 0)
        disk = counters.get("engine.disk_hits", 0)
        caches["engine"] = {
            "submitted": submitted,
            "memo_hits": memo,
            "disk_hits": disk,
            "executed": counters.get("engine.executed", 0),
            "corrupt": counters.get("engine.cache_corrupt", 0),
            "hit_rate": round((memo + disk) / submitted, 4),
        }
    store_hits = counters.get("trace.store.hits", 0)
    store_misses = counters.get("trace.store.misses", 0)
    if store_hits + store_misses:
        caches["trace_store"] = {
            "hits": store_hits,
            "misses": store_misses,
            "evictions": counters.get("trace.store.evictions", 0),
            "disk_hits": counters.get("trace.store.disk_hits", 0),
            "disk_writes": counters.get("trace.store.disk_writes", 0),
            "corrupt": counters.get("trace.store.corrupt", 0),
            "hit_rate": round(store_hits / (store_hits + store_misses), 4),
        }
    if caches:
        report["caches"] = caches

    # Sweep-service traffic: request/dedup/admission counters plus the wait
    # picture (how long clients blocked on in-flight cells).
    requests = counters.get("service.requests", 0)
    if requests:
        waits = durations.get("service.wait", [])
        service: Dict[str, Any] = {
            "requests": requests,
            "submitted": counters.get("service.submitted", 0),
            "dedup_hits": counters.get("service.dedup_hits", 0),
            "rejected": counters.get("service.rejected", 0),
            "connections": len(durations.get("service.accept", [])),
            "cells_executed": len(durations.get("service.execute", [])),
        }
        if waits:
            service["wait_p95_s"] = round(percentile(waits, 0.95), 6)
        report["service"] = service

    # Batched-backend split: how much of the stream ran on the vectorized
    # paths (bulk-compensated fast runs, planned commits) versus the scalar
    # fallbacks.  Emitted once per batched run by _BatchEngine.emit_metrics.
    commits_vectorized = counters.get("batch.commits_vectorized", 0)
    commits_scalar = counters.get("batch.commits_scalar", 0)
    fast = counters.get("batch.instructions_fast", 0)
    slow = counters.get("batch.instructions_slow", 0)
    if commits_vectorized + commits_scalar or fast + slow:
        batch: Dict[str, Any] = {
            "commits_vectorized": commits_vectorized,
            "commits_scalar": commits_scalar,
            "instructions_fast": fast,
            "instructions_slow": slow,
            "chunks_planned": counters.get("batch.chunks_planned", 0),
            "chunks_scalar": counters.get("batch.chunks_scalar", 0),
        }
        if commits_vectorized + commits_scalar:
            batch["commit_vectorized_fraction"] = round(
                commits_vectorized / (commits_vectorized + commits_scalar), 4
            )
        if fast + slow:
            batch["instructions_fast_fraction"] = round(fast / (fast + slow), 4)
        report["batch"] = batch

    # Pipelined-compose overlap: SoA decode spans emitted by the producer
    # thread while the consumer sat inside a scenario.simulate window.  A
    # nonzero overlap is the observable proof that compose work ran
    # concurrently with simulation.
    decode_spans = [s for s in spans if s["name"] == "scenario.compose.decode"]
    simulate_windows = [
        (float(s.get("ts", 0.0)), float(s.get("ts", 0.0)) + float(s.get("dur", 0.0)))
        for s in spans
        if s["name"] == "scenario.simulate"
    ]
    if decode_spans:
        overlap = 0.0
        for span in decode_spans:
            t0 = float(span.get("ts", 0.0))
            t1 = t0 + float(span.get("dur", 0.0))
            for w0, w1 in simulate_windows:
                lo, hi = max(t0, w0), min(t1, w1)
                if hi > lo:
                    overlap += hi - lo
        report["pipeline"] = {
            "decode_spans": len(decode_spans),
            "decode_total_s": round(
                sum(float(s.get("dur", 0.0)) for s in decode_spans), 6
            ),
            "overlap_s": round(overlap, 6),
        }

    # Instructions/sec per driver from run-all's driver.* spans.
    drivers: Dict[str, Any] = {}
    for span in spans:
        name = span["name"]
        if not name.startswith("driver."):
            continue
        attrs = span.get("attrs") or {}
        instructions = attrs.get("instructions")
        dur = float(span.get("dur", 0.0))
        entry = drivers.setdefault(
            name[len("driver."):], {"wall_s": 0.0, "instructions": 0}
        )
        entry["wall_s"] += dur
        if instructions:
            entry["instructions"] += int(instructions)
    for entry in drivers.values():
        entry["wall_s"] = round(entry["wall_s"], 6)
        if entry["wall_s"] > 0 and entry["instructions"]:
            entry["ips"] = round(entry["instructions"] / entry["wall_s"], 1)
    if drivers:
        report["drivers"] = dict(sorted(drivers.items()))

    return report


def format_report(report: Dict[str, Any]) -> str:
    """Render the aggregate as the fixed-width tables the CLI prints."""
    lines = [f"trace: {report['events']} events, {report['spans']} spans", ""]

    lines.append(f"{'phase':<28} {'count':>7} {'total_s':>10} {'p50_s':>10} {'p95_s':>10}")
    lines.append("-" * 68)
    for name, row in report["phases"].items():
        lines.append(
            f"{name:<28} {row['count']:>7} {row['total_s']:>10.4f}"
            f" {row['p50_s']:>10.6f} {row['p95_s']:>10.6f}"
        )

    pool = report.get("pool")
    if pool:
        lines.append("")
        lines.append(
            f"pool: {pool['workers']} workers, busy {pool['execute_busy_s']:.3f}s"
            f" / wall {pool['run_jobs_wall_s']:.3f}s -> utilization {pool['utilization']:.1%}"
        )

    caches = report.get("caches", {})
    engine = caches.get("engine")
    if engine:
        lines.append("")
        lines.append(
            f"engine cache: {engine['submitted']} submitted,"
            f" {engine['memo_hits']} memo + {engine['disk_hits']} disk hits,"
            f" {engine['executed']} executed (hit rate {engine['hit_rate']:.1%})"
            + (f", {engine['corrupt']} corrupt entries" if engine["corrupt"] else "")
        )
    store = caches.get("trace_store")
    if store:
        lines.append(
            f"trace store : {store['hits']} hits, {store['misses']} misses,"
            f" {store['evictions']} evictions (hit rate {store['hit_rate']:.1%})"
        )
        if store["disk_hits"] or store["disk_writes"] or store["corrupt"]:
            lines.append(
                f"trace disk  : {store['disk_hits']} loaded, {store['disk_writes']} generated"
                f" and written, {store['corrupt']} corrupt entries"
            )

    service = report.get("service")
    if service:
        lines.append("")
        wait = (
            f", result-wait p95 {service['wait_p95_s']:.3f}s"
            if "wait_p95_s" in service
            else ""
        )
        lines.append(
            f"service     : {service['requests']} requests over"
            f" {service['connections']} connections,"
            f" {service['submitted']} jobs submitted,"
            f" {service['cells_executed']} cells executed,"
            f" {service['dedup_hits']} dedup hits,"
            f" {service['rejected']} rejected{wait}"
        )

    batch = report.get("batch")
    if batch:
        lines.append("")
        commit_total = batch["commits_vectorized"] + batch["commits_scalar"]
        commit_part = (
            f" ({batch['commit_vectorized_fraction']:.1%} vectorized)"
            if commit_total
            else ""
        )
        lines.append(
            f"batch commits: {batch['commits_vectorized']} vectorized,"
            f" {batch['commits_scalar']} scalar{commit_part}"
        )
        stream_total = batch["instructions_fast"] + batch["instructions_slow"]
        if stream_total:
            lines.append(
                f"batch stream : {batch['instructions_fast']} fast,"
                f" {batch['instructions_slow']} slow"
                f" ({batch['instructions_fast_fraction']:.1%} fast),"
                f" chunks {batch['chunks_planned']} planned"
                f" / {batch['chunks_scalar']} scalar"
            )

    pipeline = report.get("pipeline")
    if pipeline:
        lines.append("")
        lines.append(
            f"pipeline    : {pipeline['decode_spans']} decode spans,"
            f" {pipeline['decode_total_s']:.3f}s decoded,"
            f" {pipeline['overlap_s']:.3f}s overlapping simulate"
        )

    drivers = report.get("drivers")
    if drivers:
        lines.append("")
        lines.append(f"{'driver':<24} {'wall_s':>10} {'instructions':>14} {'ips':>12}")
        lines.append("-" * 62)
        for name, row in drivers.items():
            ips = f"{row['ips']:.1f}" if "ips" in row else "-"
            lines.append(
                f"{name:<24} {row['wall_s']:>10.3f} {row['instructions']:>14} {ips:>12}"
            )

    counters = report.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<32} {value}")

    return "\n".join(lines)
