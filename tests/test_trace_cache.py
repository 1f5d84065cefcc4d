"""The on-disk cache's two entry kinds: generated traces and job payloads.

While an engine with a ``cache_dir`` is active, the trace store loads each
trace from the cache's trace tier and generates (then writes) only what is
not there.  These tests pin that a loaded trace is the generated one, that
trace entries stay out of the engine's result accounting, that the python
backend loads without numpy, that pool workers read the same tier, and that
malformed entries of either kind are regenerated (or re-simulated),
overwritten and counted instead of crashing the run.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

import pytest

from repro.common.config import BTBStyle
from repro.experiments.engine import ExperimentEngine, ResultCache, SimJob, use_engine
from repro.obs import JsonlRecorder, use_recorder
from repro.obs.report import aggregate
from repro.traces.binary_io import encode_trace
from repro.traces.store import TraceStore, default_store
from repro.workloads.suites import build_workload

WORKLOAD = "client_003"
INSTRUCTIONS = 3_000


def _load(cache_dir, workload: str = WORKLOAD) -> tuple:
    """Resolve one trace through a fresh store under an engine on ``cache_dir``."""
    store = TraceStore()
    with use_engine(ExperimentEngine(cache_dir=cache_dir)):
        trace = store.get(workload, INSTRUCTIONS)
    return trace, store


def _trace_entries(cache_dir) -> list:
    return glob.glob(os.path.join(str(cache_dir), "*", "*.btbx"))


def _same_trace(left, right) -> bool:
    return (left.name, left.isa, left.metadata, list(left)) == (
        right.name, right.isa, right.metadata, list(right)
    )


class TestTraceTier:
    def test_warm_hit_equals_a_fresh_build(self, tmp_path):
        cold, cold_store = _load(tmp_path)
        assert (cold_store.disk_hits, cold_store.disk_writes) == (0, 1)
        warm, warm_store = _load(tmp_path)
        assert (warm_store.disk_hits, warm_store.disk_writes) == (1, 0)
        fresh = build_workload(WORKLOAD, INSTRUCTIONS)
        assert _same_trace(warm, fresh)
        assert _same_trace(cold, fresh)

    def test_trace_hits_never_touch_result_accounting(self, tmp_path):
        _load(tmp_path)
        engine = ExperimentEngine(cache_dir=tmp_path)
        store = TraceStore()
        with use_engine(engine):
            store.get(WORKLOAD, INSTRUCTIONS)
        assert store.disk_hits == 1
        stats = engine.stats()
        assert (stats["executed"], stats["disk_hits"], stats["memo_hits"]) == (0, 0, 0)
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        summary = cache.stats()
        assert (summary["entries"], summary["trace_entries"]) == (0, 1)
        assert summary["trace_bytes"] > 0

    def test_no_engine_or_custom_builder_means_no_disk_tier(self, tmp_path):
        store = TraceStore()
        store.get(WORKLOAD, INSTRUCTIONS)
        custom = TraceStore(builder=build_workload)
        with use_engine(ExperimentEngine(cache_dir=tmp_path)):
            custom.get(WORKLOAD, INSTRUCTIONS)
        assert store.disk_writes == custom.disk_writes == 0
        assert _trace_entries(tmp_path) == []

    def test_python_backend_warm_load_does_not_import_numpy(self, tmp_path):
        _load(tmp_path)
        script = (
            "import sys\n"
            "from repro.experiments.engine import ExperimentEngine, use_engine\n"
            "from repro.traces.store import default_store\n"
            f"with use_engine(ExperimentEngine(cache_dir={str(tmp_path)!r})):\n"
            f"    default_store().get({WORKLOAD!r}, {INSTRUCTIONS})\n"
            "print(default_store().disk_hits, 'numpy' in sys.modules)\n"
        )
        env = dict(os.environ, REPRO_BACKEND="python")
        env.pop("REPRO_OBS", None)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True
        ).stdout.split()
        assert out == ["1", "False"]

    def test_pool_workers_read_the_same_tier(self, tmp_path):
        workloads = ("client_004", "client_005")
        for workload in workloads:
            _load(tmp_path, workload)
        jobs = [
            SimJob(workload=workload, instructions=INSTRUCTIONS, warmup_instructions=500,
                   style=BTBStyle.BTBX, fdip_enabled=False, budget_kib=0.90625)
            for workload in workloads
        ]
        # Workers must not inherit the traces from this process's memory.
        default_store().clear()
        recorder = JsonlRecorder()
        engine = ExperimentEngine(workers=2, cache_dir=tmp_path)
        with use_recorder(recorder), use_engine(engine):
            engine.run_jobs(jobs)
        report = aggregate(recorder.drain())
        assert engine.stats()["executed"] == 2
        assert report["counters"].get("trace.store.disk_hits") == 2
        assert "trace.store.disk_writes" not in report["counters"]
        assert report["phases"]["trace.load"]["count"] == 2
        assert "trace.build" not in report["phases"]


def _damage_magic(data: bytes) -> bytes:
    return b"NOTATRACE" + data[9:]


def _truncate(data: bytes) -> bytes:
    return data[:-7]


def _wrong_count(data: bytes) -> bytes:
    return encode_trace(build_workload(WORKLOAD, INSTRUCTIONS - 1))


def _wrong_name(data: bytes) -> bytes:
    return encode_trace(build_workload("client_002", INSTRUCTIONS))


class TestCorruptTraceEntries:
    @pytest.mark.parametrize(
        "damage", [_damage_magic, _truncate, _wrong_count, _wrong_name],
        ids=["bad-magic", "truncated", "wrong-count", "wrong-name"],
    )
    def test_corrupt_entry_is_regenerated_overwritten_and_counted(self, tmp_path, damage):
        _load(tmp_path)
        (path,) = _trace_entries(tmp_path)
        with open(path, "rb") as handle:
            good = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(good))

        recorder = JsonlRecorder()
        with use_recorder(recorder):
            trace, store = _load(tmp_path)
        assert (store.corrupt, store.disk_hits, store.disk_writes) == (1, 0, 1)
        assert recorder.metrics_snapshot()["counters"]["trace.store.corrupt"] == 1
        assert _same_trace(trace, build_workload(WORKLOAD, INSTRUCTIONS))
        with open(path, "rb") as handle:
            assert handle.read() == good
        _, healed = _load(tmp_path)
        assert (healed.corrupt, healed.disk_hits) == (0, 1)


def _job() -> SimJob:
    return SimJob(workload="client_001", instructions=4_000, warmup_instructions=1_000,
                  style=BTBStyle.BTBX, fdip_enabled=True, budget_kib=0.90625)


class TestCorruptResultEntries:
    @pytest.mark.parametrize(
        "content",
        ["[1, 2]", "null", '{"payload": {"result": 1}}', '{"payload": {"result": {}}}',
         '{"payload": null}', "{not json", "\udcff"],
        ids=["list", "null", "non-object-result", "empty-result", "null-payload",
             "unparseable", "not-utf8"],
    )
    def test_malformed_entry_is_recomputed_overwritten_and_counted(self, tmp_path, content):
        job = _job()
        ExperimentEngine(cache_dir=tmp_path).run_jobs([job])
        path = ResultCache(tmp_path)._path(job.config_hash())
        with open(path, "wb") as handle:
            handle.write(content.encode("utf-8", "surrogateescape"))

        recorder = JsonlRecorder()
        engine = ExperimentEngine(cache_dir=tmp_path)
        with use_recorder(recorder):
            engine.run_jobs([job])
        stats = engine.stats()
        assert (stats["executed"], stats["disk_hits"], stats["cache_corrupt"]) == (1, 0, 1)
        assert recorder.metrics_snapshot()["counters"]["engine.cache_corrupt"] == 1

        healed = ExperimentEngine(cache_dir=tmp_path)
        healed.run_jobs([job])
        assert healed.stats()["disk_hits"] == 1
        assert healed.stats()["cache_corrupt"] == 0

    @pytest.mark.parametrize("content", ["[1, 2]", "null", "7", "\udcff"])
    def test_cache_stats_and_prune_skip_malformed_entries(self, tmp_path, capsys, content):
        from repro.cli import main
        from repro.experiments.engine import CACHE_FORMAT_VERSION

        job = _job()
        with use_engine(ExperimentEngine(cache_dir=tmp_path)) as engine:
            default_store().clear()
            engine.run_jobs([job])
        (tmp_path / "malformed.json").write_bytes(content.encode("utf-8", "surrogateescape"))
        cache = ResultCache(tmp_path)
        assert cache.format_versions() == [CACHE_FORMAT_VERSION]
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries         : 2" in out
        assert "trace entries   : 1" in out
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        assert "pruned 3 entries" in capsys.readouterr().out
        assert cache.stats()["entries"] == cache.stats()["trace_entries"] == 0


def test_entry_files_are_json_and_binary_traces(tmp_path):
    """One layout, two kinds: ``ab/<hash>.json`` payloads, ``cd/<key>.btbx`` traces."""
    with use_engine(ExperimentEngine(cache_dir=tmp_path)) as engine:
        default_store().clear()
        engine.run_jobs([_job()])
    (trace_path,) = _trace_entries(tmp_path)
    (result_path,) = glob.glob(os.path.join(str(tmp_path), "*", "*.json"))
    for path in (trace_path, result_path):
        name = os.path.basename(path)
        assert os.path.basename(os.path.dirname(path)) == name[:2]
    with open(trace_path, "rb") as handle:
        assert handle.read(8) == b"BTBXTRC1"
    with open(result_path, encoding="utf-8") as handle:
        assert set(json.load(handle)) == {"job", "payload"}
