"""Tests for the parallel experiment engine, its caches and the CLI plumbing.

Covers the PR's contract points: serial and parallel execution produce
bit-identical `SimulationResult` fields, the on-disk cache turns reruns into
zero new simulations (and misses when any config field changes), and the
bounded trace store actually bounds memory.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main, make_engine, resolve_scale, run_all, run_experiment
from repro.common.config import BTBStyle
from repro.experiments.config import SMOKE_SCALE
from repro.experiments.engine import (
    ExperimentEngine,
    ResultCache,
    SimJob,
    _RESULT_FIELDS,
    get_active_engine,
    grid_jobs,
    set_active_engine,
    use_engine,
)
from repro.experiments.runner import clear_trace_cache, evaluation_traces, simulate_grid
from repro.common.errors import ConfigurationError
from repro.traces.store import TraceStore, default_store


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    set_active_engine(None)
    yield
    set_active_engine(None)
    clear_trace_cache()


def _small_jobs(styles=(BTBStyle.CONVENTIONAL, BTBStyle.BTBX), budgets=(0.90625, 3.625)):
    return [
        SimJob(
            workload=workload,
            instructions=8_000,
            warmup_instructions=2_000,
            style=style,
            fdip_enabled=True,
            budget_kib=budget,
        )
        for workload in ("client_001", "server_009")
        for style in styles
        for budget in budgets
    ]


def _result_fields(outcome):
    return {name: getattr(outcome.result, name) for name in _RESULT_FIELDS}


class TestSimJob:
    def test_hash_is_stable(self):
        job = _small_jobs()[0]
        assert job.config_hash() == dataclasses.replace(job).config_hash()

    def test_hash_changes_with_every_config_field(self):
        base = _small_jobs()[0]
        variants = [
            dataclasses.replace(base, workload="server_010"),
            dataclasses.replace(base, instructions=9_000),
            dataclasses.replace(base, warmup_instructions=1_000),
            dataclasses.replace(base, style=BTBStyle.PDEDE),
            dataclasses.replace(base, fdip_enabled=False),
            dataclasses.replace(base, budget_kib=14.5),
            dataclasses.replace(base, companion_divisor=32),
        ]
        hashes = {job.config_hash() for job in variants}
        assert len(hashes) == len(variants)
        assert base.config_hash() not in hashes

    def test_requires_budget_or_geometry(self):
        with pytest.raises(ConfigurationError):
            SimJob(
                workload="client_001",
                instructions=1_000,
                warmup_instructions=0,
                style=BTBStyle.BTBX,
                fdip_enabled=True,
            )

    def test_grid_jobs_cover_the_grid(self):
        traces = evaluation_traces(SMOKE_SCALE, suites=("ipc1_client",))
        jobs = grid_jobs(
            traces,
            (BTBStyle.CONVENTIONAL, BTBStyle.BTBX),
            (0.90625, 1.8125),
            (False, True),
            instructions=SMOKE_SCALE.instructions,
            warmup_instructions=SMOKE_SCALE.warmup_instructions,
        )
        assert len(jobs) == len(traces) * 2 * 2 * 2
        assert len({job.config_hash() for job in jobs}) == len(jobs)


class TestDeterminism:
    def test_serial_and_parallel_results_are_identical(self):
        jobs = _small_jobs()
        serial = ExperimentEngine(workers=1).run_jobs(jobs)
        parallel = ExperimentEngine(workers=2).run_jobs(jobs)
        for left, right in zip(serial, parallel):
            assert _result_fields(left) == _result_fields(right)

    def test_simulate_grid_matches_across_worker_counts(self):
        traces = evaluation_traces(SMOKE_SCALE, suites=("ipc1_client",))
        kwargs = dict(
            styles=(BTBStyle.BTBX,), budget_kib=1.8125, fdip_enabled=True, scale=SMOKE_SCALE
        )
        serial = simulate_grid(traces, engine=ExperimentEngine(workers=1), **kwargs)
        parallel = simulate_grid(traces, engine=ExperimentEngine(workers=3), **kwargs)
        for trace in traces:
            left = serial[BTBStyle.BTBX][trace.name]
            right = parallel[BTBStyle.BTBX][trace.name]
            assert left.to_dict() == right.to_dict()

    def test_access_counts_cross_process(self):
        job = _small_jobs()[0]
        jobs = [job, dataclasses.replace(job, workload="server_009")]
        serial = ExperimentEngine(workers=1).run_jobs(jobs)
        parallel = ExperimentEngine(workers=2).run_jobs(jobs)
        assert serial[0].access_counts
        for left, right in zip(serial, parallel):
            assert left.access_counts == right.access_counts


class TestResultCache:
    def test_cache_miss_then_hit(self, tmp_path):
        jobs = _small_jobs(styles=(BTBStyle.BTBX,), budgets=(0.90625,))
        first = ExperimentEngine(workers=1, cache_dir=tmp_path)
        warm_outcomes = first.run_jobs(jobs)
        assert first.stats()["executed"] == len(jobs)

        second = ExperimentEngine(workers=1, cache_dir=tmp_path)
        cold_outcomes = second.run_jobs(jobs)
        assert second.stats() == {
            "submitted": len(jobs),
            "executed": 0,
            "memo_hits": 0,
            "disk_hits": len(jobs),
            "instructions_simulated": 0,
            "cache_corrupt": 0,
        }
        for left, right in zip(warm_outcomes, cold_outcomes):
            assert _result_fields(left) == _result_fields(right)

    def test_config_change_invalidates(self, tmp_path):
        job = _small_jobs()[0]
        ExperimentEngine(workers=1, cache_dir=tmp_path).run_jobs([job])

        changed = dataclasses.replace(job, budget_kib=14.5)
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        engine.run_jobs([changed])
        assert engine.stats()["disk_hits"] == 0
        assert engine.stats()["executed"] == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        job = _small_jobs()[0]
        cache = ResultCache(tmp_path)
        (tmp_path / f"{job.config_hash()}.json").write_text("{not json")
        assert cache.get(job) is None

    def test_table5_cells_shared_with_other_figures(self):
        """Access counts ride in every payload, so grids share cache cells."""
        job = _small_jobs(styles=(BTBStyle.BTBX,), budgets=(14.5,))[0]
        engine = ExperimentEngine(workers=1)
        first = engine.run_jobs([job])
        second = engine.run_jobs([job])
        assert engine.stats()["executed"] == 1
        assert first[0].access_counts and second[0].access_counts

    def test_memo_dedupes_within_one_engine(self):
        job = _small_jobs()[0]
        engine = ExperimentEngine(workers=1)
        engine.run_jobs([job, job])
        engine.run_jobs([job])
        stats = engine.stats()
        assert stats["executed"] == 1
        assert stats["memo_hits"] >= 1

    def test_warm_cache_rerun_of_fig11_runs_zero_simulations(self, tmp_path):
        """Acceptance: a repeated sweep with a warm cache simulates nothing."""
        first = make_engine(workers=2, cache_dir=tmp_path)
        result = run_experiment("fig11_sweep", "smoke", engine=first)
        assert first.stats()["executed"] > 0

        rerun_engine = make_engine(workers=2, cache_dir=tmp_path)
        rerun = run_experiment("fig11_sweep", "smoke", engine=rerun_engine)
        assert rerun_engine.stats()["executed"] == 0
        assert rerun_engine.stats()["disk_hits"] == rerun_engine.stats()["submitted"]
        assert rerun == result


class TestTraceStore:
    def test_bounded_eviction(self):
        store = TraceStore(max_traces=2)
        for name in ("client_001", "client_002", "client_003"):
            store.get(name, 2_000)
        assert len(store) == 2
        assert ("client_001", 2_000) not in store
        assert ("client_003", 2_000) in store

    def test_hit_returns_same_object(self):
        store = TraceStore(max_traces=4)
        first = store.get("client_001", 2_000)
        second = store.get("client_001", 2_000)
        assert first is second
        assert store.hits == 1 and store.misses == 1

    def test_lru_touch_protects_recently_used(self):
        store = TraceStore(max_traces=2)
        store.get("client_001", 2_000)
        store.get("client_002", 2_000)
        store.get("client_001", 2_000)  # refresh 001 so 002 is the LRU victim
        store.get("client_003", 2_000)
        assert ("client_001", 2_000) in store
        assert ("client_002", 2_000) not in store

    def test_clear_trace_cache_bounds_memory(self):
        evaluation_traces(SMOKE_SCALE, suites=("ipc1_client",))
        assert len(default_store()) > 0
        clear_trace_cache()
        assert len(default_store()) == 0

    def test_clear_trace_cache_also_clears_active_engine_memo(self):
        engine = get_active_engine()
        engine.run_jobs([_small_jobs()[0]])
        assert engine._memo
        clear_trace_cache()
        assert not engine._memo

    def test_non_canonical_trace_bypasses_the_caches(self):
        from repro.experiments.runner import simulate
        from repro.workloads.execution import generate_trace
        from repro.workloads.spec import server_spec

        # A custom-named trace must never be served from (or poison) the
        # name-keyed caches, even when a canonical-looking scale is used.
        custom = generate_trace(server_spec("not_a_suite_workload", seed=5), 8_000)
        engine = ExperimentEngine(workers=1)
        with use_engine(engine):
            scale = dataclasses.replace(SMOKE_SCALE, instructions=8_000)
            result = simulate(custom, BTBStyle.BTBX, 1.8125, True, scale)
        assert result.workload == "not_a_suite_workload"
        assert engine.stats()["submitted"] == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            TraceStore(max_traces=0)


class TestActiveEngine:
    def test_default_engine_is_serial(self):
        engine = get_active_engine()
        assert engine.workers == 1
        assert engine.cache is None

    def test_use_engine_scopes_and_restores(self):
        scoped = ExperimentEngine(workers=2)
        with use_engine(scoped) as active:
            assert active is scoped
            assert get_active_engine() is scoped
        assert get_active_engine() is not scoped


class TestCLI:
    def test_run_experiment_honors_repro_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        result = run_experiment("fig04_offsets", "quick")
        assert result["scale"] == "smoke"

    def test_resolve_scale_falls_back_to_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale("smoke") is SMOKE_SCALE

    def test_run_all_shares_the_engine(self, monkeypatch):
        # A two-driver registry keeps this an engine-sharing test, not a rerun
        # of every experiment at smoke scale.
        monkeypatch.setattr(
            "repro.cli.EXPERIMENTS",
            {
                "table3_storage": "repro.experiments.table3_storage",
                "fig09_mpki": "repro.experiments.fig09_mpki",
            },
        )
        engine = ExperimentEngine(workers=1)
        summary = run_all("smoke", engine=engine)
        assert set(summary["results"]) == {"table3_storage", "fig09_mpki"}
        assert summary["engine"]["executed"] > 0
        assert summary["total_s"] > 0

    def test_main_run_all_writes_timings(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            "repro.cli.EXPERIMENTS",
            {"table4_capacity": "repro.experiments.table4_capacity"},
        )
        timings = tmp_path / "BENCH_run_all.json"
        exit_code = main(
            ["run-all", "--scale", "smoke", "--workers", "2", "--timings", str(timings)]
        )
        assert exit_code == 0
        assert timings.exists()
        assert "run-all:" in capsys.readouterr().out

    def test_main_run_accepts_engine_flags(self, tmp_path, capsys):
        exit_code = main(
            [
                "run",
                "fig04_offsets",
                "--scale",
                "smoke",
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert exit_code == 0
        assert "Figure 4" in capsys.readouterr().out
