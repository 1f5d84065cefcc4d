"""Command-line interface: run any experiment driver and print its report.

Examples::

    btbx-repro list
    btbx-repro run fig09_mpki --scale quick
    btbx-repro run fig11_sweep --scale full --workers 8 --cache-dir results/cache
    btbx-repro run-all --scale smoke --workers 4 --timings BENCH_run_all.json
    btbx-repro scenario list
    btbx-repro scenario run consolidated_server --scale smoke --json scenario.json
    btbx-repro sweep scenarios --preset consolidated_server --json sweep.json --csv sweep.csv
    btbx-repro sweep shared --preset shared_services --json shared.json --csv shared.csv
    btbx-repro sweep scenarios --scale smoke --backend numpy
    btbx-repro bench smoke --repeats 2 --json BENCH_fresh.json
    btbx-repro bench compare --fresh BENCH_fresh.json --json BENCH_verdict.json
    btbx-repro cache stats --cache-dir results/cache
    btbx-repro cache prune --cache-dir results/cache --max-age-days 30
    btbx-repro run-all --scale smoke --workers 4 --trace-out run_all.trace.jsonl
    btbx-repro obs report run_all.trace.jsonl
    btbx-repro obs export run_all.trace.jsonl --out run_all.chrome.json

Scale resolution honors the ``REPRO_SCALE`` environment variable: when set
(to ``smoke``, ``quick`` or ``full``) it overrides the ``--scale`` flag, so
CI and batch jobs can redirect every invocation without editing commands.
Telemetry recording honors ``REPRO_OBS`` the same way: when set to a path it
acts like ``--trace-out`` for every command.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
import time
from typing import Dict, Iterator, List

from repro.common import log
from repro.common.config import BACKEND_ENV_VAR, BACKENDS, ASIDMode
from repro.experiments.config import (
    FULL_SCALE,
    QUICK_SCALE,
    SMOKE_SCALE,
    ExperimentScale,
    current_scale,
)
from repro.experiments.engine import ExperimentEngine, ResultCache, use_engine
from repro.obs import (
    OBS_ENV_VAR,
    OBS_FORMAT_ENV_VAR,
    JsonlRecorder,
    get_recorder,
    trace_path_from_env,
    use_recorder,
)

#: Experiment name -> module path (relative to repro.experiments).
EXPERIMENTS: Dict[str, str] = {
    "table1_exynos": "repro.experiments.table1_exynos",
    "fig04_offsets": "repro.experiments.fig04_offsets",
    "table3_storage": "repro.experiments.table3_storage",
    "table4_capacity": "repro.experiments.table4_capacity",
    "fig09_mpki": "repro.experiments.fig09_mpki",
    "fig10_performance": "repro.experiments.fig10_performance",
    "table5_energy": "repro.experiments.table5_energy",
    "fig11_sweep": "repro.experiments.fig11_sweep",
    "fig12_cvp": "repro.experiments.fig12_cvp",
    "fig13_x86": "repro.experiments.fig13_x86",
    "ablation_ways": "repro.experiments.ablation_ways",
    "scenario_study": "repro.experiments.scenario_study",
    "scenario_sweep": "repro.experiments.scenario_sweep",
    "shared_footprint": "repro.experiments.shared_footprint",
    "cache_interference": "repro.experiments.cache_interference",
    "tenant_scale": "repro.experiments.tenant_scale",
}

_SCALES = {"smoke": SMOKE_SCALE, "quick": QUICK_SCALE, "full": FULL_SCALE}


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return count


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="quick", help="simulation scale preset"
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="simulation worker processes (1 = serial, no pool)",
    )
    parser.add_argument(
        "--cache-dir",
        help="directory for the on-disk result and trace cache (reruns skip "
        "finished jobs and load their traces instead of generating them)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="simulation backend: 'python' = scalar oracle, 'numpy' = batched "
        f"SoA engine (default: the {BACKEND_ENV_VAR} environment variable, "
        "else python)",
    )
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        help="record structured telemetry (spans + metrics) of this run to the "
        f"given file (default: the {OBS_ENV_VAR} environment variable, else off)",
    )
    parser.add_argument(
        "--trace-format",
        dest="trace_format",
        choices=["jsonl", "chrome"],
        default=None,
        help="trace file format: 'jsonl' = one event per line (obs report "
        "input), 'chrome' = Chrome trace-event JSON loadable in "
        f"about://tracing or Perfetto (default: the {OBS_FORMAT_ENV_VAR} "
        "environment variable, else jsonl)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="btbx-repro",
        description="Reproduction harness for 'A Storage-Effective BTB Organization for Servers'",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress notes; keep reports, warnings and errors",
    )
    verbosity.add_argument(
        "--verbose",
        action="store_true",
        help="emit extra diagnostics (resolved scale, engine counters, ...)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment and print its report")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment to run")
    _add_engine_arguments(run_parser)
    run_parser.add_argument("--json", dest="json_path", help="also dump the raw result as JSON")

    all_parser = sub.add_parser(
        "run-all", help="run every experiment through one shared engine"
    )
    _add_engine_arguments(all_parser)
    all_parser.add_argument(
        "--timings",
        dest="timings_path",
        help="dump a JSON timing summary (per-experiment seconds, ok/failed status, "
        "engine counters)",
    )

    scenario_parser = sub.add_parser(
        "scenario", help="multi-tenant scenarios: list presets or run one"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list registered scenario presets")
    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario across BTB styles and ASID modes"
    )
    scenario_run.add_argument("scenario", help="registered scenario preset name")
    _add_engine_arguments(scenario_run)
    scenario_run.add_argument(
        "--asid-mode",
        choices=["flush", "tagged", "partitioned", "both", "all"],
        default="all",
        help="context-switch policy to simulate ('both' = flush+tagged; "
        "default: all three)",
    )
    scenario_run.add_argument("--json", dest="json_path", help="also dump the raw result as JSON")

    sweep_parser = sub.add_parser(
        "sweep", help="grid sweeps over the scenario presets"
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)
    sweep_scenarios = sweep_sub.add_parser(
        "scenarios",
        help="MPKI vs quantum and vs tenant count across BTB styles and ASID modes",
    )
    sweep_scenarios.add_argument(
        "--preset",
        action="append",
        dest="presets",
        metavar="NAME",
        help="scenario preset to sweep (repeatable; default: every registered preset)",
    )
    _add_engine_arguments(sweep_scenarios)
    sweep_scenarios.add_argument(
        "--quanta",
        help="comma-separated quantum lengths in instructions (default: 1024..16384)",
    )
    sweep_scenarios.add_argument(
        "--tenant-counts",
        dest="tenant_counts",
        help="comma-separated tenant counts (default: 1..len(preset tenants))",
    )
    sweep_scenarios.add_argument(
        "--styles",
        help="comma-separated BTB styles (conventional,rbtb,pdede,btbx,ideal; "
        "default: conventional,btbx)",
    )
    sweep_scenarios.add_argument(
        "--asid-modes",
        dest="asid_modes",
        help="comma-separated ASID modes (flush,tagged,partitioned; default: all three)",
    )
    sweep_scenarios.add_argument(
        "--budget-kib",
        dest="budget_kib",
        type=float,
        default=None,
        help="BTB storage budget in KiB (default: the paper's 14.5)",
    )
    sweep_scenarios.add_argument("--json", dest="json_path", help="dump the raw result as JSON")
    sweep_scenarios.add_argument("--csv", dest="csv_path", help="dump flat per-point rows as CSV")

    sweep_shared = sweep_sub.add_parser(
        "shared",
        help="MPKI + duplication vs shared-code overlap fraction "
        "(ASID tagging's duplication cost)",
    )
    sweep_shared.add_argument(
        "--preset",
        default="shared_services",
        help="scenario preset to sweep (default: shared_services)",
    )
    _add_engine_arguments(sweep_shared)
    sweep_shared.add_argument(
        "--fractions",
        help="comma-separated overlap fractions in [0, 1] (default: 0,0.25,0.5,0.75,1)",
    )
    sweep_shared.add_argument(
        "--styles",
        help="comma-separated BTB styles (conventional,rbtb,pdede,btbx,ideal; "
        "default: conventional,pdede,rbtb)",
    )
    sweep_shared.add_argument(
        "--asid-modes",
        dest="asid_modes",
        help="comma-separated ASID modes (flush,tagged,partitioned; default: all three)",
    )
    sweep_shared.add_argument(
        "--budget-kib",
        dest="budget_kib",
        type=float,
        default=None,
        help="BTB storage budget in KiB (default: the paper's 14.5)",
    )
    sweep_shared.add_argument("--json", dest="json_path", help="dump the raw result as JSON")
    sweep_shared.add_argument("--csv", dest="csv_path", help="dump flat per-point rows as CSV")

    sweep_caches = sweep_sub.add_parser(
        "caches",
        help="per-tenant L1-I/L2 MPKI vs quantum and tenant count across cache "
        "ASID modes (flush/tagged/partitioned hierarchy)",
    )
    sweep_caches.add_argument(
        "--preset",
        action="append",
        dest="presets",
        metavar="NAME",
        help="scenario preset to sweep (repeatable; default: every registered preset)",
    )
    _add_engine_arguments(sweep_caches)
    sweep_caches.add_argument(
        "--quanta",
        help="comma-separated quantum lengths in instructions (default: 1024..16384)",
    )
    sweep_caches.add_argument(
        "--tenant-counts",
        dest="tenant_counts",
        help="comma-separated tenant counts (default: 1..len(preset tenants))",
    )
    sweep_caches.add_argument(
        "--style",
        help="BTB style the sweep runs on (conventional,rbtb,pdede,btbx,ideal; "
        "default: btbx)",
    )
    sweep_caches.add_argument(
        "--cache-modes",
        dest="cache_modes",
        help="comma-separated cache ASID modes (flush,tagged,partitioned; "
        "default: all three)",
    )
    sweep_caches.add_argument(
        "--budget-kib",
        dest="budget_kib",
        type=float,
        default=None,
        help="BTB storage budget in KiB (default: the paper's 14.5)",
    )
    sweep_caches.add_argument("--json", dest="json_path", help="dump the raw result as JSON")
    sweep_caches.add_argument("--csv", dest="csv_path", help="dump flat per-point rows as CSV")

    sweep_tenants = sweep_sub.add_parser(
        "tenants",
        help="tenant-count scaling (4..1024+) on seeded generated scenarios: "
        "aggregate/percentile MPKI and partition-fallback occupancy per "
        "(tenant count x ASID mode x cache mode)",
    )
    _add_engine_arguments(sweep_tenants)
    sweep_tenants.add_argument(
        "--tenant-counts",
        dest="tenant_counts",
        help="comma-separated tenant counts (default: 4,16,64,256,1024)",
    )
    sweep_tenants.add_argument(
        "--asid-modes",
        dest="asid_modes",
        help="comma-separated BTB ASID modes (flush,tagged,partitioned; default: all three)",
    )
    sweep_tenants.add_argument(
        "--cache-modes",
        dest="cache_modes",
        help="comma-separated cache hierarchy modes; 'shared' is the legacy "
        "untagged hierarchy (shared,flush,tagged,partitioned; default: "
        "shared,partitioned)",
    )
    sweep_tenants.add_argument(
        "--style",
        help="BTB style the sweep runs on (conventional,rbtb,pdede,btbx,ideal; "
        "default: btbx)",
    )
    sweep_tenants.add_argument(
        "--seed",
        type=int,
        default=None,
        help="recipe seed; one seed draws one workload population for the whole axis",
    )
    sweep_tenants.add_argument(
        "--isa",
        choices=["arm64", "x86"],
        default=None,
        help="ISA flavour of the generated tenant population (default: arm64)",
    )
    sweep_tenants.add_argument(
        "--quantum",
        type=_positive_int,
        default=None,
        help="scheduling quantum in instructions (default: 256)",
    )
    sweep_tenants.add_argument(
        "--shared-fraction",
        dest="shared_fraction",
        type=float,
        default=None,
        help="fraction of each tenant's code pages remapped onto the shared "
        "region (default: 0, no remap)",
    )
    sweep_tenants.add_argument(
        "--budget-kib",
        dest="budget_kib",
        type=float,
        default=None,
        help="BTB storage budget in KiB (default: the paper's 14.5)",
    )
    sweep_tenants.add_argument("--json", dest="json_path", help="dump the raw result as JSON")
    sweep_tenants.add_argument("--csv", dest="csv_path", help="dump flat per-point rows as CSV")

    plot_parser = sub.add_parser(
        "plot", help="render sweep CSV output (scenario/shared/cache sweeps) as figures"
    )
    plot_parser.add_argument("csv_path", help="sweep CSV produced by a --csv flag")
    plot_parser.add_argument(
        "--out-dir",
        dest="out_dir",
        help="directory for the emitted figures (default: next to the CSV)",
    )
    plot_parser.add_argument(
        "--backend",
        choices=["auto", "svg", "mpl"],
        default="auto",
        help="'svg' = built-in deterministic SVG renderer, 'mpl' = matplotlib "
        "(if installed); 'auto' prefers matplotlib when available",
    )

    bench_parser = sub.add_parser(
        "bench", help="perf-trajectory benchmark: measure or gate sweep throughput"
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)
    bench_smoke = bench_sub.add_parser(
        "smoke",
        help="time the smoke-scale `sweep scenarios` grid per backend "
        "(instructions/sec, best of --repeats)",
    )
    bench_smoke.add_argument(
        "--backends",
        help="comma-separated backends to time (default: every importable backend)",
    )
    bench_smoke.add_argument(
        "--repeats",
        type=_positive_int,
        default=2,
        help="repetitions per backend; the fastest wall time is kept (default: 2)",
    )
    bench_smoke.add_argument("--json", dest="json_path", help="dump the record as JSON")
    bench_smoke.add_argument(
        "--append-history",
        dest="append_history",
        action="store_true",
        help="append the record to the committed perf trajectory "
        "(results/bench_history.jsonl)",
    )
    bench_smoke.add_argument(
        "--history-path",
        dest="history_path",
        default=None,
        help="override the history file used by --append-history",
    )
    bench_compare = bench_sub.add_parser(
        "compare",
        help="diff a fresh bench record against the committed baseline; exit 1 on "
        "a >threshold throughput regression",
    )
    bench_compare.add_argument(
        "--fresh",
        required=True,
        help="fresh record JSON file (written by `bench smoke --json`)",
    )
    bench_compare.add_argument(
        "--baseline",
        default=None,
        help="baseline history JSONL; its last record is the baseline "
        "(default: results/bench_history.jsonl)",
    )
    bench_compare.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="fractional throughput drop that fails the gate (default: 0.20)",
    )
    bench_compare.add_argument(
        "--json",
        dest="json_path",
        help="dump the per-field verdict (per-backend baseline/fresh/ratio/"
        "regressed) as JSON for the CI gate",
    )

    obs_parser = sub.add_parser(
        "obs", help="inspect recorded telemetry traces (--trace-out output)"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="aggregate a JSONL trace into a phase table (p50/p95 per phase, "
        "pool utilization, cache hit rates, instructions/sec per driver)",
    )
    obs_report.add_argument("trace_path", help="JSONL trace file written by --trace-out")
    obs_report.add_argument(
        "--json", dest="json_path", help="also dump the aggregated report as JSON"
    )
    obs_export = obs_sub.add_parser(
        "export",
        help="convert a JSONL trace to Chrome trace-event JSON "
        "(about://tracing / Perfetto)",
    )
    obs_export.add_argument("trace_path", help="JSONL trace file written by --trace-out")
    obs_export.add_argument(
        "--out",
        dest="out_path",
        default=None,
        help="output file (default: <trace>.chrome.json)",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="run the long-lived sweep service: many clients, one engine, "
        "one cache, exactly-once cells (NDJSON over unix socket or TCP)",
    )
    listen = serve_parser.add_mutually_exclusive_group()
    listen.add_argument(
        "--socket", dest="socket_path", help="listen on this unix socket path"
    )
    listen.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen on TCP (0 picks a free port); default transport when "
        "--socket is not given",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="simulation worker processes shared by all clients",
    )
    serve_parser.add_argument(
        "--cache-dir", help="sharded on-disk result cache shared by all clients"
    )
    serve_parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="simulation backend threaded explicitly to every worker",
    )
    serve_parser.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        help="record service + worker telemetry to the given file",
    )
    serve_parser.add_argument(
        "--trace-format",
        dest="trace_format",
        choices=["jsonl", "chrome"],
        default=None,
        help="trace file format (default: jsonl)",
    )
    serve_parser.add_argument(
        "--budget-instructions",
        type=_positive_int,
        default=None,
        help="per-client instruction budget per window (admission control)",
    )
    serve_parser.add_argument(
        "--budget-window-s",
        type=float,
        default=None,
        help="budget window length in seconds (default: 3600)",
    )
    serve_parser.add_argument(
        "--janitor-interval-s",
        type=float,
        default=300.0,
        help="seconds between background cache-prune sweeps",
    )
    serve_parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="janitor prunes cache entries older than this (default: janitor off)",
    )

    cache_parser = sub.add_parser(
        "cache", help="inspect or prune the on-disk result and trace cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="result and trace entry counts and bytes, age range"
    )
    cache_stats.add_argument("--cache-dir", required=True, help="result cache directory")
    cache_prune = cache_sub.add_parser(
        "prune", help="delete cached result and trace entries by age"
    )
    cache_prune.add_argument("--cache-dir", required=True, help="result cache directory")
    cache_prune.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="delete entries older than this many days (default: delete everything)",
    )
    return parser


def resolve_scale(scale_name: str = "quick") -> ExperimentScale:
    """Scale implied by ``scale_name``, unless ``REPRO_SCALE`` overrides it."""
    return current_scale(default=_SCALES[scale_name])


def make_engine(workers: int = 1, cache_dir: str | None = None) -> ExperimentEngine:
    """Build an engine from CLI-level knobs."""
    return ExperimentEngine(workers=workers, cache_dir=cache_dir)


def run_experiment(
    name: str,
    scale_name: str = "quick",
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Run a named experiment at the requested scale and return its raw result."""
    module = importlib.import_module(EXPERIMENTS[name])
    scale = resolve_scale(scale_name)
    if engine is None:
        return module.run(scale)
    with use_engine(engine):
        return module.run(scale)


def run_all(
    scale_name: str = "quick",
    engine: ExperimentEngine | None = None,
) -> Dict[str, object]:
    """Run every experiment in one pooled pass over a shared engine.

    The engine's memo and cache are shared across drivers, so overlapping
    grids (fig09/fig10/fig11/table5 reuse most cells) simulate only once.
    A failing experiment does not abort the batch: its status is recorded as
    ``failed`` (with the error message) and the remaining experiments still
    run.  Returns ``{"results": ..., "timings_s": ..., "status": ...,
    "errors": ..., "engine": ...}``.
    """
    engine = engine or ExperimentEngine(workers=1)
    recorder = get_recorder()
    results: Dict[str, Dict[str, object]] = {}
    timings: Dict[str, float] = {}
    status: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    instructions: Dict[str, int] = {}
    ips: Dict[str, float] = {}
    per_driver: Dict[str, Dict[str, int]] = {}
    with use_engine(engine):
        for name in EXPERIMENTS:
            counters_before = engine.stats()
            started = time.perf_counter()
            with recorder.span(f"driver.{name}") as driver_span:
                try:
                    results[name] = run_experiment(name, scale_name, engine=engine)
                    status[name] = "ok"
                except Exception as exc:  # noqa: BLE001 - batch resilience is the point
                    status[name] = "failed"
                    errors[name] = f"{type(exc).__name__}: {exc}"
                timings[name] = time.perf_counter() - started
                # Executed jobs only: a driver whose cells all memo/cache-hit
                # simulated nothing, so its throughput is reported as 0 rather
                # than an absurd cells/lookup-time figure.
                counters_after = engine.stats()
                per_driver[name] = {
                    key: counters_after[key] - counters_before[key]
                    for key in ("submitted", "executed", "memo_hits", "disk_hits")
                }
                instructions[name] = (
                    counters_after["instructions_simulated"]
                    - counters_before["instructions_simulated"]
                )
                ips[name] = instructions[name] / timings[name] if timings[name] > 0 else 0.0
                driver_span.set(
                    status=status[name],
                    instructions=instructions[name],
                    executed=per_driver[name]["executed"],
                )
    return {
        "scale": resolve_scale(scale_name).name,
        "results": results,
        "timings_s": timings,
        "instructions": instructions,
        "instructions_per_second": ips,
        "total_s": sum(timings.values()),
        "status": status,
        "errors": errors,
        "failed": sorted(name for name, state in status.items() if state == "failed"),
        "engine": engine.stats(),
        "engine_per_driver": per_driver,
    }


def _write_timings(path: str, summary: Dict[str, object], workers: int) -> None:
    record = {
        "benchmark": "run_all",
        "scale": summary["scale"],
        "workers": workers,
        "timings_s": summary["timings_s"],
        "instructions": summary["instructions"],
        "instructions_per_second": summary["instructions_per_second"],
        "total_s": summary["total_s"],
        "status": summary["status"],
        "errors": summary["errors"],
        "engine": summary["engine"],
        "engine_per_driver": summary["engine_per_driver"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)


def _write_result_outputs(
    result: Dict[str, object],
    json_path: str | None,
    csv_path: str | None = None,
    write_csv=None,
) -> None:
    """Dump a driver result to the requested ``--json``/``--csv`` side files."""
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, default=str)
        log.info(f"\n(raw result written to {json_path})")
    if csv_path and write_csv is not None:
        write_csv(result, csv_path)
        log.info(f"(per-point CSV written to {csv_path})")


def run_scenario_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``scenario list`` and ``scenario run``."""
    from repro.common.errors import ConfigurationError
    from repro.experiments import scenario_study
    from repro.scenarios.presets import get_scenario, scenario_names

    if args.scenario_command == "list":
        for name in scenario_names():
            spec = get_scenario(name)
            tenants = ", ".join(
                f"{t.name}:{t.workload}" + (f" x{t.weight}" if t.weight != 1 else "")
                for t in spec.tenants
            )
            log.result(f"{name:<22} {spec.policy}/{spec.switch_semantics}, "
                       f"quantum {spec.quantum_instructions}: {tenants}")
            if spec.description:
                log.result(f"{'':<22} {spec.description}")
        return 0

    try:
        get_scenario(args.scenario)
    except ConfigurationError as exc:
        parser.error(str(exc))
    try:
        engine = make_engine(workers=args.workers, cache_dir=args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")
    if args.asid_mode == "all":
        asid_modes: List[ASIDMode] = list(scenario_study.STUDY_ASID_MODES)
    elif args.asid_mode == "both":
        asid_modes = [ASIDMode.FLUSH, ASIDMode.TAGGED]
    else:
        asid_modes = [ASIDMode(args.asid_mode)]
    scale = resolve_scale(args.scale)
    result = scenario_study.run(
        scale, scenarios=[args.scenario], asid_modes=asid_modes, engine=engine
    )
    log.result(scenario_study.format_report(result))
    _write_result_outputs(result, args.json_path)
    return 0


def _parse_int_list(text: str, flag: str, parser: argparse.ArgumentParser) -> List[int]:
    """Parse a comma-separated list of positive integers or parser.error out."""
    values: List[int] = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            parser.error(f"{flag} expects comma-separated integers, got {token!r}")
        if value < 1:
            parser.error(f"{flag} values must be positive, got {value}")
        values.append(value)
    return values


def _parse_float_list(text: str, flag: str, parser: argparse.ArgumentParser) -> List[float]:
    """Parse a comma-separated list of floats in [0, 1] or parser.error out."""
    values: List[float] = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = float(token)
        except ValueError:
            parser.error(f"{flag} expects comma-separated numbers, got {token!r}")
        if not 0.0 <= value <= 1.0:
            parser.error(f"{flag} values must be within [0, 1], got {value}")
        values.append(value)
    return values


def _parse_styles(text: str, parser: argparse.ArgumentParser) -> list:
    from repro.common.config import BTBStyle

    try:
        return [BTBStyle(token.strip()) for token in text.split(",")]
    except ValueError as exc:
        parser.error(f"--styles: {exc}")


def _parse_asid_modes(
    text: str, parser: argparse.ArgumentParser, flag: str = "--asid-modes"
) -> List[ASIDMode]:
    try:
        return [ASIDMode(token.strip()) for token in text.split(",")]
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def run_shared_sweep_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``sweep shared``."""
    from repro.common.errors import ConfigurationError
    from repro.experiments import shared_footprint
    from repro.experiments.config import DEFAULT_BUDGET_KIB
    from repro.scenarios.presets import get_scenario

    try:
        get_scenario(args.preset)
    except ConfigurationError as exc:
        parser.error(str(exc))
    fractions = (
        _parse_float_list(args.fractions, "--fractions", parser)
        if args.fractions
        else shared_footprint.DEFAULT_FRACTIONS
    )
    styles = (
        _parse_styles(args.styles, parser)
        if args.styles
        else list(shared_footprint.SWEEP_STYLES)
    )
    asid_modes = (
        _parse_asid_modes(args.asid_modes, parser)
        if args.asid_modes
        else list(shared_footprint.SWEEP_ASID_MODES)
    )
    if args.budget_kib is not None and args.budget_kib <= 0:
        parser.error(f"--budget-kib must be positive, got {args.budget_kib}")
    try:
        engine = make_engine(workers=args.workers, cache_dir=args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")
    result = shared_footprint.run(
        resolve_scale(args.scale),
        budget_kib=args.budget_kib if args.budget_kib is not None else DEFAULT_BUDGET_KIB,
        preset=args.preset,
        fractions=fractions,
        styles=styles,
        asid_modes=asid_modes,
        engine=engine,
    )
    log.result(shared_footprint.format_report(result))
    _write_result_outputs(
        result, args.json_path, args.csv_path, shared_footprint.write_csv
    )
    return 0


def run_cache_sweep_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``sweep caches``."""
    from repro.common.errors import ConfigurationError
    from repro.experiments import cache_interference
    from repro.experiments.config import DEFAULT_BUDGET_KIB
    from repro.scenarios.presets import get_scenario

    presets = args.presets
    if presets:
        for name in presets:
            try:
                get_scenario(name)
            except ConfigurationError as exc:
                parser.error(str(exc))
    quanta = (
        _parse_int_list(args.quanta, "--quanta", parser)
        if args.quanta
        else cache_interference.DEFAULT_QUANTA
    )
    tenant_counts = (
        _parse_int_list(args.tenant_counts, "--tenant-counts", parser)
        if args.tenant_counts
        else None
    )
    if args.style:
        styles = _parse_styles(args.style, parser)
        if len(styles) != 1:
            parser.error(
                f"--style expects exactly one BTB style, got {len(styles)}: {args.style!r}"
            )
        style = styles[0]
    else:
        style = cache_interference.DEFAULT_STYLE
    cache_modes = (
        _parse_asid_modes(args.cache_modes, parser, flag="--cache-modes")
        if args.cache_modes
        else list(cache_interference.SWEEP_CACHE_MODES)
    )
    if args.budget_kib is not None and args.budget_kib <= 0:
        parser.error(f"--budget-kib must be positive, got {args.budget_kib}")
    try:
        engine = make_engine(workers=args.workers, cache_dir=args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")
    result = cache_interference.run(
        resolve_scale(args.scale),
        budget_kib=args.budget_kib if args.budget_kib is not None else DEFAULT_BUDGET_KIB,
        presets=presets,
        style=style,
        cache_modes=cache_modes,
        quanta=quanta,
        tenant_counts=tenant_counts,
        engine=engine,
    )
    log.result(cache_interference.format_report(result))
    _write_result_outputs(result, args.json_path, args.csv_path, cache_interference.write_csv)
    return 0


def run_tenant_sweep_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``sweep tenants``."""
    from repro.common.config import BTBStyle, ISAStyle
    from repro.experiments import tenant_scale
    from repro.experiments.config import DEFAULT_BUDGET_KIB

    tenant_counts = (
        _parse_int_list(args.tenant_counts, "--tenant-counts", parser)
        if args.tenant_counts
        else list(tenant_scale.DEFAULT_TENANT_COUNTS)
    )
    asid_modes = (
        _parse_asid_modes(args.asid_modes, parser)
        if args.asid_modes
        else list(tenant_scale.SWEEP_ASID_MODES)
    )
    if args.cache_modes:
        cache_modes: List[ASIDMode | None] = []
        for token in args.cache_modes.split(","):
            token = token.strip()
            if token == "shared":
                cache_modes.append(None)
            else:
                cache_modes.extend(_parse_asid_modes(token, parser, flag="--cache-modes"))
    else:
        cache_modes = list(tenant_scale.SWEEP_CACHE_MODES)
    if args.style:
        styles = _parse_styles(args.style, parser)
        if len(styles) != 1:
            parser.error(
                f"--style expects exactly one BTB style, got {len(styles)}: {args.style!r}"
            )
        style = styles[0]
    else:
        style = BTBStyle.BTBX
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    if args.shared_fraction is not None and not 0.0 <= args.shared_fraction <= 1.0:
        parser.error(f"--shared-fraction must be within [0, 1], got {args.shared_fraction}")
    if args.budget_kib is not None and args.budget_kib <= 0:
        parser.error(f"--budget-kib must be positive, got {args.budget_kib}")
    try:
        engine = make_engine(workers=args.workers, cache_dir=args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")
    result = tenant_scale.run(
        resolve_scale(args.scale),
        budget_kib=args.budget_kib if args.budget_kib is not None else DEFAULT_BUDGET_KIB,
        tenant_counts=tenant_counts,
        asid_modes=asid_modes,
        cache_modes=cache_modes,
        style=style,
        seed=args.seed if args.seed is not None else tenant_scale.DEFAULT_SEED,
        isa=ISAStyle.X86 if args.isa == "x86" else ISAStyle.ARM64,
        quantum_instructions=(
            args.quantum if args.quantum is not None else tenant_scale.DEFAULT_QUANTUM
        ),
        shared_fraction=args.shared_fraction if args.shared_fraction is not None else 0.0,
        engine=engine,
    )
    log.result(tenant_scale.format_report(result))
    _write_result_outputs(result, args.json_path, args.csv_path, tenant_scale.write_csv)
    return 0


def run_sweep_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``sweep scenarios``, ``sweep shared``, ``sweep caches`` and
    ``sweep tenants``."""
    from repro.common.errors import ConfigurationError
    from repro.experiments import scenario_sweep
    from repro.experiments.config import DEFAULT_BUDGET_KIB
    from repro.scenarios.presets import get_scenario

    if args.sweep_command == "shared":
        return run_shared_sweep_command(args, parser)
    if args.sweep_command == "caches":
        return run_cache_sweep_command(args, parser)
    if args.sweep_command == "tenants":
        return run_tenant_sweep_command(args, parser)

    presets = args.presets
    if presets:
        for name in presets:
            try:
                get_scenario(name)
            except ConfigurationError as exc:
                parser.error(str(exc))

    quanta = (
        _parse_int_list(args.quanta, "--quanta", parser)
        if args.quanta
        else scenario_sweep.DEFAULT_QUANTA
    )
    tenant_counts = (
        _parse_int_list(args.tenant_counts, "--tenant-counts", parser)
        if args.tenant_counts
        else None
    )
    styles = (
        _parse_styles(args.styles, parser)
        if args.styles
        else list(scenario_sweep.SWEEP_STYLES)
    )
    asid_modes = (
        _parse_asid_modes(args.asid_modes, parser)
        if args.asid_modes
        else list(scenario_sweep.SWEEP_ASID_MODES)
    )

    if args.budget_kib is not None and args.budget_kib <= 0:
        parser.error(f"--budget-kib must be positive, got {args.budget_kib}")

    try:
        engine = make_engine(workers=args.workers, cache_dir=args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")
    result = scenario_sweep.run(
        resolve_scale(args.scale),
        budget_kib=args.budget_kib if args.budget_kib is not None else DEFAULT_BUDGET_KIB,
        presets=presets,
        styles=styles,
        asid_modes=asid_modes,
        quanta=quanta,
        tenant_counts=tenant_counts,
        engine=engine,
    )
    log.result(scenario_sweep.format_report(result))
    _write_result_outputs(result, args.json_path, args.csv_path, scenario_sweep.write_csv)
    return 0


def run_plot_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``plot``: render a sweep CSV into one figure per metric."""
    import os

    from repro.analysis import plotting

    if not os.path.isfile(args.csv_path):
        parser.error(f"no such CSV file: {args.csv_path}")
    try:
        figures = plotting.plot_csv(
            args.csv_path, out_dir=args.out_dir, backend=args.backend
        )
    except plotting.PlotSchemaError as exc:
        parser.error(str(exc))
    for path in figures:
        log.result(f"wrote {path}")
    if not figures:
        log.result("nothing to plot (no rows in the CSV)")
    return 0


def run_cache_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``cache stats`` and ``cache prune``.

    A cache directory that does not exist is an empty cache, not an error:
    report that and exit 0 without creating the directory as a side effect
    (``ResultCache`` would, which surprises ``stats`` users probing a path).
    """
    import os

    if not os.path.isdir(args.cache_dir):
        if args.cache_command == "prune":
            log.result(f"pruned 0 entries (cache directory {args.cache_dir} does not exist)")
        else:
            log.result(f"cache directory : {args.cache_dir}")
            log.result("entries         : 0  (directory does not exist; nothing cached yet)")
        return 0
    try:
        cache = ResultCache(args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")

    from repro.experiments.engine import CACHE_FORMAT_VERSION

    if args.cache_command == "stats":
        stats = cache.stats()
        versions = cache.format_versions()
        log.result(f"cache directory : {stats['directory']}")
        log.result(f"entries         : {stats['entries']}")
        log.result(f"total bytes     : {stats['total_bytes']}")
        log.result(f"trace entries   : {stats['trace_entries']}")
        log.result(f"trace bytes     : {stats['trace_bytes']}")
        if versions:
            rendered = ", ".join(f"v{version}" for version in versions)
            log.result(f"format versions : {rendered} (this tool writes v{CACHE_FORMAT_VERSION})")
        if stats["oldest_mtime"] is not None:
            age_s = time.time() - stats["oldest_mtime"]
            log.result(f"oldest entry    : {age_s / 86400.0:.2f} days old")
        return 0

    newer = cache.newer_format_than(CACHE_FORMAT_VERSION)
    if newer is not None:
        print(
            f"not pruning {args.cache_dir}: it holds entries written by cache "
            f"format v{newer}, newer than the v{CACHE_FORMAT_VERSION} this "
            "tool understands.  A newer btbx-repro is actively using this "
            "directory; prune with that version instead."
        )
        return 0
    max_age_s = None if args.max_age_days is None else args.max_age_days * 86400.0
    removed = cache.prune(max_age_seconds=max_age_s)
    what = "entries" if removed != 1 else "entry"
    if args.max_age_days is None:
        log.result(f"pruned {removed} {what} (no age limit given: cache emptied)")
    else:
        log.result(f"pruned {removed} {what} older than {args.max_age_days} days")
    return 0


def run_bench_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``bench smoke`` and ``bench compare``."""
    from repro.common.errors import ConfigurationError
    from repro.experiments import bench

    if args.bench_command == "smoke":
        backends = (
            [token.strip() for token in args.backends.split(",") if token.strip()]
            if args.backends
            else None
        )
        try:
            record = bench.run_smoke(backends=backends, repeats=args.repeats)
        except (ConfigurationError, ValueError) as exc:
            parser.error(str(exc))
        log.result(bench.format_record(record))
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
            log.info(f"(record written to {args.json_path})")
        if args.append_history:
            history_path = args.history_path or bench.DEFAULT_HISTORY_PATH
            bench.append_history(record, history_path)
            log.info(f"(record appended to {history_path})")
        return 0

    try:
        with open(args.fresh, "r", encoding="utf-8") as handle:
            fresh = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read fresh record {args.fresh!r}: {exc}")
    baseline_path = args.baseline or bench.DEFAULT_HISTORY_PATH
    try:
        history = bench.load_history(baseline_path)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    if not history:
        parser.error(
            f"no baseline records in {baseline_path!r}; run "
            "`btbx-repro bench smoke --append-history` and commit the result"
        )
    threshold = (
        args.threshold if args.threshold is not None else bench.DEFAULT_REGRESSION_THRESHOLD
    )
    if not 0.0 < threshold < 1.0:
        parser.error(f"--threshold must be within (0, 1), got {threshold}")
    verdict = bench.compare(fresh, history[-1], threshold=threshold)
    log.result(bench.format_comparison(verdict))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(verdict, handle, indent=2, sort_keys=True)
        log.info(f"(verdict written to {args.json_path})")
    return 1 if verdict["regressed"] else 0


def run_obs_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Handle ``obs report`` and ``obs export``."""
    from repro.obs import read_trace
    from repro.obs.chrome import export_chrome
    from repro.obs.report import aggregate, format_report

    try:
        events = read_trace(args.trace_path)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read trace {args.trace_path!r}: {exc}")

    if args.obs_command == "report":
        report = aggregate(events)
        log.result(format_report(report))
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
            log.info(f"\n(report written to {args.json_path})")
        return 0

    out_path = args.out_path or f"{args.trace_path.removesuffix('.jsonl')}.chrome.json"
    export_chrome(events, out_path)
    log.result(f"wrote {out_path}")
    return 0


def run_serve_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the sweep service until a client sends ``shutdown`` (or Ctrl-C)."""
    import asyncio

    from repro.service.budget import (
        DEFAULT_BUDGET_INSTRUCTIONS,
        DEFAULT_WINDOW_SECONDS,
    )
    from repro.service.server import ServiceConfig, SweepService

    config = ServiceConfig(
        socket_path=args.socket_path,
        host=args.host,
        port=args.port or 0,
        workers=args.workers,
        cache_dir=args.cache_dir,
        backend=args.backend,
        budget_instructions=args.budget_instructions or DEFAULT_BUDGET_INSTRUCTIONS,
        budget_window_seconds=(
            DEFAULT_WINDOW_SECONDS if args.budget_window_s is None else args.budget_window_s
        ),
        janitor_interval_seconds=args.janitor_interval_s,
        max_age_seconds=(
            None if args.max_age_days is None else args.max_age_days * 86_400.0
        ),
    )
    service = SweepService(config)

    async def _serve() -> None:
        runner = asyncio.ensure_future(service.run())
        while not service.started.is_set() and not runner.done():
            await asyncio.sleep(0.01)
        if service.started.is_set():
            address = service.address
            shown = address if isinstance(address, str) else f"{address[0]}:{address[1]}"
            log.result(f"sweep service listening on {shown}")
        await runner

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        log.info("(service interrupted)")
    except OSError as exc:
        parser.error(f"cannot listen: {exc}")
    return 0


def _write_trace(recorder: JsonlRecorder, path: str, trace_format: str) -> str:
    """Serialize a finished recording in the requested format."""
    if trace_format == "chrome":
        from repro.obs.chrome import export_chrome

        export_chrome(recorder.drain(), path)
        return path
    recorder.write(path)
    return path


@contextlib.contextmanager
def _scoped_environ(updates: Dict[str, str]) -> Iterator[None]:
    """Apply environment ``updates`` for one command, then restore.

    The CLI exports its --backend / --trace-out choices through the
    environment so pooled worker processes inherit them; scoping the mutation
    keeps ``main()`` reentrant (library callers and tests invoking it must
    not find the previous run's knobs left behind in ``os.environ``).
    """
    previous = {key: os.environ.get(key) for key in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    log.configure(-1 if args.quiet else (1 if args.verbose else 0))

    # One central knob for the simulation backend: subcommands that build an
    # engine expose --backend, which routes through the environment so pooled
    # worker processes inherit it (the ``plot`` subcommand's --backend is its
    # unrelated rendering knob).  The export is scoped to this command; the
    # service additionally threads the backend to its workers explicitly, so
    # it never depends on ambient environment state.
    env_updates: Dict[str, str] = {}
    if args.command != "plot" and getattr(args, "backend", None):
        from repro.common.config import resolve_backend
        from repro.common.errors import ConfigurationError

        try:
            resolve_backend(args.backend)
        except ConfigurationError as exc:
            parser.error(str(exc))
        env_updates[BACKEND_ENV_VAR] = args.backend

    # Telemetry follows the same pattern: --trace-out (or REPRO_OBS) turns on
    # a JsonlRecorder around the whole command; the env export lets nested
    # invocations and subprocesses see that recording is on.  The `obs`
    # subcommand only *reads* traces, so it never records itself.
    trace_out = getattr(args, "trace_out", None) or trace_path_from_env()
    if trace_out and args.command != "obs":
        trace_format = (
            getattr(args, "trace_format", None)
            or os.environ.get(OBS_FORMAT_ENV_VAR, "").strip()
            or "jsonl"
        )
        if trace_format not in ("jsonl", "chrome"):
            parser.error(f"{OBS_FORMAT_ENV_VAR} must be 'jsonl' or 'chrome', got {trace_format!r}")
        env_updates[OBS_ENV_VAR] = trace_out
        recorder = JsonlRecorder()
        with _scoped_environ(env_updates):
            with use_recorder(recorder):
                exit_code = _dispatch(args, parser)
        _write_trace(recorder, trace_out, trace_format)
        log.info(f"(telemetry trace written to {trace_out})")
        return exit_code
    with _scoped_environ(env_updates):
        return _dispatch(args, parser)


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Route a parsed command line to its handler."""
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            module = importlib.import_module(EXPERIMENTS[name])
            summary = (module.__doc__ or "").strip().splitlines()[0]
            log.result(f"{name:<18} {summary}")
        return 0

    if args.command == "scenario":
        return run_scenario_command(args, parser)

    if args.command == "sweep":
        return run_sweep_command(args, parser)

    if args.command == "plot":
        return run_plot_command(args, parser)

    if args.command == "cache":
        return run_cache_command(args, parser)

    if args.command == "bench":
        return run_bench_command(args, parser)

    if args.command == "obs":
        return run_obs_command(args, parser)

    if args.command == "serve":
        return run_serve_command(args, parser)

    try:
        engine = make_engine(workers=args.workers, cache_dir=args.cache_dir)
    except OSError as exc:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {exc}")
    log.debug(
        f"engine: workers={args.workers}, cache_dir={args.cache_dir}, "
        f"scale={resolve_scale(args.scale).name}"
    )

    if args.command == "run-all":
        summary = run_all(args.scale, engine=engine)
        for name in EXPERIMENTS:
            if summary["status"][name] == "failed":
                log.result(f"[{name}: FAILED after {summary['timings_s'][name]:.2f}s: "
                           f"{summary['errors'][name]}]\n")
                continue
            module = importlib.import_module(EXPERIMENTS[name])
            log.result(module.format_report(summary["results"][name]))
            driver = summary["engine_per_driver"][name]
            reuse = f"{driver['memo_hits']} memo + {driver['disk_hits']} disk hits"
            if summary["instructions"][name]:
                log.info(
                    f"[{name}: {summary['timings_s'][name]:.2f}s, "
                    f"{summary['instructions_per_second'][name]:,.0f} instructions/s, "
                    f"{driver['executed']} executed, {reuse}]\n"
                )
            else:
                log.info(
                    f"[{name}: {summary['timings_s'][name]:.2f}s "
                    f"(all cells reused: {reuse})]\n"
                )
        counters = summary["engine"]
        log.result(
            f"run-all: {summary['total_s']:.2f}s at scale {summary['scale']} "
            f"({counters['executed']} simulations, {counters['memo_hits']} memo hits, "
            f"{counters['disk_hits']} cache hits)"
        )
        if summary["failed"]:
            log.result(f"run-all: {len(summary['failed'])} experiment(s) FAILED: "
                       f"{', '.join(summary['failed'])}")
        if args.timings_path:
            _write_timings(args.timings_path, summary, args.workers)
            log.info(f"(timing summary written to {args.timings_path})")
        return 1 if summary["failed"] else 0

    result = run_experiment(args.experiment, args.scale, engine=engine)
    module = importlib.import_module(EXPERIMENTS[args.experiment])
    log.result(module.format_report(result))
    _write_result_outputs(result, args.json_path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
