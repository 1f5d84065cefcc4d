"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured run and times it from the
outside; the script reports when its set-up ended and what it produced::

    python3 perfbench/child.py --workload paper_cold --seed 1 \\
        --cache-dir DIR --out result.json [--trace | --setup-only]

Set-up ends once every trace the workload replays has been generated through
the public trace store; that instant (``time.monotonic()``, which is the
system-wide monotonic clock on Linux) is written to ``--out`` as ``ready``.
The output also holds one digest per result row, the engine's counters and,
with ``--trace``, the per-layer table.  ``--setup-only`` exits right after
set-up, so a run can sample set-up time more often than it runs the whole
workload.  ``repro`` must be importable (the parent puts the checkout's
``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import importlib
import json
import sys
import time
import traceback
from typing import Dict, List

from repro.experiments.config import SMOKE_SCALE
from repro.experiments.engine import ExperimentEngine, use_engine

#: The paper drivers replayed by ``paper_cold`` and ``rerun_warm``: the CLI's
#: ``EXPERIMENTS`` from ``table1_exynos`` through ``ablation_ways``.
PAPER_DRIVERS = (
    "table1_exynos", "fig04_offsets", "table3_storage", "table4_capacity", "fig09_mpki",
    "fig10_performance", "table5_energy", "fig11_sweep", "fig12_cvp", "fig13_x86",
    "ablation_ways",
)

#: Every suite some paper driver draws traces from.
PAPER_SUITES = ("ipc1_client", "ipc1_server", "cvp1_server", "x86_server")

#: The tenant sweep's grid: tenant counts x the sweep's 3 BTB ASID modes x
#: its 2 cache modes.  Counts are sized so a run lasts about ten seconds;
#: the sweep's default counts (up to 1024 tenants) take many minutes.
TENANT_COUNTS = (4, 16, 32)
SHARED_FRACTION = 0.5

WORKLOADS = ("paper_cold", "tenants_cold", "rerun_warm")

#: Simulated counts summed over the cells a run executes, by layer metric.
RESULT_COUNTS = {
    "btb.misses_taken": "btb_misses_taken",
    "btb.taken_branches": "taken_branches",
    "predictor.branches": "branches",
    "predictor.direction_mispredictions": "direction_mispredictions",
    "predictor.target_mispredictions": "target_mispredictions",
    "memory.l1i_accesses": "l1i_accesses",
    "memory.l1i_misses": "l1i_misses",
    "memory.l2_accesses": "l2_accesses",
    "memory.l2_misses": "l2_misses",
    "frontend.l1i_misses_covered": "l1i_misses_covered",
    "frontend.execute_flushes": "execute_flushes",
    "frontend.decode_resteers": "decode_resteers",
}


def plain(value):
    """``value`` as JSON-able data: dataclasses by field, enums by value.

    A result's raw ``stats`` registry is left out; the engine does not
    carry it through its cache either.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.name != "stats"
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def digest(value) -> str:
    """Content hash of ``value``'s canonical JSON form."""
    canonical = json.dumps(plain(value), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RowCapture:
    """Records every job a driver submits to the engine, with its outcome."""

    def __init__(self) -> None:
        self.driver = ""
        self.submitted: List[tuple] = []

    def install(self) -> None:
        original = ExperimentEngine.run_jobs
        capture = self

        def run_jobs(engine, jobs, traces=None):
            outcomes = original(engine, jobs, traces)
            capture.submitted.extend((capture.driver, job, out) for job, out in zip(jobs, outcomes))
            return outcomes

        ExperimentEngine.run_jobs = run_jobs

    def rows(self) -> Dict[str, str]:
        """One digest per submitted job, keyed ``driver/index``."""
        rows: Dict[str, str] = {}
        per_driver: Dict[str, int] = {}
        for driver, job, outcome in self.submitted:
            index = per_driver[driver] = per_driver.get(driver, -1) + 1
            rows[f"{driver}/{index:03d}"] = digest({"job": job.config_hash(), "outcome": outcome})
        return rows


def prepare_paper():
    from repro.experiments.runner import evaluation_traces

    evaluation_traces(SMOKE_SCALE, suites=PAPER_SUITES)


def run_paper(capture: RowCapture, rows: Dict[str, str], errors: Dict[str, str]) -> None:
    from repro.cli import EXPERIMENTS

    for name in PAPER_DRIVERS:
        capture.driver = name
        try:
            result = importlib.import_module(EXPERIMENTS[name]).run(SMOKE_SCALE)
        except Exception:  # noqa: BLE001 - a raising driver is a failed row, not a crash
            errors[name] = traceback.format_exc()
            continue
        rows[f"{name}/result"] = digest(result)


def tenant_specs(seed: int):
    from repro.experiments.tenant_scale import recipe_for
    from repro.scenarios.generate import generate_scenario

    return [
        generate_scenario(recipe_for(count, seed=seed, shared_fraction=SHARED_FRACTION))
        for count in TENANT_COUNTS
    ]


def prepare_tenants(seed: int) -> None:
    from repro.traces.store import default_store

    store = default_store()
    for workload in sorted({w for spec in tenant_specs(seed) for w in spec.workloads}):
        store.get(workload, SMOKE_SCALE.instructions)


def run_tenants(capture: RowCapture, rows: Dict[str, str], errors: Dict[str, str], seed: int) -> None:
    from repro.experiments import tenant_scale

    capture.driver = "tenant_scale"
    try:
        result = tenant_scale.run(
            SMOKE_SCALE, tenant_counts=TENANT_COUNTS, seed=seed,
            shared_fraction=SHARED_FRACTION,
        )
    except Exception:  # noqa: BLE001 - a raising driver is a failed row, not a crash
        errors["tenant_scale"] = traceback.format_exc()
        return
    rows["tenant_scale/result"] = digest(result)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = recorder = None
    totals: Dict[str, int] = {}
    if args.trace:
        from layers import LayerTracer, install_repro_layers
        from repro.obs import JsonlRecorder, set_recorder

        def add_payload(payload) -> None:
            for metric, field in RESULT_COUNTS.items():
                totals[metric] = totals.get(metric, 0) + payload["result"][field]
            switches = payload.get("scenario", {}).get("context_switches", 0)
            totals["scenarios.context_switches"] = totals.get("scenarios.context_switches", 0) + switches

        def add_trace(trace) -> None:
            totals["workloads.instructions_generated"] = (
                totals.get("workloads.instructions_generated", 0) + len(trace)
            )

        tracer = LayerTracer()
        install_repro_layers(tracer, observers={
            ("repro.experiments.engine", "execute_job"): add_payload,
            ("repro.workloads.suites", "build_workload"): add_trace,
        })
        recorder = JsonlRecorder()
        set_recorder(recorder)

    capture = RowCapture()
    capture.install()
    engine = ExperimentEngine(workers=1, cache_dir=args.cache_dir)
    rows: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    with use_engine(engine):
        if args.workload == "tenants_cold":
            prepare_tenants(args.seed)
        else:
            prepare_paper()
        ready = time.monotonic()
        if args.workload == "tenants_cold" and not args.setup_only:
            run_tenants(capture, rows, errors, args.seed)
        elif not args.setup_only:
            run_paper(capture, rows, errors)
    rows.update(capture.rows())

    report = {
        "ready": ready,
        "rows": rows,
        "errors": errors,
        "engine": engine.stats(),
        "served_instructions": sum(
            {job.config_hash(): job.instructions for _, job, _ in capture.submitted}.values()
        ),
    }
    if tracer is not None:
        from repro.traces.store import default_store

        tracer.uninstall()
        store = default_store()
        report["layers"] = {
            "seconds": tracer.seconds(),
            "calls": tracer.calls(),
            "totals": totals,
            "store": {"hits": store.hits, "misses": store.misses},
            "counters": recorder.metrics_snapshot()["counters"],
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
