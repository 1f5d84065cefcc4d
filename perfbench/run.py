"""End-to-end benchmark of the BTB-X reproduction: one workload, one seed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0

Each measured run is a fresh interpreter (``child.py``) with a fresh, empty
result cache (``rerun_warm``: its own copy of a cache a ``paper_cold`` run
filled).  Runs are strictly sequential and repeat while the next one is
expected to end within ``--seconds`` (there is always at least one); the
reported values are medians over the runs.  Times are host time scaled to
a fixed reference speed: a probe thread times a fixed kernel on the vCPUs
the child runs on, and each interval is scaled by the speed it saw there
(``HostProbe``), because this host's vCPUs slow down and speed up by a
third from one minute to the next.  Every result row is compared
with the reference kept for the workload and seed (see ``README.md``).
The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, and with ``--trace 1`` the per-layer table of
one extra traced run plus ``tracing_overhead``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference"

WORKLOADS = ("paper_cold", "tenants_cold", "rerun_warm")

#: Backend each workload runs on; references always come from the oracle.
BACKEND = {"paper_cold": "python", "tenants_cold": "numpy", "rerun_warm": "python"}
ORACLE = "python"

#: Environment that would change what a run records or simulates.
CLEARED_ENV = ("REPRO_OBS", "REPRO_OBS_FORMAT", "REPRO_SCALE", "REPRO_BACKEND")

#: A child that runs longer than this is killed and the whole run fails.
CHILD_TIMEOUT_S = 170.0

#: Host-speed probe: ``_probe_kernel`` takes 3-5 ms and runs every
#: ``PROBE_PERIOD_S`` while a child runs, about 4 % of one vCPU.
PROBE_ITERATIONS = 30_000
PROBE_PERIOD_S = 0.1
#: The probe kernel's thread CPU time at the reference speed: about its
#: fastest on the 2-vCPU x86 virtual machine the benchmark was tuned on.
#: Timed intervals are reported in seconds at this speed.
PROBE_REFERENCE_S = 0.003

#: Set-up intervals sampled per run at least; runs that end after set-up
#: make up the difference when the workload itself fits fewer times.
SETUP_SAMPLES = 3


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, child crashed)."""


def child_env(backend: str) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_BACKEND"] = backend
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, cache_dir: Path, backend: str,
              *flags: str) -> Dict[str, object]:
    """Run ``child.py`` once; return its report plus outside measurements."""
    out = cache_dir.parent / (cache_dir.name + ".json")
    log = cache_dir.parent / (cache_dir.name + ".log")
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--cache-dir", str(cache_dir), "--out", str(out), *flags]
    with open(log, "wb") as log_handle, HostProbe() as probe:
        spawned = time.monotonic()
        process = subprocess.Popen(command, env=child_env(backend), stdin=subprocess.DEVNULL,
                                   stdout=log_handle, stderr=subprocess.STDOUT)
        probe.pid = process.pid
        try:
            status, rusage = _wait(process)
        finally:
            if process.returncode is None:
                process.kill()
                process.wait()
        exited = time.monotonic()
    if os.waitstatus_to_exitcode(status) != 0 or not out.exists():
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchmarkError(f"{workload} child failed (status {status}):\n{tail}")
    report = json.loads(out.read_text())
    report["raw_wall_s"] = exited - spawned
    report["wall_s"] = probe.reference_seconds(spawned, exited)
    report["setup_s"] = probe.reference_seconds(spawned, report["ready"])
    report["run_s"] = probe.reference_seconds(report["ready"], exited)
    report["peak_rss_mib"] = rusage.ru_maxrss / 1024.0
    print(f"{' '.join((workload,) + flags)}: wall {report['raw_wall_s']:.3f} s as measured, "
          f"{report['wall_s']:.3f} s at reference speed", file=sys.stderr)
    return report


def _probe_kernel() -> int:
    """A fixed slice of pure-Python work: integer arithmetic and dict stores."""
    total, table = 0, {}
    for index in range(PROBE_ITERATIONS):
        total += index * index % 7
        table[index & 255] = total
    return total


class HostProbe:
    """Samples the speed of the vCPUs a child runs on, from a thread.

    Every ``PROBE_PERIOD_S`` the thread moves to a CPU that one of the
    child's running threads is on, runs ``_probe_kernel`` there and records
    the thread CPU time it took: waiting for the CPU does not count, a
    slower vCPU does.  The vCPUs of this host slow down at different times,
    so the probe follows the child rather than watching a fixed CPU.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.pid = 0  # the child's, once it is spawned
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-probe", daemon=True)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        allowed = sorted(os.sched_getaffinity(0))
        turn = 0
        while not self._stop.is_set():
            cpus = child_cpus(self.pid) or allowed
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})  # this thread only
            turn += 1
            began = time.thread_time()
            _probe_kernel()
            self.samples.append((time.monotonic(), time.thread_time() - began))
            self._stop.wait(PROBE_PERIOD_S)

    def reference_seconds(self, start: float, end: float) -> float:
        """How long ``[start, end]`` would have lasted at the reference speed.

        A stretch of work done at a speed ``s`` (reference probe time over
        probe time) for ``dt`` seconds takes ``s * dt`` at the reference
        speed, so the interval is scaled by the mean speed of the samples
        taken in it (of all samples, when it holds none).
        """
        inside = [cpu for at, cpu in self.samples if start <= at <= end]
        speeds = [PROBE_REFERENCE_S / cpu for cpu in inside or [cpu for _, cpu in self.samples]]
        if not speeds:
            raise BenchmarkError("the host probe took no sample")
        return (end - start) * statistics.fmean(speeds)


def child_cpus(pid: int) -> List[int]:
    """The CPUs the running threads of process ``pid`` are on, in thread order."""
    cpus = []
    for stat in sorted(Path(f"/proc/{pid}/task").glob("*/stat")) if pid else ():
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the thread or the process has ended
            continue
        if fields[0] == "R":  # fields[0] is the state, fields[36] the last CPU
            cpus.append(int(fields[36]))
    return cpus


def _wait(process: subprocess.Popen) -> Tuple[int, object]:
    """Reap ``process`` with its resource usage, killing it at the timeout."""
    timer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return status, rusage


# -- reference rows -----------------------------------------------------------


def source_digest() -> str:
    """Hash of the program's and the benchmark's sources.

    It keys what the work directory keeps between runs (references made on
    the fly, the filled cache), so an edit to either makes them anew.
    """
    hasher = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def reference_name(workload: str, seed: int) -> str:
    """``rerun_warm`` replays ``paper_cold``, whose grid ignores the seed."""
    return "tenants_cold-%d.json" % seed if workload == "tenants_cold" else "paper.json"


def make_reference(workload: str, seed: int, scratch: Path) -> Dict[str, object]:
    """Run the workload once on the scalar oracle and keep its rows."""
    cold = "tenants_cold" if workload == "tenants_cold" else "paper_cold"
    cache_dir = Path(tempfile.mkdtemp(dir=scratch))
    report = run_child(cold, seed, cache_dir, ORACLE)
    if report["errors"]:
        raise BenchmarkError(f"oracle run failed: {report['errors']}")
    grid = report["engine"]["executed"]
    return {"workload": cold, "seed": seed, "backend": ORACLE, "grid_size": grid,
            "rows": report["rows"]}


def load_reference(workload: str, seed: int, scratch: Path) -> Dict[str, object]:
    """The kept reference, else one made now on the oracle and kept in the work dir."""
    name = reference_name(workload, seed)
    for directory in (REFERENCE, WORK / "reference" / source_digest()):
        path = directory / name
        if path.exists():
            return json.loads(path.read_text())
    reference = make_reference(workload, seed, scratch)
    path = WORK / "reference" / source_digest() / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True))
    return reference


def failed_rows(rows: Dict[str, str], reference: Dict[str, str]) -> List[str]:
    """Keys of rows that are missing, differ from the reference, or are unexpected."""
    failed = [key for key, value in reference.items() if rows.get(key) != value]
    failed += [key for key in rows if key not in reference]
    return sorted(failed)


def counter_problems(workload: str, engine: Dict[str, int], grid_size: int) -> List[str]:
    """Why the engine's counters show a stale, missing or bypassed cache."""
    if workload == "rerun_warm":
        expected = {"executed": 0, "disk_hits": grid_size}
    else:
        expected = {"executed": grid_size, "disk_hits": 0}
    return [f"{key}={engine[key]}, expected {value}"
            for key, value in expected.items() if engine[key] != value]


# -- the filled cache rerun_warm replays ---------------------------------------


def filled_cache(scratch: Path, reference: Dict[str, object]) -> Path:
    """A result cache an untimed ``paper_cold`` run filled, kept per source."""
    path = WORK / "filled" / source_digest()
    if path.exists():
        return path
    cache_dir = Path(tempfile.mkdtemp(dir=scratch))
    report = run_child("paper_cold", 0, cache_dir, BACKEND["paper_cold"])
    problems = counter_problems("paper_cold", report["engine"], reference["grid_size"])
    if problems or failed_rows(report["rows"], reference["rows"]):
        raise BenchmarkError(f"cannot fill the rerun cache: {problems or 'rows differ'}")
    path.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(str(cache_dir), str(path))
    return path


# -- measurement ----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    if not (SRC / "repro" / "__init__.py").exists():
        raise BenchmarkError(f"no program sources at {SRC}")
    WORK.mkdir(exist_ok=True)
    # Byte-compile up front so no timed run pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)
    scratch = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    try:
        reference = load_reference(workload, seed, scratch)
        filled = filled_cache(scratch, reference) if workload == "rerun_warm" else None
        runs: List[Dict[str, object]] = []
        attempted = failed = 0
        started = time.monotonic()
        # Start another run only while it is expected to end within the budget,
        # which is host time, not time at the reference speed.
        while not runs or (time.monotonic() - started
                           + statistics.median(run["raw_wall_s"] for run in runs)) <= seconds:
            cache_dir = scratch / f"cache-{len(runs)}"
            if filled is not None:
                shutil.copytree(filled, cache_dir)
            report = run_child(workload, seed, cache_dir, BACKEND[workload])
            shutil.rmtree(cache_dir)
            runs.append(report)
            attempted_here, failed_here = score(workload, report, reference)
            attempted += attempted_here
            failed += failed_here
        setups = [run["setup_s"] for run in runs]
        while len(setups) < SETUP_SAMPLES:
            probe = scratch / f"setup-{len(setups)}"
            setups.append(run_child(workload, seed, probe, BACKEND[workload], "--setup-only")["setup_s"])
        metrics = end_to_end(workload, runs, setups)
        if trace:
            cache_dir = scratch / "cache-traced"
            if filled is not None:
                shutil.copytree(filled, cache_dir)
            traced = run_child(workload, seed, cache_dir, BACKEND[workload], "--trace")
            attempted_here, failed_here = score(workload, traced, reference)
            attempted += attempted_here
            failed += failed_here
            metrics = per_layer(traced, metrics["wall_s"]["value"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def score(workload: str, report: Dict[str, object], reference: Dict[str, object]) -> Tuple[int, int]:
    """(rows attempted, rows failed) of one run; bad counters fail every row."""
    rows = report["rows"]
    failed = failed_rows(rows, reference["rows"])
    attempted = len(reference["rows"]) + sum(1 for key in rows if key not in reference["rows"])
    problems = counter_problems(workload, report["engine"], reference["grid_size"])
    raised = [f"{driver} raised {trace.strip().splitlines()[-1]}"
              for driver, trace in report["errors"].items()]
    for message in raised + problems + [f"{key} differs" for key in failed[:5]]:
        print(f"check failed: {workload}: {message}", file=sys.stderr)
    return attempted, attempted if problems else len(failed)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, runs: List[Dict[str, object]],
               setups: List[float]) -> Dict[str, Dict[str, object]]:
    """Medians over the runs of the four end-to-end metrics."""
    def median(values) -> float:
        return statistics.median(list(values))

    if workload == "rerun_warm":
        # Nothing is simulated: count the instructions the cached rows stand
        # for, over the whole wall (the part after set-up is well under 1 s).
        ips = median(run["served_instructions"] / run["wall_s"] for run in runs)
    else:
        ips = median(run["engine"]["instructions_simulated"] / run["run_s"] for run in runs)
    return {
        "wall_s": _metric(median(run["wall_s"] for run in runs), "s"),
        "setup_s": _metric(median(setups), "s"),
        "sim_ips": _metric(ips, "1/s"),
        "peak_rss_mib": _metric(median(run["peak_rss_mib"] for run in runs), "MiB"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: Dict[str, object], untraced_wall_s: float) -> Dict[str, Dict[str, object]]:
    """The per-layer table of one traced run."""
    layers = traced["layers"]
    seconds, calls, totals = layers["seconds"], layers["calls"], layers["totals"]
    counters, engine, store = layers["counters"], traced["engine"], layers["store"]

    def count(name: str) -> int:
        return totals.get(name, 0)

    fast = counters.get("batch.instructions_fast", 0)
    slow = counters.get("batch.instructions_slow", 0)
    table = {
        "workloads.build_s": (seconds.get("workloads.build", 0.0), "s"),
        "workloads.build_calls": (calls.get("workloads.build", 0), "count"),
        "workloads.instructions_generated": (count("workloads.instructions_generated"), "count"),
        "traces.store_hits": (store["hits"], "count"),
        "traces.store_misses": (store["misses"], "count"),
        "traces.store_hit_ratio": (_ratio(store["hits"], store["hits"] + store["misses"]), "ratio"),
        "traces.decode_s": (seconds.get("traces.decode", 0.0), "s"),
        "traces.decode_calls": (calls.get("traces.decode", 0), "count"),
        "scenarios.compose_s": (seconds.get("scenarios.compose", 0.0), "s"),
        "scenarios.context_switches": (count("scenarios.context_switches"), "count"),
        "core.loop_s": (seconds.get("core.loop", 0.0), "s"),
        "core.batch_s": (seconds.get("core.batch", 0.0), "s"),
        "core.instructions_simulated": (engine["instructions_simulated"], "count"),
        "core.batch_fast_share": (_ratio(fast, fast + slow), "ratio"),
        "btb.s": (seconds.get("btb", 0.0), "s"),
        "btb.calls": (calls.get("btb", 0), "count"),
        "btb.miss_ratio": (_ratio(count("btb.misses_taken"), count("btb.taken_branches")), "ratio"),
        "predictor.s": (seconds.get("predictor", 0.0), "s"),
        "predictor.calls": (calls.get("predictor", 0), "count"),
        "memory.s": (seconds.get("memory", 0.0), "s"),
        "memory.calls": (calls.get("memory", 0), "count"),
        "frontend.bpu_s": (seconds.get("frontend.bpu", 0.0), "s"),
        "frontend.fdip_s": (seconds.get("frontend.fdip", 0.0), "s"),
        "frontend.fdip_coverage": (
            _ratio(count("frontend.l1i_misses_covered"), count("memory.l1i_misses")), "ratio"),
        "experiments.engine_s": (seconds.get("experiments.engine", 0.0), "s"),
        "experiments.cache_read_s": (seconds.get("experiments.cache_read", 0.0), "s"),
        "experiments.cache_write_s": (seconds.get("experiments.cache_write", 0.0), "s"),
        "experiments.driver_s": (seconds.get("experiments.driver", 0.0), "s"),
        "experiments.jobs_submitted": (engine["submitted"], "count"),
        "experiments.jobs_executed": (engine["executed"], "count"),
        "experiments.memo_hits": (engine["memo_hits"], "count"),
        "experiments.disk_hits": (engine["disk_hits"], "count"),
        "experiments.cache_hit_ratio": (
            _ratio(engine["memo_hits"] + engine["disk_hits"], engine["submitted"]), "ratio"),
        "tracing_overhead": (traced["wall_s"] / untraced_wall_s, "ratio"),
    }
    for name in ("btb.misses_taken", "btb.taken_branches", "predictor.branches",
                 "predictor.direction_mispredictions", "predictor.target_mispredictions",
                 "memory.l1i_accesses", "memory.l1i_misses", "memory.l2_accesses",
                 "memory.l2_misses", "frontend.l1i_misses_covered",
                 "frontend.execute_flushes", "frontend.decode_resteers"):
        table[name] = (count(name), "count")
    return {name: _metric(value, unit) for name, (value, unit) in sorted(table.items())}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2023,
                        help="tenants_cold recipe seed (default 2023, the sweep's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="make this workload's reference on the oracle and keep it "
                             "under reference/, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.write_reference:
            WORK.mkdir(exist_ok=True)
            scratch = Path(tempfile.mkdtemp(dir=WORK, prefix="ref-"))
            try:
                reference = make_reference(args.workload, args.seed, scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            path = REFERENCE / reference_name(args.workload, args.seed)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
