"""Tests for the benchmark's own code: layer self time, the output check and the host probe."""

from __future__ import annotations

import importlib.util
import inspect
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
run = _load("run")


class FakeClock:
    """A clock per thread that moves only when the test says so."""

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds: float) -> None:
        self._local.now = self() + seconds


def test_nested_wrapped_calls_charge_self_time_to_each_layer():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)
    inner = tracer.timed("btb", lambda: clock.advance(2.0))

    def recurse(depth: int) -> None:
        clock.advance(0.25)
        if depth:
            again(depth - 1)

    again = tracer.timed("core.loop", recurse)

    def body() -> None:
        clock.advance(1.0)
        inner()
        inner()
        again(1)

    tracer.timed("core.loop", body)()
    assert tracer.seconds() == {"core.loop": 1.5, "btb": 4.0}
    # Re-entering the layer a call is already in is not a new entry.
    assert tracer.calls() == {"core.loop": 1, "btb": 2}


def test_generator_is_timed_per_next_and_not_while_consumed():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)

    def produce(count: int):
        for item in range(count):
            clock.advance(1.0)
            yield item

    stream = tracer.timed("scenarios.compose", produce)
    assert inspect.isgeneratorfunction(stream)

    def consume() -> list:
        items = []
        for item in stream(3):
            clock.advance(10.0)
            items.append(item)
        return items

    assert tracer.timed("core.batch", consume)() == [0, 1, 2]
    assert tracer.seconds() == {"scenarios.compose": 3.0, "core.batch": 30.0}


def test_second_thread_is_charged_on_its_own_stack():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)
    decode = tracer.timed("traces.decode", lambda: clock.advance(5.0))

    def body() -> None:
        clock.advance(1.0)
        producer = threading.Thread(target=decode)
        producer.start()
        producer.join(timeout=10)
        assert not producer.is_alive()
        clock.advance(1.0)

    tracer.timed("core.batch", body)()
    assert tracer.seconds() == {"core.batch": 2.0, "traces.decode": 5.0}


def _snapshot() -> dict:
    """Every attribute of every loaded repro module and of its classes."""
    found = {}
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    found[(name, attr, member)] = inner
    return found


def test_wrappers_fire_and_are_removed_after_the_traced_run():
    from repro.common.config import BTBStyle
    from repro.core.simulator import simulate_trace
    from repro.traces.store import TraceStore

    layers._import_packages()
    before = _snapshot()
    tracer = layers.LayerTracer()
    generated = []
    layers.install_repro_layers(
        tracer, observers={("repro.workloads.suites", "build_workload"): generated.append}
    )
    try:
        assert _snapshot() != before
        trace = TraceStore().get("server_001", 2_000)
        simulate_trace(trace, btb_style=BTBStyle.BTBX)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert [key for key in before if after.get(key) is not before[key]] == []
    assert [len(trace) for trace in generated] == [2_000]
    calls = tracer.calls()
    for layer in ("workloads.build", "core.loop", "btb", "predictor", "memory",
                  "frontend.bpu", "frontend.fdip"):
        assert calls.get(layer, 0) > 0, layer


def test_output_check_flags_a_single_perturbed_row():
    reference = {f"fig09_mpki/{index:03d}": f"digest-{index}" for index in range(5)}
    reference["fig09_mpki/result"] = "digest-result"
    rows = dict(reference)
    assert run.failed_rows(rows, reference) == []
    rows["fig09_mpki/002"] = "digest-perturbed"
    assert run.failed_rows(rows, reference) == ["fig09_mpki/002"]
    del rows["fig09_mpki/002"]
    assert run.failed_rows(rows, reference) == ["fig09_mpki/002"]
    rows["fig09_mpki/002"] = reference["fig09_mpki/002"]
    rows["fig09_mpki/099"] = "unexpected"
    assert run.failed_rows(rows, reference) == ["fig09_mpki/099"]


def test_counter_check_rejects_stale_or_bypassed_caches():
    cold = {"executed": 78, "disk_hits": 0}
    warm = {"executed": 0, "disk_hits": 78}
    assert run.counter_problems("paper_cold", cold, 78) == []
    assert run.counter_problems("rerun_warm", warm, 78) == []
    assert run.counter_problems("rerun_warm", cold, 78)
    assert run.counter_problems("paper_cold", {"executed": 77, "disk_hits": 1}, 78)


def test_reference_seconds_scale_an_interval_by_the_probe_speed_in_it():
    probe = run.HostProbe()
    slow, fast = 2 * run.PROBE_REFERENCE_S, run.PROBE_REFERENCE_S / 2
    probe.samples = [(1.0, slow), (2.0, slow), (3.0, fast), (4.0, fast)]
    assert probe.reference_seconds(0.5, 2.5) == 2.0 * 0.5
    assert probe.reference_seconds(3.0, 5.0) == 2.0 * 2.0
    assert probe.reference_seconds(0.0, 4.0) == 4.0 * 1.25
    # An interval without a sample of its own takes the whole run's.
    assert probe.reference_seconds(4.5, 5.0) == 0.5 * 1.25


def test_child_cpus_lists_the_running_threads_of_a_process():
    assert set(run.child_cpus(os.getpid())) <= os.sched_getaffinity(0)
    assert run.child_cpus(os.getpid())  # this thread is running while it looks
    assert run.child_cpus(0) == []
