"""Trace-identity golden: the generator must emit byte-identical traces.

Pins a SHA-256 digest of the binary encoding (name, ISA, metadata and every
record) of the seven workloads the smoke grid replays, plus one generated
(``gen_``) workload of each class, at smoke length.  Every cached result and
every cached trace is only valid while the generator reproduces these
bytes, so a generator change that alters a trace fails tier-1 here.

When such a change is intentional, bump
:data:`repro.workloads.GENERATOR_VERSION` (so on-disk trace caches miss
instead of replaying stale traces), then regenerate and commit the fixture::

    PYTHONPATH=src python tests/test_trace_golden.py regenerate
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.experiments.config import SMOKE_SCALE
from repro.experiments.runner import suite_limits
from repro.traces.binary_io import encode_trace
from repro.workloads import GENERATOR_VERSION
from repro.workloads.suites import SUITE_NAMES, build_workload, selected_workload_names

FIXTURE_PATH = pathlib.Path(__file__).parent / "golden" / "trace_digests.json"

#: One generated workload per class: Arm64 and x86, server and client.
GENERATED_NAMES = (
    "gen_server_11_1000",
    "gen_client_12_800",
    "gen_xserver_13_1000",
    "gen_xclient_14_800",
)


def golden_names() -> list[str]:
    limits = suite_limits(SMOKE_SCALE)
    smoke = [
        name for suite in SUITE_NAMES for name in selected_workload_names(suite, limits[suite])
    ]
    return smoke + list(GENERATED_NAMES)


def trace_digest(name: str) -> str:
    trace = build_workload(name, SMOKE_SCALE.instructions)
    return hashlib.sha256(encode_trace(trace)).hexdigest()


def load_fixture() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_the_smoke_grid_and_the_generator_version():
    fixture = load_fixture()
    assert sorted(fixture["digests"]) == sorted(golden_names())
    assert len(fixture["digests"]) == 11
    assert fixture["instructions"] == SMOKE_SCALE.instructions
    assert fixture["generator_version"] == GENERATOR_VERSION, (
        "GENERATOR_VERSION changed: regenerate the fixture (see module docstring)"
    )


@pytest.mark.parametrize("name", golden_names())
def test_trace_is_byte_identical(name):
    expected = load_fixture()["digests"][name]
    assert trace_digest(name) == expected, (
        f"{name}: the generator emits a different trace; if intended, bump "
        "GENERATOR_VERSION and regenerate (see module docstring)"
    )


def regenerate() -> None:  # pragma: no cover - developer tool
    """Recompute every digest and rewrite the fixture."""
    fixture = {
        "generator_version": GENERATOR_VERSION,
        "instructions": SMOKE_SCALE.instructions,
        "digests": {name: trace_digest(name) for name in golden_names()},
    }
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(fixture['digests'])} digests to {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover - developer tool
    if len(sys.argv) == 2 and sys.argv[1] == "regenerate":
        regenerate()
    else:
        print(__doc__)
        raise SystemExit(f"usage: {sys.argv[0]} regenerate")
