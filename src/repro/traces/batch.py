"""Structure-of-arrays views of traces for the batched simulation backend.

The scalar simulator walks one :class:`~repro.isa.instruction.Instruction` at
a time; the numpy backend instead consumes parallel arrays (PC, target, branch
type, taken) covering a whole scheduling turn and vectorizes everything that
is a pure function of the instruction stream -- cache-block boundaries, BTB
set indices and partial tags, guaranteed-miss filtering.  This module owns the
array plumbing:

* :func:`trace_arrays` -- the (cached) SoA view of an in-memory trace;
* :func:`read_binary_trace_arrays` -- batched decode of the on-disk binary
  format via one ``frombuffer`` instead of a per-record ``struct.unpack``
  (the round-trip suite pins it against the scalar decoder);
* :func:`fold_xor_array` / :func:`set_index_array` -- vectorized twins of
  :func:`repro.common.bitutils.fold_xor` and
  :func:`repro.common.asid.set_index`, bit-exact by construction.

Everything degrades gracefully without numpy: :data:`HAVE_NUMPY` gates the
backend, and importing this module never fails -- the pure-Python oracle is
the default and must work on a numpy-free install.
"""

from __future__ import annotations

from pathlib import Path

from repro.common.errors import ConfigurationError, TraceFormatError
from repro.isa.branch import BranchType
from repro.traces.trace import Trace

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy-free CI leg
    np = None
    HAVE_NUMPY = False

#: Branch types in enumeration (= binary format) order; index 0 is NOT_BRANCH.
_BRANCH_TYPES = tuple(BranchType)

#: numpy twin of ``binary_io._RECORD`` (``"<QQBBBx"``).
_RECORD_DTYPE_FIELDS = [
    ("pc", "<u8"),
    ("target", "<u8"),
    ("size", "u1"),
    ("branch_type", "u1"),
    ("taken", "u1"),
    ("pad", "u1"),
]


def _require_numpy() -> None:
    if not HAVE_NUMPY:
        raise ConfigurationError(
            "the batched trace path requires numpy; install the 'numpy' extra"
        )


class TraceArrays:
    """Parallel arrays over one trace: the batched backend's working set.

    All arrays share the trace's instruction order; slicing ``[start:stop]``
    of every array is the SoA view of the scheduling chunk the composer hands
    out.  ``size`` is ``int64`` rather than the binary format's ``u8`` because
    shared-footprint remapping stretches boundary instruction sizes past one
    page (see :mod:`repro.scenarios.compose`).
    """

    __slots__ = ("pc", "target", "size", "branch_type", "is_branch", "taken")

    def __init__(self, pc, target, size, branch_type, is_branch, taken) -> None:
        self.pc = pc
        self.target = target
        self.size = size
        self.branch_type = branch_type
        self.is_branch = is_branch
        self.taken = taken

    def __len__(self) -> int:
        return len(self.pc)


def trace_arrays(trace: Trace) -> TraceArrays:
    """The SoA view of ``trace``, built once and cached on the trace object.

    Traces are immutable by convention, so the cache can never go stale; the
    composer replays the same trace across many scheduling turns and scenario
    cells, which is what makes the one-time conversion pay for itself.
    """
    _require_numpy()
    cached = getattr(trace, "_batch_arrays", None)
    if cached is not None:
        return cached
    count = len(trace)
    pc = np.empty(count, dtype=np.uint64)
    target = np.empty(count, dtype=np.uint64)
    size = np.empty(count, dtype=np.int64)
    branch_type = np.empty(count, dtype=np.uint8)
    taken = np.empty(count, dtype=bool)
    type_index = {bt: i for i, bt in enumerate(_BRANCH_TYPES)}
    for position, inst in enumerate(trace.instructions):
        pc[position] = inst.pc
        target[position] = inst.target
        size[position] = inst.size
        branch_type[position] = type_index[inst.branch_type]
        taken[position] = inst.taken
    arrays = TraceArrays(
        pc=pc,
        target=target,
        size=size,
        branch_type=branch_type,
        is_branch=branch_type != 0,
        taken=taken,
    )
    trace._batch_arrays = arrays  # type: ignore[attr-defined]
    return arrays


def read_binary_trace_arrays(path: str | Path) -> tuple[dict, TraceArrays]:
    """Decode a whole binary trace file into parallel arrays in one pass.

    Returns ``(header, arrays)``.  The record section is reinterpreted with a
    single ``frombuffer`` -- the batched twin of
    :func:`repro.traces.binary_io.iter_binary_trace`, pinned identical by the
    round-trip property suite.
    """
    _require_numpy()
    from repro.obs import get_recorder
    from repro.traces.binary_io import _RECORD, _parse_header

    with get_recorder().span("trace.decode", path=str(path), decoder="arrays"):
        data = Path(path).read_bytes()
        header, offset = _parse_header(data)
        body = data[offset:]
        if len(body) % _RECORD.size != 0:
            raise TraceFormatError("truncated trace record")
        records = np.frombuffer(body, dtype=np.dtype(_RECORD_DTYPE_FIELDS))
        branch_type = records["branch_type"]
        if branch_type.size and int(branch_type.max()) >= len(_BRANCH_TYPES):
            bad = int(branch_type.max())
            raise TraceFormatError(f"invalid branch type index {bad}")
        return header, TraceArrays(
            pc=records["pc"].astype(np.uint64),
            target=records["target"].astype(np.uint64),
            size=records["size"].astype(np.int64),
            branch_type=branch_type.copy(),
            is_branch=branch_type != 0,
            taken=records["taken"] != 0,
        )


def fold_xor_array(values, width: int):
    """Vectorized :func:`repro.common.bitutils.fold_xor` over a uint64 array.

    XOR-folds each element down to ``width`` bits by XORing its ``width``-bit
    chunks -- identical arithmetic to the scalar helper for any value that
    fits 64 bits (every raw ``pc >> alignment_bits`` does; ASID color
    constants, which may not, are folded separately in arbitrary precision
    and XORed in afterwards: folding is XOR-linear, so the split is exact).
    """
    if width <= 0:
        raise ValueError(f"fold width must be positive, got {width}")
    folded = np.zeros_like(values)
    remaining = values.copy()
    chunk_mask = np.uint64((1 << width) - 1)
    shift = np.uint64(width)
    while remaining.any():
        folded ^= remaining & chunk_mask
        remaining >>= shift
    return folded


def set_index_array(shifted_keys, count: int):
    """Vectorized :func:`repro.common.asid.set_index` over pre-shifted keys.

    ``shifted_keys`` is ``key >> alignment_bits`` (uint64); power-of-two set
    counts mask, everything else takes the modulo, exactly like the scalar
    helper.
    """
    if count <= 0:
        raise ValueError("a set-associative structure needs at least one set")
    if count & (count - 1) == 0:
        return shifted_keys & np.uint64(count - 1)
    return shifted_keys % np.uint64(count)
