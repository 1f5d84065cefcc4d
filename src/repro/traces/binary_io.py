"""Compact binary on-disk trace format.

The format is a small, self-describing container:

* an 8-byte magic (``b"BTBXTRC1"``),
* a JSON header (length-prefixed) carrying the trace name, ISA and metadata,
* a sequence of fixed-size little-endian records, one per instruction:

  ===========  =====  =========================================
  field        bytes  meaning
  ===========  =====  =========================================
  pc           8      instruction virtual address
  target       8      taken target / fall-through address
  size         1      instruction size in bytes
  branch_type  1      index into the BranchType enumeration
  taken        1      0 or 1
  reserved     1      padding for alignment
  ===========  =====  =========================================

This is intentionally close to (but simpler than) the ChampSim trace record,
because the simulator only consumes front-end-relevant fields.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.common.config import ISAStyle
from repro.common.errors import TraceFormatError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.obs import get_recorder
from repro.traces.trace import Trace

MAGIC = b"BTBXTRC1"
#: The magic plus the ``<I`` header length that follows it.
_PREFIX_SIZE = len(MAGIC) + 4
_RECORD = struct.Struct("<QQBBBx")
_BRANCH_TYPES = list(BranchType)
_BRANCH_TYPE_INDEX = {bt: i for i, bt in enumerate(_BRANCH_TYPES)}


def _decode_record(raw: bytes) -> Instruction:
    pc, target, size, type_index, taken = _RECORD.unpack(raw)
    try:
        branch_type = _BRANCH_TYPES[type_index]
    except IndexError as exc:
        raise TraceFormatError(f"invalid branch type index {type_index}") from exc
    return Instruction(pc=pc, size=size, branch_type=branch_type, taken=bool(taken), target=target)


def encode_trace(trace: Trace) -> bytes:
    """The whole binary file of ``trace``, as one ``bytes`` object."""
    header = {
        "name": trace.name,
        "isa": trace.isa.value,
        "metadata": trace.metadata,
        "instructions": len(trace),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    # Records stream into one buffer: a list of per-record ``bytes`` would
    # hold every one of them alive at once, which raises a run's peak memory.
    buffer = io.BytesIO()
    write = buffer.write
    write(MAGIC)
    write(struct.pack("<I", len(header_bytes)))
    write(header_bytes)
    index = _BRANCH_TYPE_INDEX
    pack = _RECORD.pack
    for inst in trace:
        write(pack(inst.pc, inst.target, inst.size, index[inst.branch_type], 1 if inst.taken else 0))
    return buffer.getvalue()


def decode_trace(data: bytes, default_name: str = "") -> Trace:
    """Decode a whole binary trace file held in memory.

    Records are unpacked in one ``iter_unpack`` pass.  Identical records
    share one :class:`Instruction` (it is immutable), so a trace that loops
    over its code costs one object per distinct record, not per position.
    Raises :class:`TraceFormatError` on a bad magic or header, a truncated
    record, an invalid record or a record count other than the declared one.
    """
    header, offset = _parse_header(data)
    body = memoryview(data)[offset:]
    if len(body) % _RECORD.size:
        raise TraceFormatError("truncated trace record")
    branch_types = _BRANCH_TYPES
    shared: dict = {}
    instructions = []
    append = instructions.append
    try:
        for record in _RECORD.iter_unpack(body):
            inst = shared.get(record)
            if inst is None:
                pc, target, size, type_index, taken = record
                inst = shared[record] = Instruction(
                    pc=pc, size=size, branch_type=branch_types[type_index],
                    taken=bool(taken), target=target,
                )
            append(inst)
    except IndexError as exc:
        raise TraceFormatError(f"invalid branch type index {record[3]}") from exc
    except ValueError as exc:
        raise TraceFormatError(f"invalid trace record: {exc}") from exc
    declared = header.get("instructions")
    if declared is not None and declared != len(instructions):
        raise TraceFormatError(
            f"header declares {declared} instructions but file contains {len(instructions)}"
        )
    try:
        isa = ISAStyle(header.get("isa", ISAStyle.ARM64.value))
        metadata = dict(header.get("metadata", {}))
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"corrupt trace header: {exc}") from exc
    return Trace(
        name=str(header.get("name", default_name)),
        instructions=instructions,
        isa=isa,
        metadata=metadata,
    )


def _parse_header(data: bytes) -> tuple[dict, int]:
    """The JSON header of a whole file and the offset its records start at."""
    header_len = _header_length(data[:_PREFIX_SIZE])
    end = _PREFIX_SIZE + header_len
    return _decode_header(data[_PREFIX_SIZE:end], header_len), end


def _header_length(prefix: bytes) -> int:
    """Check the magic of a file's first bytes and return its header length."""
    if prefix[: len(MAGIC)] != MAGIC:
        raise TraceFormatError(f"bad magic {prefix[:len(MAGIC)]!r}; not a repro binary trace")
    if len(prefix) < _PREFIX_SIZE:
        raise TraceFormatError("truncated trace header")
    return struct.unpack_from("<I", prefix, len(MAGIC))[0]


def _decode_header(raw: bytes, header_len: int) -> dict:
    if len(raw) < header_len:
        raise TraceFormatError("truncated trace header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError("corrupt trace header") from exc
    if not isinstance(header, dict):
        raise TraceFormatError("corrupt trace header")
    return header


def write_binary_trace(trace: Trace, path: str | Path) -> None:
    """Serialize ``trace`` to ``path`` in the binary format described above."""
    Path(path).write_bytes(encode_trace(trace))


def _read_header(handle: BinaryIO) -> dict:
    header_len = _header_length(handle.read(_PREFIX_SIZE))
    return _decode_header(handle.read(header_len), header_len)


def iter_binary_trace(path: str | Path) -> Iterator[Instruction]:
    """Stream instructions from a binary trace without loading it whole."""
    with open(path, "rb") as handle:
        _read_header(handle)
        while True:
            raw = handle.read(_RECORD.size)
            if not raw:
                return
            if len(raw) != _RECORD.size:
                raise TraceFormatError("truncated trace record")
            yield _decode_record(raw)


def read_binary_trace(path: str | Path) -> Trace:
    """Read a whole binary trace file into an in-memory :class:`Trace`."""
    with get_recorder().span("trace.decode", path=str(path), decoder="scalar"):
        return decode_trace(Path(path).read_bytes(), default_name=Path(path).stem)


def write_many(traces: Iterable[Trace], directory: str | Path) -> list[Path]:
    """Write each trace to ``directory/<name>.btbx``; return the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for trace in traces:
        path = directory / f"{trace.name}.btbx"
        write_binary_trace(trace, path)
        paths.append(path)
    return paths
