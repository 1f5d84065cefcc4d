"""Tests for the trace container, formats and slicing helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import ISAStyle
from repro.common.errors import TraceFormatError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.traces.binary_io import iter_binary_trace, read_binary_trace, write_binary_trace, write_many
from repro.traces.filters import branch_only, iter_windows, split_warmup, taken_branches, window
from repro.traces.text_io import read_text_trace, write_text_trace
from repro.traces.trace import Trace, TraceSet


def _tiny_trace() -> Trace:
    instructions = [
        Instruction.non_branch(0x1000),
        Instruction.branch(0x1004, BranchType.CONDITIONAL, True, 0x1010),
        Instruction.non_branch(0x1010),
        Instruction.branch(0x1014, BranchType.CALL, True, 0x2000),
        Instruction.branch(0x2000, BranchType.RETURN, True, 0x1018),
        Instruction.branch(0x1018, BranchType.CONDITIONAL, False, 0x1004),
    ]
    return Trace("tiny", instructions, metadata={"origin": "test"})


class TestTraceContainer:
    def test_len_iter_getitem(self):
        trace = _tiny_trace()
        assert len(trace) == 6
        assert trace[0].pc == 0x1000
        assert [i.pc for i in trace][-1] == 0x1018

    def test_summary(self):
        summary = _tiny_trace().summary()
        assert summary.instruction_count == 6
        assert summary.branch_count == 4
        assert summary.taken_branch_count == 3
        assert summary.call_count == 1
        assert summary.return_count == 1
        assert 0 < summary.branch_fraction < 1
        assert summary.unique_cache_blocks >= 2

    def test_branches_and_taken_views(self):
        trace = _tiny_trace()
        assert len(list(trace.branches())) == 4
        assert len(list(trace.taken_branches())) == 3

    def test_slice(self):
        piece = _tiny_trace().slice(1, 3)
        assert len(piece) == 2
        assert piece[0].pc == 0x1004

    def test_trace_set(self):
        suite = TraceSet("suite")
        suite.add(_tiny_trace())
        assert len(suite) == 1
        assert suite.names() == ["tiny"]


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        trace = _tiny_trace()
        path = tmp_path / "t.btbx"
        write_binary_trace(trace, path)
        loaded = read_binary_trace(path)
        assert loaded.name == trace.name
        assert loaded.isa == trace.isa
        assert list(loaded) == list(trace)
        assert loaded.metadata["origin"] == "test"

    def test_streaming_reader(self, tmp_path):
        trace = _tiny_trace()
        path = tmp_path / "t.btbx"
        write_binary_trace(trace, path)
        assert list(iter_binary_trace(path)) == list(trace)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.btbx"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(TraceFormatError):
            read_binary_trace(path)

    def test_truncated_record_rejected(self, tmp_path):
        trace = _tiny_trace()
        path = tmp_path / "t.btbx"
        write_binary_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TraceFormatError):
            read_binary_trace(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: data[:10], "truncated trace header"),
            (lambda data: data[:14], "truncated trace header"),
            (lambda data: data[:12] + b"{" * (len(data) - 12), "corrupt trace header"),
            (lambda data: data[:12] + b"[" + data[13:], "corrupt trace header"),
            (lambda data: data[:-20] + bytes(16) + b"\x04\xff" + data[-2:], "branch type index 255"),
            (lambda data: data + data[-20:], "header declares"),
        ],
        ids=["short-prefix", "short-header", "bad-json", "non-object", "branch-type", "count"],
    )
    def test_every_format_check_raises_trace_format_error(self, tmp_path, damage, message):
        trace = _tiny_trace()
        path = tmp_path / "t.btbx"
        write_binary_trace(trace, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(TraceFormatError, match=message):
            read_binary_trace(path)

    def test_identical_records_share_one_instruction(self, tmp_path):
        inst = Instruction.branch(0x1000, BranchType.CONDITIONAL, True, 0x1040)
        path = tmp_path / "t.btbx"
        write_binary_trace(Trace("loop", [inst, Instruction(pc=0x1040), inst]), path)
        loaded = read_binary_trace(path)
        assert list(loaded) == [inst, Instruction(pc=0x1040), inst]
        assert loaded[0] is loaded[2]

    def test_write_many(self, tmp_path):
        paths = write_many([_tiny_trace()], tmp_path / "suite")
        assert len(paths) == 1
        assert paths[0].exists()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**47),
                st.integers(min_value=0, max_value=2**47),
                st.booleans(),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_binary_roundtrip_property(self, tmp_path_factory, rows):
        instructions = [
            Instruction.branch(pc, BranchType.CONDITIONAL, taken, target)
            for pc, target, taken in rows
        ]
        trace = Trace("prop", instructions, isa=ISAStyle.X86)
        path = tmp_path_factory.mktemp("prop") / "trace.btbx"
        write_binary_trace(trace, path)
        assert list(read_binary_trace(path)) == instructions


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        trace = _tiny_trace()
        path = tmp_path / "t.txt"
        write_text_trace(trace, path)
        loaded = read_text_trace(path)
        assert list(loaded) == list(trace)
        assert loaded.name == "tiny"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#! name=x isa=arm64\n0x1000 4 conditional 1\n")
        with pytest.raises(TraceFormatError):
            read_text_trace(path)

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0x1000 4 mystery 1 0x2000\n")
        with pytest.raises(TraceFormatError):
            read_text_trace(path)


class TestFilters:
    def test_split_warmup(self):
        warm, measured = split_warmup(_tiny_trace(), 2)
        assert len(warm) == 2
        assert len(measured) == 4

    def test_split_warmup_longer_than_trace(self):
        warm, measured = split_warmup(_tiny_trace(), 100)
        assert len(warm) == 6
        assert len(measured) == 0

    def test_split_warmup_negative_rejected(self):
        with pytest.raises(ValueError):
            split_warmup(_tiny_trace(), -1)

    def test_window(self):
        piece = window(_tiny_trace(), 2, 3)
        assert len(piece) == 3

    def test_branch_only_and_taken(self):
        trace = _tiny_trace()
        assert len(branch_only(trace)) == 4
        assert len(taken_branches(trace)) == 3

    def test_iter_windows(self):
        pieces = list(iter_windows(_tiny_trace(), 4))
        assert [len(p) for p in pieces] == [4, 2]
