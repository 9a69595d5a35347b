"""Tests for trace records, the ValueTrace container and its statistics."""

from __future__ import annotations

import pickle

import pytest

import repro.trace.io as trace_io
from repro.errors import TraceError
from repro.isa.opcodes import OPCODE_CODE, Category, Opcode
from repro.trace.io import dumps_trace_binary, loads_trace_binary, trace_columns
from repro.trace.record import TraceRecord
from repro.trace.stream import ValueTrace
from repro.trace.synthetic import trace_from_streams, trace_from_values


def make_record(serial=0, pc=0, opcode=Opcode.ADD, value=1):
    return TraceRecord(
        serial=serial, pc=pc, opcode=opcode, category=Category.ADDSUB, value=value
    )


class TestValueTrace:
    def test_append_and_len(self):
        trace = ValueTrace("t")
        trace.append(make_record())
        trace.append(make_record(serial=1, value=2))
        assert len(trace) == 2
        assert bool(trace)

    def test_total_dynamic_defaults_to_record_count(self):
        trace = trace_from_values([1, 2, 3])
        assert trace.total_dynamic_instructions == 3

    def test_total_dynamic_cannot_undercount(self):
        trace = trace_from_values([1, 2, 3])
        with pytest.raises(TraceError):
            trace.set_total_dynamic_instructions(2)

    def test_slicing_returns_a_trace(self):
        trace = trace_from_values(list(range(10)))
        head = trace[:3]
        assert isinstance(head, ValueTrace)
        assert len(head) == 3
        assert trace[4].value == 4

    def test_values_by_pc_groups_in_order(self):
        trace = trace_from_streams({0: [1, 2, 3], 8: [7, 7]})
        grouped = trace.values_by_pc()
        assert grouped[0] == [1, 2, 3]
        assert grouped[8] == [7, 7]

    def test_static_pcs_in_first_seen_order(self):
        trace = trace_from_streams({8: [1], 0: [2], 16: [3]})
        assert trace.static_pcs() == [0, 8, 16]

    def test_filter_category(self):
        records = [
            TraceRecord(0, 0, Opcode.ADD, Category.ADDSUB, 1),
            TraceRecord(1, 4, Opcode.LW, Category.LOADS, 2),
            TraceRecord(2, 8, Opcode.ADD, Category.ADDSUB, 3),
        ]
        trace = ValueTrace("mix", records)
        loads = trace.filter_category(Category.LOADS)
        assert len(loads) == 1
        assert loads.records[0].value == 2


class TestTraceStatistics:
    def test_statistics_counts_and_fractions(self):
        records = [
            TraceRecord(0, 0, Opcode.ADD, Category.ADDSUB, 1),
            TraceRecord(1, 4, Opcode.LW, Category.LOADS, 2),
            TraceRecord(2, 0, Opcode.ADD, Category.ADDSUB, 3),
        ]
        trace = ValueTrace("stats", records)
        trace.set_total_dynamic_instructions(6)
        stats = trace.statistics()
        assert stats.predicted_instructions == 3
        assert stats.total_dynamic_instructions == 6
        assert stats.fraction_predicted == pytest.approx(0.5)
        assert stats.static_instruction_count == 2
        assert stats.category_dynamic_counts[Category.ADDSUB] == 2
        assert stats.category_static_counts[Category.ADDSUB] == 1
        percentages = stats.category_dynamic_percentages()
        assert percentages[Category.ADDSUB] == pytest.approx(200.0 / 3)

    def test_empty_trace_statistics(self):
        stats = ValueTrace("empty").statistics()
        assert stats.predicted_instructions == 0
        assert stats.fraction_predicted == 0.0


def _column_backed(trace: ValueTrace) -> ValueTrace:
    """``trace`` through the v3 codec: backed by numpy columns, no lists yet."""
    decoded = loads_trace_binary(dumps_trace_binary(trace))
    assert decoded._lists is None
    return decoded


def _lists(trace: ValueTrace):
    return (trace.serials, trace.pcs, trace.opcode_codes, trace.values)


@pytest.mark.skipif(trace_io._numpy() is None, reason="column-backed traces require numpy")
class TestColumnBackedTrace:
    """A decoded trace holds numpy columns and builds its lists on demand."""

    MIXED = (
        TraceRecord(0, 0, Opcode.ADD, Category.ADDSUB, 1000),
        TraceRecord(1, 4, Opcode.LW, Category.LOADS, -2),
        TraceRecord(3, 8, Opcode.ADD, Category.ADDSUB, 1000),
        TraceRecord(4, 4, Opcode.SLL, Category.SHIFT, 7),
    )

    def test_length_truth_and_totals_leave_the_lists_unbuilt(self, monkeypatch):
        source = ValueTrace("mixed", self.MIXED, total_dynamic_instructions=9)
        trace = _column_backed(source)
        empty = _column_backed(ValueTrace("empty"))

        def refuse(self):
            raise AssertionError("the list columns were built")

        monkeypatch.setattr(ValueTrace, "_column_lists", refuse)
        assert (len(trace), bool(trace), trace.total_dynamic_instructions) == (4, True, 9)
        assert (len(empty), bool(empty), empty.total_dynamic_instructions) == (0, False, 0)
        assert trace._lists is None and empty._lists is None

    def test_list_view_equals_the_scalar_decode(self, compress_trace):
        trace = _column_backed(compress_trace)
        _, _, records, table, body = trace_io._parse_binary_container(dumps_trace_binary(compress_trace))
        assert _lists(trace) == trace_io._decode_body_scalar(body, records, table)
        assert _lists(trace) == _lists(compress_trace)

    def test_list_view_remaps_a_foreign_opcode_table(self):
        table = [Opcode.SLL, Opcode.LW, Opcode.ADD]
        indices = [2, 0, 1, 1, 0, 2]
        body = trace_io._encode_body_scalar(
            ValueTrace.from_columns("foreign", list(range(6)), [0, 4, 8, 4, 0, 8], indices, [5] * 6)
        )
        blob = trace_io._frame_binary("foreign", 6, 6, [op.value for op in table], body, False)
        trace = loads_trace_binary(blob)
        assert trace._lists is None
        _, _, records, parsed_table, parsed_body = trace_io._parse_binary_container(blob)
        assert _lists(trace) == trace_io._decode_body_scalar(parsed_body, records, parsed_table)
        assert trace.opcode_codes == [OPCODE_CODE[table[index]] for index in indices]
        assert [record.opcode for record in trace] == [table[index] for index in indices]

    def test_equal_values_share_one_int_object(self):
        trace = _column_backed(ValueTrace("shared", self.MIXED))
        assert trace.values[0] == trace.values[2] == 1000
        assert trace.values[0] is trace.values[2]

    def test_append_builds_the_lists_and_drops_the_columns(self):
        trace = _column_backed(ValueTrace("mixed", self.MIXED[:3]))
        trace.append(self.MIXED[3])
        assert trace._columns is False
        assert _lists(trace) == _lists(ValueTrace("mixed", self.MIXED))
        assert trace_columns(trace).values.tolist() == [1000, -2, 1000, 7]

    def test_views_match_a_list_built_trace(self):
        source = ValueTrace("mixed", self.MIXED, total_dynamic_instructions=12)
        trace = _column_backed(source)
        assert trace.records == source.records
        assert list(trace) == list(source)
        assert trace[1] == source[1]
        assert _lists(trace[1:3]) == _lists(source[1:3])
        assert _lists(trace.filter_category(Category.ADDSUB)) == _lists(
            source.filter_category(Category.ADDSUB)
        )
        assert trace.statistics() == source.statistics()
        assert trace.static_pcs() == source.static_pcs()
        assert trace.values_by_pc() == source.values_by_pc()

    def test_pickle_round_trip(self):
        source = ValueTrace("mixed", self.MIXED, total_dynamic_instructions=12)
        trace = _column_backed(source)
        restored = pickle.loads(pickle.dumps(trace))
        assert (restored.name, len(restored), restored.total_dynamic_instructions) == (
            "mixed", 4, 12,
        )
        assert _lists(restored) == _lists(source)
        assert restored.statistics() == source.statistics()
