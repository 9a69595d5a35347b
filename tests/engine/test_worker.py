"""The simulate worker decodes each shipped trace once for consecutive tasks.

A worker keeps the columns of the trace it decoded last in one slot,
keyed by the payload's ``trace_bytes`` themselves.  Equal bytes reuse the
decode; any other bytes (a different trace, or the same shape with one
value changed) decode again; an inline ``trace`` payload never touches
the slot.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import worker
from repro.engine.fingerprint import predictor_signature
from repro.simulation import vectorized
from repro.trace import io as trace_io
from repro.trace.io import dumps_trace_binary
from repro.trace.stream import ValueTrace

requires_numpy = pytest.mark.skipif(
    vectorized.numpy_or_none() is None, reason="vector kernel requires numpy"
)


@pytest.fixture
def decodes(monkeypatch):
    """Count column decodes, starting from an empty slot."""
    calls = []
    original = trace_io.decode_trace_columns

    def counting(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(trace_io, "decode_trace_columns", counting)
    monkeypatch.setattr(worker, "_DECODED", None)
    return calls


def _simulate(predictor: str, **trace) -> dict:
    payload = {
        "predictor": predictor,
        "signature": predictor_signature(predictor),
        "kernel": "vector",
        **trace,
    }
    return worker.execute_simulate_task(payload)["shard"]


def _inline(trace: ValueTrace, predictor: str) -> dict:
    return _simulate(predictor, trace=ValueTrace(trace.name, trace.records))


@requires_numpy
class TestDecodeSlot:
    def test_equal_bytes_decode_once(self, compress_trace, decodes):
        blob = dumps_trace_binary(compress_trace, compress=True)
        first = _simulate("s2", trace_bytes=blob)
        # An equal but distinct bytes object, as unpickled from the wire.
        second = _simulate("fcm2", trace_bytes=bytes(bytearray(blob)))
        assert len(decodes) == 1
        assert first == _inline(compress_trace, "s2")
        assert second == _inline(compress_trace, "fcm2")

    def test_other_bytes_decode_again(self, compress_trace, decodes):
        records = compress_trace.records
        shorter = ValueTrace("shorter", records[: len(records) // 2])
        _simulate("fcm2", trace_bytes=dumps_trace_binary(compress_trace))
        shard = _simulate("fcm2", trace_bytes=dumps_trace_binary(shorter))
        assert len(decodes) == 2
        assert shard == _inline(shorter, "fcm2")

    def test_one_changed_value_decodes_again(self, compress_trace, decodes):
        records = list(compress_trace.records)
        middle = len(records) // 2
        records[middle] = dataclasses.replace(
            records[middle], value=records[middle].value + 1
        )
        changed = ValueTrace(compress_trace.name, records)
        original_blob = dumps_trace_binary(compress_trace)
        changed_blob = dumps_trace_binary(changed)
        assert len(changed_blob) == len(original_blob)
        assert changed_blob != original_blob
        _simulate("l", trace_bytes=original_blob)
        shard = _simulate("l", trace_bytes=changed_blob)
        assert len(decodes) == 2
        assert shard == _inline(changed, "l")
        assert shard != _inline(compress_trace, "l")

    def test_inline_trace_never_reads_the_slot(self, compress_trace, decodes, monkeypatch):
        class Poisoned:
            def __getitem__(self, index):
                raise AssertionError("inline payload read the decode slot")

        monkeypatch.setattr(worker, "_DECODED", Poisoned())
        shard = _simulate("s2", trace=compress_trace)
        assert decodes == []
        assert shard == _inline(compress_trace, "s2")
