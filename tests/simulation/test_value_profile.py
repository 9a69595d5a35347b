"""The columnar Figure 10 value profile against the scalar reference loop.

``value_profile`` counts unique values per static PC with array operations
over :func:`~repro.trace.io.trace_columns` and loops over the list columns
only when a trace has no numpy columns.  The two paths must agree bucket by
bucket and float by float (``==``, not approx).
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.trace.io as trace_io
from repro.isa.opcodes import OPCODE_ORDER, Category, Opcode
from repro.simulation.value_profile import OVERFLOW_LABEL, bucket_labels, value_profile
from repro.trace.io import dumps_trace_binary, loads_trace_binary, trace_columns
from repro.trace.stream import ValueTrace
from repro.trace.synthetic import trace_from_values
from repro.workloads.suite import BENCHMARK_ORDER, get_workload

value_profile_module = importlib.import_module("repro.simulation.value_profile")

needs_numpy = pytest.mark.skipif(trace_io._numpy() is None, reason="the columnar path requires numpy")

ALL_CATEGORIES = tuple(Category)


def scalar_profile(trace: ValueTrace, categories=None):
    """``value_profile`` forced onto its loop over the list columns."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(value_profile_module, "trace_columns", lambda trace: None)
        if categories is None:
            return value_profile(trace)
        return value_profile(trace, categories)


def columnar_profile(trace: ValueTrace, categories=None):
    """``value_profile`` on its array path (asserting it has columns)."""
    assert trace_columns(trace) is not None
    if categories is None:
        return value_profile(trace)
    return value_profile(trace, categories)


def assert_identical(left, right):
    assert left.static_percent == right.static_percent
    assert left.dynamic_percent == right.dynamic_percent


@pytest.fixture(scope="module")
def reference_traces():
    """The seven benchmarks' default traces at scale 1.0, as Figure 10 uses them."""
    return [get_workload(name).trace(scale=1.0) for name in BENCHMARK_ORDER]


@needs_numpy
class TestColumnarMatchesScalar:
    def test_reference_traces(self, reference_traces):
        for trace in reference_traces:
            reference = scalar_profile(trace)
            decoded = loads_trace_binary(dumps_trace_binary(trace, compress=True))
            assert_identical(columnar_profile(decoded), reference)
            assert_identical(columnar_profile(trace), reference)
            assert decoded._lists is None

    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from((0, 4, 8)),
                st.integers(-3, 3),
                st.sampled_from(OPCODE_ORDER),
            ),
            max_size=60,
        ),
        pc_count=st.integers(1, 3),
        all_categories=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_small_traces(self, records, pc_count, all_categories):
        records = [(pc % (4 * pc_count), value, opcode) for pc, value, opcode in records]
        trace = ValueTrace.from_columns(
            "hypothesis",
            list(range(len(records))),
            [pc for pc, _, _ in records],
            [OPCODE_ORDER.index(opcode) for _, _, opcode in records],
            [value for _, value, _ in records],
        )
        categories = ALL_CATEGORIES if all_categories else None
        reference = scalar_profile(trace, categories)
        assert_identical(columnar_profile(trace, categories), reference)
        decoded = loads_trace_binary(dumps_trace_binary(trace))
        assert_identical(columnar_profile(decoded, categories), reference)

    def test_empty_trace_is_all_zeros(self):
        empty = ValueTrace.from_columns("empty", [], [], [], [])
        for trace in (empty, loads_trace_binary(dumps_trace_binary(empty))):
            profile = columnar_profile(trace)
            assert_identical(profile, scalar_profile(trace))
            for distribution in (*profile.static_percent.values(), *profile.dynamic_percent.values()):
                assert distribution == {label: 0.0 for label in bucket_labels()}

    def test_overflow_bucket(self):
        trace = trace_from_values(list(range(65_537 + 10)) + [0, 1, 2], name="many")
        decoded = loads_trace_binary(dumps_trace_binary(trace))
        profile = columnar_profile(decoded)
        assert_identical(profile, scalar_profile(trace))
        assert profile.static_percent["All"][OVERFLOW_LABEL] == 100.0
        assert profile.dynamic_percent["All"][OVERFLOW_LABEL] == 100.0

    def test_foreign_opcode_table(self):
        # The file's table orders opcodes unlike OPCODE_ORDER, so the
        # decoded columns' codes (and category codes) index other tables
        # than the list view's.
        table = [Opcode.LW, Opcode.ADD, Opcode.SLL, Opcode.MULT]
        indices = [0, 1, 2, 3, 1, 0, 2, 3, 3, 3, 0, 1]
        pcs = [4 * (i % 5) for i in range(len(indices))]
        values = [i % 3 for i in range(len(indices))]
        body = trace_io._encode_body_scalar(
            ValueTrace.from_columns("foreign", list(range(len(indices))), pcs, indices, values)
        )
        mnemonics = [opcode.value for opcode in table]
        blob = trace_io._frame_binary("foreign", len(indices), len(indices), mnemonics, body, False)
        decoded = loads_trace_binary(blob)
        assert trace_columns(decoded).opcodes == tuple(table)
        profile = columnar_profile(decoded, ALL_CATEGORIES)
        assert decoded._lists is None
        assert_identical(profile, scalar_profile(decoded, ALL_CATEGORIES))


def test_numpy_hidden_matches_columnar(reference_traces):
    # Traces built and profiled with numpy hidden take the loop; with
    # numpy the same traces take the array path to the same profiles.
    blobs = [dumps_trace_binary(trace) for trace in reference_traces]
    blobs.append(dumps_trace_binary(trace_from_values(list(range(70_000)), name="many")))
    blobs.append(dumps_trace_binary(ValueTrace.from_columns("empty", [], [], [], [])))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_io, "_numpy", lambda: None)
        hidden = []
        for blob in blobs:
            trace = loads_trace_binary(blob)
            assert trace_columns(trace) is None
            hidden.append(value_profile(trace))
    if trace_io._numpy() is None:
        return
    for blob, profile in zip(blobs, hidden):
        assert_identical(columnar_profile(loads_trace_binary(blob)), profile)
