"""Tests for the v3 binary trace format and cross-version loading."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.trace.io as trace_io
from repro.errors import TraceError
from repro.isa.opcodes import OPCODE_CODE, OPCODE_ORDER, Opcode
from repro.trace.io import (
    BINARY_MAGIC,
    compress_trace_binary,
    decode_trace_columns,
    decode_uvarint,
    dumps_trace,
    dumps_trace_binary,
    encode_uvarint,
    load_trace_file,
    loads_trace,
    loads_trace_binary,
    save_trace_file,
)
from repro.trace.stream import ValueTrace
from repro.trace.synthetic import trace_from_streams, trace_from_values

np = trace_io._numpy()
needs_numpy = pytest.mark.skipif(np is None, reason="the numpy codec requires numpy")


def _assert_same_trace(left, right):
    assert left.name == right.name
    assert left.total_dynamic_instructions == right.total_dynamic_instructions
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.serial, a.pc, a.opcode, a.category, a.value) == (
            b.serial, b.pc, b.opcode, b.category, b.value,
        )


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**64 + 5])
    def test_uvarint_round_trip(self, value):
        decoded, offset = decode_uvarint(encode_uvarint(value), 0)
        assert decoded == value
        assert offset == len(encode_uvarint(value))

    def test_uvarint_rejects_negative(self):
        with pytest.raises(TraceError):
            encode_uvarint(-1)

    def test_truncated_varint_rejected(self):
        with pytest.raises(TraceError):
            decode_uvarint(b"\x80", 0)


class TestBinaryRoundTrip:
    def test_round_trip_preserves_records(self):
        trace = trace_from_streams({0: [1, -2, 3], 8: [100, 200]}, opcodes={8: Opcode.LW})
        trace.set_total_dynamic_instructions(12)
        _assert_same_trace(trace, loads_trace_binary(dumps_trace_binary(trace)))

    def test_compressed_round_trip(self):
        trace = trace_from_values([7, 7, 7, 8, 9] * 40, name="zlib")
        trace.set_total_dynamic_instructions(400)
        blob = dumps_trace_binary(trace, compress=True)
        _assert_same_trace(trace, loads_trace_binary(blob))
        assert len(blob) < len(dumps_trace_binary(trace))

    def test_empty_trace_round_trips(self):
        trace = trace_from_values([1], name="nearly-empty")[0:0]
        trace.name = "nearly-empty"
        _assert_same_trace(trace, loads_trace_binary(dumps_trace_binary(trace)))

    @pytest.mark.parametrize(
        "name",
        ["name with spaces", "percent %20 literal", "tabs\tand\nnewlines", "trailing space "],
    )
    def test_awkward_names_survive(self, name):
        trace = trace_from_values([1, 2, 3], name=name)
        assert loads_trace_binary(dumps_trace_binary(trace)).name == name

    @given(
        values=st.lists(
            st.integers(min_value=-(2**64), max_value=2**64), min_size=1, max_size=50
        ),
        compress=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, values, compress):
        trace = trace_from_values(values)
        restored = loads_trace_binary(dumps_trace_binary(trace, compress=compress))
        assert [record.value for record in restored] == [int(v) for v in values]

    def test_binary_decode_reencodes_to_identical_canonical_text(self, compress_trace):
        # The digest contract: a trace that travels through the binary
        # format must re-render to the exact same canonical text form.
        text = dumps_trace(compress_trace)
        restored = loads_trace_binary(dumps_trace_binary(compress_trace, compress=True))
        assert dumps_trace(restored) == text

    def test_binary_is_smaller_than_text(self, compress_trace):
        text = dumps_trace(compress_trace).encode("utf-8")
        assert len(dumps_trace_binary(compress_trace)) < len(text)
        assert len(dumps_trace_binary(compress_trace, compress=True)) < len(text) // 4


@pytest.fixture(params=["scalar", "numpy"])
def decode(request, monkeypatch):
    """``loads_trace_binary`` pinned to one body decoder.

    ``scalar`` hides numpy; ``numpy`` makes a fallback to the scalar
    decoder fail the test, so each case really exercises the decoder it
    names.
    """
    if request.param == "scalar":
        monkeypatch.setattr(trace_io, "_numpy", lambda: None)
    else:
        if np is None:
            pytest.skip("the numpy codec requires numpy")

        def no_fallback(*args):
            raise AssertionError("the numpy decoder fell back to the scalar one")

        monkeypatch.setattr(trace_io, "_decode_body_scalar", no_fallback)
    return loads_trace_binary


#: Field values at the edges of the numpy codec's domain: int64's extremes,
#: the +-2**62 bound on serials and pcs, and values beyond int64.
_EDGE_INTEGERS = (
    2**63 - 1,
    -(2**63 - 1),
    -(2**63),
    2**62,
    2**62 - 1,
    -(2**62),
    2**63,
    2**64 + 5,
    -(2**64),
)
_fields = st.one_of(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from(_EDGE_INTEGERS),
)


@st.composite
def _traces(draw, max_records=40):
    """Traces with arbitrary columns, edge values included, and no records at all."""
    records = draw(
        st.lists(
            st.tuples(_fields, _fields, st.integers(0, len(OPCODE_ORDER) - 1), _fields),
            max_size=max_records,
        )
    )
    columns = [list(column) for column in zip(*records)] or [[], [], [], []]
    return ValueTrace.from_columns("hypothesis", *columns, len(records) + draw(st.integers(0, 9)))


def _columnar_lists(blob):
    """The list view of the column-backed trace :func:`loads_trace_binary`
    returns for ``blob``, or ``None`` when it took the scalar decoder."""
    trace = loads_trace_binary(blob)
    if trace._lists is not None:
        return None
    assert trace_io.trace_columns(trace) is trace._columns
    return (trace.serials, trace.pcs, trace.opcode_codes, trace.values)


def _in_numpy_domain(trace) -> bool:
    """Whether the numpy codec must handle ``trace`` rather than fall back."""
    return all(-(2**63) <= value < 2**63 for value in trace.values) and all(
        abs(value) < 2**62 for value in trace.serials + trace.pcs
    )


@needs_numpy
class TestNumpyCodec:
    """The numpy v3 codec against the scalar reference, byte for byte."""

    @given(trace=_traces())
    @settings(max_examples=200, deadline=None)
    def test_numpy_encode_equals_scalar_encode(self, trace):
        scalar = trace_io._encode_body_scalar(trace)
        vectorised = trace_io._encode_body_numpy(np, trace)
        if _in_numpy_domain(trace):
            assert vectorised == scalar
        else:
            assert vectorised is None  # the scalar fallback runs instead

    @given(trace=_traces(), compress=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_numpy_decode_equals_scalar_decode(self, trace, compress):
        blob = dumps_trace_binary(trace, compress=compress)
        name, total, records, table, body = trace_io._parse_binary_container(blob)
        scalar = trace_io._decode_body_scalar(body, records, table)
        assert scalar == (trace.serials, trace.pcs, trace.opcode_codes, trace.values)
        vectorised = _columnar_lists(blob)
        if _in_numpy_domain(trace):
            assert vectorised == scalar
        elif not all(-(2**63) <= value < 2**63 for value in trace.values):
            assert vectorised is None  # the scalar fallback runs instead
        else:
            # Serials or pcs beyond the encoder's bound: the decoder may
            # take them a little further, never to a different result.
            assert vectorised in (None, scalar)
        restored = loads_trace_binary(blob)
        assert (restored.name, restored.total_dynamic_instructions) == (
            trace.name,
            trace.total_dynamic_instructions,
        )
        assert (restored.serials, restored.pcs, restored.opcode_codes, restored.values) == scalar

    @given(
        table=st.lists(st.sampled_from(OPCODE_ORDER), min_size=1, max_size=8, unique=True),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_foreign_opcode_table_decodes_alike(self, table, data):
        # A file whose embedded table differs from OPCODE_ORDER: both
        # decoders remap its indices to the same opcode codes.
        indices = data.draw(st.lists(st.integers(0, len(table) - 1), max_size=30))
        trace = ValueTrace.from_columns(
            "foreign", list(range(len(indices))), [4 * i for i in indices], indices, indices
        )
        body = trace_io._encode_body_scalar(trace)
        mnemonics = [opcode.value for opcode in table]
        blob = trace_io._frame_binary("foreign", len(indices), len(indices), mnemonics, body, False)
        _, _, records, parsed_table, parsed_body = trace_io._parse_binary_container(blob)
        scalar = trace_io._decode_body_scalar(parsed_body, records, parsed_table)
        assert scalar[2] == [OPCODE_CODE[table[index]] for index in indices]
        assert _columnar_lists(blob) == scalar
        columns = decode_trace_columns(blob)
        assert columns.opcodes == tuple(table)
        assert columns.opcode_codes.tolist() == indices

    def test_blocks_join_across_the_block_boundary(self):
        # Serials and pcs are delta-coded, so each block must start from
        # the previous block's running sums.
        count = 2 * trace_io._DECODE_BLOCK_RECORDS + 3
        trace = ValueTrace.from_columns(
            "long",
            [3 * i for i in range(count)],
            [(i * 7919) % 4096 - 2048 for i in range(count)],
            [i % len(OPCODE_ORDER) for i in range(count)],
            [(-1) ** i * i * i for i in range(count)],
        )
        blob = dumps_trace_binary(trace)
        assert trace_io._encode_body_numpy(np, trace) == trace_io._encode_body_scalar(trace)
        restored = loads_trace_binary(blob)
        assert (restored.serials, restored.pcs, restored.opcode_codes, restored.values) == (
            trace.serials,
            trace.pcs,
            trace.opcode_codes,
            trace.values,
        )
        assert decode_trace_columns(blob).serials.tolist() == trace.serials

    def test_compress_matches_compressed_encode(self, compress_trace):
        binary = dumps_trace_binary(compress_trace)
        assert compress_trace_binary(binary) == dumps_trace_binary(compress_trace, compress=True)
        compressed = compress_trace_binary(binary)
        assert compress_trace_binary(compressed) == compressed


class TestBinaryCorruption:
    def test_bad_magic_rejected(self, decode):
        with pytest.raises(TraceError):
            decode(b"\x89NOPE\r\n\x1a" + b"\x03\x00")

    def test_future_version_rejected(self, decode):
        trace = trace_from_values([1, 2])
        blob = bytearray(dumps_trace_binary(trace))
        blob[len(BINARY_MAGIC)] = 9
        with pytest.raises(TraceError, match="version"):
            decode(bytes(blob))

    @pytest.mark.parametrize("keep", [9, 20, -3])
    def test_truncation_rejected(self, decode, keep):
        trace = trace_from_values(list(range(50)))
        blob = dumps_trace_binary(trace)
        with pytest.raises(TraceError):
            decode(blob[:keep])

    @staticmethod
    def _blob(records_field: int, body: bytes, opcode: bytes = b"add") -> bytes:
        """Hand-assemble a minimal v3 container around ``body``."""
        out = bytearray(BINARY_MAGIC)
        out += encode_uvarint(3)  # version
        out += encode_uvarint(0)  # flags
        out += encode_uvarint(1) + b"x"  # name
        out += encode_uvarint(5)  # total
        out += encode_uvarint(records_field)
        out += encode_uvarint(1)  # opcode table with one entry
        out += encode_uvarint(len(opcode)) + opcode
        out += encode_uvarint(len(body)) + body
        return bytes(out)

    #: One record: serial_delta=0, pc_delta=0, opcode_index=0, value=7.
    ONE_RECORD = b"\x00\x00\x00\x0e"

    def test_hand_built_record_decodes(self, decode):
        trace = decode(self._blob(1, self.ONE_RECORD))
        assert [(r.pc, r.opcode, r.value) for r in trace] == [(0, Opcode.ADD, 7)]

    def test_trailing_body_bytes_rejected(self, decode):
        with pytest.raises(TraceError, match="trailing"):
            decode(self._blob(1, self.ONE_RECORD + b"\x00"))

    def test_body_ending_early_rejected(self, decode):
        with pytest.raises(TraceError, match="ends after"):
            decode(self._blob(2, self.ONE_RECORD))

    def test_unknown_opcode_in_table_rejected(self, decode):
        with pytest.raises(TraceError, match="unknown opcode"):
            decode(self._blob(1, self.ONE_RECORD, opcode=b"zzz"))

    def test_out_of_range_opcode_index_reported_as_such(self, decode):
        # serial=0, pc=0, opcode index 5 into a 1-entry table, value=7:
        # must be reported as a bad index, not as body truncation.
        with pytest.raises(TraceError, match="invalid opcode index"):
            decode(self._blob(1, b"\x00\x00\x05\x0e"))

    @pytest.mark.parametrize(
        ("records", "body", "message"),
        [
            # A record cut inside its last varint.
            (1, b"\x00\x00\x00\x8e", "body ends after 0 of 1 records"),
            (2, b"\x00\x00\x00\x0e\x00\x00", "body ends after 1 of 2 records"),
            (1, b"", "body ends after 0 of 1 records"),
            # A dangling continuation byte after the last record.
            (1, b"\x00\x00\x00\x0e\x80", "1 trailing bytes after 1 records"),
            (1, b"\x00\x00\x00\x0e\x00\x81\x01", "3 trailing bytes after 1 records"),
            (0, b"\x80", "1 trailing bytes after 0 records"),
            (0, b"\x05", "1 trailing bytes after 0 records"),
        ],
    )
    def test_corrupt_body_messages(self, decode, records, body, message):
        # Both decoders report a corrupt body in the same words.
        with pytest.raises(TraceError, match=f"^corrupt binary trace: {message}$"):
            decode(self._blob(records, body))

    def test_corrupt_zlib_body_rejected(self, decode):
        trace = trace_from_values([5] * 30)
        blob = bytearray(dumps_trace_binary(trace, compress=True))
        blob[-4] ^= 0xFF
        with pytest.raises(TraceError):
            decode(bytes(blob))


class TestCrossVersionLoading:
    V1_TEXT = "#repro-trace v1 name=legacy total=3 records=2\n0 0 add 1\n1 4 lw -2\n"
    V2_TEXT = "#repro-trace v2 name=le%20gacy total=3 records=2\n0 0 add 1\n1 4 lw -2\n"

    def test_v1_text_still_loads(self):
        trace = loads_trace(self.V1_TEXT)
        assert trace.name == "legacy"
        assert [record.value for record in trace] == [1, -2]

    def test_v2_text_still_loads(self):
        trace = loads_trace(self.V2_TEXT)
        assert trace.name == "le gacy"

    def test_v1_v2_v3_agree_on_records(self):
        v1 = loads_trace(self.V1_TEXT)
        v2 = loads_trace(self.V2_TEXT)
        v3 = loads_trace_binary(dumps_trace_binary(v1))
        for left, right in ((v1, v3), (v1, v2)):
            assert [(r.serial, r.pc, r.opcode, r.value) for r in left] == [
                (r.serial, r.pc, r.opcode, r.value) for r in right
            ]

    def test_file_round_trip_both_formats(self, tmp_path):
        trace = trace_from_values([3, 1, 4, 1, 5], name="file test")
        trace.set_total_dynamic_instructions(11)
        for format, compress in (("text", False), ("binary", False), ("binary", True)):
            path = tmp_path / f"trace-{format}-{compress}"
            save_trace_file(trace, path, format=format, compress=compress)
            _assert_same_trace(trace, load_trace_file(path))

    def test_save_rejects_unknown_format(self, tmp_path):
        with pytest.raises(TraceError):
            save_trace_file(trace_from_values([1]), tmp_path / "t", format="xml")

    def test_load_file_rejects_non_trace_bytes(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\xff\xfe not a trace")
        with pytest.raises(TraceError):
            load_trace_file(path)
