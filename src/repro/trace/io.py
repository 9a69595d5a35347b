"""(De)serialisation of value traces: text (v1/v2) and binary (v3).

Two formats share one record model (``serial pc opcode value``;
categories are recomputed from the opcode on load, so the Table 3 mapping
remains the single source of truth).  Both read and write the
:class:`ValueTrace` columns directly, without building a
:class:`~repro.trace.record.TraceRecord` per record:

* **binary (v3)** — a magic + version header followed by a
  length-prefixed, varint-packed record block (optionally
  zlib-compressed).  This is the *canonical* encoding: the trace digest
  (:func:`repro.engine.fingerprint.trace_digest`) is the SHA-256 of the
  uncompressed bytes, and the compressed form is what the worker wire
  and the cache carry, so it can never change shape silently.  With
  numpy installed the record block is encoded with array operations and
  decoded, block by block, into numpy :class:`TraceColumns` that the
  returned trace wraps; the pure-Python code is the reference and the
  fallback for numpy-less installs and for fields outside int64, and both
  paths produce the same bytes, columns and errors.
* **text (v2)** — a one-line header followed by one space-separated line
  per record: a readable export format, roughly 4-8x larger than v3.

``docs/trace-format.md`` is the normative spec of all three versions.

Binary files and text files are distinguished by the leading magic bytes,
so :func:`load_trace_file` reads either transparently.
"""

from __future__ import annotations

import io
import operator
import re
import zlib
from functools import cache
from itertools import accumulate, chain
from pathlib import Path
from typing import BinaryIO, TextIO
from urllib.parse import quote, unquote

from repro.errors import TraceError
from repro.isa.opcodes import OPCODE_CODE, OPCODE_ORDER, Opcode, category_of
from repro.trace.stream import ValueTrace

#: v1 wrote the name verbatim (corrupting it if it contained spaces);
#: v2 percent-encodes it.  The loader keys decoding off the header version
#: so v1 files — whose names may contain literal ``%`` — stay readable.
_FORMAT_VERSION = 2
_HEADER_PREFIX = "#repro-trace"

#: Binary format version (text formats are v1/v2, binary starts at v3).
BINARY_FORMAT_VERSION = 3
#: PNG-style magic: the high bit catches text-mode mangling, ``RVPT`` names
#: the container ("Repro Value-Prediction Trace"), and CR/LF/EOF bytes catch
#: newline translation.  A text trace starts with ``#``, so the first byte
#: alone distinguishes the two families.
BINARY_MAGIC = b"\x89RVPT\r\n\x1a"

#: Header flag bits (varint-encoded after the version field).
_FLAG_ZLIB_BODY = 0x01


# --------------------------------------------------------------------------- #
# Varint primitives (shared with the engine's cache-entry envelope)
# --------------------------------------------------------------------------- #
def encode_uvarint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise TraceError(f"cannot uvarint-encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes | memoryview, offset: int) -> tuple[int, int]:
    """Decode a LEB128 varint at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise TraceError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (0, -1, 1, -2 → 0, 1, 2, 3)."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def _encode_svarint(value: int) -> bytes:
    return encode_uvarint(_zigzag(value))


class _Memo(dict):
    """``memo[key]`` is ``function(key)``, computed once per distinct key.

    Trace values, deltas and varint tokens repeat heavily, so the codecs
    look each one up here instead of re-encoding or re-decoding it.
    """

    def __init__(self, function) -> None:
        super().__init__()
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


def _token_value(token: bytes) -> int:
    return decode_uvarint(token, 0)[0]


def _token_signed_value(token: bytes) -> int:
    return _unzigzag(decode_uvarint(token, 0)[0])


#: One varint: any continuation bytes, then the byte that ends it.
_VARINT = re.compile(rb"[\x80-\xff]*[\x00-\x7f]")

#: Opcode mnemonics by code, as the text format writes them.
_MNEMONICS: tuple[str, ...] = tuple(opcode.value for opcode in OPCODE_ORDER)

#: The body encoding of each opcode code (all fit one varint byte).
_OPCODE_VARINTS: tuple[bytes, ...] = tuple(encode_uvarint(code) for code in range(len(OPCODE_ORDER)))


# --------------------------------------------------------------------------- #
# Text format (v1/v2)
# --------------------------------------------------------------------------- #
def dump_trace(trace: ValueTrace, destination: TextIO) -> None:
    """Write ``trace`` to an open text stream (v2 text form)."""
    destination.write(dumps_trace(trace))


def dumps_trace(trace: ValueTrace) -> str:
    """Return the canonical text serialisation of ``trace`` as a string.

    The name is percent-encoded so that whitespace (or ``=``) in a trace
    name cannot corrupt the space-separated ``key=value`` header fields.
    """
    header = (
        f"{_HEADER_PREFIX} v{_FORMAT_VERSION} name={quote(trace.name, safe='')} "
        f"total={trace.total_dynamic_instructions} records={len(trace)}\n"
    )
    lines = map(
        "{} {} {} {}\n".format,
        trace.serials,
        trace.pcs,
        map(_MNEMONICS.__getitem__, trace.opcode_codes),
        trace.values,
    )
    return header + "".join(lines)


def load_trace(source: TextIO) -> ValueTrace:
    """Read a trace previously written by :func:`dump_trace`."""
    header = source.readline()
    if not header.startswith(_HEADER_PREFIX):
        raise TraceError("not a repro trace: missing header line")
    tokens = header.strip().split()
    version = 1
    for token in tokens[1:]:
        if len(token) > 1 and token[0] == "v" and token[1:].isdigit():
            version = int(token[1:])
            break
    fields = dict(part.split("=", 1) for part in tokens if "=" in part)
    name = fields.get("name", "trace")
    if version >= 2:
        name = unquote(name)
    try:
        total = int(fields["total"])
        expected_records = int(fields["records"])
    except (KeyError, ValueError) as exc:
        raise TraceError(f"malformed trace header: {header!r}") from exc

    serials: list[int] = []
    pcs: list[int] = []
    codes: list[int] = []
    values: list[int] = []
    for line_number, line in enumerate(source, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceError(f"malformed trace record on line {line_number}: {line!r}")
        try:
            serial, pc, value = int(parts[0]), int(parts[1]), int(parts[3])
            code = OPCODE_CODE[Opcode(parts[2])]
        except ValueError as exc:
            raise TraceError(f"malformed trace record on line {line_number}: {line!r}") from exc
        serials.append(serial)
        pcs.append(pc)
        codes.append(code)
        values.append(value)
    if len(values) != expected_records:
        raise TraceError(
            f"trace record count mismatch: header says {expected_records}, found {len(values)}"
        )
    return ValueTrace.from_columns(name, serials, pcs, codes, values, total)


def loads_trace(text: str) -> ValueTrace:
    """Parse a trace from a string produced by :func:`dumps_trace`."""
    return load_trace(io.StringIO(text))


# --------------------------------------------------------------------------- #
# Binary format (v3)
# --------------------------------------------------------------------------- #
@cache
def _numpy():
    """The numpy module, or ``None`` when it is not installed.

    The codecs take their vectorised paths only when this returns a module;
    the scalar code is the reference and the fallback.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def dumps_trace_binary(trace: ValueTrace, compress: bool = False) -> bytes:
    """Serialise ``trace`` into the v3 binary framing.

    Layout (all integers LEB128 varints, signed fields zigzag-mapped)::

        magic(8) version flags
        name_len name_bytes          -- percent-encoded UTF-8, as in text v2
        total records
        opcode_count [op_len op_bytes]*   -- table of opcode mnemonics
        body_len body_bytes

    The body holds, per record, ``serial_delta pc_delta opcode_index
    value`` (deltas against the previous record, zigzag-encoded; the
    opcode index points into the header table).  The writer's table is
    :data:`~repro.isa.opcodes.OPCODE_ORDER`, so the indices are the trace
    columns' opcode codes; readers remap through the embedded table, so
    files survive enum edits.  ``compress=True`` runs
    the body — not the header — through zlib and sets flag bit 0, so the
    record count and name stay inspectable without inflating anything.

    The body is encoded with numpy when it is installed and every field
    fits its 64-bit domain, otherwise by the scalar reference encoder;
    both write the same bytes.
    """
    np = _numpy()
    body = None if np is None else _encode_body_numpy(np, trace)
    if body is None:
        body = _encode_body_scalar(trace)
    return _frame_binary(
        trace.name, trace.total_dynamic_instructions, len(trace), _MNEMONICS, body, compress
    )


def _frame_binary(name, total, records, mnemonics, body, compress) -> bytes:
    """Wrap an uncompressed record ``body`` in the v3 header."""
    flags = 0
    if compress:
        flags |= _FLAG_ZLIB_BODY
        body = zlib.compress(body, level=6)
    name_bytes = quote(name, safe="").encode("ascii")
    out = bytearray(BINARY_MAGIC)
    out += encode_uvarint(BINARY_FORMAT_VERSION)
    out += encode_uvarint(flags)
    out += encode_uvarint(len(name_bytes))
    out += name_bytes
    out += encode_uvarint(total)
    out += encode_uvarint(records)
    out += encode_uvarint(len(mnemonics))
    for mnemonic in mnemonics:
        out += encode_uvarint(len(mnemonic))
        out += mnemonic.encode("ascii")
    out += encode_uvarint(len(body))
    out += body
    return bytes(out)


def compress_trace_binary(data: bytes) -> bytes:
    """The ``compress=True`` form of v3 bytes, without re-encoding records.

    ``compress_trace_binary(dumps_trace_binary(trace))`` equals
    ``dumps_trace_binary(trace, compress=True)``, so a caller that needs
    both forms varint-encodes the trace once.
    """
    name, total, records, table, body = _parse_binary_container(data)
    mnemonics = [opcode.value for opcode in table]
    return _frame_binary(name, total, records, mnemonics, body, compress=True)


def _encode_body_scalar(trace: ValueTrace) -> bytes:
    """Reference body encoder: arbitrary-precision ints, one varint at a time."""
    svarint = _Memo(_encode_svarint)
    serial_deltas = map(operator.sub, trace.serials, chain((0,), trace.serials))
    pc_deltas = map(operator.sub, trace.pcs, chain((0,), trace.pcs))
    records = zip(
        map(svarint.__getitem__, serial_deltas),
        map(svarint.__getitem__, pc_deltas),
        map(_OPCODE_VARINTS.__getitem__, trace.opcode_codes),
        map(svarint.__getitem__, trace.values),
    )
    return b"".join(chain.from_iterable(records))


#: Serials and pcs at or beyond this magnitude take the scalar encoder: the
#: numpy path computes their deltas in int64, which holds any difference of
#: two values below it.
_DELTA_SAFE_BOUND = 2**62

#: Smallest value needing k + 1 varint bytes, for k = 1..9.
_VARINT_THRESHOLDS = tuple(1 << (7 * k) for k in range(1, 10))


def _encode_body_numpy(np, trace: ValueTrace) -> bytes | None:
    """Vectorised body encoder, or ``None`` when a field leaves its domain.

    Values may span all of int64; serials and pcs must stay below
    :data:`_DELTA_SAFE_BOUND` in magnitude.  Outside that the scalar
    encoder runs instead.
    """
    try:
        serials = np.array(trace.serials, dtype=np.int64)
        pcs = np.array(trace.pcs, dtype=np.int64)
        values = np.array(trace.values, dtype=np.int64)
    except OverflowError:
        return None
    for column in (serials, pcs):
        if column.size and max(int(column.max()), -int(column.min())) >= _DELTA_SAFE_BOUND:
            return None
    fields = np.empty((len(values), 4), dtype=np.uint64)
    fields[:, 0] = _zigzag_array(np, np.diff(serials, prepend=0))
    fields[:, 1] = _zigzag_array(np, np.diff(pcs, prepend=0))
    fields[:, 2] = trace.opcode_codes
    fields[:, 3] = _zigzag_array(np, values)
    return _uvarint_array_bytes(np, fields.reshape(-1))


def _zigzag_array(np, signed):
    """Vectorised :func:`_zigzag` of an ``int64`` array, as ``uint64``."""
    return ((signed << 1) ^ (signed >> 63)).view(np.uint64)


def _uvarint_array_bytes(np, raw) -> bytes:
    """LEB128-encode a ``uint64`` array, varint after varint."""
    lengths = np.searchsorted(
        np.array(_VARINT_THRESHOLDS, dtype=np.uint64), raw, side="right"
    ) + 1
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    for k in range(int(lengths.max()) if lengths.size else 0):
        if k:
            keep = lengths > k
            raw, lengths, starts = raw[keep], lengths[keep], starts[keep]
        group = ((raw >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        group[lengths > k + 1] |= 0x80
        out[starts + k] = group
    return out.tobytes()


def dump_trace_binary(trace: ValueTrace, destination: BinaryIO, compress: bool = False) -> None:
    """Write the v3 binary serialisation of ``trace`` to an open byte stream."""
    destination.write(dumps_trace_binary(trace, compress=compress))


def _parse_binary_container(data: bytes) -> tuple[str, int, int, list[Opcode], bytes]:
    """Parse the v3 header and return ``(name, total, records, table, body)``.

    The body comes back decompressed; record decoding — scalar
    (:func:`_decode_body_scalar`) or columnar (:func:`_body_columns`) — is
    the caller's half of the work.
    """
    view = memoryview(data)
    if bytes(view[: len(BINARY_MAGIC)]) != BINARY_MAGIC:
        raise TraceError("not a binary repro trace: bad magic")
    offset = len(BINARY_MAGIC)
    version, offset = decode_uvarint(view, offset)
    if version != BINARY_FORMAT_VERSION:
        raise TraceError(f"unsupported binary trace version v{version}")
    flags, offset = decode_uvarint(view, offset)
    name_length, offset = decode_uvarint(view, offset)
    if offset + name_length > len(view):
        raise TraceError("truncated binary trace: name overruns the data")
    name = unquote(bytes(view[offset : offset + name_length]).decode("ascii"))
    offset += name_length
    total, offset = decode_uvarint(view, offset)
    expected_records, offset = decode_uvarint(view, offset)
    opcode_count, offset = decode_uvarint(view, offset)
    table: list[Opcode] = []
    for _ in range(opcode_count):
        length, offset = decode_uvarint(view, offset)
        if offset + length > len(view):
            raise TraceError("truncated binary trace: opcode table overruns the data")
        mnemonic = bytes(view[offset : offset + length]).decode("ascii")
        offset += length
        try:
            table.append(Opcode(mnemonic))
        except ValueError as exc:
            raise TraceError(f"unknown opcode {mnemonic!r} in binary trace table") from exc
    body_length, offset = decode_uvarint(view, offset)
    if offset + body_length > len(view):
        raise TraceError(
            f"truncated binary trace: body declares {body_length} bytes, "
            f"{len(view) - offset} available"
        )
    body: bytes | memoryview = view[offset : offset + body_length]
    if flags & _FLAG_ZLIB_BODY:
        try:
            body = zlib.decompress(bytes(body))
        except zlib.error as exc:
            raise TraceError("corrupt binary trace: body fails to decompress") from exc
    return name, total, expected_records, table, bytes(body)


def loads_trace_binary(data: bytes) -> ValueTrace:
    """Parse a trace from bytes produced by :func:`dumps_trace_binary`.

    Raises :class:`TraceError` on a bad magic, an unsupported version, a
    truncated body or a record-count mismatch — the cache treats any of
    those as a miss rather than a failure.  With numpy installed and every
    field within int64 the body is decoded into :class:`TraceColumns`
    (:func:`decode_trace_columns`) and the trace wraps them: its
    :func:`trace_columns` view is those columns, and its list columns are
    built only on first access.  Otherwise the scalar reference decoder
    builds the lists.  Both raise the same errors.
    """
    name, total, expected_records, table, body = _parse_binary_container(data)
    np = _numpy()
    columns = None if np is None else _body_columns(np, name, total, expected_records, table, body)
    if columns is not None:
        return ValueTrace.from_trace_columns(columns)
    return ValueTrace.from_columns(name, *_decode_body_scalar(body, expected_records, table), total)


def _trailing_bytes_error(trailing: int, expected_records: int) -> TraceError:
    return TraceError(
        f"corrupt binary trace: {trailing} trailing bytes after {expected_records} records"
    )


def _body_ends_early_error(varints: int, expected_records: int) -> TraceError:
    return TraceError(
        f"corrupt binary trace: body ends after {varints // 4} of "
        f"{expected_records} records"
    )


def _invalid_opcode_error(record_index: int) -> TraceError:
    return TraceError(
        f"corrupt binary trace: invalid opcode index in record {record_index + 1}"
    )


def _decode_body_scalar(body: bytes, expected_records: int, table: list[Opcode]):
    """Reference body decoder; returns ``(serials, pcs, codes, values)`` lists."""
    # The body is 4 varints per record and nothing else, so one regex pass
    # splits it into varint tokens; each distinct token is decoded once.
    tokens = _VARINT.findall(body)
    fields = 4 * expected_records
    if len(tokens) < fields:
        raise _body_ends_early_error(len(tokens), expected_records)
    if len(tokens) > fields or (body and body[-1] & 0x80):
        consumed = sum(map(len, tokens[:fields]))
        raise _trailing_bytes_error(len(body) - consumed, expected_records)
    codes = list(map(_Memo(_token_value).__getitem__, tokens[2::4]))
    if codes and max(codes) >= len(table):
        raise _invalid_opcode_error(
            next(index for index, code in enumerate(codes) if code >= len(table))
        )
    if tuple(table) != OPCODE_ORDER:
        remap = [OPCODE_CODE[opcode] for opcode in table]
        codes = [remap[code] for code in codes]
    signed = _Memo(_token_signed_value).__getitem__
    return (
        list(accumulate(map(signed, tokens[0::4]))),
        list(accumulate(map(signed, tokens[1::4]))),
        codes,
        list(map(signed, tokens[3::4])),
    )


#: Records per block of the numpy decoder.
_DECODE_BLOCK_RECORDS = 4096


class _OutsideInt64(Exception):
    """A body field the numpy decoder cannot hold; the caller falls back."""


def _record_blocks(np, body: bytes, expected_records: int, table_size: int):
    """Decode a v3 body into ``int64`` column blocks, in record order.

    Yields ``(serials, pcs, opcode_codes, values)`` per block of at most
    :data:`_DECODE_BLOCK_RECORDS` records; the opcode codes index the
    file's own table.  Raises :class:`TraceError` with the scalar
    decoder's messages on a corrupt body, and :class:`_OutsideInt64` when
    a varint exceeds 64 bits or a running serial or pc nears the int64
    limit (:data:`_RUNNING_SUM_BOUND`).
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(buf < 0x80)
    fields = 4 * expected_records
    if ends.size < fields:
        raise _body_ends_early_error(ends.size, expected_records)
    if ends.size > fields or (buf.size and buf[-1] >= 0x80):
        consumed = int(ends[fields - 1]) + 1 if fields else 0
        raise _trailing_bytes_error(len(body) - consumed, expected_records)
    serial_base = pc_base = 0
    for first in range(0, expected_records, _DECODE_BLOCK_RECORDS):
        last = min(first + _DECODE_BLOCK_RECORDS, expected_records)
        start = int(ends[4 * first - 1]) + 1 if first else 0
        raw = _uvarint_values(np, buf, start, ends[4 * first : 4 * last]).reshape(-1, 4)
        codes = raw[:, 2]
        if int(codes.max()) >= table_size:
            raise _invalid_opcode_error(first + int(np.argmax(codes >= np.uint64(table_size))))
        serials = _prefix_sum_int64(np, _unzigzag_array(np, raw[:, 0]), serial_base)
        pcs = _prefix_sum_int64(np, _unzigzag_array(np, raw[:, 1]), pc_base)
        serial_base, pc_base = int(serials[-1]), int(pcs[-1])
        yield serials, pcs, codes.astype(np.int64), _unzigzag_array(np, raw[:, 3])


def _uvarint_values(np, buf, start: int, ends):
    """Decode consecutive LEB128 varints into a ``uint64`` array.

    The first varint starts at ``buf[start]``; ``ends`` holds the index
    of each one's last byte.  Works byte position by byte position, over
    the varints still that long, so short varints cost one pass.
    """
    starts = np.empty_like(ends)
    starts[0] = start
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > 10:
        raise _OutsideInt64
    values = (buf[starts] & np.uint8(0x7F)).astype(np.uint64)
    longer = np.flatnonzero(lengths > 1)
    for k in range(1, 10):
        if not longer.size:
            break
        groups = buf[starts[longer] + k] & np.uint8(0x7F)
        if k == 9 and int(groups.max()) > 1:
            # More than the 64 bits a zigzag-mapped int64 needs.
            raise _OutsideInt64
        values[longer] |= groups.astype(np.uint64) << np.uint64(7 * k)
        longer = longer[lengths[longer] > k + 1]
    return values


def _unzigzag_array(np, raw):
    """Vectorised :func:`_unzigzag` over a ``uint64`` array, as ``int64``."""
    mask = (raw & np.uint64(1)) * np.uint64(0xFFFFFFFFFFFFFFFF)
    return ((raw >> np.uint64(1)) ^ mask).view(np.int64)


#: The numpy decoder refuses running serial or pc sums whose float64
#: shadow reaches this.  A block's shadow is off by at most about 2**34,
#: so every sum below :data:`_DELTA_SAFE_BOUND` (all the numpy encoder
#: writes) passes, and every sum that passes fits int64.
_RUNNING_SUM_BOUND = 3 * 2**61


def _prefix_sum_int64(np, deltas, base: int):
    """``base`` plus the running sum of ``int64`` deltas.

    The scalar decoder accumulates in arbitrary-precision Python ints; the
    numpy path must refuse (and fall back) rather than silently wrap, so a
    float64 shadow sum gates on :data:`_RUNNING_SUM_BOUND`.  Intermediate
    int64 sums may wrap: the final ones are exact whenever they fit.
    """
    shadow = np.cumsum(deltas.astype(np.float64)) + float(base)
    if np.abs(shadow).max() >= float(_RUNNING_SUM_BOUND):
        raise _OutsideInt64
    return np.cumsum(deltas) + np.int64(base)


def load_trace_binary(source: BinaryIO) -> ValueTrace:
    """Read a trace previously written by :func:`dump_trace_binary`."""
    return loads_trace_binary(source.read())


# --------------------------------------------------------------------------- #
# Columnar decode (the vectorized kernel's input representation)
# --------------------------------------------------------------------------- #
class TraceColumns:
    """A trace as parallel numpy columns instead of ``TraceRecord`` objects.

    ``pcs``/``values``/``serials`` are ``int64`` arrays in program order;
    ``opcode_codes`` indexes ``opcodes`` (the file's embedded table) and
    ``category_codes`` indexes ``categories`` (the distinct categories of
    that table, in table order).  ``scratch`` is a plain dict where the
    vectorized kernel memoises derived structures (e.g. the per-PC
    grouping) so they are computed once per trace, not once per predictor.
    """

    def __init__(self, name, total_dynamic_instructions, serials, pcs, values,
                 opcode_codes, opcodes, category_codes, categories) -> None:
        self.name = name
        self.total_dynamic_instructions = total_dynamic_instructions
        self.serials = serials
        self.pcs = pcs
        self.values = values
        self.opcode_codes = opcode_codes
        self.opcodes = opcodes
        self.category_codes = category_codes
        self.categories = categories
        self.scratch: dict = {}

    def __len__(self) -> int:
        return len(self.values)


def _category_mapping(table: list[Opcode] | tuple[Opcode, ...]):
    """Distinct categories of an opcode table plus the per-opcode code map."""
    categories: list = []
    op_to_cat: list[int] = []
    for opcode in table:
        category = category_of(opcode)
        if category not in categories:
            categories.append(category)
        op_to_cat.append(categories.index(category))
    return tuple(categories), op_to_cat


def decode_trace_columns(data: bytes) -> TraceColumns | None:
    """Decode v3 binary bytes straight into columns, skipping records.

    Returns ``None`` when the fast path does not apply — numpy missing, or
    a field outside the 64-bit domain the vectorized kernel computes in
    (the scalar decoder handles those with arbitrary-precision ints).
    Raises :class:`TraceError` on corrupt data, with the same messages as
    :func:`loads_trace_binary`.
    """
    np = _numpy()
    if np is None:
        return None
    return _body_columns(np, *_parse_binary_container(data))


def _body_columns(np, name, total, expected_records, table, body) -> TraceColumns | None:
    """The columns of a parsed v3 container, or ``None`` outside int64."""
    categories, op_to_cat = _category_mapping(table)
    try:
        blocks = list(_record_blocks(np, body, expected_records, len(table)))
    except _OutsideInt64:
        return None
    if blocks:
        serials, pcs, opcode_codes, values = map(np.concatenate, zip(*blocks))
    else:
        serials, pcs, opcode_codes, values = (np.zeros(0, dtype=np.int64) for _ in range(4))
    category_codes = np.asarray(op_to_cat, dtype=np.int64)[opcode_codes]
    return TraceColumns(
        name, total, serials, pcs, values, opcode_codes, tuple(table),
        category_codes, categories,
    )


def trace_columns(trace: ValueTrace) -> TraceColumns | None:
    """Columnar view of an in-memory :class:`ValueTrace`, memoised on it.

    A trace from :func:`loads_trace_binary`'s numpy path returns the
    columns it was decoded into.  Returns ``None`` when numpy is
    unavailable or any field falls outside
    int64 (the vectorized kernel then uses the scalar path).
    """
    if trace._columns is not False:
        return trace._columns
    np = _numpy()
    if np is None:
        return None
    categories, op_to_cat = _category_mapping(OPCODE_ORDER)
    try:
        serials = np.array(trace.serials, dtype=np.int64)
        pcs = np.array(trace.pcs, dtype=np.int64)
        values = np.array(trace.values, dtype=np.int64)
    except OverflowError:
        trace._columns = None
        return None
    opcode_codes = np.array(trace.opcode_codes, dtype=np.int64)
    category_codes = np.asarray(op_to_cat, dtype=np.int64)[opcode_codes]
    columns = TraceColumns(
        trace.name, trace.total_dynamic_instructions, serials, pcs, values,
        opcode_codes, OPCODE_ORDER, category_codes, categories,
    )
    trace._columns = columns
    return columns


# --------------------------------------------------------------------------- #
# Format-aware file helpers
# --------------------------------------------------------------------------- #
def save_trace_file(
    trace: ValueTrace,
    path: str | Path,
    format: str = "text",
    compress: bool = False,
) -> None:
    """Serialise ``trace`` to ``path`` as ``"text"`` (v2) or ``"binary"`` (v3).

    ``compress`` only applies to the binary format; the text form stays
    uncompressed.
    """
    if format == "text":
        with open(path, "w", encoding="utf-8") as handle:
            dump_trace(trace, handle)
    elif format == "binary":
        with open(path, "wb") as handle:
            dump_trace_binary(trace, handle, compress=compress)
    else:
        raise TraceError(f"unknown trace format {format!r} (expected 'text' or 'binary')")


def load_trace_file(path: str | Path) -> ValueTrace:
    """Load a trace from ``path``, auto-detecting text vs binary by magic."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(BINARY_MAGIC):
        return loads_trace_binary(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError("not a repro trace: neither binary magic nor UTF-8 text") from exc
    return loads_trace(text)
