"""Codecs for simulation artefacts and binary cache entries.

Everything the engine moves between processes or persists in the result
cache goes through these functions: :class:`TraceStatistics`,
:class:`PredictorResult`, :class:`PredictorShard` and the joint
:class:`SimulationResult`.  All encodings are plain JSON-compatible dicts
(string keys, no custom types), so cache files stay greppable and a future
distributed backend can reuse the same wire format.

Conventions: ``Category`` values are encoded by their string value, PC maps
by decimal string keys, subset-outcome tuples as ``"10010"``-style bit
strings, and packed correctness bits as hex.

On top of the dict codecs, :func:`encode_cache_entry` /
:func:`decode_cache_entry` define the *binary cache-entry envelope*
(``.rvpc`` files): the entry key stays uncompressed JSON so a cache
directory remains greppable, the payload is zlib-compressed, and a
``trace_text`` payload field travels as a v3 binary trace instead of
JSON-escaped text.  Decoding deliberately does **not** render the trace
back to text (the expensive part of a warm read); it returns the raw v3
bytes under ``trace_binary``, and the :func:`payload_trace` /
:func:`payload_trace_text` / :func:`payload_trace_digest` accessors give
callers a uniform view over both shapes.  Trace digests are defined over
the trace's canonical v3 bytes, never over the stored form, so text and
binary entries of one trace agree on it (see ``docs/cache-layout.md``).
"""

from __future__ import annotations

import json
import zlib

from repro.engine.fingerprint import trace_digest
from repro.errors import TraceError
from repro.isa.opcodes import Category
from repro.simulation.simulator import (
    PredictorResult,
    PredictorShard,
    SimulationResult,
)
from repro.trace.io import (
    decode_uvarint,
    dumps_trace,
    dumps_trace_binary,
    encode_uvarint,
    loads_trace,
    loads_trace_binary,
)
from repro.trace.stream import TraceStatistics, ValueTrace


def _encode_pc_map(mapping: dict[int, int]) -> dict[str, int]:
    return {str(pc): count for pc, count in mapping.items()}


def _decode_pc_map(data: dict[str, int]) -> dict[int, int]:
    return {int(pc): count for pc, count in data.items()}


def _encode_category_map(mapping: dict[Category, int]) -> dict[str, int]:
    return {category.value: count for category, count in mapping.items()}


def _decode_category_map(data: dict[str, int]) -> dict[Category, int]:
    return {Category(value): count for value, count in data.items()}


def _encode_outcome_key(key: tuple[bool, ...]) -> str:
    return "".join("1" if correct else "0" for correct in key)


def _decode_outcome_key(text: str) -> tuple[bool, ...]:
    return tuple(char == "1" for char in text)


# --------------------------------------------------------------------------- #
# TraceStatistics
# --------------------------------------------------------------------------- #
def statistics_to_dict(statistics: TraceStatistics) -> dict:
    return {
        "name": statistics.name,
        "total_dynamic_instructions": statistics.total_dynamic_instructions,
        "predicted_instructions": statistics.predicted_instructions,
        "static_instruction_count": statistics.static_instruction_count,
        "category_dynamic_counts": _encode_category_map(statistics.category_dynamic_counts),
        "category_static_counts": _encode_category_map(statistics.category_static_counts),
    }


def statistics_from_dict(data: dict) -> TraceStatistics:
    return TraceStatistics(
        name=data["name"],
        total_dynamic_instructions=data["total_dynamic_instructions"],
        predicted_instructions=data["predicted_instructions"],
        static_instruction_count=data["static_instruction_count"],
        category_dynamic_counts=_decode_category_map(data["category_dynamic_counts"]),
        category_static_counts=_decode_category_map(data["category_static_counts"]),
    )


# --------------------------------------------------------------------------- #
# PredictorResult / PredictorShard
# --------------------------------------------------------------------------- #
def predictor_result_to_dict(result: PredictorResult) -> dict:
    return {
        "predictor": result.predictor,
        "total": result.total,
        "correct": result.correct,
        "category_total": _encode_category_map(result.category_total),
        "category_correct": _encode_category_map(result.category_correct),
        "pc_correct": _encode_pc_map(result.pc_correct),
    }


def predictor_result_from_dict(data: dict) -> PredictorResult:
    return PredictorResult(
        predictor=data["predictor"],
        total=data["total"],
        correct=data["correct"],
        category_total=_decode_category_map(data["category_total"]),
        category_correct=_decode_category_map(data["category_correct"]),
        pc_correct=_decode_pc_map(data["pc_correct"]),
    )


def shard_to_dict(shard: PredictorShard) -> dict:
    return {
        "result": predictor_result_to_dict(shard.result),
        "correctness": shard.correctness.hex(),
        "record_count": shard.record_count,
    }


def shard_from_dict(data: dict) -> PredictorShard:
    return PredictorShard(
        result=predictor_result_from_dict(data["result"]),
        correctness=bytes.fromhex(data["correctness"]),
        record_count=data["record_count"],
    )


# --------------------------------------------------------------------------- #
# SimulationResult
# --------------------------------------------------------------------------- #
def simulation_to_dict(simulation: SimulationResult) -> dict:
    return {
        "trace_name": simulation.trace_name,
        "predictor_names": list(simulation.predictor_names),
        "total_records": simulation.total_records,
        "results": {
            name: predictor_result_to_dict(result)
            for name, result in simulation.results.items()
        },
        "pc_total": _encode_pc_map(simulation.pc_total),
        "pc_category": {
            str(pc): category.value for pc, category in simulation.pc_category.items()
        },
        "subset_counts": {
            _encode_outcome_key(key): count
            for key, count in simulation.subset_counts.items()
        },
        "subset_counts_by_category": {
            category.value: {
                _encode_outcome_key(key): count for key, count in counts.items()
            }
            for category, counts in simulation.subset_counts_by_category.items()
        },
    }


def simulation_from_dict(data: dict) -> SimulationResult:
    return SimulationResult(
        trace_name=data["trace_name"],
        predictor_names=tuple(data["predictor_names"]),
        total_records=data["total_records"],
        results={
            name: predictor_result_from_dict(result)
            for name, result in data["results"].items()
        },
        pc_total=_decode_pc_map(data["pc_total"]),
        pc_category={
            int(pc): Category(value) for pc, value in data["pc_category"].items()
        },
        subset_counts={
            _decode_outcome_key(key): count
            for key, count in data["subset_counts"].items()
        },
        subset_counts_by_category={
            Category(value): {
                _decode_outcome_key(key): count for key, count in counts.items()
            }
            for value, counts in data["subset_counts_by_category"].items()
        },
    )


# --------------------------------------------------------------------------- #
# Binary cache-entry envelope (.rvpc files)
# --------------------------------------------------------------------------- #
#: Magic + version for binary cache entries; bump the version when the
#: envelope layout changes incompatibly (old entries then read as corrupt,
#: i.e. cache misses, never as wrong data).
CACHE_ENTRY_MAGIC = b"\x89RVPC\r\n\x1a"
CACHE_ENTRY_VERSION = 1

#: Placeholder stored in the payload JSON where ``trace_text`` was removed;
#: the trace itself rides in the envelope's binary-trace section.
_TRACE_SENTINEL = "__trace_binary__"


def encode_cache_entry(key: dict, payload: dict, compress: bool = True) -> bytes:
    """Pack one cache entry (key + payload) into the binary envelope.

    Layout (integers are LEB128 varints)::

        magic(8) version flags
        key_len key_json             -- uncompressed UTF-8 JSON, greppable
        body_len body_bytes          -- zlib-compressed when flag bit 0 set

    and the body, once inflated::

        payload_len payload_json
        trace_len trace_v3_bytes     -- 0 when the payload carries no trace

    A payload's ``trace_text`` field (the canonical text form produced by
    :func:`repro.trace.io.dumps_trace`) — or pre-encoded ``trace_binary``
    bytes, whether from a previously decoded entry or fresh off the
    worker wire (:func:`repro.engine.worker.execute_trace_task` returns
    compressed v3 bytes) — is stored in the v3 binary framing; every
    other field stays JSON.  The v3 framing is self-describing about its
    own compression, so embedded bytes are stored as given.
    """
    payload_fields = dict(payload)
    trace_bytes = payload_fields.pop("trace_binary", b"")
    trace_text = payload_fields.pop("trace_text", None)
    if trace_text is not None:
        # The envelope's zlib pass covers the whole body, so the embedded
        # trace stays uncompressed to avoid double work.
        trace_bytes = dumps_trace_binary(loads_trace(trace_text))
    if trace_bytes:
        payload_fields[_TRACE_SENTINEL] = True
    payload_json = json.dumps(payload_fields).encode("utf-8")

    body = bytearray()
    body += encode_uvarint(len(payload_json))
    body += payload_json
    body += encode_uvarint(len(trace_bytes))
    body += trace_bytes
    flags = 0
    body_bytes = bytes(body)
    if compress:
        flags |= 0x01
        body_bytes = zlib.compress(body_bytes, level=6)

    key_json = json.dumps(dict(key), sort_keys=True).encode("utf-8")
    out = bytearray(CACHE_ENTRY_MAGIC)
    out += encode_uvarint(CACHE_ENTRY_VERSION)
    out += encode_uvarint(flags)
    out += encode_uvarint(len(key_json))
    out += key_json
    out += encode_uvarint(len(body_bytes))
    out += body_bytes
    return bytes(out)


def decode_cache_entry(blob: bytes) -> tuple[dict, dict]:
    """Unpack an envelope produced by :func:`encode_cache_entry`.

    Returns ``(key, payload)``; an embedded trace comes back as raw v3
    bytes under ``trace_binary`` (use the ``payload_trace*`` accessors —
    rendering text eagerly would throw away the binary format's parse-time
    win on every warm read).  Raises ``ValueError`` on any corruption —
    truncation, bad magic, undecodable body — which the cache layer
    converts into a miss.
    """
    view = memoryview(blob)
    if bytes(view[: len(CACHE_ENTRY_MAGIC)]) != CACHE_ENTRY_MAGIC:
        raise ValueError("not a binary cache entry: bad magic")
    offset = len(CACHE_ENTRY_MAGIC)
    try:
        version, offset = decode_uvarint(view, offset)
        if version != CACHE_ENTRY_VERSION:
            raise ValueError(f"unsupported cache entry version {version}")
        flags, offset = decode_uvarint(view, offset)
        key_length, offset = decode_uvarint(view, offset)
        if offset + key_length > len(view):
            raise ValueError("truncated cache entry: key overruns the data")
        key = json.loads(bytes(view[offset : offset + key_length]).decode("utf-8"))
        offset += key_length
        body_length, offset = decode_uvarint(view, offset)
        if offset + body_length > len(view):
            raise ValueError("truncated cache entry: body overruns the data")
        body: bytes = bytes(view[offset : offset + body_length])
        if flags & 0x01:
            try:
                body = zlib.decompress(body)
            except zlib.error as exc:
                raise ValueError("corrupt cache entry: body fails to decompress") from exc

        payload_length, position = decode_uvarint(body, 0)
        if position + payload_length > len(body):
            raise ValueError("truncated cache entry: payload overruns the body")
        payload = json.loads(body[position : position + payload_length].decode("utf-8"))
        position += payload_length
        trace_length, position = decode_uvarint(body, position)
        if position + trace_length > len(body):
            raise ValueError("truncated cache entry: trace overruns the body")
    except TraceError as exc:
        # decode_uvarint signals truncation with TraceError; this API's
        # corruption contract is ValueError.
        raise ValueError(f"truncated cache entry: {exc}") from exc
    if payload.pop(_TRACE_SENTINEL, False):
        if trace_length == 0:
            raise ValueError("corrupt cache entry: trace sentinel without trace bytes")
        # The embedded trace is *not* decoded here — that is the expensive
        # part of a warm read, and callers materialise it exactly once via
        # payload_trace().  Consumers must treat a TraceError from the
        # accessors as a cache miss (the scheduler recomputes; `verify`
        # decodes deeply).
        payload["trace_binary"] = body[position : position + trace_length]
    return key, payload


# --------------------------------------------------------------------------- #
# Uniform access to trace-task payloads (text, binary or in-flight)
# --------------------------------------------------------------------------- #
def payload_trace(payload: dict) -> ValueTrace:
    """Materialise the :class:`ValueTrace` carried by a trace-task payload.

    Accepts both payload shapes: ``trace_binary`` (fresh task outcomes
    off the worker wire and binary cache entries — the fast path, no text
    involved) and ``trace_text`` (JSON cache entries and outcomes
    produced by older code, kept as a decode fallback).
    """
    trace_bytes = payload.get("trace_binary")
    if trace_bytes is not None:
        return loads_trace_binary(trace_bytes)
    return loads_trace(payload["trace_text"])


def payload_trace_text(payload: dict) -> str:
    """Canonical text form of the payload's trace (rendered if binary)."""
    text = payload.get("trace_text")
    if text is not None:
        return text
    return dumps_trace(loads_trace_binary(payload["trace_binary"]))


def payload_trace_digest(payload: dict) -> str:
    """:func:`~repro.engine.fingerprint.trace_digest` of the payload's trace.

    Prefers the ``digest`` field stamped by the trace task (so cache hits
    never re-encode the trace) and falls back to decoding the trace and
    digesting its canonical v3 bytes for payloads without one.
    """
    digest = payload.get("digest")
    if digest is not None:
        return digest
    return trace_digest(payload_trace(payload))
