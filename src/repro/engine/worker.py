"""Worker-side protocol of the execution engine.

These module-level functions are the only code that runs inside pool
workers, so they must stay importable (picklable by reference) and accept
plain-dict payloads built by :mod:`repro.engine.tasks`.  Results are
returned as JSON-compatible dicts — the exact representation the cache
stores — so the parent handles pool output and cache hits identically.
"""

from __future__ import annotations

import functools
import os
import time

from repro.core.registry import create_predictor
from repro.engine.codecs import shard_to_dict, statistics_to_dict
from repro.engine.fingerprint import binary_trace_digest
from repro.engine.telemetry import TELEMETRY_KEY
from repro.errors import SimulationError
from repro.trace.io import (
    compress_trace_binary,
    dumps_trace_binary,
    loads_trace,
    loads_trace_binary,
)
from repro.simulation.simulator import simulate_shard
from repro.simulation.vectorized import resolve_kernel
from repro.workloads.suite import get_workload


def _telemetry_sidecar(
    function: str,
    started_perf: float,
    kernel: str | None = None,
    fallback: bool | None = None,
    predictor: str | None = None,
) -> dict:
    """The observability sidecar every worker outcome carries.

    Worker-side execute time is measured here — on the worker's own
    monotonic clock, whichever process or host that is — and travels back
    inside the outcome under the reserved :data:`TELEMETRY_KEY`.  The
    phase executor strips the key before the outcome is decoded or
    cached, so cache entries and results never contain it.

    Simulation tasks also report ``kernel`` — the kernel that *actually*
    ran, after any scalar fallback — and ``kernel_fallback``, true when
    the vector kernel was requested but this task ran the scalar loop.
    An ``--kernel auto`` run silently degrading to scalar is a mystery
    slowdown without this.
    """
    sidecar = {
        "function": function,
        "execute_seconds": time.perf_counter() - started_perf,
        "pid": os.getpid(),
    }
    if kernel is not None:
        sidecar["kernel"] = kernel
        sidecar["kernel_fallback"] = bool(fallback)
    if predictor is not None:
        sidecar["predictor"] = predictor
    return sidecar


def execute_trace_task(payload: dict) -> dict:
    """Run one benchmark into a trace; returns v3 bytes plus statistics.

    ``input``/``flags`` select the workload configuration (absent means the
    workload's default, as resolved by :meth:`TraceTask.for_workload`).
    The trace is varint-encoded once: the ``digest`` that keys the
    simulate phase is the SHA-256 of those uncompressed v3 bytes (see
    :func:`repro.engine.fingerprint.trace_digest`), and the trace travels
    — and is cached — as the compressed form of the same bytes
    (``trace_binary``).  Consumers still accept ``trace_text`` payloads as
    a decode fallback for entries produced by older code
    (:func:`repro.engine.codecs.payload_trace`).
    """
    started = time.perf_counter()
    workload = get_workload(payload["benchmark"])
    trace = workload.trace(
        scale=payload["scale"],
        input_name=payload.get("input"),
        flags=payload.get("flags"),
    )
    binary = dumps_trace_binary(trace)
    return {
        "trace_binary": compress_trace_binary(binary),
        "digest": binary_trace_digest(binary),
        "statistics": statistics_to_dict(trace.statistics()),
        TELEMETRY_KEY: _telemetry_sidecar("trace", started),
    }


def execute_simulate_task(payload: dict) -> dict:
    """Simulate one predictor over one trace; returns the encoded shard.

    The trace arrives either inline (``trace``, in-process dispatch), as
    v3 binary bytes (``trace_bytes``, the pool wire format) or — for
    compatibility with payloads built by older code — as canonical text
    (``trace_text``).  All three decode to the same records.

    ``kernel`` selects the simulation kernel; it is resolved against
    *this* worker's environment (see
    :func:`repro.simulation.vectorized.resolve_kernel`), and under the
    vector kernel binary wire bytes decode straight into numpy columns —
    no ``TraceRecord`` objects are ever materialised on the hot path — and
    a worker decodes each trace once for all of its consecutive tasks
    over it (:func:`_decoded_columns`).
    """
    started = time.perf_counter()
    kernel = resolve_kernel(payload.get("kernel"))
    name = _check_signature(payload)
    shard = None
    trace = payload.get("trace")
    trace_bytes = payload.get("trace_bytes") if trace is None else None
    if kernel == "vector":
        from repro.simulation.vectorized import simulate_shard_vector
        from repro.trace.io import trace_columns

        columns = None
        if trace is None and trace_bytes is not None:
            columns = _decoded_columns(trace_bytes)
        if columns is None:
            trace = _payload_records(payload)
            columns = trace_columns(trace)
        if columns is not None:
            shard = simulate_shard_vector(columns, name)
    fallback = kernel == "vector" and shard is None
    if shard is None:
        if trace is None:
            trace = _payload_records(payload)
        shard = simulate_shard(trace, name, kernel="scalar")
    return {
        "shard": shard_to_dict(shard),
        TELEMETRY_KEY: _telemetry_sidecar(
            "simulate",
            started,
            kernel="scalar" if fallback else kernel,
            fallback=fallback,
            predictor=name,
        ),
    }


def _keep_results_read_later(rest: list[dict]) -> None:
    """``execute_simulate_task.chunk_step``: after a task of a chunk, keep
    only the memoised plan results that a later task of the chunk reads.

    Without it one worker's memo would hold a result per predictor of
    the trace until the chunk ends; a hybrid's components and aliased
    configurations are what later tasks reuse.
    """
    from repro.simulation.vectorized import retain_results

    keep: set[str] = set()
    for payload in rest:
        keep |= _memo_signatures(payload["predictor"])
    retain_results(keep)


@functools.lru_cache(maxsize=None)
def _memo_signatures(name: str) -> frozenset[str]:
    # The worker's registry is fixed once it runs tasks, and a stale entry
    # could only make a later task recompute a result, never change it.
    from repro.simulation.vectorized import memo_signatures

    return frozenset(memo_signatures(create_predictor(name)))


execute_simulate_task.chunk_step = _keep_results_read_later


#: ``(trace_bytes, columns)`` of the trace this worker decoded last.
#: Simulate tasks reach a worker one chunk per trace (the phase executor
#: groups them by trace), so one slot turns a chunk's decodes (and its
#: per-trace grouping, memoised on the columns) into one per trace per
#: run, not one per worker.
_DECODED: tuple[bytes, object] | None = None


def _decoded_columns(trace_bytes: bytes):
    """:func:`decode_trace_columns`, reusing the last decode on equal bytes.

    The slot is keyed by the bytes themselves, not a digest: equality is
    one length check and one memcmp, and it cannot collide.
    """
    from repro.trace.io import decode_trace_columns

    global _DECODED
    decoded = _DECODED  # read once: remote workers run tasks on threads
    if decoded is None or decoded[0] != trace_bytes:
        decoded = _DECODED = (trace_bytes, decode_trace_columns(trace_bytes))
    return decoded[1]


def _check_signature(payload: dict) -> str:
    """Validate the payload's expected predictor signature; returns the name."""
    name = payload["predictor"]
    expected_signature = payload.get("signature")
    if expected_signature is not None:
        local_signature = create_predictor(name).config_signature()
        if local_signature != expected_signature:
            # A worker whose registry binds `name` differently than the
            # scheduler's (possible under the spawn start method, where
            # dynamic re-bindings are not inherited) must not produce a
            # shard that would be cached under the scheduler's signature.
            raise SimulationError(
                f"predictor {name!r} is configured differently in this worker: "
                f"expected signature {expected_signature!r}, got {local_signature!r}"
            )
    return name


def _payload_records(payload: dict):
    """Materialise the payload's trace (inline, v3 bytes or text fallback)."""
    trace = payload.get("trace")
    if trace is None:
        trace_bytes = payload.get("trace_bytes")
        if trace_bytes is not None:
            trace = loads_trace_binary(trace_bytes)
        else:
            trace = loads_trace(payload["trace_text"])
    return trace


def execute_replay_task(payload: dict) -> dict:
    """Snapshot predictor states at window boundaries of one trace prefix.

    ``boundaries`` is an ascending list of window start offsets (> 0); the
    shipped trace covers at least ``[0, boundaries[-1])``.  One pass of
    update-only replay (:func:`repro.simulation.state.replay_records`)
    advances a fresh predictor across the prefix, snapshotting at each
    boundary, so *n* windows cost one replay — not *n* re-replays.  The
    ``SIMULATION_COUNTER`` is never touched: a replay derives handoff
    state, it does not simulate.
    """
    from repro.simulation.state import replay_records, snapshot_predictor

    started = time.perf_counter()
    name = _check_signature(payload)
    trace = _payload_records(payload)
    records = trace.records
    predictor = create_predictor(name)
    states: dict[str, dict] = {}
    position = 0
    for start in payload["boundaries"]:
        replay_records(predictor, records[position:start])
        position = start
        # JSON-safe keys: the remote wire would stringify them anyway, so
        # every transport hands the parent the same mapping shape.
        states[str(start)] = snapshot_predictor(predictor)
    return {
        "states": states,
        TELEMETRY_KEY: _telemetry_sidecar("replay", started),
    }


def execute_simulate_window_task(payload: dict) -> dict:
    """Simulate one predictor over one trace window from a handed-off state.

    The shipped trace is the ``[start, stop)`` slice itself; ``state`` is
    the predecessor boundary's snapshot (``None`` exactly when ``start``
    is 0).  Under the ``"vector"`` kernel the columnar plan starts from
    the restored snapshot (:func:`simulate_shard_vector` with ``state``),
    so ``--kernel vector --shard-window auto`` compose; the scalar observe
    loop below remains the reference and the fallback.  The counter
    increments once per pair — on the first window — matching the
    unsharded run's accounting.
    """
    from repro.simulation.simulator import (
        SIMULATION_COUNTER,
        PredictorResult,
        PredictorShard,
        pack_outcomes,
    )
    from repro.simulation.state import restore_predictor

    started = time.perf_counter()
    kernel = resolve_kernel(payload.get("kernel"))
    name = _check_signature(payload)
    start, stop = payload["window"]
    shard = None
    trace = payload.get("trace")
    if kernel == "vector":
        from repro.simulation.vectorized import simulate_shard_vector
        from repro.trace.io import decode_trace_columns, trace_columns

        columns = None
        trace_bytes = payload.get("trace_bytes") if trace is None else None
        if trace is None and trace_bytes is not None:
            columns = decode_trace_columns(trace_bytes)
        if columns is None:
            trace = _payload_records(payload)
            columns = trace_columns(trace)
        if columns is not None:
            shard = simulate_shard_vector(
                columns,
                name,
                state=payload.get("state"),
                count_simulation=start == 0,
            )
    fallback = kernel == "vector" and shard is None
    if shard is not None:
        return {
            "shard": shard_to_dict(shard),
            TELEMETRY_KEY: _telemetry_sidecar(
                "simulate-window", started, kernel=kernel, fallback=False, predictor=name
            ),
        }
    if trace is None:
        trace = _payload_records(payload)
    predictor = create_predictor(name)
    state = payload.get("state")
    if state is not None:
        restore_predictor(predictor, state)
    if start == 0:
        SIMULATION_COUNTER.increment()
    result = PredictorResult(predictor=name)
    outcomes: list[bool] = []
    for record in trace.records:
        category = record.category
        correct = predictor.observe(record.pc, record.value, category)
        outcomes.append(correct)
        result.total += 1
        result.category_total[category] = result.category_total.get(category, 0) + 1
        if correct:
            result.correct += 1
            result.category_correct[category] = result.category_correct.get(category, 0) + 1
            result.pc_correct[record.pc] = result.pc_correct.get(record.pc, 0) + 1
    shard = PredictorShard(
        result=result, correctness=pack_outcomes(outcomes), record_count=len(trace)
    )
    return {
        "shard": shard_to_dict(shard),
        TELEMETRY_KEY: _telemetry_sidecar(
            "simulate-window",
            started,
            kernel="scalar" if fallback else kernel,
            fallback=fallback,
            predictor=name,
        ),
    }


#: Worker functions addressable *by name* over the remote worker protocol
#: (:mod:`repro.engine.remote`).  A remote dispatch ships the registry key
#: instead of a pickled callable, so engine and worker only have to agree
#: on this mapping — which the handshake's ``TASK_FORMAT_VERSION`` pin
#: already guarantees.
WORKER_FUNCTIONS = {
    "trace": execute_trace_task,
    "simulate": execute_simulate_task,
    "replay": execute_replay_task,
    "simulate-window": execute_simulate_window_task,
}


def worker_function_name(function) -> str:
    """The registry name a worker function travels under on the wire."""
    for name, registered in WORKER_FUNCTIONS.items():
        if registered is function:
            return name
    raise ValueError(
        f"{function!r} is not a registered worker function; remote dispatch "
        f"only executes the named entries of WORKER_FUNCTIONS "
        f"({', '.join(sorted(WORKER_FUNCTIONS))})"
    )
