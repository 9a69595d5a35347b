"""Work-unit definitions for the campaign and sweep task graphs.

A campaign decomposes into :class:`TraceTask` units (one per benchmark) and
:class:`SimulateTask` units (one per (benchmark, predictor) pair); the
merge of simulate shards back into joint results is cheap and always runs
in the parent.  A parameter sweep (:mod:`repro.engine.sweeps`) reuses the
same two task kinds, with trace tasks spanning the sweep's *benchmark*,
*input* and *flags* axes.  Each task knows its cache key — the full set of
inputs its output depends on — and how to render itself into a picklable
payload for the worker protocol (:mod:`repro.engine.worker`); the shared
phase executor (:mod:`repro.engine.phases`) schedules both kinds over the
engine's executor backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.io import dumps_trace_binary
from repro.trace.stream import ValueTrace

#: Bump when the meaning of a task's output changes incompatibly, so stale
#: cache entries from older code are bypassed instead of misread.
#: Version 2: trace keys carry the resolved input/flags setting, so the
#: campaign's default-configuration traces and a sweep's explicit traces
#: address the same entries.
#: Version 3: worker outcomes may carry the reserved ``__telemetry__``
#: sidecar (worker-side execute time; see :mod:`repro.engine.telemetry`).
#: The phase executor strips it before caching, but an *older* engine
#: driving a newer worker would cache sidecar-bearing entries — so the
#: remote handshake must refuse the skew, which this bump enforces.
#: Version 4: intra-trace sharding adds the ``replay`` and ``simulate-window``
#: worker functions (:mod:`repro.engine.sharding`) plus the
#: ``simulate-window`` cache kind; remote workers must know both names, so
#: the handshake pin rides on this bump.
#: Version 5: the trace digest in simulate and merge keys is the SHA-256 of
#: the trace's uncompressed v3 bytes instead of its canonical text, so
#: every key written under version 4 must read as a miss.
TASK_FORMAT_VERSION = 5


def _canonical_scale(scale: float) -> str:
    """Render a scale factor stably for use inside cache keys."""
    return repr(round(float(scale), 9))


def wire_trace_bytes(trace: ValueTrace) -> bytes:
    """``trace``'s v3 bytes for a :meth:`SimulateTask.payload` sent off-process.

    Compressed framing: unlike the cache envelope (whose outer zlib pass
    covers the whole body) nothing else compresses the pool wire.
    """
    return dumps_trace_binary(trace, compress=True)


@dataclass(frozen=True)
class TraceTask:
    """Trace one benchmark at one scale, input set and flags setting.

    ``input_name``/``flags`` are stored *resolved* (never ``None``), so two
    tasks describing the same work — e.g. a campaign's implicit default and
    a sweep naming the default explicitly — produce identical cache keys.
    Build instances through :meth:`for_workload`, which resolves defaults
    against the workload's declared sets and maps a flag setting that
    builds the same program as the default (gcc's ``-O2``) to the default,
    so both are traced once.
    """

    benchmark: str
    scale: float
    input_name: str
    flags: str

    @classmethod
    def for_workload(
        cls,
        benchmark: str,
        scale: float,
        input_name: str | None = None,
        flags: str | None = None,
    ) -> "TraceTask":
        """Build a task with input/flags resolved (and validated) by the workload."""
        from repro.workloads.suite import get_workload

        workload = get_workload(benchmark)
        return cls(
            benchmark=benchmark,
            scale=scale,
            input_name=workload.validate_input(input_name),
            flags=workload.canonical_flags(flags),
        )

    def cache_key(self) -> dict:
        return {
            "kind": "trace",
            "format": TASK_FORMAT_VERSION,
            "workload": self.benchmark,
            "scale": _canonical_scale(self.scale),
            "input": self.input_name,
            "flags": self.flags,
        }

    def payload(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scale": self.scale,
            "input": self.input_name,
            "flags": self.flags,
        }


@dataclass(frozen=True)
class SimulateTask:
    """Simulate one predictor (by configuration) over one trace."""

    benchmark: str
    predictor: str
    trace_digest: str
    predictor_signature: str

    def cache_key(self) -> dict:
        return {
            "kind": "simulate",
            "format": TASK_FORMAT_VERSION,
            "trace": self.trace_digest,
            "predictor": self.predictor,
            "signature": self.predictor_signature,
        }

    def payload(self, trace: ValueTrace | bytes, kernel: str | None = None) -> dict:
        """Build the worker payload.

        A :class:`ValueTrace` travels inline (no serialisation cost; used
        when executing in-process); ``bytes`` are the trace's v3 binary
        form — the same compact framing the cache stores — which keeps
        the payload picklable and roughly an order of magnitude smaller on
        the pool wire than the canonical text form.  Schedulers pass the
        bytes the trace phase already holds, fresh off the worker or from
        the cache, and encode a trace that arrived without them (a text
        cache entry) once with :func:`wire_trace_bytes`, so no task
        encodes a trace.  The expected predictor signature rides along so
        a worker whose registry disagrees (e.g. a ``spawn``-start process
        that re-imported a registry without a dynamic re-binding) fails
        loudly instead of simulating the wrong configuration.

        ``kernel`` is the engine's (unresolved) simulation-kernel setting;
        it travels in the payload — never in the cache key, because both
        kernels produce byte-identical results — and each worker resolves
        it against its own environment, so an ``"auto"`` fleet mixing
        numpy-less hosts still computes identical shards everywhere.
        """
        payload: dict = {
            "predictor": self.predictor,
            "signature": self.predictor_signature,
        }
        if kernel is not None:
            payload["kernel"] = kernel
        if isinstance(trace, bytes):
            payload["trace_bytes"] = trace
        else:
            payload["trace"] = trace
        return payload


@dataclass(frozen=True)
class SimulateWindowTask:
    """Simulate one predictor over one ``[start, stop)`` window of a trace.

    The unit of intra-trace sharding (:mod:`repro.engine.sharding`).  The
    key deliberately carries **no** predictor-state digest: the state at
    ``start`` is a pure function of the trace content, the predictor
    configuration and ``start`` itself — all of which the key already
    pins — so runs planned with different window sizes still share entries
    for boundaries they happen to have in common.  Window entries live
    under their own ``simulate-window`` cache kind, keeping the pair-level
    ``simulate`` kind byte-identical between sharded and unsharded runs.
    """

    benchmark: str
    predictor: str
    trace_digest: str
    predictor_signature: str
    start: int
    stop: int

    def cache_key(self) -> dict:
        return {
            "kind": "simulate-window",
            "format": TASK_FORMAT_VERSION,
            "trace": self.trace_digest,
            "predictor": self.predictor,
            "signature": self.predictor_signature,
            "window": [self.start, self.stop],
        }
