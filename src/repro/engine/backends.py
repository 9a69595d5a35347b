"""Pluggable executor backends for the engine's dispatch step.

The phase executor (:mod:`repro.engine.phases`) is backend-agnostic: it
hands an :class:`ExecutorBackend` a worker function plus a list of
JSON-compatible payloads and expects the outcomes back **in input order**,
with a completion callback per unit for live progress.  Three
implementations cover the local spectrum (a fourth,
:class:`repro.engine.remote.RemoteBackend`, dispatches over TCP to
``repro-vp worker serve`` processes — see :mod:`repro.engine.remote`):

* :class:`SerialBackend` — everything in-process, no pickling.  Payloads
  may carry live objects (``inline_payloads`` is always true), tracebacks
  stay readable, and there is zero process overhead: the right choice for
  debugging and small runs, and the reference semantics the other
  backends must reproduce bit-identically.
* :class:`PoolBackend` — a fresh ``multiprocessing`` pool per dispatch,
  the engine's historical ``jobs > 1`` behaviour.  Each phase pays the
  pool's interpreter + import startup once, which amortises well over
  large phases.
* :class:`PersistentWorkerBackend` — worker subprocesses spawned once,
  on first use, and kept warm across phases *and* across engine runs for
  the lifetime of the backend object.  Repeated small dispatches (a
  campaign's trace phase followed by its simulate phase, a CLI process
  running several sweeps) skip the per-dispatch fork/import cost the
  pool backend pays every time.

A dispatch may come cut into *chunks*: consecutive runs of payloads that
the process backends send to one worker as one pool unit, through the
module-level :func:`run_chunk`.  The simulate phase cuts one chunk per
trace (:mod:`repro.engine.phases`), so a trace's bytes are pickled once
per chunk and the worker's per-trace decode and kernel state serve every
predictor of it.  Chunks change only which process runs a payload; the
serial backend runs the same order in-process.

Because a backend only changes *where* a work unit executes — payloads and
outcomes are the same JSON dicts everywhere — results are bit-identical
across backends for every cache temperature; ``tests/engine/test_backends.py``
and ``tests/engine/test_remote_backend.py`` pin that parity.  The remote
backend slots in without touching the task, phase or cache layers —
exactly the seam this module exists to provide.

Worker processes are forked from the parent, so they inherit the predictor
registry as of backend start-up.  A registry re-binding made *after* a
persistent backend spawned its workers is caught by the worker-side
configuration-signature check (:mod:`repro.engine.worker`), which fails
loudly rather than simulating a stale configuration.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
import weakref
from typing import Callable, Sequence

from repro.engine.telemetry import NULL_TELEMETRY

#: Names accepted by :func:`resolve_backend` and the CLI's ``--backend``.
BACKEND_NAMES = ("serial", "pool", "persistent", "remote")


class ExecutorBackend:
    """Executes one dispatch of independent work units, in input order.

    Subclasses implement :meth:`map`; :meth:`inline_payloads` tells the
    scheduler whether payloads for an upcoming dispatch may carry live
    (unpicklable) objects, and :meth:`close` releases any held resources.
    Backends are context managers (``close`` on exit).

    ``telemetry`` is stamped by the engine before each dispatch (a shared
    backend instance may serve several engines with different sinks);
    backends emit a ``dispatch`` span per :meth:`map` call and never
    change outcomes based on it.
    """

    #: Human-readable backend identifier (the CLI flag value).
    name = "abstract"

    #: Telemetry sink for dispatch spans; engines overwrite this before
    #: every dispatch, and the null default makes standalone use cheap.
    telemetry = NULL_TELEMETRY

    def inline_payloads(self, task_count: int) -> bool:
        """Whether a dispatch of ``task_count`` units runs in-process.

        When true, payloads may embed live objects (e.g. a ``ValueTrace``)
        and skip serialisation entirely; when false they must be picklable
        and traces should travel as compressed v3 bytes.
        """
        raise NotImplementedError

    def parallel_slots(self) -> int:
        """How many units this backend can usefully run concurrently.

        Used by intra-trace sharding's ``--shard-window auto`` to size
        windows (:mod:`repro.engine.sharding`); purely advisory — it never
        affects results, only how work is cut.  In-process backends report
        1 (sharding a serial run only adds overhead).
        """
        return 1

    def map(
        self,
        function: Callable[[dict], dict],
        payloads: Sequence[dict],
        on_result: Callable[[int], None] | None = None,
        chunks: Sequence[int] | None = None,
    ) -> list[dict]:
        """Run ``function`` over ``payloads``; return outcomes in order.

        ``on_result`` is invoked with the payload index as each outcome
        arrives (always in input order), for live progress reporting.
        ``chunks`` are the sizes of consecutive payload runs that should
        each execute on one worker (``None``: every payload is its own
        unit); they never change outcomes.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release held resources (worker processes); idempotent."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _map_serial(
    function: Callable[[dict], dict],
    payloads: Sequence[dict],
    on_result: Callable[[int], None] | None,
) -> list[dict]:
    results: list[dict] = []
    for index, payload in enumerate(payloads):
        results.append(function(payload))
        if on_result is not None:
            on_result(index)
    return results


def run_chunk(function: Callable[[dict], dict], payloads: Sequence[dict]) -> list[dict]:
    """One pool unit: ``function`` over ``payloads``, in order, in one process.

    A worker function may carry a ``chunk_step`` attribute: it is called
    after each payload with the payloads still to run, so per-process
    state kept across a chunk can drop what none of them reads.
    """
    step = getattr(function, "chunk_step", None)
    outcomes = []
    for index, payload in enumerate(payloads):
        outcomes.append(function(payload))
        if step is not None:
            step(payloads[index + 1 :])
    return outcomes


def _chunked(payloads: Sequence[dict], chunks: Sequence[int] | None) -> list[Sequence[dict]]:
    """Cut ``payloads`` into the consecutive runs ``chunks`` sizes."""
    if chunks is None:
        return [payloads[index : index + 1] for index in range(len(payloads))]
    if sum(chunks) != len(payloads):
        raise ValueError(f"chunks {list(chunks)} do not cover {len(payloads)} payloads")
    runs = []
    start = 0
    for size in chunks:
        runs.append(payloads[start : start + size])
        start += size
    return runs


def _map_pool(
    pool,
    function: Callable[[dict], dict],
    runs: Sequence[Sequence[dict]],
    on_result: Callable[[int], None] | None,
) -> list[dict]:
    # Each run is one task on the pool's queue, taken by whichever worker
    # is free next: runs ordered largest first are scheduled greedily
    # longest-first.
    results: list[dict] = []
    for outcomes in pool.imap(functools.partial(run_chunk, function), runs):
        for outcome in outcomes:
            results.append(outcome)
            if on_result is not None:
                on_result(len(results) - 1)
    return results


class SerialBackend(ExecutorBackend):
    """In-process execution: no pickling, no subprocesses, no startup cost."""

    name = "serial"

    def inline_payloads(self, task_count: int) -> bool:
        return True

    def map(self, function, payloads, on_result=None, chunks=None):
        with self.telemetry.span("dispatch", backend=self.name, units=len(payloads)):
            return _map_serial(function, payloads, on_result)


class PoolBackend(ExecutorBackend):
    """A fresh ``multiprocessing`` pool per dispatch (historical ``jobs > 1``).

    A dispatch of at most one unit runs in-process instead — spinning up a
    pool for a single task costs more than it saves — which is why
    :meth:`inline_payloads` is true exactly for ``task_count <= 1``.
    """

    name = "pool"

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))

    def inline_payloads(self, task_count: int) -> bool:
        return self.jobs == 1 or task_count <= 1

    def parallel_slots(self) -> int:
        return self.jobs

    def map(self, function, payloads, on_result=None, chunks=None):
        if self.inline_payloads(len(payloads)):
            with self.telemetry.span(
                "dispatch", backend=self.name, units=len(payloads), inline=True
            ):
                return _map_serial(function, payloads, on_result)
        runs = _chunked(payloads, chunks)
        workers = min(self.jobs, len(runs))
        with self.telemetry.span(
            "dispatch", backend=self.name, units=len(payloads), workers=workers
        ) as span:
            pool_started = time.perf_counter()
            with multiprocessing.get_context().Pool(processes=workers) as pool:
                # Startup is the pool backend's recurring cost (fork +
                # interpreter import per dispatch) — the number the
                # persistent backend exists to amortise away.
                span.set(startup_seconds=time.perf_counter() - pool_started)
                return _map_pool(pool, function, runs, on_result)


def _shutdown_pool(pool) -> None:
    """Terminate a worker pool promptly (finalizer-safe)."""
    try:
        pool.terminate()
        pool.join()
    except Exception:
        pass


class PersistentWorkerBackend(ExecutorBackend):
    """Warm worker subprocesses reused across dispatches, phases and runs.

    The pool is spawned lazily on the first dispatch and kept alive until
    :meth:`close` (or garbage collection / interpreter exit via a
    ``weakref`` finalizer — workers are daemonic either way, so they can
    never outlive the parent).  Every dispatch goes to the warm workers,
    including single-unit ones, so ``inline_payloads`` is always false and
    payloads must stay picklable.
    """

    name = "persistent"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self._pool = None
        self._finalizer = None

    def inline_payloads(self, task_count: int) -> bool:
        return False

    def parallel_slots(self) -> int:
        return self.jobs

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = multiprocessing.get_context().Pool(processes=self.jobs)
            self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        return self._pool

    def map(self, function, payloads, on_result=None, chunks=None):
        if not payloads:
            return []
        runs = _chunked(payloads, chunks)
        warm = self._pool is not None
        with self.telemetry.span(
            "dispatch",
            backend=self.name,
            units=len(payloads),
            workers=self.jobs,
            warm=warm,
        ):
            return _map_pool(self._ensure_pool(), function, runs, on_result)

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._pool = None


def resolve_backend(
    backend: "str | ExecutorBackend | None",
    jobs: int,
    workers: "Sequence[str] | None" = None,
) -> ExecutorBackend:
    """Map an engine's ``backend`` argument to a backend instance.

    ``None`` preserves the engine's historical behaviour: in-process for
    ``jobs == 1``, a per-dispatch pool otherwise.  A string selects by
    name (``"serial"``, ``"pool"``, ``"persistent"``, ``"remote"``),
    sized by ``jobs``; an :class:`ExecutorBackend` instance is used as-is
    (the caller owns its lifetime — one persistent backend can serve many
    engines).  The remote backend additionally needs ``workers``, the
    ``host:port`` addresses of running ``repro-vp worker serve``
    processes; ``jobs`` becomes its per-worker in-flight limit.
    """
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None:
        backend = "serial" if jobs <= 1 else "pool"
    if backend == "serial":
        return SerialBackend()
    if backend == "pool":
        return PoolBackend(jobs)
    if backend == "persistent":
        return PersistentWorkerBackend(jobs)
    if backend == "remote":
        if not workers:
            raise ValueError(
                "the remote backend needs worker addresses "
                "(--workers host:port[,host:port...])"
            )
        # Imported lazily: the remote module builds on this one.
        from repro.engine.remote import RemoteBackend

        return RemoteBackend(workers, in_flight=jobs)
    raise ValueError(
        f"unknown executor backend {backend!r} (expected one of {', '.join(BACKEND_NAMES)})"
    )
