"""Run telemetry: structured spans, counters and per-run manifests.

Every engine run so far has been observable only through
:mod:`repro.engine.progress`'s console lines — nothing machine-readable
survives the process.  This module is the persistent counterpart: a
:class:`RunTelemetry` sink that records **spans** (named durations with a
run id, wall-clock start, monotonic duration, parent span and structured
attributes), **events** (point-in-time records) and **counters**
(aggregated totals, flushed on close) as JSON Lines, plus a
``manifest.json`` describing the run itself (argv, package and protocol
versions, backend, workers).  ``repro-vp inspect RUN_DIR`` renders the
pair back into a human summary; every layer of the engine — phases,
backends, the remote fleet, the result cache — emits into it.

Design constraints, in order:

1. **Off means free.**  The library default is :data:`NULL_TELEMETRY`,
   whose every method is a no-op returning shared singletons; hot paths
   may call it unconditionally.  Results and cache entries are
   bit-identical with telemetry on or off — telemetry only *observes*
   (worker-side timings ride back in a reserved sidecar key,
   :data:`TELEMETRY_KEY`, that the phase executor strips before results
   are decoded or cached).
2. **One run, one directory.**  Constructing a :class:`RunTelemetry`
   truncates ``metrics.jsonl`` and rewrites ``manifest.json`` in its
   directory, so a run directory always describes exactly one run.
3. **Thread-safe.**  The remote backend's driver threads and the worker
   server's connection threads emit concurrently; all sink state is
   guarded by one lock and records are written as whole lines.

JSONL record schema (one JSON object per line; also documented with
examples in ``docs/observability.md``):

``{"run": run_id, "type": "span",    "name": ..., "id": N, "parent": N|null,
   "t": wall_seconds, "dt": duration_seconds, "attrs": {...}}``
``{"run": run_id, "type": "event",   "name": ..., "t": wall_seconds,
   "attrs": {...}}``
``{"run": run_id, "type": "counter", "name": ..., "value": total}``

``t`` is a wall-clock timestamp (for humans and cross-host correlation);
``dt`` is always measured with :func:`time.perf_counter`, so clock jumps
can never skew a duration.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
from pathlib import Path
from typing import Iterator, TextIO

#: Bump when the JSONL record schema or manifest layout changes
#: incompatibly; stamped into every manifest.
TELEMETRY_VERSION = 1

#: Reserved top-level key of a worker outcome carrying observability
#: sidecar data (worker-side execute seconds, worker pid).  The phase
#: executor pops it before the outcome is decoded or cached, so cache
#: entries and results are byte-identical with telemetry on or off.
TELEMETRY_KEY = "__telemetry__"

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"


def default_run_id() -> str:
    """A fresh run identifier: wall-clock tag plus pid (``20260808-142501-12345``).

    Shared by :class:`RunTelemetry` and the reproduction artifact's
    results-directory allocation (``results/<run-id>/``), so a run's
    directory name and the ``run`` field of every record in its
    ``metrics.jsonl`` agree by construction.
    """
    return time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"


class _NullSpan:
    """Shared inert span; every operation is a no-op."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """The telemetry interface — and, as the base class, its null sink.

    Instrumented code holds some ``Telemetry`` and calls it
    unconditionally; :class:`NullTelemetry` (the library default) keeps
    every call allocation-free, :class:`RunTelemetry` persists them.
    """

    #: Whether records actually go anywhere (lets hot paths skip building
    #: expensive attributes; cheap attributes need no guard).
    enabled = False
    #: Identifier stamped on every record; ``None`` for the null sink.
    run_id: str | None = None

    def span(self, name: str, **attrs) -> "_NullSpan | Span":
        """Open a live span (context manager); duration measured on exit."""
        return _NULL_SPAN

    def span_record(self, name: str, seconds: float, **attrs) -> None:
        """Record a span whose duration was measured elsewhere.

        Used for worker-side timings: the worker measured ``seconds`` with
        its own monotonic clock and shipped the number back, so the parent
        records it as a completed span instead of re-timing anything.
        """

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event."""

    def count(self, name: str, value: int | float = 1) -> None:
        """Accumulate into a named counter (flushed as records on close)."""

    def annotate(self, **fields) -> None:
        """Merge fields into the run manifest."""

    def close(self) -> None:
        """Flush counters and finalise the manifest; idempotent."""

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTelemetry(Telemetry):
    """The always-cheap default sink: records vanish, nothing touches disk."""


#: Shared null sink instance (the default everywhere a telemetry is held).
NULL_TELEMETRY = NullTelemetry()


class Span:
    """One live span of a :class:`RunTelemetry`; use as a context manager.

    Attributes may be added mid-flight with :meth:`set` (e.g. counts known
    only after the work ran).  The record is emitted on ``__exit__``, with
    ``dt`` measured by :func:`time.perf_counter`; an exception escaping the
    block stamps an ``error`` attribute before the record is written.
    """

    __slots__ = (
        "_telemetry",
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "started_wall",
        "_started_perf",
    )

    def __init__(
        self,
        telemetry: "RunTelemetry",
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict,
    ) -> None:
        self._telemetry = telemetry
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.started_wall = time.time()
        self._started_perf = time.perf_counter()

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, exc_tb) -> None:
        if exc is not None:
            self.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
        self._telemetry._finish_span(self, time.perf_counter() - self._started_perf)
        return None


def _engine_versions() -> dict:
    """The protocol/schema versions a manifest pins (imported lazily:
    the engine modules this reads from themselves import this module)."""
    from repro.engine.codecs import CACHE_ENTRY_VERSION
    from repro.engine.remote import PROTOCOL_VERSION
    from repro.engine.tasks import TASK_FORMAT_VERSION

    return {
        "protocol_version": PROTOCOL_VERSION,
        "task_format_version": TASK_FORMAT_VERSION,
        "cache_entry_version": CACHE_ENTRY_VERSION,
    }


def _package_version() -> str:
    """The source tree's version, which ``pyproject.toml`` pins.

    Not ``importlib.metadata``: on an uninstalled checkout it scans every
    installed distribution before failing (about 27 ms).
    """
    # Imported here: ``repro/__init__`` imports the engine before it
    # defines ``__version__``.
    from repro import __version__

    return __version__


def _platform() -> str:
    """:func:`platform.platform` without its processor lookup.

    On Linux that lookup spawns ``uname -p`` (about 12 ms) for a field
    ``platform.platform()`` then drops whenever it equals the machine or
    is unknown; the string built here from system, release, machine and
    libc is the same.  Other systems keep the standard library's string.
    """
    uname = platform.uname()  # fields read by name: processor stays unset
    if uname.system != "Linux":
        return platform.platform()
    libc, libc_version = platform.libc_ver()
    fields = (uname.system, uname.release, uname.machine, "with", libc + libc_version)
    return "-".join(field.strip().replace(" ", "_") for field in fields if field)


class RunTelemetry(Telemetry):
    """Telemetry sink persisting one run into one directory.

    Parameters
    ----------
    directory:
        Run directory; created if missing.  ``metrics.jsonl`` is truncated
        and ``manifest.json`` rewritten, so the directory describes
        exactly one run.
    run_id:
        Identifier stamped on every record; defaults to a
        wall-clock-plus-pid tag (``20260808-142501-12345``).
    argv:
        Command line recorded in the manifest (defaults to ``sys.argv``).
    command:
        Logical command name (``"campaign"``, ``"sweep"``, ...), if any.
    """

    enabled = True

    def __init__(
        self,
        directory: str | Path,
        run_id: str | None = None,
        argv: list[str] | None = None,
        command: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id or default_run_id()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_span_id = 0
        self._counters: dict[str, int | float] = {}
        self._closed = False
        self._manifest: dict = {
            "telemetry_version": TELEMETRY_VERSION,
            "run_id": self.run_id,
            "created_wall": time.time(),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "command": command,
            "argv": list(sys.argv if argv is None else argv),
            "python": platform.python_version(),
            "platform": _platform(),
            "package_version": _package_version(),
            **_engine_versions(),
        }
        self._stream: TextIO = open(self.directory / METRICS_NAME, "w", encoding="utf-8")
        self._write_manifest()

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #
    def _emit(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            if self._closed:
                return
            self._stream.write(line + "\n")
            self._stream.flush()

    def _span_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_span_id(self) -> int:
        with self._lock:
            self._next_span_id += 1
            return self._next_span_id

    def span(self, name: str, **attrs) -> Span:
        stack = self._span_stack()
        span = Span(
            self,
            name,
            span_id=self._allocate_span_id(),
            parent_id=stack[-1] if stack else None,
            attrs=attrs,
        )
        stack.append(span.span_id)
        return span

    def _finish_span(self, span: Span, duration: float) -> None:
        stack = self._span_stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        self._emit(
            {
                "run": self.run_id,
                "type": "span",
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "t": span.started_wall,
                "dt": duration,
                "attrs": span.attrs,
            }
        )

    def span_record(self, name: str, seconds: float, **attrs) -> None:
        stack = self._span_stack()
        self._emit(
            {
                "run": self.run_id,
                "type": "span",
                "name": name,
                "id": self._allocate_span_id(),
                "parent": stack[-1] if stack else None,
                "t": time.time(),
                "dt": seconds,
                "attrs": attrs,
            }
        )

    def event(self, name: str, **attrs) -> None:
        self._emit(
            {
                "run": self.run_id,
                "type": "event",
                "name": name,
                "t": time.time(),
                "attrs": attrs,
            }
        )

    def count(self, name: str, value: int | float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counters(self) -> dict[str, int | float]:
        """Snapshot of the accumulated counters (mainly for tests)."""
        with self._lock:
            return dict(self._counters)

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #
    def annotate(self, **fields) -> None:
        with self._lock:
            if self._closed:
                return
            self._manifest.update(fields)
        self._write_manifest()

    def _write_manifest(self) -> None:
        path = self.directory / MANIFEST_NAME
        temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with self._lock:
            body = json.dumps(self._manifest, indent=2, sort_keys=False, default=str)
        temporary.write_text(body + "\n", encoding="utf-8")
        os.replace(temporary, path)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            for name in sorted(self._counters):
                self._stream.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "type": "counter",
                            "name": name,
                            "value": self._counters[name],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            self._stream.flush()
            self._stream.close()
            self._manifest["finished_wall"] = time.time()
            self._closed = True
        self._write_manifest()


# --------------------------------------------------------------------------- #
# Reading a recorded run back
# --------------------------------------------------------------------------- #
def read_manifest(directory: str | Path) -> dict:
    """Load a run directory's ``manifest.json``."""
    with open(Path(directory) / MANIFEST_NAME, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_metrics(directory: str | Path) -> Iterator[dict]:
    """Yield every record of a run directory's ``metrics.jsonl``.

    Skips blank and truncated trailing lines (a run killed mid-write
    still inspects cleanly) but raises on structurally bad files.
    """
    path = Path(directory) / METRICS_NAME
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # truncated final line from a killed writer
            if isinstance(record, dict):
                yield record


def _collect_metrics(directory: Path, problems: list[str]) -> list[dict]:
    """Read ``metrics.jsonl`` tolerantly, describing damage in ``problems``.

    A missing or unreadable file and malformed lines become one-line
    problem descriptions instead of exceptions, so ``summarize_run`` can
    still render whatever part of the run *was* recorded.  Raises
    :class:`FileNotFoundError` only when the file is absent — the caller
    decides whether that alone makes the directory "not a run".
    """
    records: list[dict] = []
    malformed = 0
    with open(directory / METRICS_NAME, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                malformed += 1
    if malformed:
        problems.append(
            f"{METRICS_NAME} is damaged: skipped {malformed} malformed line(s) "
            "(truncated or interleaved write?)"
        )
    return records


def summarize_run(directory: str | Path) -> dict:
    """Aggregate a run directory into the structure ``repro-vp inspect`` renders.

    Returns a plain dict (JSON-renderable) with the manifest, per-phase
    breakdown, per-task spans sorted slowest-first, cache counters with a
    derived hit ratio, per-worker utilization records, the raw counter
    totals and a ``problems`` list describing any damage tolerated along
    the way (missing or truncated files).  A directory with *neither*
    manifest nor metrics raises :class:`FileNotFoundError` — that is not a
    run directory at all; anything less makes a partial summary.
    """
    directory = Path(directory)
    problems: list[str] = []
    manifest: dict = {}
    try:
        manifest = read_manifest(directory)
    except FileNotFoundError:
        problems.append(f"missing {MANIFEST_NAME}")
    except (OSError, ValueError) as error:
        problems.append(f"unreadable {MANIFEST_NAME}: {error}")
    records: list[dict] = []
    try:
        records = _collect_metrics(directory, problems)
    except FileNotFoundError:
        if f"missing {MANIFEST_NAME}" in problems:
            raise FileNotFoundError(
                f"{directory} contains neither {MANIFEST_NAME} nor {METRICS_NAME}"
            ) from None
        problems.append(f"missing {METRICS_NAME}: no metrics were recorded")
    except OSError as error:
        problems.append(f"unreadable {METRICS_NAME}: {error}")
    phases: list[dict] = []
    tasks: list[dict] = []
    runs: list[dict] = []
    dispatches: list[dict] = []
    workers: list[dict] = []
    redispatches: list[dict] = []
    counters: dict[str, int | float] = {}
    for record in records:
        kind, name = record.get("type"), record.get("name")
        attrs = record.get("attrs") or {}
        if kind == "counter":
            counters[name] = counters.get(name, 0) + record.get("value", 0)
        elif kind == "span" and name == "phase":
            phases.append({**attrs, "seconds": record.get("dt", 0.0)})
        elif kind == "span" and name == "task":
            tasks.append({**attrs, "seconds": record.get("dt", 0.0)})
        elif kind == "span" and name == "run":
            runs.append({**attrs, "seconds": record.get("dt", 0.0)})
        elif kind == "span" and name == "dispatch":
            dispatches.append({**attrs, "seconds": record.get("dt", 0.0)})
        elif kind == "event" and name == "remote.worker":
            workers.append(attrs)
        elif kind == "event" and name == "remote.redispatch":
            redispatches.append(attrs)
    tasks.sort(key=lambda task: task.get("seconds", 0.0), reverse=True)
    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    probes = hits + misses
    kernel_tasks: dict[str, int] = {}
    for task in tasks:
        kernel = task.get("kernel")
        if kernel:
            kernel_tasks[kernel] = kernel_tasks.get(kernel, 0) + 1
    fallback_prefix = "kernel.fallback."
    kernel_fallbacks = {
        name[len(fallback_prefix) :]: value
        for name, value in sorted(counters.items())
        if name.startswith(fallback_prefix)
    }
    return {
        "manifest": manifest,
        "problems": problems,
        "runs": runs,
        "phases": phases,
        "tasks": tasks,
        "dispatches": dispatches,
        "workers": workers,
        "redispatches": redispatches,
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_ratio": (hits / probes) if probes else None,
            "hit_bytes": counters.get("cache.hit_bytes", 0),
            "writes": counters.get("cache.write", 0),
            "write_bytes": counters.get("cache.write_bytes", 0),
            "gc_removed": counters.get("cache.gc_removed", 0),
            "gc_freed_bytes": counters.get("cache.gc_freed_bytes", 0),
        },
        "kernels": {
            # How many computed simulation tasks each kernel actually ran,
            # and which predictors fell back to the scalar loop (per the
            # workers' own sidecar reports).
            "tasks": kernel_tasks,
            "fallback_total": counters.get("kernel.fallback", 0),
            "fallbacks_by_predictor": kernel_fallbacks,
        },
        "counters": counters,
    }
