"""The shared probe → dispatch → put protocol of every engine phase.

Campaign phases (:class:`~repro.engine.scheduler.ExecutionEngine`) and
sweep phases (:mod:`repro.engine.sweeps`) execute the same three-step
protocol per batch of work units:

1. **probe** — look each unit up in the persistent cache and hand the
   stored payload to the caller's *materialisation policy*; a policy that
   declines (corrupt or unusable entry) turns the hit back into a miss;
2. **dispatch** — build payloads for the remaining units (lazily, so warm
   runs never pay for them) and execute them on the engine's
   :class:`~repro.engine.backends.ExecutorBackend`, in input order;
3. **put** — decode each fresh outcome and write it back to the cache in
   the engine's configured storage format.

:func:`run_phase` is that protocol, once; :class:`PhaseSpec` carries
everything that varies between phases — cache kind, cache-key builder
(already baked into each :class:`PhaseTask`), payload builder, worker
function, materialisation policy and result decoder.  The campaign's
phases materialise cached traces eagerly (a corrupt embedded trace is
re-traced immediately); the sweep's trace phase probes cheaply and defers
decoding (lazy-with-repair, see :class:`repro.engine.sweeps._LazyTrace`).
Both are just different ``accept_cached`` callables over the same
executor, so protocol changes — a distributed backend, a new cache
envelope — land here once instead of once per code path.

Dispatch order: pending units that name a ``group`` (the simulate
phases group by trace) are dispatched group by group, heaviest group
first, and each group reaches the backend as one chunk, which the process
backends run on a single worker (:func:`dispatch_groups`).  Units without
a group keep their input order, one chunk each.

Progress accounting: ``phase_started`` reports ``total`` units (defaults
to ``len(tasks)``) of which ``presatisfied_count + cache hits`` were warm;
one ``task_finished`` event fires per presatisfied label, per cache hit
and — from inside the backend dispatch — per computed unit; cache hits
in input order, computed units in dispatch order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

from repro.engine.telemetry import TELEMETRY_KEY
from repro.errors import DispatchError


@dataclass(frozen=True)
class PhaseTask:
    """One work unit of a phase.

    ``uid`` is the caller's identity for the unit (a benchmark name, a
    ``(benchmark, predictor)`` pair, a sweep trace-config tuple, ...) and
    is what the materialisation policy and result decoder receive.
    ``build_payload`` is called only when the unit actually has to run,
    with ``inline=True`` when the backend executes in-process (the payload
    may then carry live objects and skip serialisation).  Units sharing a
    ``group`` (``None``: a group of its own) are dispatched together, and
    ``weight`` estimates a unit's cost for ordering the groups.
    """

    uid: Hashable
    label: str
    cache_key: Mapping
    build_payload: Callable[[bool], dict]
    group: Hashable = None
    weight: int = 1


@dataclass
class PhaseSpec:
    """Everything that varies between phases of the shared protocol.

    Parameters
    ----------
    name:
        Progress phase name (``"trace"`` / ``"simulate"``).
    kind:
        Cache kind the units read and write.
    counter:
        Which :class:`~repro.engine.scheduler.EngineStats` counter pair
        the phase accounts to (``"traces"`` or ``"simulations"``).
    tasks:
        The work units, in dispatch order.
    worker:
        Worker function executed per pending payload (module-level, so
        every backend can pickle it by reference).
    accept_cached:
        Materialisation policy: given ``(uid, stored payload)`` decide
        whether the entry is usable — decoding eagerly (campaign) or
        merely probing (sweep) — and record whatever the caller needs.
        Returning ``False`` (or raising) turns the hit into a miss, so a
        corrupt cache degrades to recomputation, never failure.
    accept_fresh:
        Result decoder: given ``(uid, worker outcome)`` record the result.
        Runs before the outcome is written back to the cache; exceptions
        propagate (a fresh outcome that does not decode is a bug, not a
        cache problem).
    total / presatisfied_count / presatisfied_labels:
        Progress-accounting overrides for phases where some units were
        satisfied before the phase began (the campaign's merge-level hits
        cover whole benchmarks): ``total`` defaults to ``len(tasks)``,
        the presatisfied units are reported warm with the given labels.
    """

    name: str
    kind: str
    counter: str
    tasks: Sequence[PhaseTask]
    worker: Callable[[dict], dict]
    accept_cached: Callable[[Hashable, dict], bool]
    accept_fresh: Callable[[Hashable, dict], None]
    total: int | None = None
    presatisfied_count: int = 0
    presatisfied_labels: Sequence[str] = field(default_factory=tuple)


def _group_weight(group: Sequence[PhaseTask]) -> int:
    return sum(task.weight for task in group)


def dispatch_groups(tasks: Sequence[PhaseTask], slots: int) -> list[list[PhaseTask]]:
    """Cut pending ``tasks`` into the chunks of one dispatch.

    Tasks sharing a ``group`` form one chunk, in input order, and chunks
    are ordered heaviest first (stable on ties), so a pool that hands
    each free worker the next chunk schedules them greedily
    longest-first.  While there are fewer chunks than ``slots``, the
    heaviest chunk of two or more tasks is halved, so that no worker
    idles for want of a chunk.
    """
    groups: dict = {}
    for task in tasks:
        key = ("task", id(task)) if task.group is None else ("group", task.group)
        groups.setdefault(key, []).append(task)
    ordered = sorted(groups.values(), key=_group_weight, reverse=True)
    while len(ordered) < slots:
        splittable = [index for index, group in enumerate(ordered) if len(group) > 1]
        if not splittable:
            break
        group = ordered.pop(splittable[0])
        half = (len(group) + 1) // 2
        ordered += [group[:half], group[half:]]
        ordered.sort(key=_group_weight, reverse=True)
    return ordered


def run_phase(engine, spec: PhaseSpec) -> list[PhaseTask]:
    """Execute one phase on ``engine``; returns the tasks actually computed.

    ``engine`` supplies the shared machinery: ``cache`` (may be ``None``),
    ``cache_format``, ``progress``, ``stats``, ``telemetry`` and the
    ``backend`` the dispatch runs on (via ``ExecutionEngine._run_tasks``).
    The whole phase runs under a ``phase`` telemetry span; each computed
    unit's worker-side sidecar (:data:`~repro.engine.telemetry.TELEMETRY_KEY`)
    is stripped from the outcome — before decoding and caching, so entries
    stay byte-identical whether telemetry is on or off — and re-emitted as
    a ``task`` span carrying the worker's own execute time.  Results are
    bit-identical for every backend and cache temperature: the protocol
    only decides *where* and in which order each unit executes and
    *which* units execute at all, never what they compute.  The returned
    tasks are in dispatch order (see :func:`dispatch_groups`).
    """
    cache = engine.cache
    telemetry = engine.telemetry
    phase_started_perf = time.perf_counter()
    with telemetry.span(
        "phase", phase=spec.name, backend=engine.backend.name
    ) as phase_span:
        pending: list[PhaseTask] = []
        hits: list[PhaseTask] = []
        for task in spec.tasks:
            cached = cache.get(spec.kind, task.cache_key) if cache else None
            usable = False
            if cached is not None:
                try:
                    usable = spec.accept_cached(task.uid, cached)
                except Exception:
                    usable = False
            if usable:
                engine.stats.record(spec.counter, cached=True)
                hits.append(task)
            else:
                pending.append(task)

        total = len(spec.tasks) if spec.total is None else spec.total
        phase_span.set(
            total=total,
            cached=spec.presatisfied_count + len(hits),
            computed=len(pending),
        )
        engine.progress.phase_started(
            spec.name, total, spec.presatisfied_count + len(hits)
        )
        for label in spec.presatisfied_labels:
            engine.progress.task_finished(spec.name, label, cached=True)
        for task in hits:
            engine.progress.task_finished(spec.name, task.label, cached=True)

        groups = dispatch_groups(pending, engine.backend.parallel_slots())
        pending = [task for group in groups for task in group]
        inline = engine.backend.inline_payloads(len(pending))
        try:
            outcomes = engine._run_tasks(
                spec.worker,
                spec.name,
                [task.label for task in pending],
                [task.build_payload(inline) for task in pending],
                chunks=[len(group) for group in groups],
            )
        except DispatchError as error:
            # Backend-infrastructure failures (remote workers lost, protocol
            # violations) get the phase context stamped on before they reach
            # the caller; the cache is untouched for the undispatched units,
            # so a rerun resumes exactly where this phase stopped.
            raise type(error)(
                f"{spec.name} phase failed to dispatch {len(pending)} pending "
                f"unit(s) on the {engine.backend.name!r} backend: {error}"
            ) from error
        for task, outcome in zip(pending, outcomes):
            # The observability sidecar never reaches the decoder or the
            # cache: entries stay byte-identical with telemetry on or off.
            sidecar = outcome.pop(TELEMETRY_KEY, None) if isinstance(outcome, dict) else None
            if sidecar:
                extra = {}
                if sidecar.get("kernel") is not None:
                    # Simulation tasks report which kernel actually ran;
                    # a vector request that degraded to the scalar loop is
                    # counted per predictor so `repro-vp inspect` can name
                    # the configurations behind a mystery slowdown.
                    extra["kernel"] = sidecar["kernel"]
                    extra["kernel_fallback"] = bool(sidecar.get("kernel_fallback"))
                telemetry.span_record(
                    "task",
                    sidecar.get("execute_seconds", 0.0),
                    phase=spec.name,
                    label=task.label,
                    worker_pid=sidecar.get("pid"),
                    function=sidecar.get("function"),
                    **extra,
                )
                if sidecar.get("kernel_fallback"):
                    telemetry.count("kernel.fallback")
                    predictor = sidecar.get("predictor")
                    if predictor:
                        telemetry.count(f"kernel.fallback.{predictor}")
            spec.accept_fresh(task.uid, outcome)
            engine.stats.record(spec.counter, cached=False)
            if cache:
                cache.put(spec.kind, task.cache_key, outcome, format=engine.cache_format)
    engine.stats.record_seconds(spec.counter, time.perf_counter() - phase_started_perf)
    return pending
