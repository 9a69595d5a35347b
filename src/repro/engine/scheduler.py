"""Task-graph scheduler: decompose, dispatch, cache, merge.

A campaign run proceeds in three phases:

1. **trace** — every benchmark not already in the cache is traced (on the
   configured executor backend) and stored in the configured cache format
   (compressed binary by default, canonical text on request);
2. **simulate** — every (trace, predictor) pair not in the cache is
   simulated into a :class:`PredictorShard`;
3. **merge** — shards are recombined per benchmark into the joint
   :class:`SimulationResult`, bit-identical to the lockstep loop.

Phases 1 and 2 are embarrassingly parallel and run through the shared
phase executor (:mod:`repro.engine.phases` — the probe → dispatch → put
protocol, used by campaigns and sweeps alike) on a pluggable
:class:`~repro.engine.backends.ExecutorBackend`; the merge is a cheap
single pass in the parent.  All cross-process data uses the JSON codecs,
so every backend and the cache path share one representation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.engine.backends import ExecutorBackend, resolve_backend
from repro.engine.cache import ResultCache
from repro.engine.codecs import (
    payload_trace,
    payload_trace_digest,
    shard_from_dict,
    simulation_from_dict,
    simulation_to_dict,
    statistics_from_dict,
)
from repro.engine.fingerprint import predictor_signature
from repro.engine.phases import PhaseSpec, PhaseTask, run_phase
from repro.engine.progress import NullProgress, ProgressListener
from repro.engine.sharding import (
    WindowedUnit,
    normalize_shard_window,
    plan_shard_windows,
    run_windowed_simulations,
)
from repro.engine.tasks import (
    TASK_FORMAT_VERSION,
    SimulateTask,
    TraceTask,
    wire_trace_bytes,
)
from repro.engine.telemetry import NULL_TELEMETRY, Telemetry
from repro.engine.worker import execute_simulate_task, execute_trace_task
from repro.simulation.simulator import PredictorShard, merge_shards


@dataclass
class EngineStats:
    """What one engine run actually did (vs. served from cache).

    ``trace_seconds``/``simulate_seconds`` are the wall durations of the
    two phases (cache probes included), measured with
    :func:`time.perf_counter` so clock jumps cannot skew them;
    ``cache_hit_bytes``/``cache_write_bytes`` are the run's byte traffic
    against the persistent result cache (0 without one).
    """

    benchmarks: int = 0
    predictors: int = 0
    traces_computed: int = 0
    traces_cached: int = 0
    simulations_computed: int = 0
    simulations_cached: int = 0
    #: Intra-trace sharding accounting (:mod:`repro.engine.sharding`):
    #: window units computed/served warm.  A sharded pair still records one
    #: ``simulations`` unit when its stitched result lands, so the
    #: simulation counters stay comparable across sharded and unsharded
    #: runs; the window counters are additional detail, not a replacement.
    windows_computed: int = 0
    windows_cached: int = 0
    total_seconds: float = 0.0
    trace_seconds: float = 0.0
    simulate_seconds: float = 0.0
    cache_hit_bytes: int = 0
    cache_write_bytes: int = 0

    #: Phase-counter name -> the field its phase duration accumulates into.
    #: Window (and replay) time is simulate-phase time under a finer knife.
    _SECONDS_FIELDS = {
        "traces": "trace_seconds",
        "simulations": "simulate_seconds",
        "windows": "simulate_seconds",
    }

    @property
    def tasks_computed(self) -> int:
        return self.traces_computed + self.simulations_computed

    @property
    def tasks_cached(self) -> int:
        return self.traces_cached + self.simulations_cached

    def record(self, counter: str, cached: bool, count: int = 1) -> None:
        """Bump one of the ``{traces,simulations}_{cached,computed}`` counters.

        The phase executor accounts through this hook, so phases stay
        generic over which work kind they schedule.
        """
        name = f"{counter}_{'cached' if cached else 'computed'}"
        setattr(self, name, getattr(self, name) + count)

    def record_seconds(self, counter: str, seconds: float) -> None:
        """Accumulate one phase's wall duration (perf-counter measured).

        Counters without a seconds field (toy phases in tests) are
        ignored, mirroring how :meth:`record` stays generic.
        """
        name = self._SECONDS_FIELDS.get(counter)
        if name is not None:
            setattr(self, name, getattr(self, name) + seconds)


class ExecutionEngine:
    """Schedules campaign work units over workers and the result cache.

    Parameters
    ----------
    jobs:
        Worker process count for the process-based backends; with the
        default backend selection, ``1`` executes everything in-process
        (no pickling, no pool) and is the reference serial path.
    cache_dir:
        Root of the persistent :class:`ResultCache`; ``None`` disables
        on-disk caching.
    use_cache:
        ``False`` ignores ``cache_dir`` entirely (force recompute).
    progress:
        Optional :class:`ProgressListener` receiving live events.
    cache_format:
        Storage format for new cache entries: ``"binary"`` (default)
        writes the compressed ``.rvpc`` envelope, ``"text"`` the v1 plain
        JSON files.  Reads always accept both, and both decode to the
        same canonical payloads, so results — and the trace digests that
        key them — are bit-identical whichever format a cache holds.
    cache_max_bytes / cache_max_age:
        Garbage-collection bounds for the persistent cache.  When either
        is set, a bounded :meth:`ResultCache.gc` pass runs automatically
        after every :meth:`run`/:meth:`run_sweep`; entries produced or
        touched by the finishing run are never evicted by that pass (see
        ``protect_since``), so a budget smaller than one run's output
        degrades to best-effort instead of destroying fresh results.
    backend:
        Executor backend the phases dispatch on: a name (``"serial"``,
        ``"pool"``, ``"persistent"``, ``"remote"``), an
        :class:`ExecutorBackend` instance (shared across engines; the
        caller owns its lifetime), or ``None`` for the historical
        default — serial when ``jobs == 1``, a per-dispatch pool
        otherwise.  Results are bit-identical across backends; see
        :mod:`repro.engine.backends`.
    workers:
        ``host:port`` addresses of running ``repro-vp worker serve``
        processes, required by (and only meaningful for) the ``remote``
        backend, whose per-worker in-flight limit is ``jobs``.  See
        :mod:`repro.engine.remote`.
    telemetry:
        Optional :class:`~repro.engine.telemetry.Telemetry` sink receiving
        structured spans, events and counters from every layer (phases,
        backend dispatches, the cache); defaults to the always-cheap
        :data:`~repro.engine.telemetry.NULL_TELEMETRY`.  Results and cache
        entries are bit-identical with telemetry on or off.
    kernel:
        Simulation kernel selection forwarded to every simulate task and
        to the merge pass: ``"scalar"``, ``"vector"``, ``"auto"`` (vector
        when numpy is importable) or ``None`` to defer to the
        ``REPRO_KERNEL`` environment variable.  Kernels are bit-identical,
        so the setting is not part of any cache key; see
        :mod:`repro.simulation.vectorized`.
    shard_window:
        Intra-trace sharding setting (:mod:`repro.engine.sharding`):
        ``None`` (default) runs each (benchmark, predictor) pair as one
        unit; a positive integer splits every trace into windows of that
        many records; ``"auto"`` sizes windows from the trace length and
        the backend's parallel slots.  Results and pair-level cache
        entries are bit-identical with sharding on or off — the setting
        only changes how the work is cut, which is why it is not part of
        any cache key.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
        progress: ProgressListener | None = None,
        cache_format: str = "binary",
        cache_max_bytes: int | None = None,
        cache_max_age: float | None = None,
        backend: str | ExecutorBackend | None = None,
        workers: Sequence[str] | None = None,
        telemetry: Telemetry | None = None,
        kernel: str | None = None,
        shard_window: int | str | None = None,
    ) -> None:
        from repro.simulation.vectorized import resolve_kernel

        # Validate eagerly so a bad name (or a forced "vector" without
        # numpy) fails at construction, not mid-run.  The *raw* setting is
        # what travels in task payloads: each worker resolves it against
        # its own environment (see SimulateTask.payload), and it never
        # enters a cache key because both kernels are bit-identical.
        resolve_kernel(kernel)
        self.kernel = kernel
        self.shard_window = normalize_shard_window(shard_window)
        self.jobs = max(1, int(jobs))
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.cache = (
            ResultCache(cache_dir, max_bytes=cache_max_bytes, max_age=cache_max_age)
            if (use_cache and cache_dir is not None)
            else None
        )
        if self.cache is not None:
            self.cache.telemetry = self.telemetry
        self.progress = progress if progress is not None else NullProgress()
        self.cache_format = "json" if cache_format == "text" else cache_format
        if self.cache_format not in ("json", "binary"):
            raise ValueError(f"unknown cache format {cache_format!r}")
        self._owns_backend = not isinstance(backend, ExecutorBackend)
        self.backend = resolve_backend(backend, self.jobs, workers=workers)
        self.stats = EngineStats()
        #: Report of the most recent post-run auto-GC pass (``None`` when
        #: no bounds are configured or no run has finished yet).
        self.last_gc = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the backend's resources if this engine created it.

        A backend *instance* passed to the constructor is left running —
        that is the point of sharing a persistent backend across engines.
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        scale: float,
        predictors: Sequence[str],
        benchmarks: Sequence[str],
    ):
        """Run one full campaign; returns a ``CampaignResult``.

        Results are bit-identical for every ``jobs`` value and every
        backend: parallelism only changes *where* each work unit executes,
        and the merge phase reassembles the exact lockstep accounting.
        """
        # Imported lazily: campaign.py is the public façade over this
        # engine and importing it at module level would be circular.
        from repro.simulation.campaign import CampaignResult

        # Wall time anchors the run for humans and for cache-GC mtime
        # comparisons; every *duration* comes from the paired monotonic
        # clock, so a clock jump mid-run cannot skew them.
        started = time.perf_counter()
        run_started_wall = time.time()
        predictors = tuple(predictors)
        benchmarks = tuple(benchmarks)
        stats = EngineStats(benchmarks=len(benchmarks), predictors=len(predictors))
        self.stats = stats

        self._annotate_run()
        cache_base = self._cache_bytes()
        with self.telemetry.span(
            "run",
            kind="campaign",
            scale=scale,
            benchmarks=len(benchmarks),
            predictors=len(predictors),
        ) as run_span:
            traces, trace_bytes, digests, statistics = self._trace_phase(
                scale, benchmarks
            )
            simulations = self._simulate_phase(
                predictors, benchmarks, traces, trace_bytes, digests, stats
            )
            stats.total_seconds = time.perf_counter() - started
            self._finish_run_stats(stats, cache_base, run_span)
        self.progress.campaign_finished(stats)
        self._auto_gc(run_started_wall)
        return CampaignResult(
            scale=scale,
            predictor_names=predictors,
            traces=traces,
            statistics=statistics,
            simulations=simulations,
        )

    def run_sweep(self, spec):
        """Run one parameter sweep; returns a ``SweepResult``.

        The sweep layer (:mod:`repro.engine.sweeps`) expands the spec into
        the same trace/simulate task graph campaigns use, deduplicating
        trace work shared between sweep points, so sweeps and campaigns
        share cache entries.  Imported lazily: sweeps builds on this class.
        """
        from repro.engine.sweeps import execute_sweep

        run_started_wall = time.time()
        self._annotate_run()
        cache_base = self._cache_bytes()
        with self.telemetry.span(
            "run",
            kind="sweep",
            benchmarks=len(spec.benchmark_axis()),
            predictors=len(spec.predictors),
        ) as run_span:
            result = execute_sweep(self, spec)
            self._finish_run_stats(self.stats, cache_base, run_span)
        self._auto_gc(run_started_wall)
        return result

    # ------------------------------------------------------------------ #
    # Run-level telemetry plumbing
    # ------------------------------------------------------------------ #
    def _annotate_run(self) -> None:
        """Stamp the engine configuration onto the run manifest."""
        self.telemetry.annotate(
            backend=self.backend.name,
            jobs=self.jobs,
            cache_dir=str(self.cache.root) if self.cache else None,
            cache_format=self.cache_format if self.cache else None,
        )

    def _cache_bytes(self) -> tuple[int, int]:
        """Snapshot of the cache's cumulative (hit, write) byte counters."""
        if self.cache is None:
            return (0, 0)
        return (self.cache.hit_bytes, self.cache.write_bytes)

    def _finish_run_stats(self, stats: EngineStats, cache_base, run_span) -> None:
        """Fold this run's cache byte deltas into ``stats`` and the span.

        The cache counters are cumulative per :class:`ResultCache`
        instance, so the run's own traffic is the delta against the
        snapshot taken when the run began.
        """
        hit_base, write_base = cache_base
        hit_bytes, write_bytes = self._cache_bytes()
        stats.cache_hit_bytes = hit_bytes - hit_base
        stats.cache_write_bytes = write_bytes - write_base
        run_span.set(
            tasks_computed=stats.tasks_computed,
            tasks_cached=stats.tasks_cached,
            cache_hit_bytes=stats.cache_hit_bytes,
            cache_write_bytes=stats.cache_write_bytes,
        )

    # ------------------------------------------------------------------ #
    # Phases — thin configurations of the shared phase executor
    # ------------------------------------------------------------------ #
    def _trace_phase(
        self, scale: float, benchmarks: tuple[str, ...]
    ) -> tuple[dict, dict[str, bytes | None], dict[str, str], dict]:
        tasks = {
            name: TraceTask.for_workload(name, scale=scale) for name in benchmarks
        }
        traces: dict = {}
        # The v3 bytes each trace arrived as, fresh or cached; the simulate
        # phase ships them as they are.  None for a text payload, whose
        # trace the simulate phase encodes on first off-process use.
        trace_bytes: dict[str, bytes | None] = {}
        digests: dict[str, str] = {}
        statistics: dict = {}

        def materialise(name: str, payload: dict) -> None:
            traces[name] = payload_trace(payload)
            trace_bytes[name] = payload.get("trace_binary")
            digests[name] = payload_trace_digest(payload)
            statistics[name] = statistics_from_dict(payload["statistics"])

        def accept_cached(name: str, payload: dict) -> bool:
            # Eager materialisation policy: binary cache hits materialise
            # straight from the v3 bytes and use the stored digest, so the
            # trace is never re-encoded on the warm path.  A payload whose
            # embedded trace is corrupt is treated as a miss: the
            # benchmark is re-traced instead of crashing the run.
            try:
                materialise(name, payload)
            except Exception:
                traces.pop(name, None)
                trace_bytes.pop(name, None)
                digests.pop(name, None)
                return False
            return True

        run_phase(
            self,
            PhaseSpec(
                name="trace",
                kind="trace",
                counter="traces",
                tasks=[
                    PhaseTask(
                        uid=name,
                        label=name,
                        cache_key=tasks[name].cache_key(),
                        build_payload=lambda inline, task=tasks[name]: task.payload(),
                    )
                    for name in benchmarks
                ],
                worker=execute_trace_task,
                accept_cached=accept_cached,
                accept_fresh=materialise,
            ),
        )
        return traces, trace_bytes, digests, statistics

    def _simulate_phase(
        self,
        predictors: tuple[str, ...],
        benchmarks: tuple[str, ...],
        traces: dict,
        trace_bytes: dict[str, bytes | None],
        digests: dict[str, str],
        stats: EngineStats,
    ) -> dict:
        signatures = {name: predictor_signature(name) for name in predictors}
        # A merged result is fully determined by the trace content and the
        # ordered predictor configurations, so fully-warm benchmarks skip
        # both the shard fetches and the per-record merge pass.
        merge_keys = {
            benchmark: {
                "kind": "merge",
                "format": TASK_FORMAT_VERSION,
                "trace": digests[benchmark],
                "predictors": [[name, signatures[name]] for name in predictors],
            }
            for benchmark in benchmarks
        }
        simulations: dict = {}
        if self.cache:
            for benchmark in benchmarks:
                cached = self.cache.get("merge", merge_keys[benchmark])
                if cached is not None:
                    simulations[benchmark] = simulation_from_dict(cached["simulation"])
                    stats.record("simulations", cached=True, count=len(predictors))

        shards: dict[str, dict[str, PredictorShard]] = {
            benchmark: {} for benchmark in benchmarks if benchmark not in simulations
        }
        # Intra-trace sharding: benchmarks whose trace gets a window plan
        # run through the sharded path (replay + windows + stitch) instead
        # of the pair-level simulate phase.  Results and pair-level cache
        # entries are bit-identical either way.
        shard_plans: dict[str, list[tuple[int, int]]] = {}
        if self.shard_window is not None:
            slots = self.backend.parallel_slots()
            for benchmark in shards:
                windows = plan_shard_windows(
                    self.shard_window, len(traces[benchmark]), slots
                )
                if windows is not None:
                    shard_plans[benchmark] = windows

        def build_payload(task: SimulateTask, inline: bool) -> dict:
            if inline:
                return task.payload(traces[task.benchmark], kernel=self.kernel)
            if trace_bytes[task.benchmark] is None:
                # A text cache entry: encode it once, however many
                # predictors are pending over it.
                trace_bytes[task.benchmark] = wire_trace_bytes(traces[task.benchmark])
            return task.payload(trace_bytes[task.benchmark], kernel=self.kernel)

        def accept_shard(uid: tuple[str, str], payload: dict) -> bool:
            benchmark, predictor = uid
            shards[benchmark][predictor] = shard_from_dict(payload["shard"])
            return True

        phase_tasks = []
        for benchmark in benchmarks:
            if benchmark in simulations or benchmark in shard_plans:
                continue
            for predictor in predictors:
                task = SimulateTask(
                    benchmark=benchmark,
                    predictor=predictor,
                    trace_digest=digests[benchmark],
                    predictor_signature=signatures[predictor],
                )
                phase_tasks.append(
                    PhaseTask(
                        uid=(benchmark, predictor),
                        label=f"{benchmark}:{predictor}",
                        cache_key=task.cache_key(),
                        build_payload=lambda inline, task=task: build_payload(
                            task, inline
                        ),
                        group=digests[benchmark],
                        weight=len(traces[benchmark]),
                    )
                )

        run_phase(
            self,
            PhaseSpec(
                name="simulate",
                kind="simulate",
                counter="simulations",
                tasks=phase_tasks,
                worker=execute_simulate_task,
                accept_cached=accept_shard,
                accept_fresh=accept_shard,
                total=(len(benchmarks) - len(shard_plans)) * len(predictors),
                presatisfied_count=len(simulations) * len(predictors),
                presatisfied_labels=[
                    f"{benchmark}:*" for benchmark in benchmarks if benchmark in simulations
                ],
            ),
        )

        if shard_plans:
            units = [
                WindowedUnit(
                    uid=(benchmark, predictor),
                    label=f"{benchmark}:{predictor}",
                    benchmark=benchmark,
                    predictor=predictor,
                    trace_digest=digests[benchmark],
                    predictor_signature=signatures[predictor],
                    windows=tuple(shard_plans[benchmark]),
                    get_trace=lambda benchmark=benchmark: traces[benchmark],
                )
                for benchmark in shard_plans
                for predictor in predictors
            ]
            for (benchmark, predictor), shard in run_windowed_simulations(
                self, units
            ).items():
                shards[benchmark][predictor] = shard

        for benchmark in benchmarks:
            if benchmark in simulations:
                continue
            merged = merge_shards(
                traces[benchmark],
                {predictor: shards[benchmark][predictor] for predictor in predictors},
                kernel=self.kernel,
            )
            simulations[benchmark] = merged
            if self.cache:
                self.cache.put(
                    "merge",
                    merge_keys[benchmark],
                    {"simulation": simulation_to_dict(merged)},
                    format=self.cache_format,
                )
        return {benchmark: simulations[benchmark] for benchmark in benchmarks}

    # ------------------------------------------------------------------ #
    # Post-run cache maintenance
    # ------------------------------------------------------------------ #
    def _auto_gc(self, run_started_wall: float) -> None:
        """Run a bounded GC pass after a run when bounds are configured.

        Entries written or touched since ``run_started_wall`` — everything
        the finishing run produced or read — are protected from eviction,
        so a ``max_bytes`` smaller than one run's output can never evict
        the run's own results (the bound then holds on the *next* cold
        start instead).
        """
        if self.cache is None:
            return
        if self.cache.max_bytes is None and self.cache.max_age is None:
            return
        # One second of slack: on filesystems with coarse mtime granularity
        # an entry written just after the run started can have its mtime
        # rounded below the recorded start, and protection must err on the
        # side of keeping fresh results.
        self.last_gc = self.cache.gc(protect_since=run_started_wall - 1.0)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _run_tasks(
        self,
        function: Callable[[dict], dict],
        phase: str,
        labels: Sequence[str],
        payloads: Sequence[dict],
        chunks: Sequence[int] | None = None,
    ) -> list[dict]:
        """Execute payloads on the configured backend, in input order.

        ``chunks`` cuts the payloads into runs that each execute on one
        worker (see :meth:`ExecutorBackend.map`).
        """
        if not payloads:
            return []
        # Stamped per dispatch, not per engine: a shared backend instance
        # serves several engines, and dispatch spans must land in whichever
        # sink the engine currently driving it is wired to.
        self.backend.telemetry = self.telemetry
        return self.backend.map(
            function,
            payloads,
            on_result=lambda index: self.progress.task_finished(
                phase, labels[index], cached=False
            ),
            chunks=chunks,
        )
