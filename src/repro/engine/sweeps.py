"""Generic parameter sweeps over the execution engine.

A *sweep* evaluates the cross product of four axes — benchmarks, input
sets, flag settings and predictor configurations — the shape of the
paper's Section 4.4 sensitivity studies (Table 6: inputs, Table 7: flags,
Figure 11: FCM order, each over one benchmark) and of cross-benchmark
sensitivity tables beyond the paper's gcc focus.  :class:`SweepSpec`
describes the axes; :func:`execute_sweep` expands the spec into the
engine's existing trace/simulate task graph:

* one :class:`~repro.engine.tasks.TraceTask` per **unique**
  (benchmark, input, flags) combination — sweep points that share a trace
  configuration (every predictor point of an order study, duplicated axis
  values) are deduplicated before any work is scheduled;
* one :class:`~repro.engine.tasks.SimulateTask` per unique
  (trace digest, predictor configuration) pair — two settings that happen
  to produce byte-identical traces share their simulation too, even
  across benchmarks, because simulations are keyed by trace *content*;
* no merge phase: a sweep point is a single-predictor measurement, and a
  :class:`~repro.simulation.simulator.PredictorShard`'s aggregate result
  is already bit-identical to that predictor's slot in the lockstep loop.

Both phases are thin configurations of the shared phase executor
(:mod:`repro.engine.phases` — the same probe → dispatch → put protocol
campaigns run), executed on the owning engine's backend (``--jobs`` /
``--backend``) against the same persistent
:class:`~repro.engine.cache.ResultCache` campaigns use — the cache keys
are shared, so a campaign's gcc trace warms the sweep's default-input
point and vice versa.  Where the campaign scheduler materialises cached
traces eagerly, the sweep's policy is *lazy-with-repair*
(:class:`_LazyTrace`): a fully warm sweep performs zero trace or simulate
computation and never even decodes the cached traces (record counts come
from the stored statistics).

:func:`run_sweep` is the library-level façade mirroring
:func:`repro.simulation.campaign.run_campaign`: it builds an engine from
the process-wide defaults (the CLI's ``--jobs``/``--cache-dir``/… flags)
and memoises results in-process by spec and predictor fingerprints.
``docs/sweeps.md`` documents spec format, dedup semantics and cache keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.codecs import (
    payload_trace,
    payload_trace_digest,
    shard_from_dict,
    statistics_from_dict,
)
from repro.engine.fingerprint import predictor_signature, predictors_fingerprint
from repro.engine.phases import PhaseSpec, PhaseTask, run_phase
from repro.engine.scheduler import EngineStats
from repro.engine.sharding import WindowedUnit, plan_shard_windows, run_windowed_simulations
from repro.engine.tasks import SimulateTask, TraceTask, wire_trace_bytes
from repro.engine.telemetry import TELEMETRY_KEY
from repro.engine.worker import execute_simulate_task, execute_trace_task
from repro.errors import SweepError
from repro.simulation.simulator import PredictorResult
from repro.trace.stream import TraceStatistics, ValueTrace
from repro.workloads.suite import get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.scheduler import ExecutionEngine

#: Axis value that expands to everything the workload declares (used by
#: the CLI's ``--inputs all``/``--flags all``; resolved per benchmark, so
#: multi-benchmark sweeps expand each benchmark's own declared sets).
AXIS_ALL = "all"

#: A trace-determining coordinate: (benchmark, input, flags).
TraceConfig = tuple[str, str, str]


# --------------------------------------------------------------------------- #
# Specification
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepSpec:
    """Axes of one parameter sweep.

    ``benchmark`` names a single benchmark; ``benchmarks`` (when set)
    overrides it with a whole benchmark axis.  ``inputs`` and ``flags``
    may contain ``None`` for "the workload's default" and the literal
    ``"all"`` for "everything the workload declares"; :meth:`points`
    resolves (and validates) every name against each benchmark's
    workload, so equivalent specs expand to identical sweep points.  The
    expansion order is benchmarks-major, then inputs, then flags, then
    predictors — matching the row order of the paper's tables within each
    benchmark.
    """

    benchmark: str = "gcc"
    scale: float = 1.0
    inputs: tuple[str | None, ...] = (None,)
    flags: tuple[str | None, ...] = (None,)
    predictors: tuple[str, ...] = ("fcm2",)
    benchmarks: tuple[str, ...] | None = None

    # ------------------------------------------------------------------ #
    # The paper's three studies
    # ------------------------------------------------------------------ #
    @classmethod
    def input_study(
        cls,
        benchmark: str = "gcc",
        predictor: str = "fcm2",
        scale: float = 1.0,
        inputs: tuple[str, ...] | None = None,
    ) -> "SweepSpec":
        """Table 6: one predictor across the benchmark's input files."""
        names = inputs if inputs is not None else get_workload(benchmark).input_sets
        return cls(
            benchmark=benchmark, scale=scale, inputs=tuple(names), predictors=(predictor,)
        )

    @classmethod
    def flag_study(
        cls,
        benchmark: str = "gcc",
        predictor: str = "fcm2",
        scale: float = 1.0,
        input_name: str | None = None,
        flags: tuple[str, ...] | None = None,
    ) -> "SweepSpec":
        """Table 7: one predictor across the benchmark's flag settings."""
        names = flags if flags is not None else get_workload(benchmark).flag_sets
        return cls(
            benchmark=benchmark,
            scale=scale,
            inputs=(input_name,),
            flags=tuple(names),
            predictors=(predictor,),
        )

    @classmethod
    def order_study(
        cls,
        benchmark: str = "gcc",
        orders: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
        scale: float = 1.0,
        input_name: str | None = None,
    ) -> "SweepSpec":
        """Figure 11: blended fcm predictors of increasing order, one trace."""
        return cls(
            benchmark=benchmark,
            scale=scale,
            inputs=(input_name,),
            predictors=tuple(f"fcm{order}" for order in orders),
        )

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def benchmark_axis(self) -> tuple[str, ...]:
        """The benchmark axis: ``benchmarks`` when set, else ``(benchmark,)``."""
        if self.benchmarks is not None:
            return tuple(self.benchmarks)
        return (self.benchmark,)

    def points(self) -> tuple["SweepPoint", ...]:
        """Expand the axes into resolved sweep points (cross product)."""
        names = self.benchmark_axis()
        if not self.predictors:
            raise SweepError(f"sweep over {names!r} names no predictors")
        if not names or not self.inputs or not self.flags:
            raise SweepError(f"sweep over {names!r} has an empty axis")
        expanded = []
        for benchmark in names:
            workload = get_workload(benchmark)
            for input_name in _expand_axis(self.inputs, workload.input_sets):
                resolved_input = workload.validate_input(input_name)
                for flags in _expand_axis(self.flags, workload.flag_sets):
                    resolved_flags = workload.validate_flags(flags)
                    for predictor in self.predictors:
                        expanded.append(
                            SweepPoint(
                                benchmark=benchmark,
                                scale=self.scale,
                                input_name=resolved_input,
                                flags=resolved_flags,
                                predictor=predictor,
                            )
                        )
        return tuple(expanded)


def _expand_axis(
    values: tuple[str | None, ...], declared: tuple[str, ...]
) -> tuple[str | None, ...]:
    """Expand :data:`AXIS_ALL` entries to the workload's declared set.

    The literal only acts as a wildcard while no workload declares a set
    member of that name; otherwise it selects that member, as any other
    name would.
    """
    out: list[str | None] = []
    for value in values:
        if value == AXIS_ALL and AXIS_ALL not in declared:
            out.extend(declared)
        else:
            out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved (benchmark, scale, input, flags, predictor) cell."""

    benchmark: str
    scale: float
    input_name: str
    flags: str
    predictor: str

    @property
    def trace_config(self) -> TraceConfig:
        """The trace-determining coordinates (benchmark, input, flags)."""
        return (self.benchmark, self.input_name, self.flags)

    def label(self) -> str:
        return f"{self.benchmark}:{self.input_name}:{self.flags}:{self.predictor}"


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class SweepPointResult:
    """Measurement of one sweep point.

    ``result`` is the predictor's aggregate accounting, bit-identical to
    ``simulate_trace(trace, (predictor,)).results[predictor]`` on the same
    trace configuration (predictor tables are private, so the shard path
    reproduces the lockstep outcomes exactly).
    """

    point: SweepPoint
    record_count: int
    statistics: TraceStatistics
    result: PredictorResult

    @property
    def accuracy(self) -> float:
        return self.result.accuracy


@dataclass
class SweepResult:
    """Everything produced by one sweep run."""

    spec: SweepSpec
    points: tuple[SweepPointResult, ...]
    stats: EngineStats = field(default_factory=EngineStats)

    def by_predictor(self, predictor: str) -> list[SweepPointResult]:
        """The sweep points measuring ``predictor``, in expansion order."""
        return [entry for entry in self.points if entry.point.predictor == predictor]

    def by_benchmark(self, benchmark: str) -> list[SweepPointResult]:
        """The sweep points measuring ``benchmark``, in expansion order."""
        return [entry for entry in self.points if entry.point.benchmark == benchmark]


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
class _LazyTrace:
    """Materialise a trace-task payload's trace at most once, on demand.

    The sweep's trace-materialisation policy is *lazy-with-repair*: a
    fully warm sweep never touches the (expensive) embedded trace —
    digests and record counts come from the payload's JSON fields — so
    decoding is deferred until a pending simulation actually needs the
    records.  A corrupt embedded trace falls back through ``repair``
    (re-trace, fix the run's stats, overwrite the bad cache entry),
    mirroring the campaign scheduler's treat-corruption-as-miss policy.
    """

    def __init__(self, payload: dict, repair) -> None:
        self._payload = payload
        self._repair = repair
        self._trace: ValueTrace | None = None
        self._bytes: bytes | None = None

    def get(self) -> ValueTrace:
        if self._trace is None:
            try:
                self._trace = payload_trace(self._payload)
            except Exception:
                self._payload = self._repair()
                self._trace = payload_trace(self._payload)
        return self._trace

    def trace_bytes(self) -> bytes:
        """The trace's v3 bytes for an off-process simulate payload.

        The payload's own bytes when it has them; a text payload is
        encoded once, however many predictors are pending over it (an
        order study has one trace under its whole predictor axis).
        Decodes the trace first, so corrupt bytes are repaired here rather
        than shipped to a worker.
        """
        if self._bytes is None:
            trace = self.get()
            self._bytes = self._payload.get("trace_binary")
            if self._bytes is None:
                self._bytes = wire_trace_bytes(trace)
        return self._bytes


def execute_sweep(engine: "ExecutionEngine", spec: SweepSpec) -> SweepResult:
    """Expand ``spec`` into trace/simulate tasks and run them on ``engine``.

    Results are bit-identical for every backend, ``jobs`` value and cache
    temperature; prefer :meth:`ExecutionEngine.run_sweep` (which adds the
    post-run bounded GC pass) or the :func:`run_sweep` façade.
    """
    started = time.perf_counter()
    points = spec.points()
    signatures = {name: predictor_signature(name) for name in spec.predictors}

    # Each trace configuration's task, resolved by the workload: two
    # configurations that build the same program (gcc's -O2 and its
    # default flags) share one task, so one trace.
    trace_tasks: dict[TraceConfig, TraceTask] = {}
    for point in points:
        if point.trace_config not in trace_tasks:
            trace_tasks[point.trace_config] = TraceTask.for_workload(
                point.benchmark,
                scale=point.scale,
                input_name=point.input_name,
                flags=point.flags,
            )
    # Unique tasks, in first-appearance order.
    unique_tasks = list(dict.fromkeys(trace_tasks.values()))
    stats = EngineStats(benchmarks=len(unique_tasks), predictors=len(spec.predictors))
    engine.stats = stats

    # ------------------------------------------------------------------ #
    # Trace phase (deduplicated across sweep points, lazy materialisation)
    # ------------------------------------------------------------------ #
    payloads: dict[TraceTask, dict] = {}

    def accept_trace_probe(task: TraceTask, payload: dict) -> bool:
        if not _trace_payload_usable(payload):
            return False
        payloads[task] = payload
        return True

    def accept_trace_fresh(task: TraceTask, outcome: dict) -> None:
        payloads[task] = outcome

    run_phase(
        engine,
        PhaseSpec(
            name="trace",
            kind="trace",
            counter="traces",
            tasks=[
                PhaseTask(
                    uid=task,
                    label=_task_label(task),
                    cache_key=task.cache_key(),
                    build_payload=lambda inline, task=task: task.payload(),
                )
                for task in unique_tasks
            ],
            worker=execute_trace_task,
            accept_cached=accept_trace_probe,
            accept_fresh=accept_trace_fresh,
        ),
    )

    digests = {
        config: payload_trace_digest(payloads[task]) for config, task in trace_tasks.items()
    }
    statistics = {
        config: statistics_from_dict(payloads[task]["statistics"])
        for config, task in trace_tasks.items()
    }

    def make_repair(task: TraceTask):
        # A stamped entry can pass the cheap probe (digest + statistics
        # readable) while its trace body is corrupt.  When the decode
        # fails, re-trace, account the work honestly (this config was
        # *not* served from cache after all) and overwrite the bad entry
        # so the repair sticks for the next run.
        def repair() -> dict:
            outcome = execute_trace_task(task.payload())
            # Repairs bypass the phase executor, so strip the worker's
            # observability sidecar here too — the overwritten cache entry
            # must stay byte-identical with telemetry on or off.
            sidecar = outcome.pop(TELEMETRY_KEY, None)
            if sidecar:
                engine.telemetry.span_record(
                    "task",
                    sidecar.get("execute_seconds", 0.0),
                    phase="trace",
                    label=_task_label(task),
                    worker_pid=sidecar.get("pid"),
                    function=sidecar.get("function"),
                    repair=True,
                )
            stats.traces_computed += 1
            stats.traces_cached -= 1
            if engine.cache:
                engine.cache.put(
                    "trace",
                    task.cache_key(),
                    outcome,
                    format=engine.cache_format,
                )
            return outcome

        return repair

    lazy_traces = {task: _LazyTrace(payloads[task], make_repair(task)) for task in unique_tasks}
    traces = {config: lazy_traces[task] for config, task in trace_tasks.items()}

    # ------------------------------------------------------------------ #
    # Simulate phase (deduplicated by trace content and configuration)
    # ------------------------------------------------------------------ #
    units: dict[tuple[str, str], tuple[SimulateTask, TraceConfig]] = {}
    for point in points:
        unit = (digests[point.trace_config], point.predictor)
        if unit not in units:
            units[unit] = (
                SimulateTask(
                    benchmark=point.benchmark,
                    predictor=point.predictor,
                    trace_digest=digests[point.trace_config],
                    predictor_signature=signatures[point.predictor],
                ),
                point.trace_config,
            )

    shards: dict[tuple[str, str], object] = {}
    # Intra-trace sharding: units whose trace gets a window plan run
    # through the sharded path (replay + windows + stitch) instead of the
    # pair-level simulate phase.  Window plans come from the stored
    # statistics' record counts, so planning never materialises a lazy
    # trace — a fully warm sharded sweep stays decode-free.
    windowed: dict[tuple[str, str], WindowedUnit] = {}
    if engine.shard_window is not None:
        slots = engine.backend.parallel_slots()
        for unit, (task, config) in units.items():
            length = statistics[config].predicted_instructions
            windows = plan_shard_windows(engine.shard_window, length, slots)
            if windows is not None:
                windowed[unit] = WindowedUnit(
                    uid=unit,
                    label=_unit_label(units, unit),
                    benchmark=task.benchmark,
                    predictor=task.predictor,
                    trace_digest=task.trace_digest,
                    predictor_signature=task.predictor_signature,
                    windows=tuple(windows),
                    get_trace=traces[config].get,
                )

    def build_simulate_payload(unit: tuple[str, str], inline: bool) -> dict:
        task, config = units[unit]
        trace = traces[config].get() if inline else traces[config].trace_bytes()
        return task.payload(trace, kernel=engine.kernel)

    def accept_shard(unit: tuple[str, str], payload: dict) -> bool:
        shards[unit] = shard_from_dict(payload["shard"])
        return True

    run_phase(
        engine,
        PhaseSpec(
            name="simulate",
            kind="simulate",
            counter="simulations",
            tasks=[
                PhaseTask(
                    uid=unit,
                    label=_unit_label(units, unit),
                    cache_key=task.cache_key(),
                    build_payload=lambda inline, unit=unit: build_simulate_payload(
                        unit, inline
                    ),
                    group=task.trace_digest,
                    weight=statistics[config].predicted_instructions,
                )
                for unit, (task, config) in units.items()
                if unit not in windowed
            ],
            worker=execute_simulate_task,
            accept_cached=accept_shard,
            accept_fresh=accept_shard,
        ),
    )

    if windowed:
        shards.update(run_windowed_simulations(engine, list(windowed.values())))

    # ------------------------------------------------------------------ #
    # Assembly — one result per sweep point, shared units fanned back out
    # ------------------------------------------------------------------ #
    results = []
    for point in points:
        config = point.trace_config
        shard = shards[(digests[config], point.predictor)]
        point_statistics = statistics[config]
        results.append(
            SweepPointResult(
                point=point,
                record_count=point_statistics.predicted_instructions,
                statistics=point_statistics,
                result=shard.result,
            )
        )
    stats.total_seconds = time.perf_counter() - started
    engine.progress.campaign_finished(stats)
    return SweepResult(spec=spec, points=tuple(results), stats=stats)


def _trace_payload_usable(payload: dict) -> bool:
    """Cheap validity probe for a cached trace payload.

    Confirms the digest and statistics are reachable without decoding the
    embedded trace (the whole point of the warm path).  Entries predating
    stamped digests fall back to decoding and re-encoding the trace, which
    also surfaces trace corruption; for stamped entries a corrupt trace
    body is caught later by :class:`_LazyTrace`'s re-trace fallback.
    """
    try:
        payload_trace_digest(payload)
        statistics_from_dict(payload["statistics"])
    except Exception:
        return False
    return True


def _trace_label(config: TraceConfig) -> str:
    benchmark, input_name, flags = config
    return f"{benchmark}:{input_name}:{flags}"


def _task_label(task: TraceTask) -> str:
    return _trace_label((task.benchmark, task.input_name, task.flags))


def _unit_label(units: dict, unit: tuple[str, str]) -> str:
    _, config = units[unit]
    return f"{_trace_label(config)}:{unit[1]}"


# --------------------------------------------------------------------------- #
# Library façade (mirrors repro.simulation.campaign.run_campaign)
# --------------------------------------------------------------------------- #
_SWEEP_MEMO: dict[tuple, SweepResult] = {}


def run_sweep(
    spec: SweepSpec,
    use_cache: bool = True,
    jobs: int | None = None,
    cache_dir=None,
    progress=None,
    cache_format: str | None = None,
    backend=None,
    workers=None,
    kernel: str | None = None,
    shard_window: int | str | None = None,
) -> SweepResult:
    """Run one sweep on an engine built from the process-wide defaults.

    ``use_cache`` governs both the in-process memo and the on-disk cache;
    unset parameters fall back to the engine defaults configured through
    :func:`repro.simulation.campaign.set_campaign_defaults` (which the CLI
    wires to ``--jobs``/``--cache-dir``/``--cache-format``/``--backend``/
    ``--workers``/``--no-cache``).  The memo keys on the spec *and* the predictors'
    configuration fingerprints, so re-binding a predictor name cannot
    serve stale results — the same policy the campaign memo follows.
    """
    from repro.simulation import campaign

    use_cache = use_cache and campaign.engine_defaults().use_cache
    key = (spec, predictors_fingerprint(spec.predictors))
    if use_cache and key in _SWEEP_MEMO:
        return _SWEEP_MEMO[key]
    engine = campaign.build_engine(
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        progress=progress,
        cache_format=cache_format,
        backend=backend,
        workers=workers,
        kernel=kernel,
        shard_window=shard_window,
    )
    try:
        result = engine.run_sweep(spec)
    finally:
        engine.close()
    campaign.record_engine_stats(engine.stats)
    if use_cache:
        _SWEEP_MEMO[key] = result
    return result


def clear_sweep_cache() -> None:
    """Drop all in-process memoised sweep results (used by tests)."""
    _SWEEP_MEMO.clear()
