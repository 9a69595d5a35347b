"""Trace-grouped dispatch of the simulate phase.

``run_phase`` sends each trace's pending (trace, predictor) tasks to the
backend as one chunk, heaviest trace first, and the process backends run
a chunk on one worker (``repro.engine.backends.run_chunk``).  A worker
then decodes a trace and builds its shared kernel state once for all of
the trace's predictors.  Grouping decides only where and in which order
tasks run: cache trees stay byte-identical to the serial run, every task
keeps its own telemetry span and progress event.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.registry import available_predictors
from repro.engine import ExecutionEngine
from repro.engine.backends import run_chunk
from repro.engine.fingerprint import predictor_signature, trace_digest
from repro.engine.phases import PhaseTask, dispatch_groups
from repro.engine.tasks import SimulateTask, wire_trace_bytes
from repro.engine.telemetry import RunTelemetry, read_metrics
from repro.engine.worker import execute_simulate_task
from repro.workloads.suite import get_workload

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim", "xlisp")
PREDICTORS = available_predictors()


def _tree(cache_dir):
    """Relative path -> bytes of every file under a cache directory."""
    return {
        str(path.relative_to(cache_dir)): path.read_bytes()
        for path in sorted(cache_dir.rglob("*"))
        if path.is_file()
    }


def _campaign(cache_dir, benchmarks, backend, **options):
    jobs = 1 if backend == "serial" else 2
    with ExecutionEngine(jobs=jobs, cache_dir=cache_dir, backend=backend, **options) as engine:
        engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=benchmarks)
    return engine


class _Recorder:
    def __init__(self):
        self.finished = []

    def phase_started(self, phase, total, cached):
        pass

    def task_finished(self, phase, label, cached):
        self.finished.append((phase, label, cached))

    def campaign_finished(self, stats):
        pass


def _task(uid, group=None, weight=1):
    return PhaseTask(
        uid=uid, label=str(uid), cache_key={}, build_payload=dict, group=group, weight=weight
    )


class TestDispatchGroups:
    def test_groups_ordered_heaviest_first(self):
        tasks = [
            _task("a1", "a", 10),
            _task("b1", "b", 30),
            _task("a2", "a", 10),
            _task("c1", "c", 5),
            _task("b2", "b", 30),
        ]
        groups = dispatch_groups(tasks, slots=2)
        assert [[task.uid for task in group] for group in groups] == [
            ["b1", "b2"],
            ["a1", "a2"],
            ["c1"],
        ]

    def test_ungrouped_tasks_keep_input_order(self):
        tasks = [_task(index) for index in range(5)]
        groups = dispatch_groups(tasks, slots=2)
        assert [[task.uid for task in group] for group in groups] == [[0], [1], [2], [3], [4]]

    def test_fewer_groups_than_slots_are_split(self):
        tasks = [_task(index, "only", 7) for index in range(19)]
        groups = dispatch_groups(tasks, slots=2)
        assert [len(group) for group in groups] == [10, 9]
        assert [task.uid for group in groups for task in group] == list(range(19))
        assert len(dispatch_groups(tasks, slots=1)) == 1

    def test_split_stops_at_single_tasks(self):
        tasks = [_task("a1", "a"), _task("a2", "a")]
        assert [len(group) for group in dispatch_groups(tasks, slots=8)] == [1, 1]


class TestGroupedCampaignParity:
    """Persistent ``--jobs 2`` writes the serial cache tree, byte for byte."""

    @pytest.mark.parametrize(
        "benchmarks", (BENCHMARKS, ("compress",)), ids=("more-traces-than-workers", "one-trace")
    )
    def test_cache_tree_byte_identical_to_serial(self, tmp_path, benchmarks):
        serial = tmp_path / "serial"
        persistent = tmp_path / "persistent"
        _campaign(serial, benchmarks, "serial")
        engine = _campaign(persistent, benchmarks, "persistent")
        assert engine.stats.simulations_computed == len(benchmarks) * len(PREDICTORS)
        reference = _tree(serial)
        assert reference  # non-vacuous
        assert _tree(persistent) == reference


class TestGroupedTelemetryAndProgress:
    def test_one_span_per_task_and_one_worker_per_trace(self, tmp_path):
        sink = RunTelemetry(tmp_path / "telemetry", argv=[])
        _campaign(tmp_path / "cache", BENCHMARKS, "persistent", telemetry=sink)
        sink.close()
        spans = [
            record
            for record in read_metrics(tmp_path / "telemetry")
            if record["type"] == "span"
            and record["name"] == "task"
            and record["attrs"]["phase"] == "simulate"
        ]
        labels = Counter(span["attrs"]["label"] for span in spans)
        assert labels == Counter(
            f"{benchmark}:{predictor}" for benchmark in BENCHMARKS for predictor in PREDICTORS
        )
        assert all(span["attrs"]["function"] == "simulate" for span in spans)
        pids: dict[str, set] = {}
        for span in spans:
            benchmark = span["attrs"]["label"].split(":", 1)[0]
            pids.setdefault(benchmark, set()).add(span["attrs"]["worker_pid"])
        # At least as many traces as workers: no trace is split.
        assert all(len(worker_pids) == 1 for worker_pids in pids.values()), pids

    @pytest.mark.parametrize("benchmarks", (BENCHMARKS, ("compress",)))
    def test_one_progress_event_per_task(self, tmp_path, benchmarks):
        recorder = _Recorder()
        _campaign(tmp_path / "cache", benchmarks, "persistent", progress=recorder)
        computed = [label for phase, label, cached in recorder.finished if phase == "simulate"]
        assert Counter(computed) == Counter(
            f"{benchmark}:{predictor}" for benchmark in benchmarks for predictor in PREDICTORS
        )


class TestChunkRunnerInProcess:
    def test_one_decode_and_one_shared_work_per_chunk(self, monkeypatch):
        pytest.importorskip("numpy")
        import repro.engine.worker as worker
        import repro.simulation.vectorized as vectorized
        import repro.trace.io as trace_io

        monkeypatch.setattr(worker, "_DECODED", None)
        monkeypatch.setattr(vectorized, "_SHARED", None)
        decodes = []
        decode = trace_io.decode_trace_columns

        def counting_decode(data):
            decodes.append(len(data))
            return decode(data)

        shared_built = []

        class CountingSharedWork(vectorized._SharedWork):
            def __init__(self, group):
                shared_built.append(group)
                super().__init__(group)

        monkeypatch.setattr(trace_io, "decode_trace_columns", counting_decode)
        monkeypatch.setattr(vectorized, "_SharedWork", CountingSharedWork)

        trace = get_workload("compress").trace(scale=SCALE)
        data = wire_trace_bytes(trace)
        digest = trace_digest(trace)
        names = ("l", "s2", "fcm1", "fcm2", "fcm3", "hybrid-s2-fcm3")
        payloads = [
            SimulateTask(
                benchmark="compress",
                predictor=name,
                trace_digest=digest,
                predictor_signature=predictor_signature(name),
            ).payload(data, kernel="vector")
            for name in names
        ]
        outcomes = run_chunk(execute_simulate_task, payloads)
        assert len(outcomes) == len(names)
        assert len(decodes) == 1
        assert len(shared_built) == 1
        assert all(outcome["__telemetry__"]["kernel"] == "vector" for outcome in outcomes)


    def test_memo_keeps_only_results_a_later_task_reads(self, monkeypatch):
        pytest.importorskip("numpy")
        import repro.engine.worker as worker
        import repro.simulation.vectorized as vectorized

        monkeypatch.setattr(worker, "_DECODED", None)
        monkeypatch.setattr(vectorized, "_SHARED", None)
        trace = get_workload("compress").trace(scale=SCALE)
        data = wire_trace_bytes(trace)
        digest = trace_digest(trace)
        names = ("s2", "fcm3", "fcm1", "hybrid-s2-fcm3")
        memo_before = []

        def recording(payload):
            shared = vectorized._SHARED
            memo_before.append(set(shared.results) if shared is not None else set())
            return execute_simulate_task(payload)

        recording.chunk_step = execute_simulate_task.chunk_step
        payloads = [
            SimulateTask(
                benchmark="compress",
                predictor=name,
                trace_digest=digest,
                predictor_signature=predictor_signature(name),
            ).payload(data, kernel="vector")
            for name in names
        ]
        outcomes = run_chunk(recording, payloads)
        signature = {name: predictor_signature(name) for name in names}
        # The hybrid finds its components' results; fcm1's is gone.
        assert memo_before[-1] == {signature["s2"], signature["fcm3"]}
        assert vectorized._SHARED.results == {}
        serial = [execute_simulate_task(payload) for payload in payloads]
        for fresh, reference in zip(outcomes, serial):
            assert fresh["shard"] == reference["shard"]
