"""Correctness tests for the engine-backed parameter-sweep layer.

The sweep layer's contract mirrors the campaign engine's: any ``jobs``
value and any cache temperature must reproduce the historical serial
sensitivity loops bit-identically, shared trace work must be deduplicated
before scheduling, and a fully warm sweep must perform zero trace or
simulate computation.
"""

from __future__ import annotations

import pytest

from repro.engine import ExecutionEngine
from repro.engine.sweeps import SweepSpec, clear_sweep_cache, run_sweep
from repro.engine.backends import SerialBackend
from repro.engine.tasks import SimulateTask, wire_trace_bytes
from repro.engine.worker import execute_simulate_task
from repro.errors import SweepError, WorkloadError
from repro.simulation.sensitivity import (
    flag_sensitivity,
    input_sensitivity,
    order_sensitivity,
)
from repro.simulation.simulator import SIMULATION_COUNTER, simulate_trace
from repro.workloads.suite import get_workload

SCALE = 0.05


# --------------------------------------------------------------------------- #
# Reference implementations: the pre-refactor serial loops, verbatim
# --------------------------------------------------------------------------- #
def _serial_input_points(benchmark="gcc", predictor="fcm2", scale=SCALE, inputs=None):
    workload = get_workload(benchmark)
    names = inputs if inputs is not None else workload.input_sets
    points = []
    for input_name in names:
        trace = workload.trace(scale=scale, input_name=input_name)
        result = simulate_trace(trace, (predictor,))
        points.append((input_name, len(trace), result.results[predictor].accuracy))
    return points


def _serial_flag_points(benchmark="gcc", predictor="fcm2", scale=SCALE):
    workload = get_workload(benchmark)
    points = []
    for flag_setting in workload.flag_sets:
        trace = workload.trace(scale=scale, flags=flag_setting)
        result = simulate_trace(trace, (predictor,))
        points.append((flag_setting, len(trace), result.results[predictor].accuracy))
    return points


def _serial_orders(benchmark="gcc", orders=(1, 2, 3), scale=SCALE):
    trace = get_workload(benchmark).trace(scale=scale)
    accuracies = {}
    for order in orders:
        name = f"fcm{order}"
        accuracies[order] = simulate_trace(trace, (name,)).results[name].accuracy
    return accuracies


class TestSerialEquivalence:
    """Engine-backed sensitivity is bit-identical to the serial loops."""

    def test_input_axis_bit_identical(self):
        engine_points = [
            (point.setting, point.predictions, point.accuracy)
            for point in input_sensitivity(scale=SCALE)
        ]
        assert engine_points == _serial_input_points(scale=SCALE)

    def test_flag_axis_bit_identical(self):
        engine_points = [
            (point.setting, point.predictions, point.accuracy)
            for point in flag_sensitivity(scale=SCALE)
        ]
        assert engine_points == _serial_flag_points(scale=SCALE)

    def test_order_axis_bit_identical(self):
        assert order_sensitivity(orders=(1, 2, 3), scale=SCALE) == _serial_orders(
            orders=(1, 2, 3), scale=SCALE
        )

    def test_full_shard_accounting_matches_lockstep(self):
        # Beyond accuracy: category breakdowns and per-PC counts match too.
        spec = SweepSpec.input_study(benchmark="compress", predictor="fcm1", scale=SCALE)
        sweep = ExecutionEngine(jobs=1).run_sweep(spec)
        workload = get_workload("compress")
        for entry in sweep.points:
            trace = workload.trace(scale=SCALE, input_name=entry.point.input_name)
            reference = simulate_trace(trace, ("fcm1",)).results["fcm1"]
            assert entry.result == reference


class TestJobsParity:
    def test_jobs_1_and_jobs_4_bit_identical(self):
        spec = SweepSpec(
            benchmark="gcc",
            scale=SCALE,
            inputs=("gcc.i", "jump.i"),
            predictors=("l", "fcm2"),
        )
        serial = ExecutionEngine(jobs=1).run_sweep(spec)
        parallel = ExecutionEngine(jobs=4).run_sweep(spec)
        assert len(serial.points) == len(parallel.points) == 4
        for left, right in zip(serial.points, parallel.points):
            assert left.point == right.point
            assert left.record_count == right.record_count
            assert left.statistics == right.statistics
            assert left.result == right.result


class TestDeduplication:
    def test_repeated_axis_values_trace_once(self):
        spec = SweepSpec(
            benchmark="compress", scale=SCALE, inputs=("ref", "ref"), predictors=("l",)
        )
        engine = ExecutionEngine(jobs=1)
        sweep = engine.run_sweep(spec)
        assert len(sweep.points) == 2
        assert engine.stats.traces_computed == 1
        assert engine.stats.simulations_computed == 1
        assert sweep.points[0].result == sweep.points[1].result

    def test_order_study_shares_one_trace(self):
        engine = ExecutionEngine(jobs=1)
        engine.run_sweep(SweepSpec.order_study(orders=(1, 2, 3), scale=SCALE))
        assert engine.stats.benchmarks == 1
        assert engine.stats.traces_computed == 1
        assert engine.stats.simulations_computed == 3

    def test_identical_trace_content_shares_simulations(self, tmp_path):
        # Two scales that clamp to the same loop counts produce the same
        # trace bytes; simulations are keyed by content, so the second
        # sweep re-traces but never re-simulates.
        cache_dir = tmp_path / "cache"
        first = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        first.run_sweep(SweepSpec(benchmark="compress", scale=0.05, predictors=("l",)))
        second = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        second.run_sweep(SweepSpec(benchmark="compress", scale=0.1, predictors=("l",)))
        assert second.stats.traces_computed == 1
        assert second.stats.simulations_cached == 1
        assert second.stats.simulations_computed == 0


class TestPersistentCache:
    def test_warm_sweep_is_zero_compute(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = SweepSpec.input_study(scale=SCALE)
        cold_engine = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        cold = cold_engine.run_sweep(spec)
        assert cold_engine.stats.traces_computed == len(spec.inputs)
        assert cold_engine.stats.simulations_computed == len(spec.inputs)

        SIMULATION_COUNTER.reset()
        warm_engine = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        warm = warm_engine.run_sweep(spec)
        assert SIMULATION_COUNTER.count == 0
        assert warm_engine.stats.traces_computed == 0
        assert warm_engine.stats.simulations_computed == 0
        assert warm_engine.stats.traces_cached == len(spec.inputs)
        assert warm_engine.stats.simulations_cached == len(spec.inputs)
        for left, right in zip(cold.points, warm.points):
            assert left.point == right.point
            assert left.record_count == right.record_count
            assert left.result == right.result

    def test_campaign_and_sweep_share_trace_entries(self, tmp_path):
        # The sweep's default-configuration point addresses the same cache
        # entry a campaign writes for that benchmark, and vice versa.
        cache_dir = tmp_path / "cache"
        campaign_engine = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        campaign_engine.run(scale=SCALE, predictors=("l",), benchmarks=("gcc",))

        sweep_engine = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        sweep_engine.run_sweep(SweepSpec(benchmark="gcc", scale=SCALE, predictors=("l",)))
        assert sweep_engine.stats.traces_cached == 1
        assert sweep_engine.stats.traces_computed == 0
        assert sweep_engine.stats.simulations_cached == 1

    def test_corrupt_cached_trace_is_repaired_and_accounted(self, tmp_path):
        # A stamped entry can pass the cheap warm probe (digest and
        # statistics readable) while its trace body is corrupt.  The sweep
        # must re-trace, report the work honestly (not as a cache hit) and
        # overwrite the bad entry so the repair sticks.
        from repro.engine.codecs import encode_cache_entry
        from repro.engine.tasks import TraceTask

        cache_dir = tmp_path / "cache"
        spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=("l",))
        cold = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        cold_result = cold.run_sweep(spec)

        task = TraceTask.for_workload("compress", SCALE)
        path = cold.cache.path_for("trace", task.cache_key(), format="binary")
        assert path.exists()
        entry = cold.cache.get("trace", task.cache_key())
        entry["trace_binary"] = b"\x00garbage"
        path.write_bytes(encode_cache_entry(task.cache_key(), entry))
        for shard_path in list(cold.cache.entry_paths()):
            if shard_path.parent.parent.name == "simulate":
                shard_path.unlink()

        engine = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        result = engine.run_sweep(spec)
        assert engine.stats.traces_computed == 1
        assert engine.stats.traces_cached == 0
        assert result.points[0].result == cold_result.points[0].result
        assert cold.cache.verify().ok  # the bad entry was overwritten

    def test_text_cache_format_round_trips(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=("l",))
        text_engine = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="text")
        cold = text_engine.run_sweep(spec)
        assert all(path.suffix == ".json" for path in text_engine.cache.entry_paths())
        warm_engine = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        warm = warm_engine.run_sweep(spec)
        assert warm_engine.stats.simulations_computed == 0
        assert warm.points[0].result == cold.points[0].result


class TestSpecValidation:
    def test_empty_predictors_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(predictors=()).points()

    def test_unknown_input_rejected(self):
        with pytest.raises(WorkloadError):
            SweepSpec(benchmark="gcc", inputs=("no-such-input.i",)).points()

    def test_points_resolve_defaults(self):
        points = SweepSpec(benchmark="gcc", predictors=("l",)).points()
        assert len(points) == 1
        assert points[0].input_name == "gcc.i"
        assert points[0].flags == "ref"


class TestRunSweepFacade:
    def teardown_method(self):
        clear_sweep_cache()

    def test_memoises_by_spec(self):
        spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=("l",))
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert second is first

    def test_use_cache_false_bypasses_memo(self):
        spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=("l",))
        first = run_sweep(spec)
        second = run_sweep(spec, use_cache=False)
        assert second is not first
        assert second.points[0].result == first.points[0].result


class TestBenchmarkAxis:
    """benchmark is a fourth sweep axis (multi-benchmark specs)."""

    def test_multi_benchmark_expansion_order(self):
        spec = SweepSpec(
            benchmarks=("compress", "m88ksim"), scale=SCALE, predictors=("l", "s2")
        )
        points = spec.points()
        assert [point.benchmark for point in points] == [
            "compress", "compress", "m88ksim", "m88ksim",
        ]
        assert [point.predictor for point in points] == ["l", "s2", "l", "s2"]

    def test_benchmarks_override_single_benchmark(self):
        spec = SweepSpec(benchmark="gcc", benchmarks=("compress",), predictors=("l",))
        assert spec.benchmark_axis() == ("compress",)
        assert [point.benchmark for point in spec.points()] == ["compress"]

    def test_defaults_resolve_per_benchmark(self):
        spec = SweepSpec(benchmarks=("gcc", "compress"), predictors=("l",))
        points = spec.points()
        assert points[0].input_name == "gcc.i"  # gcc's declared default
        assert points[1].input_name == "ref"  # compress's declared default

    def test_all_expands_per_benchmark(self):
        spec = SweepSpec(
            benchmarks=("gcc", "compress"), inputs=("all",), predictors=("l",)
        )
        points = spec.points()
        gcc_inputs = [p.input_name for p in points if p.benchmark == "gcc"]
        compress_inputs = [p.input_name for p in points if p.benchmark == "compress"]
        assert tuple(gcc_inputs) == get_workload("gcc").input_sets
        assert tuple(compress_inputs) == get_workload("compress").input_sets

    def test_duplicate_benchmarks_share_trace_and_simulation(self):
        engine = ExecutionEngine(jobs=1)
        sweep = engine.run_sweep(
            SweepSpec(benchmarks=("compress", "compress"), scale=SCALE, predictors=("l",))
        )
        assert len(sweep.points) == 2
        assert engine.stats.traces_computed == 1
        assert engine.stats.simulations_computed == 1
        assert sweep.points[0].result == sweep.points[1].result

    def test_multi_benchmark_matches_single_benchmark_sweeps(self):
        joint = ExecutionEngine(jobs=1).run_sweep(
            SweepSpec(benchmarks=("compress", "m88ksim"), scale=SCALE, predictors=("l",))
        )
        for benchmark in ("compress", "m88ksim"):
            single = ExecutionEngine(jobs=1).run_sweep(
                SweepSpec(benchmark=benchmark, scale=SCALE, predictors=("l",))
            )
            (joint_point,) = joint.by_benchmark(benchmark)
            assert joint_point.point == single.points[0].point
            assert joint_point.result == single.points[0].result
            assert joint_point.record_count == single.points[0].record_count

    def test_multi_benchmark_shares_cache_with_campaign(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExecutionEngine(jobs=1, cache_dir=cache_dir).run(
            scale=SCALE, predictors=("l",), benchmarks=("compress", "m88ksim")
        )
        engine = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        engine.run_sweep(
            SweepSpec(benchmarks=("compress", "m88ksim"), scale=SCALE, predictors=("l",))
        )
        assert engine.stats.traces_computed == 0
        assert engine.stats.simulations_computed == 0
        assert engine.stats.traces_cached == 2
        assert engine.stats.simulations_cached == 2

    def test_empty_benchmark_axis_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(benchmarks=(), benchmark="", predictors=("l",)).points()


class TestTraceWireFormat:
    """execute_trace_task returns v3 binary bytes + digest over the wire."""

    def test_trace_outcome_carries_v3_bytes_and_digest(self):
        from hashlib import sha256

        from repro.engine.codecs import payload_trace, payload_trace_digest
        from repro.engine.fingerprint import trace_digest
        from repro.engine.tasks import TraceTask
        from repro.engine.worker import execute_trace_task
        from repro.trace.io import dumps_trace_binary

        outcome = execute_trace_task(TraceTask.for_workload("compress", SCALE).payload())
        assert "trace_text" not in outcome
        assert isinstance(outcome["trace_binary"], bytes)
        trace = payload_trace(outcome)
        # The digest is the SHA-256 of the uncompressed v3 bytes; the
        # outcome carries the compressed form of those same bytes.
        binary = dumps_trace_binary(trace)
        assert outcome["digest"] == sha256(binary).hexdigest() == trace_digest(trace)
        assert outcome["trace_binary"] == dumps_trace_binary(trace, compress=True)
        assert payload_trace_digest(outcome) == outcome["digest"]
        reference = get_workload("compress").trace(scale=SCALE)
        assert len(trace) == len(reference)

    @pytest.mark.parametrize("form", ["binary", "text"])
    def test_unstamped_payload_gets_the_worker_digest(self, form):
        # A payload without a ``digest`` field (written by older code)
        # falls back to computing it; the result must be the digest the
        # worker stamps, whichever form the trace is stored in.
        from repro.engine.codecs import payload_trace_digest
        from repro.engine.tasks import TraceTask
        from repro.engine.worker import execute_trace_task
        from repro.trace.io import dumps_trace, loads_trace_binary

        outcome = execute_trace_task(TraceTask.for_workload("compress", SCALE).payload())
        if form == "binary":
            unstamped = {"trace_binary": outcome["trace_binary"]}
        else:
            unstamped = {"trace_text": dumps_trace(loads_trace_binary(outcome["trace_binary"]))}
        assert payload_trace_digest(unstamped) == outcome["digest"]

    def test_binary_outcome_smaller_than_text_form(self):
        from repro.engine.tasks import TraceTask
        from repro.engine.worker import execute_trace_task
        from repro.trace.io import dumps_trace

        outcome = execute_trace_task(TraceTask.for_workload("compress", SCALE).payload())
        reference = get_workload("compress").trace(scale=SCALE)
        assert len(outcome["trace_binary"]) < len(dumps_trace(reference).encode("utf-8")) // 5

    def test_text_payloads_still_accepted_as_fallback(self, tmp_path):
        # A cache entry written by older code (canonical text) still
        # probes, decodes and simulates; see payload_trace's fallback.
        from repro.engine.codecs import payload_trace
        from repro.engine.tasks import TraceTask
        from repro.engine.worker import execute_trace_task
        from repro.trace.io import dumps_trace, loads_trace_binary

        outcome = execute_trace_task(TraceTask.for_workload("compress", SCALE).payload())
        trace = loads_trace_binary(outcome["trace_binary"])
        legacy = {
            "trace_text": dumps_trace(trace),
            "statistics": outcome["statistics"],
        }
        assert dumps_trace(payload_trace(legacy)) == legacy["trace_text"]

        cache_dir = tmp_path / "cache"
        spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=("l",))
        engine = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        cold = engine.run_sweep(spec)
        # Rewrite the trace entry the way pre-v3-wire code would have.
        task = TraceTask.for_workload("compress", SCALE)
        engine.cache.put("trace", task.cache_key(), legacy, format="json")
        warm = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        result = warm.run_sweep(spec)
        assert warm.stats.traces_computed == 0
        assert result.points[0].result == cold.points[0].result


class _BytesPayloadBackend(SerialBackend):
    """Runs in-process but asks for off-process payloads, and keeps them."""

    name = "bytes-payload"

    def __init__(self) -> None:
        self.payloads: list[dict] = []

    def inline_payloads(self, task_count: int) -> bool:
        return False

    def map(self, function, payloads, on_result=None, chunks=None):
        self.payloads.extend(payloads)
        return super().map(function, payloads, on_result, chunks)


class TestTextCacheWire:
    """A trace read from a text cache entry is encoded once for the wire."""

    @pytest.mark.parametrize("run", ["campaign", "sweep"])
    def test_one_encode_per_trace(self, tmp_path, run):
        def go(engine, predictors):
            if run == "campaign":
                return engine.run(SCALE, predictors, ("compress",)).simulations["compress"]
            spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=predictors)
            return [point.result for point in engine.run_sweep(spec).points]

        cache_dir = tmp_path / "cache"
        # Cache the trace (as text) but no simulation of the predictors below.
        go(ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="text"), ("l",))
        backend = _BytesPayloadBackend()
        warm = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="text", backend=backend)
        predictors = ("s2", "fcm3")
        result = go(warm, predictors)
        assert warm.stats.traces_computed == 0
        shipped = [payload["trace_bytes"] for payload in backend.payloads]
        assert len(shipped) == len(predictors)
        assert len({id(data) for data in shipped}) == 1
        assert result == go(ExecutionEngine(jobs=1), predictors)


class TestBinaryWireFormat:
    def test_pool_payload_carries_v3_bytes(self, compress_trace):
        task = SimulateTask(
            benchmark="compress",
            predictor="l",
            trace_digest="d",
            predictor_signature="sig",
        )
        payload = task.payload(wire_trace_bytes(compress_trace))
        assert "trace_text" not in payload
        assert isinstance(payload["trace_bytes"], bytes)

    def test_worker_decodes_binary_text_and_inline_identically(self, compress_trace):
        from repro.engine.codecs import shard_from_dict
        from repro.engine.fingerprint import predictor_signature
        from repro.trace.io import dumps_trace, dumps_trace_binary

        signature = predictor_signature("s2")
        base = {"predictor": "s2", "signature": signature}
        inline = execute_simulate_task({**base, "trace": compress_trace})
        binary = execute_simulate_task(
            {**base, "trace_bytes": dumps_trace_binary(compress_trace)}
        )
        text = execute_simulate_task({**base, "trace_text": dumps_trace(compress_trace)})
        assert shard_from_dict(inline["shard"]) == shard_from_dict(binary["shard"])
        assert shard_from_dict(inline["shard"]) == shard_from_dict(text["shard"])

    def test_binary_payload_smaller_than_text(self, compress_trace):
        from repro.trace.io import dumps_trace

        task = SimulateTask(
            benchmark="compress", predictor="l", trace_digest="d", predictor_signature="s"
        )
        payload = task.payload(wire_trace_bytes(compress_trace))
        text = dumps_trace(compress_trace)
        assert len(payload["trace_bytes"]) < len(text.encode("utf-8")) // 10


class TestEquivalentFlagsShareATrace:
    """gcc's -O2 builds the same program as its default flags: one trace."""

    def test_trace_task_resolves_o2_to_the_default(self):
        from repro.engine.tasks import TraceTask

        gcc = get_workload("gcc")
        assert gcc.flag_parameters("-O2") == gcc.flag_parameters("ref")
        assert TraceTask.for_workload("gcc", SCALE, flags="-O2").flags == "ref"
        assert TraceTask.for_workload("gcc", SCALE, flags="-O1").flags == "-O1"
        assert TraceTask.for_workload("gcc", SCALE, flags="none").flags == "none"
        assert TraceTask.for_workload("compress", SCALE).flags == "ref"

    def test_flag_study_traces_o2_once(self, tmp_path):
        spec = SweepSpec.flag_study(benchmark="gcc", predictor="l", scale=SCALE)
        with ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache") as engine:
            result = engine.run_sweep(spec)
        assert [point.point.flags for point in result.points] == ["ref", "none", "-O1", "-O2"]
        assert engine.stats.traces_computed == 3
        by_flags = {point.point.flags: point for point in result.points}
        assert by_flags["-O2"].result == by_flags["ref"].result
        assert len(list((tmp_path / "cache" / "trace").rglob("*.rvpc"))) == 3
