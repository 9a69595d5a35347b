"""Telemetry suite: sink semantics, instrumented runs, and the on/off invariant.

The telemetry contract has one load-bearing clause: results and cache
entries are **byte-identical** with telemetry on or off — the observability
sidecar workers attach to their outcomes is stripped before anything is
decoded or cached, and the sinks only observe.  On top of that invariant
this file pins the JSONL record schema round-trip, manifest contents, the
span parent chain, the recorded-run summary ``repro-vp inspect`` renders,
and the remote fleet's worker-side timing and utilization records.
"""

from __future__ import annotations

import json
import io
import sys

import pytest

from repro.cli import main
from repro.engine import ExecutionEngine
from repro.engine.remote import WorkerServer
from repro.engine.sweeps import SweepSpec
from repro.engine.telemetry import (
    NULL_TELEMETRY,
    TELEMETRY_KEY,
    NullTelemetry,
    RunTelemetry,
    read_manifest,
    read_metrics,
    summarize_run,
)
from repro.engine.worker import execute_simulate_task, execute_trace_task

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim")
PREDICTORS = ("l", "fcm2")


def _entry_bytes(cache_dir):
    """Relative path -> raw bytes of every entry in a cache directory."""
    return {
        str(path.relative_to(cache_dir)): path.read_bytes()
        for path in cache_dir.glob("*/*/*")
        if path.is_file()
    }


def _campaign(tmp_path, name, telemetry=None, backend="serial"):
    cache_dir = tmp_path / f"cache-{name}"
    with ExecutionEngine(
        jobs=2, cache_dir=cache_dir, backend=backend, telemetry=telemetry
    ) as engine:
        result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    return result, cache_dir, engine.stats


class TestNullTelemetry:
    def test_every_operation_is_inert(self):
        sink = NullTelemetry()
        assert not sink.enabled
        assert sink.run_id is None
        with sink.span("phase", phase="trace") as span:
            span.set(total=3)
        sink.span_record("task", 0.25, label="gcc")
        sink.event("remote.worker", worker="a")
        sink.count("cache.hit")
        sink.annotate(backend="serial")
        sink.close()

    def test_span_is_shared_singleton(self):
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")


class TestRunTelemetry:
    def test_jsonl_schema_round_trip(self, tmp_path):
        with RunTelemetry(tmp_path, run_id="run-1", argv=["x"], command="test") as sink:
            with sink.span("run", kind="campaign") as run_span:
                with sink.span("phase", phase="trace") as phase_span:
                    phase_span.set(total=2)
                    sink.span_record("task", 0.5, label="gcc")
                run_span.set(tasks_computed=2)
            sink.event("cache.gc", removed=1)
            sink.count("cache.hit", 3)
            sink.count("cache.hit")
        records = list(read_metrics(tmp_path))
        by_type = {}
        for record in records:
            assert record["run"] == "run-1"
            by_type.setdefault(record["type"], []).append(record)
        spans = {record["name"]: record for record in by_type["span"]}
        assert spans["run"]["parent"] is None
        assert spans["phase"]["parent"] == spans["run"]["id"]
        assert spans["task"]["parent"] == spans["phase"]["id"]
        assert spans["task"]["dt"] == 0.5
        assert spans["phase"]["attrs"]["total"] == 2
        assert spans["run"]["attrs"]["tasks_computed"] == 2
        for span in spans.values():
            assert span["dt"] >= 0.0 and span["t"] > 0
        (event,) = by_type["event"]
        assert event["name"] == "cache.gc" and event["attrs"] == {"removed": 1}
        (counter,) = by_type["counter"]
        assert counter["name"] == "cache.hit" and counter["value"] == 4

    def test_manifest_contents_and_annotate(self, tmp_path):
        sink = RunTelemetry(tmp_path, argv=["repro-vp", "campaign"], command="campaign")
        sink.annotate(backend="remote", jobs=4)
        sink.close()
        manifest = read_manifest(tmp_path)
        assert manifest["command"] == "campaign"
        assert manifest["argv"] == ["repro-vp", "campaign"]
        assert manifest["run_id"] == sink.run_id
        assert manifest["backend"] == "remote"
        assert manifest["jobs"] == 4
        for pin in ("protocol_version", "task_format_version", "cache_entry_version"):
            assert isinstance(manifest[pin], int)
        assert manifest["finished_wall"] >= manifest["created_wall"]

    def test_manifest_version_of_an_uninstalled_checkout(self, tmp_path, monkeypatch):
        import importlib.metadata

        import repro

        def not_installed(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", not_installed)
        RunTelemetry(tmp_path, argv=[]).close()
        assert read_manifest(tmp_path)["package_version"] == repro.__version__

    def test_package_version_is_pinned_by_pyproject(self):
        import re
        from pathlib import Path

        import repro

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        project = pyproject.read_text(encoding="utf-8").split("[project]", 1)[1]
        version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
        assert version is not None and version.group(1) == repro.__version__

    def test_starts_no_subprocess(self, tmp_path, monkeypatch):
        import platform
        import subprocess

        # Drop the standard library's uname/platform memos, so a lookup
        # that spawns ``uname -p`` would run again here.
        monkeypatch.setattr(platform, "_uname_cache", None, raising=False)
        monkeypatch.setattr(platform, "_platform_cache", {}, raising=False)
        spawned = []

        def refuse(*args, **kwargs):
            spawned.append(args)
            raise OSError("no subprocess expected")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        RunTelemetry(tmp_path, argv=[]).close()
        assert spawned == []
        assert read_manifest(tmp_path)["platform"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux platform string")
    def test_manifest_platform_matches_the_standard_library(self, tmp_path):
        import platform

        RunTelemetry(tmp_path, argv=[]).close()
        assert read_manifest(tmp_path)["platform"] == platform.platform()

    def test_error_escaping_span_is_stamped(self, tmp_path):
        sink = RunTelemetry(tmp_path, run_id="run-err", argv=[])
        with pytest.raises(ValueError):
            with sink.span("run"):
                raise ValueError("boom")
        sink.close()
        (span,) = [r for r in read_metrics(tmp_path) if r["type"] == "span"]
        assert span["attrs"]["error"] == "ValueError: boom"

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        sink = RunTelemetry(tmp_path, run_id="run-t", argv=[])
        sink.event("ok")
        sink.close()
        metrics = tmp_path / "metrics.jsonl"
        with open(metrics, "a", encoding="utf-8") as handle:
            handle.write('{"run": "run-t", "type": "ev')  # killed mid-write
        records = list(read_metrics(tmp_path))
        assert [record["name"] for record in records] == ["ok"]


class TestSidecar:
    def test_worker_outcomes_carry_sidecar(self):
        outcome = execute_trace_task({"benchmark": "compress", "scale": SCALE})
        sidecar = outcome[TELEMETRY_KEY]
        assert sidecar["function"] == "trace"
        assert sidecar["execute_seconds"] > 0
        assert isinstance(sidecar["pid"], int)
        simulate = execute_simulate_task(
            {"trace_bytes": outcome["trace_binary"], "predictor": "l"}
        )
        assert simulate[TELEMETRY_KEY]["function"] == "simulate"

    def test_sidecar_never_reaches_cache_entries(self, tmp_path):
        _, cache_dir, _ = _campaign(tmp_path, "probe")
        for relative, blob in _entry_bytes(cache_dir).items():
            assert TELEMETRY_KEY.encode() not in blob, relative


class TestOnOffParity:
    def test_campaign_results_and_cache_entries_identical(self, tmp_path):
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="campaign")
        on, on_cache, _ = _campaign(tmp_path, "on", telemetry=telemetry)
        telemetry.close()
        off, off_cache, _ = _campaign(tmp_path, "off", telemetry=None)
        for benchmark in BENCHMARKS:
            assert on.statistics[benchmark] == off.statistics[benchmark]
            assert on.simulations[benchmark] == off.simulations[benchmark]
        assert _entry_bytes(on_cache) == _entry_bytes(off_cache)

    def test_sweep_results_and_cache_entries_identical(self, tmp_path):
        spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=("l", "s2"))
        points = {}
        entries = {}
        for mode in ("on", "off"):
            telemetry = (
                RunTelemetry(tmp_path / "telemetry-sweep", argv=[], command="sweep")
                if mode == "on"
                else None
            )
            cache_dir = tmp_path / f"sweep-cache-{mode}"
            with ExecutionEngine(
                jobs=2, cache_dir=cache_dir, backend="pool", telemetry=telemetry
            ) as engine:
                result = engine.run_sweep(spec)
            if telemetry is not None:
                telemetry.close()
            points[mode] = [
                (entry.point, entry.record_count, entry.accuracy)
                for entry in result.points
            ]
            entries[mode] = _entry_bytes(cache_dir)
        assert points["on"] == points["off"]
        assert entries["on"] == entries["off"]


class TestInstrumentedRun:
    def test_campaign_records_phases_tasks_and_cache_counters(self, tmp_path):
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="campaign")
        _campaign(tmp_path, "cold", telemetry=telemetry)
        telemetry.close()
        summary = summarize_run(tmp_path / "telemetry")
        assert summary["manifest"]["backend"] == "serial"
        phase_names = [phase["phase"] for phase in summary["phases"]]
        assert phase_names == ["trace", "simulate"]
        for phase in summary["phases"]:
            assert phase["seconds"] > 0
        computed = len(BENCHMARKS) * (1 + len(PREDICTORS))
        assert len(summary["tasks"]) == computed
        for task in summary["tasks"]:
            assert task["seconds"] > 0 and isinstance(task["worker_pid"], int)
        # slowest-first ordering
        seconds = [task["seconds"] for task in summary["tasks"]]
        assert seconds == sorted(seconds, reverse=True)
        assert summary["cache"]["writes"] > 0
        assert summary["cache"]["write_bytes"] > 0
        assert summary["cache"]["misses"] > 0
        (run,) = summary["runs"]
        assert run["kind"] == "campaign" and run["tasks_computed"] == computed

    def test_warm_run_records_cache_hits(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ExecutionEngine(jobs=1, cache_dir=cache_dir) as engine:
            engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="campaign")
        with ExecutionEngine(jobs=1, cache_dir=cache_dir, telemetry=telemetry) as engine:
            engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        telemetry.close()
        assert engine.stats.cache_hit_bytes > 0
        assert engine.stats.cache_write_bytes == 0
        summary = summarize_run(tmp_path / "telemetry")
        assert summary["cache"]["hits"] > 0
        assert summary["cache"]["hit_ratio"] == 1.0
        assert summary["cache"]["hit_bytes"] == engine.stats.cache_hit_bytes

    def test_engine_stats_carry_phase_seconds(self, tmp_path):
        _, _, stats = _campaign(tmp_path, "seconds")
        assert stats.trace_seconds > 0
        assert stats.simulate_seconds > 0
        assert stats.trace_seconds + stats.simulate_seconds <= stats.total_seconds * 1.01


class TestRemoteTelemetry:
    def test_two_worker_run_records_worker_timing_and_utilization(self, tmp_path):
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="campaign")
        with WorkerServer() as alpha, WorkerServer() as beta:
            with ExecutionEngine(
                jobs=2,
                cache_dir=tmp_path / "cache",
                backend="remote",
                workers=(alpha.address, beta.address),
                telemetry=telemetry,
            ) as engine:
                result = engine.run(
                    scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS
                )
            server_stats = {
                server.address: (server.tasks_served, server.bytes_received, server.bytes_sent)
                for server in (alpha, beta)
            }
        telemetry.close()
        assert result.benchmarks() == BENCHMARKS
        summary = summarize_run(tmp_path / "telemetry")
        # per-task spans carry the worker-side execute time and pid
        assert summary["tasks"], "remote run recorded no task spans"
        for task in summary["tasks"]:
            assert task["seconds"] > 0 and isinstance(task["worker_pid"], int)
        # per-worker utilization events, one per worker per dispatch
        workers = summary["workers"]
        assert {worker["worker"] for worker in workers} == set(server_stats)
        total_tasks = sum(worker["tasks"] for worker in workers)
        assert total_tasks == sum(stats[0] for stats in server_stats.values())
        for worker in workers:
            assert worker["busy_seconds"] >= 0
            assert 0 <= worker["utilization"] <= 1.0 or worker["tasks"] == 0
            assert worker["peak_in_flight"] <= engine.jobs
            assert worker["frames_sent"] >= worker["tasks"]
        # Wire counters agree with the servers' own accounting up to the
        # handshake frames (counted by the server, but exchanged before
        # the first dispatch's per-worker deltas begin).
        server_received = sum(stats[1] for stats in server_stats.values())
        server_sent = sum(stats[2] for stats in server_stats.values())
        assert 0 < summary["counters"]["remote.bytes_sent"] <= server_received
        assert 0 < summary["counters"]["remote.bytes_received"] <= server_sent

    def test_result_frames_carry_worker_seconds(self, tmp_path):
        with WorkerServer() as server:
            with ExecutionEngine(
                jobs=2, backend="remote", workers=(server.address,)
            ) as engine:
                engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
            assert server.execute_seconds > 0
            assert server.tasks_served == 2  # one trace, one simulate

    def test_worker_stats_line(self):
        server = WorkerServer()
        line = server.stats_line()
        assert "0 task(s) served" in line
        assert "B in" in line and "B out" in line


class TestInspectCli:
    def _record_run(self, tmp_path):
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="campaign")
        _campaign(tmp_path, "inspect", telemetry=telemetry)
        telemetry.close()
        return tmp_path / "telemetry"

    def test_inspect_renders_recorded_run(self, tmp_path, capsys):
        run_dir = self._record_run(tmp_path)
        assert main(["inspect", str(run_dir)]) == 0
        output = capsys.readouterr().out
        assert "Phases" in output
        assert "Slowest tasks" in output
        assert "cache:" in output

    def test_inspect_json(self, tmp_path, capsys):
        run_dir = self._record_run(tmp_path)
        assert main(["inspect", str(run_dir), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["manifest"]["command"] == "campaign"
        assert summary["phases"]

    def test_inspect_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope")]) == 2
        assert "telemetry" in capsys.readouterr().err

    def test_campaign_cli_writes_telemetry(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--scale",
                str(SCALE),
                "--predictors",
                "l",
                "--benchmarks",
                "compress",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--telemetry-dir",
                str(tmp_path / "telemetry"),
            ]
        )
        assert code == 0
        manifest = read_manifest(tmp_path / "telemetry")
        assert manifest["command"] == "campaign"
        assert manifest["backend"] == "serial"
        assert (tmp_path / "telemetry" / "metrics.jsonl").stat().st_size > 0
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "telemetry")]) == 0


class TestWorkerServeStatsInterval:
    def test_periodic_stats_line_goes_to_stream(self, monkeypatch):
        server = WorkerServer()
        stream = io.StringIO()

        # serve_forever with a tiny interval; stop from a timer thread.
        import threading

        threading.Timer(0.5, server.stop).start()
        server.serve_forever(stats_interval=0.1, stats_stream=stream)
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert lines, "no stats lines emitted"
        assert all("task(s) served" in line for line in lines)
