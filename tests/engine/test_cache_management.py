"""Tests for binary cache entries and the cache-management layer."""

from __future__ import annotations

import os
import time

import pytest

from repro.engine import ExecutionEngine
from repro.engine.cache import ResultCache
from repro.engine.sweeps import SweepSpec
from repro.engine.tasks import TraceTask
from repro.engine.codecs import (
    decode_cache_entry,
    encode_cache_entry,
    payload_trace,
    payload_trace_digest,
    payload_trace_text,
)
from repro.trace.io import dumps_trace, dumps_trace_binary
from repro.trace.synthetic import trace_from_values

SCALE = 0.05
BENCHMARKS = ("compress",)
PREDICTORS = ("l", "s2")


def _age(path, seconds):
    """Backdate an entry's mtime, as if it had been idle for ``seconds``."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestCacheEntryEnvelope:
    def test_round_trip_plain_payload(self):
        key = {"kind": "simulate", "trace": "abc", "predictor": "l"}
        payload = {"shard": {"correctness": "ff00", "record_count": 16}}
        for compress in (False, True):
            blob = encode_cache_entry(key, payload, compress=compress)
            restored_key, restored_payload = decode_cache_entry(blob)
            assert restored_key == key
            assert restored_payload == payload

    def test_round_trip_trace_payload_is_bit_identical(self):
        import hashlib

        trace = trace_from_values([3, 1, 4, 1, 5] * 20, name="envelope test")
        trace.set_total_dynamic_instructions(250)
        text = dumps_trace(trace)
        payload = {"trace_text": text, "statistics": {"predicted": 100}}
        _, restored = decode_cache_entry(encode_cache_entry({"kind": "trace"}, payload))
        # The trace comes back in binary form; the accessors restore the
        # canonical text and the digest of the canonical v3 bytes.
        assert "trace_text" not in restored and "trace_binary" in restored
        assert payload_trace_text(restored) == text
        assert dumps_trace(payload_trace(restored)) == text
        assert (
            payload_trace_digest(restored)
            == hashlib.sha256(dumps_trace_binary(trace)).hexdigest()
        )
        assert restored["statistics"] == {"predicted": 100}

    def test_reencoding_a_decoded_payload_round_trips(self):
        trace = trace_from_values([9, 8, 7], name="re-encode")
        payload = {"trace_text": dumps_trace(trace)}
        _, decoded = decode_cache_entry(encode_cache_entry({"k": 1}, payload))
        _, again = decode_cache_entry(encode_cache_entry({"k": 1}, decoded))
        assert payload_trace_text(again) == payload["trace_text"]

    def test_key_stays_greppable(self):
        blob = encode_cache_entry({"workload": "compress-grep-me"}, {"x": 1})
        assert b"compress-grep-me" in blob

    def test_trace_payload_shrinks(self):
        trace = trace_from_values(list(range(500)), name="size")
        payload = {"trace_text": dumps_trace(trace)}
        import json

        binary = encode_cache_entry({"kind": "trace"}, payload)
        text = json.dumps({"key": {"kind": "trace"}, "payload": payload}).encode()
        assert len(binary) < len(text) // 4

    @pytest.mark.parametrize("keep", [3, 12, 40])
    def test_truncated_envelope_rejected(self, keep):
        blob = encode_cache_entry({"kind": "x"}, {"p": list(range(50))})
        with pytest.raises(ValueError):
            decode_cache_entry(blob[:keep])

    def test_truncation_mid_varint_raises_value_error(self):
        # The corruption contract is ValueError even where the underlying
        # varint reader signals truncation with TraceError.
        from repro.engine.codecs import CACHE_ENTRY_MAGIC

        with pytest.raises(ValueError):
            decode_cache_entry(CACHE_ENTRY_MAGIC + b"\xff")


class TestCacheStorageFormats:
    KEY = {"kind": "trace", "workload": "w"}

    def _trace_payload(self):
        trace = trace_from_values([1, 2, 3] * 30, name="fmt")
        return {"trace_text": dumps_trace(trace), "statistics": {"n": 90}}

    def test_binary_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = self._trace_payload()
        cache.put("trace", self.KEY, payload, format="binary")
        restored = cache.get("trace", self.KEY)
        assert payload_trace_text(restored) == payload["trace_text"]
        assert restored["statistics"] == payload["statistics"]

    def test_put_replaces_other_format_sibling(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = self._trace_payload()
        cache.put("trace", self.KEY, payload, format="json")
        cache.put("trace", self.KEY, payload, format="binary")
        assert cache.entry_count() == 1
        cache.put("trace", self.KEY, payload, format="json")
        assert cache.entry_count() == 1
        assert cache.get("trace", self.KEY) == payload

    def test_corrupt_binary_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("trace", self.KEY, self._trace_payload(), format="binary")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.get("trace", self.KEY) is None
        assert cache.misses == 1

    def test_entry_count_sees_binary_entries(self, tmp_path):
        # Regression: enumeration used to glob only ``*/*/*.json`` and
        # silently undercounted once binary entries existed.
        cache = ResultCache(tmp_path)
        cache.put("trace", self.KEY, self._trace_payload(), format="binary")
        cache.put("simulate", {"kind": "simulate"}, {"x": 1}, format="json")
        assert cache.entry_count() == 2
        stats = cache.stats()
        assert stats.entries == 2
        assert set(stats.kinds) == {"trace", "simulate"}
        assert stats.bytes == sum(path.stat().st_size for path in cache.entry_paths())

    def test_tmp_files_not_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("trace", self.KEY, {"x": 1})
        shard_dir = next(iter(cache.entry_paths())).parent
        (shard_dir / "orphan.json.123.tmp").write_text("partial")
        assert cache.entry_count() == 1


class TestGarbageCollection:
    def _populate(self, cache, count, kind="simulate"):
        paths = []
        for index in range(count):
            path = cache.put(kind, {"k": index}, {"blob": "x" * 200}, format="binary")
            paths.append(path)
        return paths

    def test_max_age_evicts_only_idle_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        paths = self._populate(cache, 4)
        _age(paths[0], 5000)
        _age(paths[1], 5000)
        report = cache.gc(max_age=3600)
        assert report.removed_entries == 2
        assert cache.entry_count() == 2
        assert all(path.exists() for path in paths[2:])

    def test_max_bytes_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        paths = self._populate(cache, 4)
        for index, path in enumerate(paths):
            _age(path, 1000 - index)  # paths[0] oldest, paths[3] newest
        entry_size = paths[0].stat().st_size
        report = cache.gc(max_bytes=2 * entry_size)
        assert report.removed_entries == 2
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()
        assert report.remaining_bytes <= 2 * entry_size

    def test_gc_respects_constructor_defaults(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=0)
        self._populate(cache, 3)
        for path in cache.entry_paths():
            _age(path, 10)
        assert cache.gc().removed_entries == 3
        assert cache.entry_count() == 0

    def test_gc_never_evicts_entries_newer_than_its_start(self, tmp_path):
        # In-flight protection: entries that land after the GC pass began
        # must survive even a zero-byte budget.
        cache = ResultCache(tmp_path)
        paths = self._populate(cache, 2)
        for path in paths:
            _age(path, 100)
        in_flight = cache.put("simulate", {"k": "new"}, {"blob": "y"}, format="binary")
        future = time.time() + 30
        os.utime(in_flight, (future, future))
        report = cache.gc(max_bytes=0)
        assert in_flight.exists()
        assert report.removed_entries == 2
        assert cache.entry_count() == 1

    def test_cache_hit_refreshes_lru_position(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cache.put("simulate", {"k": 1}, {"v": "a" * 100}, format="binary")
        second = cache.put("simulate", {"k": 2}, {"v": "b" * 100}, format="binary")
        _age(first, 500)
        _age(second, 100)
        assert cache.get("simulate", {"k": 1}) is not None  # refresh the older one
        report = cache.gc(max_bytes=first.stat().st_size)
        assert report.removed_entries == 1
        assert first.exists() and not second.exists()

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._populate(cache, 3)
        assert cache.clear() == 3
        assert cache.entry_count() == 0

    def test_gc_on_missing_root_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        report = cache.gc(max_bytes=0, max_age=0)
        assert report.removed_entries == 0
        assert report.remaining_entries == 0


class TestAutoGC:
    """Bounded GC runs automatically after engine runs — but must never
    evict what the finishing run just produced or read."""

    def test_no_auto_gc_without_bounds(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        assert engine.last_gc is None
        assert engine.cache.entry_count() > 0

    def test_current_run_survives_budget_smaller_than_its_output(self, tmp_path):
        # Regression: with --max-bytes smaller than one run's output, the
        # post-run GC pass used to be able to evict the run's own entries
        # (they all have mtimes before the pass starts).  Stale entries
        # from previous runs must go; the current run's must all stay.
        cache_dir = tmp_path / "cache"
        stale = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        stale.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("m88ksim",))
        stale_paths = list(stale.cache.entry_paths())
        assert stale_paths
        for path in stale_paths:
            _age(path, 5000)

        engine = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_max_bytes=1)
        engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert engine.last_gc is not None
        assert engine.last_gc.removed_entries == len(stale_paths)
        assert all(not path.exists() for path in stale_paths)

        # Every entry the budget-constrained run produced is still warm.
        warm = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.traces_computed == 0
        assert warm.stats.simulations_computed == 0

    def test_warm_entries_read_by_the_run_are_protected_too(self, tmp_path):
        # A hit bumps the mtime, so entries the run *reused* count as part
        # of the run and survive a tight budget as well.
        cache_dir = tmp_path / "cache"
        cold = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        for path in cold.cache.entry_paths():
            _age(path, 5000)

        bounded = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_max_bytes=1)
        bounded.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert bounded.stats.simulations_cached == len(PREDICTORS)
        # A fully-warm run reads the trace and merge entries (bumping
        # them); the per-predictor shards it never opened are the only
        # legitimately evictable entries under the tight budget.
        assert bounded.last_gc.removed_entries == len(PREDICTORS)

        warm = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.simulations_computed == 0
        assert warm.stats.traces_computed == 0

    def test_auto_gc_after_sweeps(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = SweepSpec.input_study(benchmark="compress", predictor="l", scale=SCALE)
        engine = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_max_bytes=1)
        engine.run_sweep(spec)
        assert engine.last_gc is not None

        warm = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        warm.run_sweep(spec)
        assert warm.stats.traces_computed == 0
        assert warm.stats.simulations_computed == 0


class TestVerify:
    def test_verify_passes_on_healthy_mixed_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("trace", {"k": 1}, {"x": 1}, format="binary")
        cache.put("simulate", {"k": 2}, {"x": 2}, format="json")
        report = cache.verify()
        assert report.checked == 2 and report.ok

    def test_verify_flags_corrupt_embedded_trace(self, tmp_path):
        # An envelope can be structurally intact while its embedded trace
        # bytes are not; `get` defers trace decoding, `verify` does not.
        cache = ResultCache(tmp_path)
        path = cache.put("trace", {"k": 1}, {"trace_binary": b"not a trace"}, format="binary")
        assert cache.verify().corrupt == [path]

    def test_verify_flags_truncated_and_misfiled_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = cache.put("trace", {"k": 1}, {"x": 1}, format="binary")
        truncated = cache.put("trace", {"k": 2}, {"x": 2}, format="binary")
        truncated.write_bytes(truncated.read_bytes()[:6])
        misfiled = good.with_name(f"{'0' * 64}.json")
        misfiled.write_text('{"key": {"k": 3}, "payload": {"x": 3}}')
        report = cache.verify()
        assert set(report.corrupt) == {truncated, misfiled}
        cache.verify(remove=True)
        assert cache.entry_count() == 1
        assert good.exists()


class TestEngineBinaryCachePath:
    def test_warm_rerun_from_binary_cache_is_bit_identical(self, tmp_path):
        reference = ExecutionEngine(jobs=1).run(
            scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS
        )
        cache_dir = tmp_path / "cache"
        cold = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="binary")
        cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert all(path.suffix == ".rvpc" for path in cold.cache.entry_paths())

        warm = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="binary")
        result = warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.traces_computed == 0
        assert warm.stats.simulations_computed == 0
        for benchmark in BENCHMARKS:
            assert result.simulations[benchmark] == reference.simulations[benchmark]
            assert result.statistics[benchmark] == reference.statistics[benchmark]

    def test_binary_engine_reads_text_cache_and_vice_versa(self, tmp_path):
        cache_dir = tmp_path / "cache"
        text_engine = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="text")
        text_result = text_engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert all(path.suffix == ".json" for path in text_engine.cache.entry_paths())

        binary_engine = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="binary")
        binary_result = binary_engine.run(
            scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS
        )
        assert binary_engine.stats.traces_computed == 0
        assert binary_engine.stats.simulations_computed == 0
        for benchmark in BENCHMARKS:
            assert binary_result.simulations[benchmark] == text_result.simulations[benchmark]

    def test_binary_cache_is_smaller_than_text_cache(self, tmp_path):
        text = ExecutionEngine(jobs=1, cache_dir=tmp_path / "text", cache_format="text")
        text.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        binary = ExecutionEngine(jobs=1, cache_dir=tmp_path / "binary", cache_format="binary")
        binary.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert binary.cache.stats().bytes < text.cache.stats().bytes // 2

    def test_corrupt_binary_trace_entry_recomputes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="binary")
        cold_result = cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        trace_entries = [
            path for path in cold.cache.entry_paths() if path.parent.parent.name == "trace"
        ]
        assert trace_entries
        for path in trace_entries:
            path.write_bytes(path.read_bytes()[:20])

        warm = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="binary")
        result = warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.traces_computed == len(BENCHMARKS)
        for benchmark in BENCHMARKS:
            assert result.simulations[benchmark] == cold_result.simulations[benchmark]

    def test_corrupt_embedded_trace_recomputes(self, tmp_path):
        # The envelope decodes fine but the v3 bytes inside do not: the
        # scheduler must fall back to re-tracing, not crash the run.
        cache_dir = tmp_path / "cache"
        cold = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="binary")
        cold_result = cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        for benchmark in BENCHMARKS:
            key = TraceTask.for_workload(benchmark, SCALE).cache_key()
            path = cold.cache.path_for("trace", key, format="binary")
            assert path.exists()
            path.write_bytes(encode_cache_entry(key, {"trace_binary": b"\x00garbage"}))

        warm = ExecutionEngine(jobs=1, cache_dir=cache_dir, cache_format="binary")
        result = warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.traces_computed == len(BENCHMARKS)
        for benchmark in BENCHMARKS:
            assert result.simulations[benchmark] == cold_result.simulations[benchmark]

    def test_rejects_unknown_cache_format(self, tmp_path):
        with pytest.raises(ValueError):
            ExecutionEngine(cache_dir=tmp_path, cache_format="parquet")
