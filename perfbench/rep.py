"""One repetition of a perfbench workload, in a fresh interpreter.

Each timed call runs in its own process because ``repro`` memoises
campaign and sweep results in process-wide dictionaries: a second call in
the same process would time a dictionary hit, not the work.

    python3 perfbench/rep.py --workload NAME --cache-dir DIR --out FILE
        [--template DIR] [--seed N] [--trace]
    python3 perfbench/rep.py --fill NAME --cache-dir DIR --out FILE
    python3 perfbench/rep.py --probe NAME --out FILE
    python3 perfbench/rep.py --write-expected --cache-dir DIR

The result is one JSON object written to ``--out``.  ``--fill`` builds the
cache template a warm workload copies before each repetition; ``--probe``
only imports the program and records versions and the engine settings of
a workload.  ``--write-expected`` regenerates ``fanout_expected.json`` with
the scalar reference kernel.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import repro  # noqa: E402
from repro.artifact import reproduce  # noqa: E402
from repro.core.registry import available_predictors  # noqa: E402
from repro.engine.scheduler import ExecutionEngine  # noqa: E402
from repro.engine.telemetry import RunTelemetry, summarize_run  # noqa: E402
from repro.simulation import campaign  # noqa: E402
from repro.workloads.suite import BENCHMARK_ORDER  # noqa: E402

WORKLOADS = ("reproduce-cold", "reproduce-warm", "simulate-fanout")
SCALE = 1.0
REPRODUCE_SETTINGS = {"kernel": "vector", "cache_format": "binary", "backend": "serial", "jobs": 1}
FANOUT_SETTINGS = {"kernel": "vector", "cache_format": "binary", "backend": "persistent", "jobs": 2}
#: The template of simulate-fanout holds traces and ``l`` entries only,
#: so every one of these predictors is simulated on every benchmark.
FANOUT_PREDICTORS = tuple(name for name in available_predictors() if name != "l")
FANOUT_EXPECTED = HERE / "fanout_expected.json"


def _reproduce(cache_dir: Path, out_dir: Path):
    campaign.reset_campaign_defaults()
    campaign.set_campaign_defaults(cache_dir=str(cache_dir), use_cache=True, shard_window=None, **REPRODUCE_SETTINGS)
    return reproduce(check=True, out_dir=out_dir)


def _fanout_engine(cache_dir: Path, **overrides) -> ExecutionEngine:
    settings = {**FANOUT_SETTINGS, **overrides}
    return ExecutionEngine(
        cache_dir=str(cache_dir),
        use_cache=True,
        cache_max_bytes=None,
        cache_max_age=None,
        shard_window=None,
        **settings,
    )


def fanout_order(seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The seed picks the order benchmarks and predictors are dispatched in."""
    rng = random.Random(seed)
    benchmarks, predictors = list(BENCHMARK_ORDER), list(FANOUT_PREDICTORS)
    rng.shuffle(benchmarks)
    rng.shuffle(predictors)
    return tuple(benchmarks), tuple(predictors)


def correct_counts(simulations: dict) -> dict:
    """``{benchmark: {predictor: [correct, total]}}`` in sorted order."""
    return {
        benchmark: {name: [result.correct, result.total] for name, result in sorted(simulation.results.items())}
        for benchmark, simulation in sorted(simulations.items())
    }


def counts_digest(counts: dict) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def _stats_metrics(stats) -> dict:
    return {
        "engine.trace_phase_s": stats.trace_seconds,
        "engine.simulate_phase_s": stats.simulate_seconds,
        "engine.traces_computed": stats.traces_computed,
        "engine.traces_cached": stats.traces_cached,
        "engine.simulations_computed": stats.simulations_computed,
        "engine.simulations_cached": stats.simulations_cached,
        "engine.cache_hit_bytes": stats.cache_hit_bytes,
        "engine.cache_write_bytes": stats.cache_write_bytes,
    }


def _telemetry_metrics(run_dir: Path, jobs: int, simulate_phase_s: float) -> tuple[dict, dict]:
    """Worker-side numbers from the run telemetry the engine wrote.

    Task spans carry the execute time each worker measured for itself.
    Spans from other processes than this one are work the in-process
    wrappers could not see; they are returned second, as
    ``{"trace"|"simulate": [seconds, calls]}``.
    """
    summary = summarize_run(run_dir)
    simulate_tasks = [task for task in summary["tasks"] if task.get("phase") == "simulate"]
    busy = sum(task["seconds"] for task in simulate_tasks)
    remote = {"trace": [0.0, 0], "simulate": [0.0, 0]}
    for task in summary["tasks"]:
        if task.get("worker_pid") != os.getpid() and task.get("function") in remote:
            remote[task["function"]][0] += task["seconds"]
            remote[task["function"]][1] += 1
    metrics = {
        "engine.worker_busy_s": busy,
        "engine.worker_utilization": busy / (jobs * simulate_phase_s) if simulate_phase_s > 0 else 0.0,
        "simulation.kernel_fallbacks": summary["kernels"]["fallback_total"],
    }
    return metrics, remote


def _checks(workload: str, stats, extra: dict) -> list[str]:
    """Work-done and output checks, made after the timed call."""
    problems = []
    if workload == "reproduce-cold" and not (stats.traces_computed > 0 and stats.simulations_computed > 0):
        problems.append(f"cold run computed {stats.traces_computed} traces, {stats.simulations_computed} simulations")
    if workload == "reproduce-warm" and (stats.traces_computed or stats.simulations_computed):
        problems.append(f"warm run computed {stats.traces_computed} traces, {stats.simulations_computed} simulations")
    if workload == "simulate-fanout":
        expected_units = len(BENCHMARK_ORDER) * len(FANOUT_PREDICTORS)
        if stats.traces_computed != 0 or stats.simulations_computed != expected_units:
            problems.append(
                f"fanout computed {stats.traces_computed} traces, {stats.simulations_computed} "
                f"simulations (expected 0 and {expected_units})"
            )
        expected = json.loads(FANOUT_EXPECTED.read_text(encoding="utf-8"))
        if extra["digest"] != expected["sha256"]:
            wrong = [
                f"{benchmark}:{name}"
                for benchmark, row in extra["counts"].items()
                for name, value in row.items()
                if expected["counts"].get(benchmark, {}).get(name) != value
            ]
            problems.append(f"correct counts differ from {FANOUT_EXPECTED.name}: {', '.join(wrong) or 'layout'}")
    else:
        report = extra["report"]
        checks = report.check_report.checks if report.check_report else []
        passed = sum(1 for check in checks if check.ok)
        if passed != len(report.manifest.deliverables) or not report.ok:
            problems.append(f"check passed for {passed} of {len(report.manifest.deliverables)} deliverables")
    return problems


def run_rep(workload: str, cache_dir: Path, template: Path | None, seed: int, trace: bool) -> dict:
    work_dir = cache_dir.parent
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    if template is not None:
        shutil.copytree(template, cache_dir)
    else:
        cache_dir.mkdir(parents=True)
    out_dir = work_dir / "results"
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    telemetry_dir = work_dir / "telemetry"
    extra: dict = {}

    cpu_before = _cpu_seconds()
    started = time.monotonic()
    if workload == "simulate-fanout":
        benchmarks, predictors = fanout_order(seed)
        telemetry = RunTelemetry(telemetry_dir, command="perfbench") if trace else None
        with _fanout_engine(cache_dir, telemetry=telemetry) as engine:
            result = engine.run(scale=SCALE, predictors=predictors, benchmarks=benchmarks)
        wall = time.monotonic() - started
        cpu = _cpu_seconds() - cpu_before
        if telemetry is not None:
            telemetry.close()
        stats = engine.stats
        extra["counts"] = correct_counts(result.simulations)
        extra["digest"] = counts_digest(extra["counts"])
        jobs = FANOUT_SETTINGS["jobs"]
    else:
        report = _reproduce(cache_dir, out_dir)
        wall = time.monotonic() - started
        cpu = _cpu_seconds() - cpu_before
        stats = report.stats
        extra["report"] = report
        telemetry_dir = report.run_dir
        jobs = REPRODUCE_SETTINGS["jobs"]

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "timed_start": started,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(self_rss, child_rss) / 1024.0,
        "cache_mb": _tree_bytes(cache_dir) / 1e6,
        "stats": _stats_metrics(stats),
        "problems": _checks(workload, stats, extra),
    }
    if tracer is not None:
        layers = tracer.metrics()
        telemetry_metrics, remote = _telemetry_metrics(telemetry_dir, jobs, stats.simulate_seconds)
        for function, (seconds, calls) in remote.items():
            layers[f"engine.{function}_task_s"] += seconds
            layers[f"engine.{function}_task_calls"] += calls
        result["layers"] = {**layers, **result["stats"], **telemetry_metrics}
        if result["layers"]["simulation.kernel_fallbacks"]:
            result["problems"].append(f"{result['layers']['simulation.kernel_fallbacks']} vector-kernel fallbacks")
    return result


def fill(workload: str, cache_dir: Path) -> dict:
    """Build the cache template of a warm workload (never timed)."""
    if workload == "reproduce-warm":
        report = _reproduce(cache_dir, cache_dir.parent / "fill-results")
        ok = report.ok and report.stats.simulations_computed > 0
    else:
        with _fanout_engine(cache_dir, backend="serial", jobs=1) as engine:
            engine.run(scale=SCALE, predictors=("l",), benchmarks=BENCHMARK_ORDER)
        ok = engine.stats.traces_computed == len(BENCHMARK_ORDER)
    return {"ok": ok}


def write_expected(cache_dir: Path) -> dict:
    """Simulate the fanout with the scalar reference kernel; commit the counts."""
    with _fanout_engine(cache_dir, backend="serial", jobs=1, kernel="scalar") as engine:
        result = engine.run(scale=SCALE, predictors=FANOUT_PREDICTORS, benchmarks=BENCHMARK_ORDER)
    counts = correct_counts(result.simulations)
    expected = {"kernel": "scalar", "scale": SCALE, "sha256": counts_digest(counts), "counts": counts}
    FANOUT_EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return {"ok": True, "sha256": expected["sha256"]}


def probe(workload: str) -> dict:
    return {
        "settings": {**(FANOUT_SETTINGS if workload == "simulate-fanout" else REPRODUCE_SETTINGS), "scale": SCALE},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "repro_path": str(Path(repro.__file__).resolve().parent),
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--fill", choices=WORKLOADS[1:])
    parser.add_argument("--probe", choices=WORKLOADS)
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--cache-dir", type=Path)
    parser.add_argument("--template", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.probe:
        result = probe(args.probe)
    elif args.write_expected:
        result = write_expected(args.cache_dir.resolve())
    elif args.fill:
        result = fill(args.fill, args.cache_dir.resolve())
    else:
        result = run_rep(args.workload, args.cache_dir.resolve(), args.template, args.seed, args.trace)
    if args.out is None:
        print(json.dumps(result))
    else:
        args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
