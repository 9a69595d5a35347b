"""Self-tests of the benchmark harness (``python3 -m pytest -q perfbench``).

Each workload is run once through ``run.py`` with ``--trace 1`` and the
smallest repetition count, then its per-layer metrics are checked: every
metric ``BENCHMARK.json`` lists is reported, the layers the workload
exercises report work, and no nested layer's time exceeds its parent's.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DELIVERABLES = [d["identifier"] for d in json.loads((ROOT / "artifact" / "manifest.json").read_text())["deliverables"]]
REPORTING = [f"reporting.{identifier}_s" for identifier in DELIVERABLES]
#: Metrics that must report work (> 0) on each workload, from the layer
#: table in README.md.
EXPECTED_WORK = {
    "reproduce-cold": [
        "isa.run_s", "isa.run_calls", "workloads.trace_s", "trace.encode_binary_s", "trace.render_text_s",
        "engine.trace_task_s", "engine.trace_task_calls", "engine.simulate_task_s", "engine.simulate_task_calls",
        "engine.cache_put_s", "engine.cache_put_calls", "engine.cache_write_bytes", "engine.trace_phase_s",
        "engine.simulate_phase_s", "engine.traces_computed", "engine.simulations_computed",
        "simulation.vector_shard_s", "simulation.vector_shard_calls", "simulation.merge_s", "artifact.check_s",
        *REPORTING,
    ],
    "reproduce-warm": [
        "trace.decode_records_s", "trace.decode_records_calls", "engine.cache_get_s", "engine.cache_get_calls",
        "engine.cache_hit_bytes", "engine.trace_phase_s", "engine.traces_cached", "engine.simulations_cached",
        "simulation.value_profile_s", "artifact.check_s", *REPORTING,
    ],
    "simulate-fanout": [
        "engine.dispatch_s", "engine.worker_busy_s", "engine.worker_utilization", "engine.simulate_task_s",
        "engine.simulate_phase_s", "engine.simulations_computed", "engine.traces_cached",
    ],
}
#: Metrics that must be exactly this value on a workload.
EXPECTED_EXACT = {
    "reproduce-cold": {"simulation.kernel_fallbacks": 0},
    "reproduce-warm": {
        "isa.run_calls": 0, "engine.traces_computed": 0, "engine.simulations_computed": 0,
        "engine.cache_put_calls": 0, "simulation.kernel_fallbacks": 0,
    },
    "simulate-fanout": {
        "isa.run_calls": 0, "engine.traces_computed": 0, "engine.simulations_computed": 133,
        "engine.simulate_task_calls": 133, "simulation.kernel_fallbacks": 0,
    },
}
JOBS = {"reproduce-cold": 1, "reproduce-warm": 1, "simulate-fanout": 2}
#: Slack for clock reads taken at slightly different points around a call.
EPSILON_S = 0.01


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """One benchmark run with the fewest repetitions (``--seconds 0``)."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0"]
        + ["--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (result, done.stderr)
    return result


@pytest.fixture(scope="module", params=list(EXPECTED_WORK))
def traced(request) -> tuple[str, dict]:
    result = _result(request.param, trace=1)
    return request.param, {name: entry["value"] for name, entry in result["metrics"].items()}


def test_every_per_layer_metric_is_reported(traced):
    workload, layers = traced
    assert sorted(layers) == sorted(metric["name"] for metric in SPEC["per_layer"])
    idle = [name for name in EXPECTED_WORK[workload] if not layers[name] > 0]
    assert not idle, f"{workload}: layers report no work: {idle}"
    for name, value in EXPECTED_EXACT[workload].items():
        assert layers[name] == value, (workload, name)


def test_no_nested_layer_exceeds_its_parent(traced):
    workload, layers = traced
    m = dict(layers)
    jobs = JOBS[workload]
    m["reporting (sum)"] = sum(m[name] for name in REPORTING)
    m["engine phases (sum)"] = m["engine.trace_phase_s"] + m["engine.simulate_phase_s"]
    m["jobs x engine.trace_phase_s"] = jobs * m["engine.trace_phase_s"]
    m["jobs x engine.simulate_phase_s"] = jobs * m["engine.simulate_phase_s"]
    pairs = [
        ("harness.traced_wall_s", "reporting (sum)"),
        ("harness.traced_wall_s", "engine phases (sum)"),
        ("engine phases (sum)", "engine.dispatch_s"),
        ("jobs x engine.trace_phase_s", "engine.trace_task_s"),
        ("engine.trace_task_s", "workloads.trace_s"),
        ("engine.trace_task_s", "trace.render_text_s"),
        ("workloads.trace_s", "isa.run_s"),
        ("jobs x engine.simulate_phase_s", "engine.worker_busy_s"),
        ("jobs x engine.simulate_phase_s", "engine.simulate_task_s"),
        ("engine.simulate_task_s", "simulation.vector_shard_s"),
    ]
    broken = [
        f"{child} {m[child]:.4f} > {parent} {m[parent]:.4f}"
        for parent, child in pairs
        if m[child] > m[parent] + EPSILON_S
    ]
    assert not broken, f"{workload}: {broken}"
    assert 0 < m["engine.worker_utilization"] <= 1 or workload == "reproduce-warm"


def test_plain_run_reports_every_end_to_end_metric():
    result = _result("reproduce-warm", trace=0)
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]
    }
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("reproduce-cold", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_committed_fanout_digest_matches_its_counts():
    from rep import FANOUT_EXPECTED, counts_digest

    expected = json.loads(FANOUT_EXPECTED.read_text(encoding="utf-8"))
    assert counts_digest(expected["counts"]) == expected["sha256"]
    assert sum(len(row) for row in expected["counts"].values()) == 133
