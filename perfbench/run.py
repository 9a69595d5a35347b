"""The repository benchmark: three workloads through ``repro``'s public API.

    python3 perfbench/run.py --workload reproduce-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every timed call runs in a fresh
process (``perfbench/rep.py``); this script repeats it until ``--seconds``
have been measured and reports the median of each end-to-end metric.
``--trace 1`` makes one traced repetition for the per-layer metrics, then
plain ones for the tracing overhead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record (environment, settings, every repetition) is written under
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"
WORKLOADS = ("reproduce-cold", "reproduce-warm", "simulate-fanout")
#: Workloads whose repetitions start from a copy of a shared cache template.
TEMPLATED = WORKLOADS[1:]
MIN_REPS = 3
#: Every child process must end within this many seconds of this script's
#: start, so that a hung run still exits within three minutes.
BUDGET_S = 170


def _child(args: list[str], deadline: float) -> tuple[float, dict | None, str]:
    """Run ``rep.py`` in a fresh interpreter; returns (spawn time, result, stderr).

    The child gets its own session so that, should it hang, it and any
    worker processes it started are killed together.
    """
    out = Path(args[args.index("--out") + 1])
    out.unlink(missing_ok=True)
    spawned = time.monotonic()
    timeout = max(1.0, deadline - spawned)
    process = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *args],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        _, stderr = process.communicate()
        stderr += f"\nkilled after {timeout:.0f} s"
    if process.returncode != 0 or not out.is_file():
        return spawned, None, stderr
    return spawned, json.loads(out.read_text(encoding="utf-8")), stderr


def _repetition(workload: str, work: Path, template: Path | None, seed: int, trace: bool, deadline: float) -> dict:
    args = ["--workload", workload, "--cache-dir", str(work / "cache"), "--seed", str(seed)]
    args += ["--out", str(work / "rep.json")]
    if template is not None:
        args += ["--template", str(template)]
    if trace:
        args.append("--trace")
    spawned, result, stderr = _child(args, deadline)
    if result is None:
        sys.stderr.write(f"{workload} repetition failed:\n{stderr[-4000:]}\n")
        return {"problems": ["repetition crashed"]}
    result["setup_s"] = result.pop("timed_start") - spawned
    for problem in result["problems"]:
        sys.stderr.write(f"{workload}: {problem}\n")
    return result


def _source_digest() -> str:
    """SHA-256 over the program, its manifest and goldens, and the harness."""
    digest = hashlib.sha256()
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "artifact").rglob("*.json"), *HERE.glob("*.py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _template(workload: str, work: Path, source: str, deadline: float) -> Path:
    """The cache template of a warm workload, filled once per source tree.

    Every benchmark run of one checkout shares the fill; a template is
    keyed by the source digest, so a changed program never starts from
    another program's cache, and replaces the templates of older sources.
    """
    template = WORK_ROOT / "templates" / f"{workload}-{source[:16]}"
    if template.is_dir():
        return template
    staging = work / "template"
    fill = ["--fill", workload, "--cache-dir", str(staging), "--out", str(work / "fill.json")]
    _, filled, stderr = _child(fill, deadline)
    if not (filled and filled["ok"]):
        raise SystemExit(f"could not fill the {workload} cache template:\n{stderr[-4000:]}")
    template.parent.mkdir(parents=True, exist_ok=True)
    for stale in template.parent.glob(f"{workload}-*"):
        shutil.rmtree(stale)
    staging.rename(template)
    return template


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, source: str) -> dict:
    """All repetitions of one benchmark run; returns the full record.

    Plain repetitions run until the next one would end after ``seconds``,
    with at least ``MIN_REPS`` of them.
    """
    deadline = time.monotonic() + BUDGET_S
    _, probe, stderr = _child(["--probe", workload, "--out", str(work / "probe.json")], deadline)
    if probe is None:
        raise SystemExit(f"cannot import the program:\n{stderr[-4000:]}")
    if Path(probe["repro_path"]) != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"imported repro from {probe['repro_path']}, not from this checkout")
    template = _template(workload, work, source, deadline) if workload in TEMPLATED else None

    traced = _repetition(workload, work, template, seed, True, deadline) if trace else None
    reps: list[dict] = []
    started = time.monotonic()
    while True:
        reps.append(_repetition(workload, work, template, seed, False, deadline))
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    return {"probe": probe, "traced": traced, "reps": reps}


def summarize(record: dict, spec: dict, trace: bool) -> dict:
    """The result line: medians of the plain repetitions, or the traced
    repetition's per-layer metrics."""
    runs = record["reps"] + ([record["traced"]] if record["traced"] else [])
    failed = sum(1 for run in runs if run["problems"])
    good = [rep for rep in record["reps"] if not rep["problems"]]
    metrics = {}
    if not trace:
        for metric in spec["end_to_end"]:
            values = [rep[metric["name"]] for rep in good]
            if values:
                metrics[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"]}
    elif not record["traced"]["problems"] and good:
        layers = dict(record["traced"]["layers"])
        wall = statistics.median(rep["wall_s"] for rep in good)
        layers["harness.traced_wall_s"] = record["traced"]["wall_s"]
        layers["harness.tracing_overhead_s"] = record["traced"]["wall_s"] - wall
        for metric in spec["per_layer"]:
            metrics[metric["name"]] = {"value": layers.get(metric["name"], 0), "unit": metric["unit"]}
    return {"correct": failed == 0 and bool(metrics), "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    required = ("src/repro/__init__.py", "artifact/manifest.json", "BENCHMARK.json")
    missing = [path for path in required if not (ROOT / path).is_file()]
    if missing:
        sys.stderr.write(f"not a checkout of the program: missing {', '.join(missing)}\n")
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    source = _source_digest()
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, source)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = summarize(record, spec, bool(args.trace))
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        commit=_commit(),
        source_sha256=source,
        result=result,
    )
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"commit": record["commit"], "source_sha256": record["source_sha256"], **record["probe"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
