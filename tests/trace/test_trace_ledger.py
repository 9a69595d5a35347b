"""The trace-digest ledger: every trace ``reproduce`` builds, pinned byte for byte.

``artifact/expected/traces.json`` records, for each (benchmark, input,
flags) configuration the committed manifest traces at scale 1.0, the
record count, the dynamic instruction count, the execution summary, the
SHA-256 of the canonical text form and the SHA-256 of the uncompressed v3
binary bytes.  ``v3_sha256`` is the trace digest that keys the result
cache (:func:`repro.engine.fingerprint.trace_digest`); ``text_sha256``
now pins only the text export.  Any change to the interpreter, the trace
container or either codec that moves a single value shows up here, at
the trace layer, before it reaches a table.

No numpy needed: without it the scalar v3 encoder runs and must produce
the same bytes.  To print a fresh ledger (only when a change is *meant*
to alter the traces)::

    PYTHONPATH=src python tests/trace/test_trace_ledger.py > artifact/expected/traces.json
"""

from __future__ import annotations

import json
from hashlib import sha256
from pathlib import Path

import pytest

from repro.engine.fingerprint import trace_digest
from repro.trace.io import dumps_trace, dumps_trace_binary
from repro.workloads.base import WorkloadRun
from repro.workloads.suite import get_workload

LEDGER_PATH = Path(__file__).resolve().parents[2] / "artifact" / "expected" / "traces.json"
LEDGER_SCALE = 1.0

#: The 14 configurations a cold ``repro-vp reproduce`` traces: the suite's
#: defaults, plus gcc's other inputs (Table 6) and flag settings (Table 7).
CONFIGURATIONS = (
    ("compress", "ref", "ref"),
    ("gcc", "emit-rtl.i", "ref"),
    ("gcc", "gcc.i", "-O1"),
    ("gcc", "gcc.i", "-O2"),
    ("gcc", "gcc.i", "none"),
    ("gcc", "gcc.i", "ref"),
    ("gcc", "jump.i", "ref"),
    ("gcc", "recog.i", "ref"),
    ("gcc", "stmt.i", "ref"),
    ("go", "ref", "ref"),
    ("ijpeg", "specmun", "ref"),
    ("m88ksim", "ctl.raw", "ref"),
    ("perl", "scrabbl", "ref"),
    ("xlisp", "7-queens", "ref"),
)


def trace_configuration(benchmark: str, input_name: str, flags: str) -> WorkloadRun:
    """Regenerate one configuration's trace."""
    return get_workload(benchmark).run(scale=LEDGER_SCALE, input_name=input_name, flags=flags)


def ledger_entry(benchmark: str, input_name: str, flags: str, run: WorkloadRun) -> dict:
    """Summarise one configuration's traced run for the ledger."""
    trace, execution = run.trace, run.execution
    return {
        "benchmark": benchmark,
        "input": input_name,
        "flags": flags,
        "records": len(trace),
        "total_dynamic_instructions": trace.total_dynamic_instructions,
        "retired_instructions": execution.retired_instructions,
        "register_writes": execution.register_writes,
        "category_counts": {
            category.value: count
            for category, count in sorted(
                execution.category_counts.items(), key=lambda item: item[0].value
            )
        },
        "text_sha256": sha256(dumps_trace(trace).encode("utf-8")).hexdigest(),
        "v3_sha256": sha256(dumps_trace_binary(trace)).hexdigest(),
    }


def build_ledger() -> dict:
    return {
        "scale": LEDGER_SCALE,
        "traces": [
            ledger_entry(*configuration, trace_configuration(*configuration))
            for configuration in CONFIGURATIONS
        ],
    }


def _ledger() -> dict:
    return json.loads(LEDGER_PATH.read_text(encoding="utf-8"))


def test_ledger_covers_every_configuration():
    ledger = _ledger()
    assert ledger["scale"] == LEDGER_SCALE
    assert [
        (entry["benchmark"], entry["input"], entry["flags"]) for entry in ledger["traces"]
    ] == list(CONFIGURATIONS)


@pytest.mark.parametrize(
    "configuration", CONFIGURATIONS, ids=["/".join(c) for c in CONFIGURATIONS]
)
def test_trace_matches_ledger(configuration):
    expected = {
        (entry["benchmark"], entry["input"], entry["flags"]): entry
        for entry in _ledger()["traces"]
    }[configuration]
    run = trace_configuration(*configuration)
    assert ledger_entry(*configuration, run) == expected
    assert trace_digest(run.trace) == expected["v3_sha256"]


if __name__ == "__main__":
    print(json.dumps(build_ledger(), indent=2))
