"""Value-trace infrastructure.

A value trace is the ordered sequence of ``(pc, opcode, category, value)``
tuples produced by the register-writing instructions of one program run.
Predictor simulations (:mod:`repro.simulation`) consume these traces; they
can come from executing a synthetic workload on the ISA substrate
(:func:`collect_trace`) or be constructed directly for tests and
micro-experiments (:mod:`repro.trace.synthetic`).
"""

from repro.trace.record import TraceRecord
from repro.trace.stream import ValueTrace
from repro.trace.collector import collect_trace
from repro.trace.io import (
    dump_trace,
    dump_trace_binary,
    dumps_trace,
    dumps_trace_binary,
    load_trace,
    load_trace_binary,
    load_trace_file,
    loads_trace,
    loads_trace_binary,
    save_trace_file,
)
from repro.trace.synthetic import (
    trace_from_values,
    trace_from_streams,
    interleave_traces,
)

__all__ = [
    "TraceRecord",
    "ValueTrace",
    "collect_trace",
    "dump_trace",
    "dump_trace_binary",
    "load_trace",
    "load_trace_binary",
    "load_trace_file",
    "dumps_trace",
    "dumps_trace_binary",
    "loads_trace",
    "loads_trace_binary",
    "save_trace_file",
    "trace_from_values",
    "trace_from_streams",
    "interleave_traces",
]
