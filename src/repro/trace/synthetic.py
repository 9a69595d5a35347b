"""Construct value traces directly from value sequences.

Tests, micro-experiments (Figures 1 and 2 of the paper) and the ablation
benchmarks need traces with precisely controlled value sequences per static
instruction; these helpers build them without going through the ISA
substrate.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.errors import TraceError
from repro.isa.opcodes import OPCODE_CODE, Category, Opcode, is_predicted_opcode
from repro.trace.stream import ValueTrace

#: Default opcode per category used when materialising synthetic records.
_REPRESENTATIVE_OPCODE: dict[Category, Opcode] = {
    Category.ADDSUB: Opcode.ADD,
    Category.LOADS: Opcode.LW,
    Category.LOGIC: Opcode.AND,
    Category.SHIFT: Opcode.SLL,
    Category.SET: Opcode.SLT,
    Category.MULTDIV: Opcode.MULT,
    Category.LUI: Opcode.LUI,
    Category.OTHER: Opcode.MOV,
}


def representative_opcode(category: Category) -> Opcode:
    """Return a register-writing opcode belonging to ``category``."""
    try:
        return _REPRESENTATIVE_OPCODE[category]
    except KeyError as exc:
        raise TraceError(f"category {category} has no predicted instructions") from exc


def trace_from_values(
    values: Sequence[int],
    pc: int = 0,
    opcode: Opcode = Opcode.ADD,
    name: str = "synthetic",
) -> ValueTrace:
    """Build a trace in which one static instruction produces ``values``."""
    if not is_predicted_opcode(opcode):
        raise TraceError(f"opcode {opcode} is not a predicted instruction")
    values = [int(v) for v in values]
    count = len(values)
    return ValueTrace.from_columns(name, list(range(count)), [pc] * count, [OPCODE_CODE[opcode]] * count, values)


def trace_from_streams(
    streams: Mapping[int, Sequence[int]],
    opcodes: Mapping[int, Opcode] | None = None,
    name: str = "synthetic",
) -> ValueTrace:
    """Build a trace by round-robin interleaving per-PC value streams.

    ``streams`` maps a static PC to the ordered values it produces.  Records
    are interleaved one value per PC per round, which mimics a loop body
    containing all the static instructions.
    """
    if not streams:
        raise TraceError("streams must not be empty")
    opcodes = dict(opcodes or {})
    iterators = {pc: list(values) for pc, values in streams.items()}
    longest = max(len(values) for values in iterators.values())
    pcs: list[int] = []
    codes: list[int] = []
    trace_values: list[int] = []
    for round_index in range(longest):
        for pc in sorted(iterators):
            values = iterators[pc]
            if round_index >= len(values):
                continue
            opcode = opcodes.get(pc, Opcode.ADD)
            if not is_predicted_opcode(opcode):
                raise TraceError(f"opcode {opcode} is not a predicted instruction")
            pcs.append(pc)
            codes.append(OPCODE_CODE[opcode])
            trace_values.append(int(values[round_index]))
    return ValueTrace.from_columns(name, list(range(len(pcs))), pcs, codes, trace_values)


def interleave_traces(traces: Iterable[ValueTrace], name: str = "interleaved") -> ValueTrace:
    """Concatenate traces record-by-record in round-robin order.

    Useful for composing micro-traces with controlled per-PC behaviour.  PCs
    are offset per input trace so distinct traces never alias in predictor
    tables.
    """
    traces = list(traces)
    if not traces:
        raise TraceError("cannot interleave zero traces")
    offsets = {}
    offset = 0
    for trace in traces:
        offsets[id(trace)] = offset
        offset += max(trace.pcs, default=0) + 4
    pcs: list[int] = []
    codes: list[int] = []
    values: list[int] = []
    cursors = [0] * len(traces)
    remaining = sum(len(trace) for trace in traces)
    while remaining:
        for trace_index, trace in enumerate(traces):
            cursor = cursors[trace_index]
            if cursor >= len(trace):
                continue
            pcs.append(trace.pcs[cursor] + offsets[id(trace)])
            codes.append(trace.opcode_codes[cursor])
            values.append(trace.values[cursor])
            cursors[trace_index] += 1
            remaining -= 1
    return ValueTrace.from_columns(name, list(range(len(pcs))), pcs, codes, values)
