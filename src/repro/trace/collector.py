"""Collect value traces from the ISA substrate.

The interpreter implements the paper's filtering rule as it retires: only
instructions that write results into general purpose registers enter the
trace columns; stores, branches and jumps are excluded.  (``jal`` writes a
link value and is counted under the ``Other`` category, matching the
paper's treatment of "Floating, Jump, Other".)
"""

from __future__ import annotations

from repro.isa.machine import ExecutionResult, Machine
from repro.isa.memory import SparseMemory
from repro.isa.program import Program
from repro.trace.stream import ValueTrace


def collect_trace(
    program: Program,
    memory: SparseMemory | None = None,
    max_instructions: int | None = None,
) -> tuple[ValueTrace, ExecutionResult]:
    """Run ``program`` and return its value trace plus the execution summary."""
    kwargs = {} if max_instructions is None else {"max_instructions": max_instructions}
    machine = Machine(program, memory=memory, **kwargs)
    result = machine.run()
    trace = ValueTrace.from_columns(
        program.name,
        machine.serials,
        machine.pcs,
        machine.opcode_codes,
        machine.values,
        total_dynamic_instructions=result.retired_instructions,
    )
    return trace, result
