"""MIPS-like instruction-set substrate (SimpleScalar substitute).

The paper's evaluation is trace driven: SimpleScalar executes SPEC95
binaries and feeds the result value of every register-writing instruction to
the predictors.  This package provides the equivalent substrate in pure
Python: a small general-purpose-register ISA, a sparse memory, a program
builder with symbolic labels, and an interpreter (:class:`Machine`) that
decodes a program once and records the result value of every retired
register-writing instruction in trace columns.

The instruction categories exactly mirror Table 3 of the paper
(AddSub, Loads, Logic, Shift, Set, MultDiv, Lui, Other), plus the
non-predicted control/store instructions.
"""

from repro.isa.opcodes import Opcode, Category, category_of, is_predicted_opcode
from repro.isa.instructions import Instruction
from repro.isa.registers import RegisterFile, NUM_REGISTERS
from repro.isa.memory import SparseMemory
from repro.isa.program import Program, ProgramBuilder
from repro.isa.machine import Machine, ExecutionResult

__all__ = [
    "Opcode",
    "Category",
    "category_of",
    "is_predicted_opcode",
    "Instruction",
    "RegisterFile",
    "NUM_REGISTERS",
    "SparseMemory",
    "Program",
    "ProgramBuilder",
    "Machine",
    "ExecutionResult",
]
