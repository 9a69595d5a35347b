"""The interpreter: programs compiled once into handlers that retire into columns.

The :class:`Machine` plays the role SimpleScalar plays in the paper: it runs
a program to completion and records the PC, opcode and result value of
every register-writing instruction it retires.

Building a machine decodes its program once.  Every instruction becomes a
handler closure bound to the register list, the memory dictionary and its
resolved operands and branch targets, and every operand is checked at that
point, so a malformed instruction fails when the machine is built rather
than when (or if) it executes.  Running is then the loop
``index = handlers[index](serial)``: each register-writing handler appends
its retirement to four parallel int columns — :attr:`Machine.serials`,
:attr:`Machine.pcs`, :attr:`Machine.opcode_codes` (codes into
:data:`~repro.isa.opcodes.OPCODE_ORDER`) and :attr:`Machine.values` —
which :func:`repro.trace.collector.collect_trace` hands to a
:class:`~repro.trace.stream.ValueTrace` as they are.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ExecutionError, ExecutionLimitExceeded, InvalidInstructionError
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.memory import SparseMemory, word_index
from repro.isa.opcodes import CATEGORY_OF, OPCODE_CODE, Category, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS, REGISTER_WIDTH, RegisterFile

#: Default dynamic-instruction budget; guards against runaway programs.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000

_SIGN = 1 << (REGISTER_WIDTH - 1)
_MASK = (1 << REGISTER_WIDTH) - 1

#: A decoded instruction: called with its serial number, returns the index
#: of the next instruction to execute.
Handler = Callable[[int], int]


@dataclass
class ExecutionResult:
    """Summary of one program execution.

    ``category_counts`` holds the categories retired at least once, in
    :class:`Category` declaration order.
    """

    program_name: str
    retired_instructions: int = 0
    register_writes: int = 0
    halted: bool = False
    category_counts: dict[Category, int] = field(default_factory=dict)

    def fraction_predicted(self) -> float:
        """Fraction of retired instructions that wrote a register."""
        if self.retired_instructions == 0:
            return 0.0
        return self.register_writes / self.retired_instructions


def truncating_div(dividend: int, divisor: int) -> int:
    """``dividend / divisor`` rounded towards zero, exactly (C semantics).

    A zero divisor yields 0 instead of trapping.
    """
    if divisor == 0:
        return 0
    quotient = abs(dividend) // abs(divisor)
    return -quotient if (dividend < 0) != (divisor < 0) else quotient


def truncating_rem(dividend: int, divisor: int) -> int:
    """Remainder of :func:`truncating_div`; takes the dividend's sign."""
    if divisor == 0:
        return 0
    return dividend - truncating_div(dividend, divisor) * divisor


#: Result computations of the register-writing opcodes other than ``jal``.
#: Each factory binds the register list ``r``, the memory words ``m`` and
#: the operands, and returns a closure computing the unwrapped result (the
#: retiring handler wraps it to 64 bits).  Bitwise results of signed
#: operands agree with the unsigned ones in their low 64 bits, so only the
#: logical right shifts and the unsigned compare mask explicitly.
_RESULTS: dict[Opcode, Callable[..., Callable[[], int]]] = {
    Opcode.ADD: lambda r, m, s, t, imm: lambda: r[s] + r[t],
    Opcode.ADDI: lambda r, m, s, t, imm: lambda: r[s] + imm,
    Opcode.SUB: lambda r, m, s, t, imm: lambda: r[s] - r[t],
    Opcode.SUBI: lambda r, m, s, t, imm: lambda: r[s] - imm,
    Opcode.LW: lambda r, m, s, t, imm: lambda: m.get(word_index(r[s] + imm), 0),
    Opcode.LB: lambda r, m, s, t, imm: lambda: m.get(word_index(r[s] + imm), 0) & 0xFF,
    Opcode.AND: lambda r, m, s, t, imm: lambda: r[s] & r[t],
    Opcode.ANDI: lambda r, m, s, t, imm: lambda: r[s] & imm,
    Opcode.OR: lambda r, m, s, t, imm: lambda: r[s] | r[t],
    Opcode.ORI: lambda r, m, s, t, imm: lambda: r[s] | imm,
    Opcode.XOR: lambda r, m, s, t, imm: lambda: r[s] ^ r[t],
    Opcode.XORI: lambda r, m, s, t, imm: lambda: r[s] ^ imm,
    Opcode.NOR: lambda r, m, s, t, imm: lambda: ~(r[s] | r[t]),
    Opcode.SLL: lambda r, m, s, t, imm: lambda: r[s] << (imm & 63),
    Opcode.SRL: lambda r, m, s, t, imm: lambda: (r[s] & _MASK) >> (imm & 63),
    Opcode.SRA: lambda r, m, s, t, imm: lambda: r[s] >> (imm & 63),
    Opcode.SLLV: lambda r, m, s, t, imm: lambda: r[s] << (r[t] & 63),
    Opcode.SRLV: lambda r, m, s, t, imm: lambda: (r[s] & _MASK) >> (r[t] & 63),
    Opcode.SLT: lambda r, m, s, t, imm: lambda: 1 if r[s] < r[t] else 0,
    Opcode.SLTI: lambda r, m, s, t, imm: lambda: 1 if r[s] < imm else 0,
    Opcode.SLTU: lambda r, m, s, t, imm: lambda: 1 if (r[s] & _MASK) < (r[t] & _MASK) else 0,
    Opcode.SEQ: lambda r, m, s, t, imm: lambda: 1 if r[s] == r[t] else 0,
    Opcode.SNE: lambda r, m, s, t, imm: lambda: 1 if r[s] != r[t] else 0,
    Opcode.MULT: lambda r, m, s, t, imm: lambda: r[s] * r[t],
    Opcode.DIV: lambda r, m, s, t, imm: lambda: truncating_div(r[s], r[t]),
    Opcode.REM: lambda r, m, s, t, imm: lambda: truncating_rem(r[s], r[t]),
    Opcode.LUI: lambda r, m, s, t, imm: lambda: imm << 16,
    Opcode.MOV: lambda r, m, s, t, imm: lambda: r[s],
    Opcode.LI: lambda r, m, s, t, imm: lambda: imm,
}

_BRANCH_CONDITIONS: dict[Opcode, Callable[[int, int], bool]] = {
    Opcode.BEQ: operator.eq,
    Opcode.BNE: operator.ne,
    Opcode.BLT: operator.lt,
    Opcode.BGE: operator.ge,
    Opcode.BLE: operator.le,
    Opcode.BGT: operator.gt,
}

#: The register operands each opcode reads or writes, by mnemonic.
_OPERANDS: dict[Opcode, tuple[str, ...]] = {
    Opcode(mnemonic): operands
    for operands, mnemonics in (
        (("rd", "rs", "rt"), "add sub and or xor nor sllv srlv slt sltu seq sne mult div rem"),
        (("rd", "rs"), "addi subi andi ori xori sll srl sra slti mov lw lb"),
        (("rs", "rt"), "sw sb beq bne blt bge ble bgt"),
        (("rd",), "lui li jal"),
        (("rs",), "jr"),
    )
    for mnemonic in mnemonics.split()
}


class _Halted(Exception):
    """Raised by the ``halt`` handler to leave the run loop."""


def _check_operands(program: Program, index: int, instruction: Instruction) -> None:
    for name in _OPERANDS.get(instruction.opcode, ()):
        register = getattr(instruction, name)
        if register is None:
            raise InvalidInstructionError(
                f"{program.name!r}: instruction {index} ({instruction.opcode.value}) "
                f"requires register operand {name}"
            )
        if type(register) is not int or not 0 <= register < NUM_REGISTERS:
            raise InvalidInstructionError(
                f"{program.name!r}: instruction {index} ({instruction.opcode.value}) has "
                f"register operand {name}={register!r} outside [0, {NUM_REGISTERS})"
            )


def _outside(program: Program, index: int) -> ExecutionError:
    return ExecutionError(f"{program.name!r}: control transferred outside the program (index {index})")


class Machine:
    """Executes a :class:`Program` against a register file and memory.

    The program is decoded when the machine is built; an instruction that
    lacks a register operand its opcode needs raises
    :class:`InvalidInstructionError` naming its index and the operand.
    Every register-writing retirement of :meth:`run` is appended to the
    ``serials``/``pcs``/``opcode_codes``/``values`` columns.
    """

    def __init__(
        self,
        program: Program,
        memory: SparseMemory | None = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> None:
        if max_instructions <= 0:
            raise ExecutionError("max_instructions must be positive")
        self.program = program
        self.registers = RegisterFile()
        self.memory = memory if memory is not None else SparseMemory()
        self.max_instructions = max_instructions
        self.serials: list[int] = []
        self.pcs: list[int] = []
        self.opcode_codes: list[int] = []
        self.values: list[int] = []
        self._serial = 0
        self._handlers = self._compile()

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def _compile(self) -> list[Handler]:
        """One handler per instruction, plus a trailing out-of-program one."""
        program = self.program
        labels = program.labels
        regs = self.registers._regs
        words = self.memory._words
        append_serial = self.serials.append
        append_pc = self.pcs.append
        append_code = self.opcode_codes.append
        append_value = self.values.append

        def retire(compute: Callable[[], int], rd: int, pc: int, code: int, nxt: int) -> Handler:
            if rd == 0:
                # r0 is hard-wired to zero: the result is still computed
                # (a bad address still faults) but retires as 0.
                def retire_zero(serial: int) -> int:
                    compute()
                    append_serial(serial)
                    append_pc(pc)
                    append_code(code)
                    append_value(0)
                    return nxt

                return retire_zero

            def retire_value(serial: int) -> int:
                value = ((compute() + _SIGN) & _MASK) - _SIGN
                regs[rd] = value
                append_serial(serial)
                append_pc(pc)
                append_code(code)
                append_value(value)
                return nxt

            return retire_value

        def store_word(s: int, t: int, imm: int, nxt: int) -> Handler:
            def handler(serial: int) -> int:
                words[word_index(regs[s] + imm)] = regs[t]
                return nxt

            return handler

        def store_byte(s: int, t: int, imm: int, nxt: int) -> Handler:
            def handler(serial: int) -> int:
                index = word_index(regs[s] + imm)
                words[index] = (words.get(index, 0) & ~0xFF) | (regs[t] & 0xFF)
                return nxt

            return handler

        def branch(condition, s: int, t: int, taken: int, nxt: int) -> Handler:
            return lambda serial: taken if condition(regs[s], regs[t]) else nxt

        def jump(target: int) -> Handler:
            return lambda serial: target

        def jump_register(s: int) -> Handler:
            count = len(program.instructions)

            def handler(serial: int) -> int:
                target = regs[s] // INSTRUCTION_SIZE
                if 0 <= target < count:
                    return target
                raise _outside(program, target)

            return handler

        def halt(serial: int) -> int:
            raise _Halted

        def outside(serial: int) -> int:
            raise _outside(program, len(program.instructions))

        handlers: list[Handler] = []
        for index, instruction in enumerate(program.instructions):
            _check_operands(program, index, instruction)
            opcode = instruction.opcode
            rd, rs, rt, imm = instruction.rd, instruction.rs, instruction.rt, instruction.imm
            nxt = index + 1
            if opcode in _RESULTS:
                compute = _RESULTS[opcode](regs, words, rs, rt, imm)
                handler = retire(compute, rd, index * INSTRUCTION_SIZE, OPCODE_CODE[opcode], nxt)
            elif opcode is Opcode.JAL:
                link = nxt * INSTRUCTION_SIZE
                handler = retire(
                    lambda link=link: link,
                    rd,
                    index * INSTRUCTION_SIZE,
                    OPCODE_CODE[opcode],
                    labels[instruction.target],
                )
            elif opcode is Opcode.SW:
                handler = store_word(rs, rt, imm, nxt)
            elif opcode is Opcode.SB:
                handler = store_byte(rs, rt, imm, nxt)
            elif opcode in _BRANCH_CONDITIONS:
                handler = branch(_BRANCH_CONDITIONS[opcode], rs, rt, labels[instruction.target], nxt)
            elif opcode is Opcode.J:
                handler = jump(labels[instruction.target])
            elif opcode is Opcode.JR:
                handler = jump_register(rs)
            elif opcode is Opcode.NOP:
                handler = jump(nxt)
            elif opcode is Opcode.HALT:
                handler = halt
            else:  # pragma: no cover - every opcode is handled above
                raise InvalidInstructionError(f"unhandled opcode {opcode}")
            handlers.append(handler)
        handlers.append(outside)
        return handlers

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> ExecutionResult:
        """Execute the program until ``halt`` or the instruction budget."""
        program = self.program
        handlers = self._handlers
        retirements = [0] * len(handlers)
        first = self._serial
        writes = len(self.values)
        index = 0
        try:
            for serial in range(first, first + self.max_instructions):
                retirements[index] += 1
                index = handlers[index](serial)
        except _Halted:
            retirements[index] -= 1  # halt stops the machine without retiring
            retired = serial - first
        else:
            # The budget is spent: the next instruction must be the halt.
            if index == len(program.instructions):
                raise _outside(program, index)
            if program.instructions[index].opcode is not Opcode.HALT:
                raise ExecutionLimitExceeded(
                    f"{program.name!r}: exceeded the budget of {self.max_instructions} "
                    f"dynamic instructions"
                )
            retired = self.max_instructions
        self._serial = first + retired

        by_category: dict[Category, int] = {}
        for instruction, count in zip(program.instructions, retirements):
            if count:
                category = CATEGORY_OF[instruction.opcode]
                by_category[category] = by_category.get(category, 0) + count
        return ExecutionResult(
            program_name=program.name,
            retired_instructions=retired,
            register_writes=len(self.values) - writes,
            halted=True,
            category_counts={category: by_category[category] for category in Category if category in by_category},
        )
