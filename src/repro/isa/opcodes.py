"""Opcode definitions and the instruction-category mapping of Table 3.

The paper groups predicted instructions into the categories AddSub, Loads,
Logic, Shift, Set, MultDiv, Lui and Other, and excludes stores, branches and
jumps from prediction.  This module is the single source of truth for that
mapping.
"""

from __future__ import annotations

import enum


class Category(str, enum.Enum):
    """Instruction categories used when reporting prediction results.

    The predicted categories correspond to Table 3 of the paper.  The
    ``CONTROL`` and ``STORE`` categories cover instructions that do not write
    a general purpose register and therefore are never predicted.
    """

    ADDSUB = "AddSub"
    LOADS = "Loads"
    LOGIC = "Logic"
    SHIFT = "Shift"
    SET = "Set"
    MULTDIV = "MultDiv"
    LUI = "Lui"
    OTHER = "Other"
    STORE = "Store"
    CONTROL = "Control"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Categories whose instructions write a general purpose register and are
#: therefore candidates for value prediction (Table 3 of the paper).
PREDICTED_CATEGORIES: tuple[Category, ...] = (
    Category.ADDSUB,
    Category.LOADS,
    Category.LOGIC,
    Category.SHIFT,
    Category.SET,
    Category.MULTDIV,
    Category.LUI,
    Category.OTHER,
)

#: The categories highlighted individually in the paper's Figures 4-8.
REPORTED_CATEGORIES: tuple[Category, ...] = (
    Category.ADDSUB,
    Category.LOADS,
    Category.LOGIC,
    Category.SHIFT,
    Category.SET,
)


class Opcode(str, enum.Enum):
    """Opcodes of the MIPS-like ISA used by the synthetic workloads."""

    # Addition / subtraction (register and immediate forms).
    ADD = "add"
    ADDI = "addi"
    SUB = "sub"
    SUBI = "subi"
    # Loads.
    LW = "lw"
    LB = "lb"
    # Logical operations.
    AND = "and"
    ANDI = "andi"
    OR = "or"
    ORI = "ori"
    XOR = "xor"
    XORI = "xori"
    NOR = "nor"
    # Shifts (immediate and variable shift amounts).
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLLV = "sllv"
    SRLV = "srlv"
    # Compare-and-set.
    SLT = "slt"
    SLTI = "slti"
    SLTU = "sltu"
    SEQ = "seq"
    SNE = "sne"
    # Multiply / divide.
    MULT = "mult"
    DIV = "div"
    REM = "rem"
    # Load upper immediate.
    LUI = "lui"
    # Other register-writing instructions.
    MOV = "mov"
    LI = "li"
    JAL = "jal"
    # Stores (not predicted).
    SW = "sw"
    SB = "sb"
    # Control flow (not predicted).
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLE = "ble"
    BGT = "bgt"
    J = "j"
    JR = "jr"
    # Administrative.
    NOP = "nop"
    HALT = "halt"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Mapping from opcode to the category used for reporting (Table 3).
CATEGORY_OF: dict[Opcode, Category] = {
    Opcode.ADD: Category.ADDSUB,
    Opcode.ADDI: Category.ADDSUB,
    Opcode.SUB: Category.ADDSUB,
    Opcode.SUBI: Category.ADDSUB,
    Opcode.LW: Category.LOADS,
    Opcode.LB: Category.LOADS,
    Opcode.AND: Category.LOGIC,
    Opcode.ANDI: Category.LOGIC,
    Opcode.OR: Category.LOGIC,
    Opcode.ORI: Category.LOGIC,
    Opcode.XOR: Category.LOGIC,
    Opcode.XORI: Category.LOGIC,
    Opcode.NOR: Category.LOGIC,
    Opcode.SLL: Category.SHIFT,
    Opcode.SRL: Category.SHIFT,
    Opcode.SRA: Category.SHIFT,
    Opcode.SLLV: Category.SHIFT,
    Opcode.SRLV: Category.SHIFT,
    Opcode.SLT: Category.SET,
    Opcode.SLTI: Category.SET,
    Opcode.SLTU: Category.SET,
    Opcode.SEQ: Category.SET,
    Opcode.SNE: Category.SET,
    Opcode.MULT: Category.MULTDIV,
    Opcode.DIV: Category.MULTDIV,
    Opcode.REM: Category.MULTDIV,
    Opcode.LUI: Category.LUI,
    Opcode.MOV: Category.OTHER,
    Opcode.LI: Category.OTHER,
    Opcode.JAL: Category.OTHER,
    Opcode.SW: Category.STORE,
    Opcode.SB: Category.STORE,
    Opcode.BEQ: Category.CONTROL,
    Opcode.BNE: Category.CONTROL,
    Opcode.BLT: Category.CONTROL,
    Opcode.BGE: Category.CONTROL,
    Opcode.BLE: Category.CONTROL,
    Opcode.BGT: Category.CONTROL,
    Opcode.J: Category.CONTROL,
    Opcode.JR: Category.CONTROL,
    Opcode.NOP: Category.CONTROL,
    Opcode.HALT: Category.CONTROL,
}

#: Opcodes that take an immediate operand instead of a second source register.
IMMEDIATE_OPCODES: frozenset[Opcode] = frozenset(
    {
        Opcode.ADDI,
        Opcode.SUBI,
        Opcode.ANDI,
        Opcode.ORI,
        Opcode.XORI,
        Opcode.SLL,
        Opcode.SRL,
        Opcode.SRA,
        Opcode.SLTI,
        Opcode.LUI,
        Opcode.LI,
        Opcode.LW,
        Opcode.LB,
        Opcode.SW,
        Opcode.SB,
    }
)

#: Opcodes that transfer control (need a target label or register).
BRANCH_OPCODES: frozenset[Opcode] = frozenset(
    {
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLT,
        Opcode.BGE,
        Opcode.BLE,
        Opcode.BGT,
    }
)

JUMP_OPCODES: frozenset[Opcode] = frozenset({Opcode.J, Opcode.JAL, Opcode.JR})


def category_of(opcode: Opcode) -> Category:
    """Return the reporting category of ``opcode`` (Table 3 mapping)."""
    return CATEGORY_OF[opcode]


def is_predicted_opcode(opcode: Opcode) -> bool:
    """Return ``True`` if results of ``opcode`` are candidates for prediction.

    The paper predicts instructions that write results into general purpose
    registers; stores, branches, plain jumps, nops and halt do not and are
    excluded.  ``jal`` writes a link register value, so it is included in the
    ``Other`` category.
    """
    return CATEGORY_OF[opcode] in PREDICTED_CATEGORIES


#: Canonical opcode order.  An opcode's position here is its integer code
#: in trace columns and its index in the opcode table that v3 binary
#: traces embed.
OPCODE_ORDER: tuple[Opcode, ...] = tuple(Opcode)

#: Integer code of each opcode (its index in :data:`OPCODE_ORDER`).
OPCODE_CODE: dict[Opcode, int] = {opcode: code for code, opcode in enumerate(OPCODE_ORDER)}

#: Reporting category of each opcode code.
CATEGORY_BY_CODE: tuple[Category, ...] = tuple(CATEGORY_OF[opcode] for opcode in OPCODE_ORDER)
