"""Container for value traces, with summary statistics.

A :class:`ValueTrace` holds a trace as four parallel int columns — serial,
pc, opcode code (an index into :data:`~repro.isa.opcodes.OPCODE_ORDER`)
and value — plus the name of the workload that produced it and the number
of dynamic instructions retired in total (needed to report the "fraction
predicted" column of Table 2).  The columns are the single in-memory form:
the interpreter appends to them directly and the codecs read and write
them.  :attr:`ValueTrace.records` is a view of them as
:class:`TraceRecord` objects, built on first use and memoised, for the
scalar simulation kernel and anything else that wants one object per
record.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import TraceError
from repro.isa.opcodes import CATEGORY_BY_CODE, OPCODE_CODE, OPCODE_ORDER, Category
from repro.trace.record import TraceRecord


@dataclass
class TraceStatistics:
    """Aggregate statistics of a trace."""

    name: str
    total_dynamic_instructions: int
    predicted_instructions: int
    static_instruction_count: int
    category_dynamic_counts: dict[Category, int]
    category_static_counts: dict[Category, int]

    @property
    def fraction_predicted(self) -> float:
        """Fraction of all dynamic instructions that are predicted."""
        if self.total_dynamic_instructions == 0:
            return 0.0
        return self.predicted_instructions / self.total_dynamic_instructions

    def category_dynamic_percentages(self) -> dict[Category, float]:
        """Dynamic share of each category among predicted instructions (%)"""
        if self.predicted_instructions == 0:
            return {category: 0.0 for category in self.category_dynamic_counts}
        return {
            category: 100.0 * count / self.predicted_instructions
            for category, count in self.category_dynamic_counts.items()
        }


class ValueTrace:
    """An ordered collection of predicted-instruction trace records."""

    def __init__(
        self,
        name: str,
        records: Sequence[TraceRecord] | Iterable[TraceRecord] = (),
        total_dynamic_instructions: int | None = None,
    ) -> None:
        records = list(records)
        self.name = name
        self.serials: list[int] = [record.serial for record in records]
        self.pcs: list[int] = [record.pc for record in records]
        self.opcode_codes: list[int] = [OPCODE_CODE[record.opcode] for record in records]
        self.values: list[int] = [record.value for record in records]
        self._total_dynamic_instructions = total_dynamic_instructions
        self._records: list[TraceRecord] | None = records or None
        #: Memo slot of :func:`repro.trace.io.trace_columns` (numpy columns).
        self._columns = False

    @classmethod
    def from_columns(
        cls,
        name: str,
        serials: list[int],
        pcs: list[int],
        opcode_codes: list[int],
        values: list[int],
        total_dynamic_instructions: int | None = None,
    ) -> "ValueTrace":
        """Wrap existing columns (taken over, not copied) as a trace."""
        if not len(serials) == len(pcs) == len(opcode_codes) == len(values):
            raise TraceError(
                "trace columns differ in length: "
                f"{len(serials)}, {len(pcs)}, {len(opcode_codes)}, {len(values)}"
            )
        trace = cls(name)
        trace.serials = serials
        trace.pcs = pcs
        trace.opcode_codes = opcode_codes
        trace.values = values
        if total_dynamic_instructions is not None:
            trace.set_total_dynamic_instructions(total_dynamic_instructions)
        return trace

    # ------------------------------------------------------------------ #
    # Mutation (used only while a trace is being built)
    # ------------------------------------------------------------------ #
    def append(self, record: TraceRecord) -> None:
        """Append a record to the trace (construction-time only)."""
        self.serials.append(record.serial)
        self.pcs.append(record.pc)
        self.opcode_codes.append(OPCODE_CODE[record.opcode])
        self.values.append(record.value)
        if self._records is not None:
            self._records.append(record)
        self._columns = False

    def set_total_dynamic_instructions(self, total: int) -> None:
        """Record the total dynamic instruction count of the producing run."""
        if total < len(self.values):
            raise TraceError(
                "total dynamic instructions cannot be smaller than the number of "
                f"predicted records ({total} < {len(self.values)})"
            )
        self._total_dynamic_instructions = total

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> list[TraceRecord]:
        """The trace records in program order (built once, on first use)."""
        if self._records is None:
            self._records = [
                TraceRecord(serial, pc, OPCODE_ORDER[code], CATEGORY_BY_CODE[code], value)
                for serial, pc, code, value in zip(self.serials, self.pcs, self.opcode_codes, self.values)
            ]
        return self._records

    @property
    def total_dynamic_instructions(self) -> int:
        """Total dynamic instructions (predicted + non-predicted)."""
        if self._total_dynamic_instructions is None:
            return len(self.values)
        return self._total_dynamic_instructions

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ValueTrace.from_columns(
                self.name,
                self.serials[index],
                self.pcs[index],
                self.opcode_codes[index],
                self.values[index],
            )
        return self.records[index]

    def __bool__(self) -> bool:
        return bool(self.values)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def static_pcs(self) -> list[int]:
        """Distinct static PCs appearing in the trace, in first-seen order."""
        return list(dict.fromkeys(self.pcs))

    def values_by_pc(self) -> dict[int, list[int]]:
        """Map each static PC to the ordered list of values it produced."""
        grouped: dict[int, list[int]] = defaultdict(list)
        for pc, value in zip(self.pcs, self.values):
            grouped[pc].append(value)
        return dict(grouped)

    def filter_category(self, category: Category) -> "ValueTrace":
        """Return a sub-trace containing only the given category."""
        keep = [position for position, code in enumerate(self.opcode_codes) if CATEGORY_BY_CODE[code] is category]
        return ValueTrace.from_columns(
            f"{self.name}:{category.value}",
            [self.serials[position] for position in keep],
            [self.pcs[position] for position in keep],
            [self.opcode_codes[position] for position in keep],
            [self.values[position] for position in keep],
        )

    def category_counts(self) -> Counter:
        """Dynamic record count per category."""
        counts: Counter = Counter()
        for code, count in Counter(self.opcode_codes).items():
            counts[CATEGORY_BY_CODE[code]] += count
        return counts

    def statistics(self) -> TraceStatistics:
        """Compute the Table 2 / Tables 4-5 style statistics for this trace.

        Both category maps list categories in first-seen order.
        """
        dynamic_counts = self.category_counts()
        static_pcs_by_category: dict[Category, set[int]] = {category: set() for category in dynamic_counts}
        for code, pc in set(zip(self.opcode_codes, self.pcs)):
            static_pcs_by_category[CATEGORY_BY_CODE[code]].add(pc)
        return TraceStatistics(
            name=self.name,
            total_dynamic_instructions=self.total_dynamic_instructions,
            predicted_instructions=len(self.values),
            static_instruction_count=len(set(self.pcs)),
            category_dynamic_counts=dict(dynamic_counts),
            category_static_counts={category: len(pcs) for category, pcs in static_pcs_by_category.items()},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueTrace(name={self.name!r}, records={len(self.values)})"
