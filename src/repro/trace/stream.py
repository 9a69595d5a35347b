"""Container for value traces, with summary statistics.

A :class:`ValueTrace` holds a trace as four parallel int columns — serial,
pc, opcode code (an index into :data:`~repro.isa.opcodes.OPCODE_ORDER`)
and value — plus the name of the workload that produced it and the number
of dynamic instructions retired in total (needed to report the "fraction
predicted" column of Table 2).  The columns are the single in-memory form.
The interpreter appends to them as Python-int lists.  A trace decoded from
v3 bytes with numpy installed holds them as numpy
:class:`~repro.trace.io.TraceColumns` instead, and builds the lists only
when something asks for them; its length and totals never need them.
:attr:`ValueTrace.records` is a view of the columns as
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
    """An ordered collection of predicted-instruction trace records.

    The four list columns (:attr:`serials`, :attr:`pcs`,
    :attr:`opcode_codes`, :attr:`values`) are the trace.  A trace built
    with :meth:`from_trace_columns` (what :func:`repro.trace.io.loads_trace_binary`
    returns when numpy is installed) holds numpy columns instead and makes
    the lists on first access; ``len``, truth and
    :attr:`total_dynamic_instructions` read the numpy columns.
    """

    def __init__(
        self,
        name: str,
        records: Sequence[TraceRecord] | Iterable[TraceRecord] = (),
        total_dynamic_instructions: int | None = None,
    ) -> None:
        records = list(records)
        self.name = name
        self._lists: tuple[list[int], list[int], list[int], list[int]] | None = (
            [record.serial for record in records],
            [record.pc for record in records],
            [OPCODE_CODE[record.opcode] for record in records],
            [record.value for record in records],
        )
        self._total_dynamic_instructions = total_dynamic_instructions
        self._records: list[TraceRecord] | None = records or None
        #: Memo slot of :func:`repro.trace.io.trace_columns` (numpy columns);
        #: the source of the lists while ``_lists`` is ``None``.
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
        trace._lists = (serials, pcs, opcode_codes, values)
        if total_dynamic_instructions is not None:
            trace.set_total_dynamic_instructions(total_dynamic_instructions)
        return trace

    @classmethod
    def from_trace_columns(cls, columns) -> "ValueTrace":
        """Wrap decoded :class:`~repro.trace.io.TraceColumns` as a trace.

        The columns also fill the :func:`~repro.trace.io.trace_columns`
        memo; the list columns are built from them on first access.
        """
        trace = cls(columns.name)
        trace._lists = None
        trace._columns = columns
        trace.set_total_dynamic_instructions(columns.total_dynamic_instructions)
        return trace

    def _column_lists(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The list columns, built from the numpy columns on first use.

        Opcode codes are remapped from the decoded file's table into
        :data:`~repro.isa.opcodes.OPCODE_ORDER`.  Equal values share one
        int object, as in the scalar decoder: values repeat heavily, and a
        trace held in memory is mostly its int objects.
        """
        if self._lists is None:
            columns = self._columns
            codes = columns.opcode_codes.tolist()
            if columns.opcodes != OPCODE_ORDER:
                remap = [OPCODE_CODE[opcode] for opcode in columns.opcodes]
                codes = [remap[code] for code in codes]
            values = columns.values.tolist()
            shared: dict[int, int] = {}
            self._lists = (
                columns.serials.tolist(),
                columns.pcs.tolist(),
                codes,
                list(map(shared.setdefault, values, values)),
            )
        return self._lists

    @property
    def serials(self) -> list[int]:
        """Dynamic instruction serial numbers."""
        return self._column_lists()[0]

    @property
    def pcs(self) -> list[int]:
        """Static instruction addresses."""
        return self._column_lists()[1]

    @property
    def opcode_codes(self) -> list[int]:
        """Opcodes, as indices into :data:`~repro.isa.opcodes.OPCODE_ORDER`."""
        return self._column_lists()[2]

    @property
    def values(self) -> list[int]:
        """The values the instructions produced."""
        return self._column_lists()[3]

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
        if total < len(self):
            raise TraceError(
                "total dynamic instructions cannot be smaller than the number of "
                f"predicted records ({total} < {len(self)})"
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
            return len(self)
        return self._total_dynamic_instructions

    def __len__(self) -> int:
        if self._lists is None:
            return len(self._columns)
        return len(self._lists[3])

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
        return len(self) > 0

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
            predicted_instructions=len(self),
            static_instruction_count=len(set(self.pcs)),
            category_dynamic_counts=dict(dynamic_counts),
            category_static_counts={category: len(pcs) for category, pcs in static_pcs_by_category.items()},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueTrace(name={self.name!r}, records={len(self)})"
