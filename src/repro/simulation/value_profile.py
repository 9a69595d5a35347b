"""Unique-value profiles of static instructions (Figure 10 of the paper).

For every static instruction the number of distinct values it produces is
counted and bucketed into powers of four (1, 4, 16, ..., 65536, >65536).
Two views are reported: the fraction of *static* instructions falling in each
bucket, and the fraction of *dynamic* instructions issued by static
instructions in each bucket.  The paper uses this to argue that modest table
capacities suffice for context-based prediction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.isa.opcodes import CATEGORY_BY_CODE, Category, REPORTED_CATEGORIES
from repro.simulation.metrics import arithmetic_mean
from repro.trace.io import TraceColumns, trace_columns
from repro.trace.stream import ValueTrace

#: Bucket upper bounds used on the Figure 10 y-axis legend.
VALUE_BUCKETS: tuple[int, ...] = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)

#: Label used for the overflow bucket.
OVERFLOW_LABEL = ">65536"


def bucket_labels() -> tuple[str, ...]:
    """Labels for every bucket, smallest first, ending with the overflow."""
    return tuple(str(bound) for bound in VALUE_BUCKETS) + (OVERFLOW_LABEL,)


def bucket_for(unique_values: int) -> str:
    """Return the label of the bucket holding ``unique_values``."""
    for bound in VALUE_BUCKETS:
        if unique_values <= bound:
            return str(bound)
    return OVERFLOW_LABEL


@dataclass
class ValueProfile:
    """Static and dynamic unique-value bucket distributions (percentages)."""

    #: static_percent["All" or category value][bucket label] -> % of static PCs
    static_percent: dict[str, dict[str, float]]
    #: dynamic_percent["All" or category value][bucket label] -> % of dynamic instrs
    dynamic_percent: dict[str, dict[str, float]]

    def static_fraction_single_value(self, group: str = "All") -> float:
        """Percentage of static instructions generating exactly one value."""
        return self.static_percent[group]["1"]

    def static_fraction_up_to(self, bound: int, group: str = "All") -> float:
        """Percentage of static instructions generating at most ``bound`` values."""
        total = 0.0
        for label in bucket_labels():
            if label != OVERFLOW_LABEL and int(label) <= bound:
                total += self.static_percent[group][label]
        return total

    def dynamic_fraction_up_to(self, bound: int, group: str = "All") -> float:
        """Percentage of dynamic instructions from static PCs with <= ``bound`` values."""
        total = 0.0
        for label in bucket_labels():
            if label != OVERFLOW_LABEL and int(label) <= bound:
                total += self.dynamic_percent[group][label]
        return total


def _empty_distribution() -> dict[str, float]:
    return {label: 0.0 for label in bucket_labels()}


def value_profile(
    trace: ValueTrace, categories: tuple[Category, ...] = REPORTED_CATEGORIES
) -> ValueProfile:
    """Profile unique-value counts for one benchmark's trace.

    The per-PC counts come from the trace's numpy columns
    (:func:`~repro.trace.io.trace_columns`) with array operations, or from
    a loop over its list columns when it has none (numpy missing, or a
    field outside int64).  Both give the same integer counts, and the
    percentages are formed from them in Python, so the two paths return
    identical profiles.  No record objects are built.
    """
    groups = ["All"] + [category.value for category in categories]
    static_counts = {group: _empty_distribution() for group in groups}
    dynamic_counts = {group: _empty_distribution() for group in groups}
    static_totals = {group: 0 for group in groups}
    dynamic_totals = {group: 0 for group in groups}

    columns = trace_columns(trace)
    per_pc = _scalar_pc_counts(trace) if columns is None else _columnar_pc_counts(columns)
    for unique_values, weight, category in per_pc:
        label = bucket_for(unique_values)
        group_names = ["All"]
        if category in categories:
            group_names.append(category.value)
        for group in group_names:
            static_counts[group][label] += 1
            static_totals[group] += 1
            dynamic_counts[group][label] += weight
            dynamic_totals[group] += weight

    static_percent = {
        group: {
            label: (100.0 * count / static_totals[group] if static_totals[group] else 0.0)
            for label, count in static_counts[group].items()
        }
        for group in groups
    }
    dynamic_percent = {
        group: {
            label: (100.0 * count / dynamic_totals[group] if dynamic_totals[group] else 0.0)
            for label, count in dynamic_counts[group].items()
        }
        for group in groups
    }
    return ValueProfile(static_percent=static_percent, dynamic_percent=dynamic_percent)


def _scalar_pc_counts(trace: ValueTrace) -> list[tuple[int, int, Category]]:
    """``(unique values, dynamic count, category)`` per static PC, by loop.

    The reference for :func:`_columnar_pc_counts`.  A PC's category is
    that of its first record.
    """
    unique_values: dict[int, set[int]] = {}
    pc_code: dict[int, int] = {}
    for pc, value, code in zip(trace.pcs, trace.values, trace.opcode_codes):
        unique_values.setdefault(pc, set()).add(value)
        pc_code.setdefault(pc, code)
    dynamic_count = Counter(trace.pcs)
    return [
        (len(values), dynamic_count[pc], CATEGORY_BY_CODE[pc_code[pc]])
        for pc, values in unique_values.items()
    ]


def _columnar_pc_counts(columns: TraceColumns) -> list[tuple[int, int, Category]]:
    """:func:`_scalar_pc_counts` over numpy columns, in ascending PC order.

    One stable lexsort by (pc, value) puts each PC's records in one
    segment and equal values next to each other; a segment's unique-value
    count is its start plus the value changes inside it, its dynamic count
    its length, and its first record the smallest original position in it.
    """
    import numpy as np

    if not len(columns):
        return []
    order = np.lexsort((columns.values, columns.pcs))
    pcs, values = columns.pcs[order], columns.values[order]
    new_pc = np.concatenate(([True], pcs[1:] != pcs[:-1]))
    new_value = new_pc | np.concatenate(([True], values[1:] != values[:-1]))
    starts = np.flatnonzero(new_pc)
    unique_values = np.add.reduceat(new_value.astype(np.int64), starts)
    dynamic = np.diff(starts, append=len(pcs))
    first_codes = columns.category_codes[np.minimum.reduceat(order, starts)]
    categories = [columns.categories[code] for code in first_codes.tolist()]
    return list(zip(unique_values.tolist(), dynamic.tolist(), categories))


def average_value_profiles(profiles: Sequence[ValueProfile]) -> ValueProfile:
    """Average per-benchmark profiles with the arithmetic mean."""
    if not profiles:
        raise ValueError("cannot average zero value profiles")
    groups = profiles[0].static_percent.keys()
    static_percent = {
        group: {
            label: arithmetic_mean(profile.static_percent[group][label] for profile in profiles)
            for label in bucket_labels()
        }
        for group in groups
    }
    dynamic_percent = {
        group: {
            label: arithmetic_mean(profile.dynamic_percent[group][label] for profile in profiles)
            for label in bucket_labels()
        }
        for group in groups
    }
    return ValueProfile(static_percent=static_percent, dynamic_percent=dynamic_percent)
