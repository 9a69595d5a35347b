"""Columnar (numpy) simulation kernel — batched, bit-identical to scalar.

The scalar loop in :mod:`repro.simulation.simulator` is the golden
reference: one :meth:`~repro.core.base.ValuePredictor.observe` call per
record.  This module re-expresses the paper's predictor table walks as
whole-trace array passes over the columnar form of a trace
(:class:`repro.trace.io.TraceColumns`):

* **last value / stride / two-delta / lv-consecutive** become segmented
  scans over per-PC groups — sort by PC (stable, so program order
  survives within a group), then shifted compares and a forward-fill
  give every record the table state its scalar ``predict`` would see;
* **``lv-counter`` and ``stride-counter``** feed a saturating counter
  back into the stored value, so they step one counter-register
  automaton over *lanes* (PC groups by descending size): step ``k``
  touches a contiguous prefix, and total elementwise work stays O(n);
* **FCM** becomes a hash-then-scatter pass: records are grouped by their
  exact (PC, context) key, occurrence counts come from a running count of
  (group, value) pairs, and the scalar tie-break of
  :func:`repro.core.fcm.select_maximum_count` — most-recent wins a tie,
  otherwise the first-inserted of the maximal set — is reproduced with a
  segmented cumulative maximum over packed ``count * R + (R - 1 - rank)``
  keys, where ``rank`` is the value's insertion rank within its group.
  The ``counter_max`` halve-on-saturation variant and snapshot-seeded
  counts use the same pair/rank tables driven in lockstep;
* **blended FCM** of order ``N`` is its top-order FCM pass plus the
  lower orders' lazy-exclusion streams, which are the same for every
  ``N`` above them and so are computed once per trace (see
  :func:`_exclusion`); under full update every gated record feeds every
  order and a record keeps the highest-order match;
* **hybrids** compose their components' plans and vectorize the chooser:
  ``PcChooser`` scores are a segmented prefix scan over the saturating-add
  monoid ``y -> min(C, max(B, y + A))``, ``CategoryChooser`` is a static
  per-category gather, and ``OracleChooser`` is an OR over component
  correctness.

Every registered configuration (and every dynamic ``fcmN`` /
``fcmN-single`` / ``fcmN-small`` / ``fcmN-full`` spelling) has a plan.
The plans over one trace share its derived arrays — FCM context ids once
per order, the counter lanes, the blended exclusion streams, cold-start
results once per configuration signature — in a single process-wide
slot (:class:`_SharedWork`).
Plans can also start from a restored predictor snapshot
(:mod:`repro.simulation.state`), which lets ``simulate-window`` shards of
an intra-trace sharded run execute on the vector kernel: snapshot tables
are folded in either as seeded FCM counts and chooser scores or as
virtual prefix records that drive a fresh scan into exactly the snapshot state.
Cache keys never include the kernel: both kernels produce byte-identical
entries, and the differential parity harness
(``tests/simulation/test_kernel_parity.py``) pins that equivalence.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Mapping

from repro.errors import SimulationError
from repro.isa.registers import wrap_value

if TYPE_CHECKING:  # imported lazily at runtime to avoid cycles
    from repro.simulation.simulator import PredictorShard, SimulationResult
    from repro.trace.io import TraceColumns

#: Valid values of the ``kernel`` parameter / ``--kernel`` flag.
KERNELS = ("scalar", "vector", "auto")

#: Environment variable consulted when no kernel is passed explicitly.
KERNEL_ENV = "REPRO_KERNEL"

_NUMPY_UNSET = object()
_numpy_module = _NUMPY_UNSET


def numpy_or_none():
    """The numpy module, or ``None`` when it is not importable (memoised)."""
    global _numpy_module
    if _numpy_module is _NUMPY_UNSET:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy_module = numpy
    return _numpy_module


def resolve_kernel(kernel: str | None) -> str:
    """Resolve a kernel request to ``"scalar"`` or ``"vector"``.

    ``None`` consults :data:`KERNEL_ENV` and defaults to ``"scalar"``;
    ``"auto"`` selects ``"vector"`` exactly when numpy is importable; an
    explicit (or environment-forced) ``"vector"`` without numpy raises a
    clean :class:`SimulationError` instead of an ``ImportError`` deep in
    a worker.
    """
    source = "kernel"
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV) or "scalar"
        source = f"{KERNEL_ENV} environment variable"
    if kernel not in KERNELS:
        raise SimulationError(
            f"unknown simulation kernel {kernel!r} (from {source}); "
            f"expected one of {', '.join(KERNELS)}"
        )
    if kernel == "auto":
        return "vector" if numpy_or_none() is not None else "scalar"
    if kernel == "vector" and numpy_or_none() is None:
        raise SimulationError(
            "the 'vector' simulation kernel requires numpy, which is not "
            "importable here; use '--kernel auto' to fall back automatically"
        )
    return kernel


class _VectorizationUnsupported(Exception):
    """Internal: a size guard tripped; the caller retries on the scalar path."""


# --------------------------------------------------------------------------- #
# Per-PC grouping (shared by every plan over one trace)
# --------------------------------------------------------------------------- #
class _Grouping:
    """Stable per-PC grouping of a trace's columns.

    ``order`` sorts records by PC (stable, so within each group the
    records keep program order — the axis every predictor table walks).
    ``gid`` is a dense group id per sorted position, ``t`` the occurrence
    index of the record within its PC's stream, ``vs`` the values in the
    sorted domain.  ``sizes``/``unique_pcs`` describe the groups
    themselves: snapshot tables are joined on ``unique_pcs`` (ascending,
    so ``searchsorted`` applies).
    """

    def __init__(self, np, columns) -> None:
        n = len(columns)
        self.n = n
        self.order = np.argsort(columns.pcs, kind="stable")
        self.vs = columns.values[self.order]
        sorted_pcs = columns.pcs[self.order]
        new_group = np.empty(n, dtype=bool)
        if n:
            new_group[0] = True
            new_group[1:] = sorted_pcs[1:] != sorted_pcs[:-1]
        self.gid = np.cumsum(new_group) - 1
        starts = np.flatnonzero(new_group)
        self.t = np.arange(n) - (starts[self.gid] if n else 0)
        self.sizes = np.diff(np.append(starts, n))
        self.unique_pcs = sorted_pcs[starts]


def _grouping(np, columns) -> _Grouping:
    grouping = columns.scratch.get("grouping")
    if grouping is None:
        grouping = _Grouping(np, columns)
        columns.scratch["grouping"] = grouping
    return grouping


class _SharedWork:
    """Kernel work that every cold-start plan over one grouping shares.

    ``contexts`` and ``first_seen`` map an FCM order to its context ids
    and first-occurrence flags (:func:`_context_ids`), ``exclusions`` to
    its blended matches (:func:`_exclusion`); ``lanes`` is the counter
    layout (:func:`_lanes`); ``results`` maps a ``config_signature()`` to
    its plan's ``(has, pred)``, so a hybrid's components and the same
    configurations on their own are computed once.  Every stored array
    is read-only.
    """

    def __init__(self, group: _Grouping) -> None:
        self.group = group
        self.contexts: dict[int, object] = {}
        self.first_seen: dict[int, object] = {}
        self.exclusions: dict[int, tuple] = {}
        self.lanes: tuple | None = None
        self.results: dict[str, tuple] = {}


#: The shared work of the grouping simulated last, in one process-wide
#: slot.  It holds the grouping by strong reference, so identity cannot
#: be recycled while the slot lives, and it is replaced as soon as a plan
#: runs over another grouping: one trace's derived arrays at a time,
#: however many traces the process keeps alive.
_SHARED: _SharedWork | None = None


def _shared(group: _Grouping) -> _SharedWork:
    # Read the slot once: a remote worker serves connections on threads,
    # and a concurrent replacement must never hand back another group's.
    global _SHARED
    shared = _SHARED
    if shared is None or shared.group is not group:
        shared = _SHARED = _SharedWork(group)
    return shared


def memo_signatures(predictor) -> set[str]:
    """The signatures under which a cold-start plan of ``predictor`` reads
    and stores memoised results: its own and, for a hybrid, its
    components' (:func:`_memoised`)."""
    from repro.core.hybrid import HybridPredictor

    signatures = {predictor.config_signature()}
    if isinstance(predictor, HybridPredictor):
        for component in predictor.components:
            signatures |= memo_signatures(component.predictor)
    return signatures


def retain_results(signatures) -> None:
    """Drop the memoised plan results of the current trace whose signature
    is not in ``signatures``; a dropped result is recomputed if asked for."""
    shared = _SHARED
    if shared is not None:
        for signature in shared.results.keys() - signatures:
            del shared.results[signature]


def _frozen(array):
    """A read-only view, so a plan writing into a shared array fails loudly."""
    view = array.view()
    view.flags.writeable = False
    return view


def _factorize_pairs(np, a, b):
    """Dense ids for the distinct ``(a[i], b[i])`` pairs (order-arbitrary),
    and flags marking each pair's first (lowest-index) element: the
    lexsort is stable, so that element leads its run."""
    if len(a) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    order = np.lexsort((b, a))
    a_sorted = a[order]
    b_sorted = b[order]
    boundary = np.empty(len(a), dtype=bool)
    boundary[0] = True
    boundary[1:] = (a_sorted[1:] != a_sorted[:-1]) | (b_sorted[1:] != b_sorted[:-1])
    ids = np.empty(len(a), dtype=np.int64)
    ids[order] = np.cumsum(boundary) - 1
    leads = np.empty(len(a), dtype=bool)
    leads[order] = boundary
    return ids, leads


def _segmented_cummax(np, gid, keys, key_bound: int):
    """Running maximum of ``keys`` within each contiguous ascending group."""
    if len(gid) and int(gid[-1] + 1) * key_bound >= 2**62:
        raise _VectorizationUnsupported("packed cummax key would overflow int64")
    packed = gid * np.int64(key_bound) + keys
    return np.maximum.accumulate(packed) - gid * np.int64(key_bound)


# --------------------------------------------------------------------------- #
# Snapshot joins and virtual-record augmentation
# --------------------------------------------------------------------------- #
def _as_int64(np, values):
    """Materialise snapshot scalars as int64, or punt to the scalar path."""
    try:
        return np.asarray(list(values), dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        raise _VectorizationUnsupported("snapshot value outside the int64 domain")


def _snapshot_gids(np, group, pcs):
    """Dense group ids for snapshot PC keys, ``-1`` where the PC does not
    occur in this shard (such entries cannot influence any output)."""
    keys = _as_int64(np, pcs)
    if len(group.unique_pcs) == 0 or len(keys) == 0:
        return np.full(len(keys), -1, dtype=np.int64)
    slot = np.searchsorted(group.unique_pcs, keys)
    slot = np.minimum(slot, len(group.unique_pcs) - 1)
    return np.where(group.unique_pcs[slot] == keys, slot, -1)


def _present_entries(np, group, state):
    """Snapshot table entries whose PC occurs in this shard, by group id."""
    table = state["table"] if state is not None else []
    if not table:
        return []
    present = [
        (gid, payload)
        for (_, payload), gid in zip(table, _snapshot_gids(np, group, [pc for pc, _ in table]).tolist())
        if gid >= 0
    ]
    present.sort(key=lambda item: item[0])
    return present


class _AugmentedGroup:
    """A grouping-shaped view with per-group virtual prefix records.

    Snapshot state folds into a stateless scan by prepending, per group,
    a short synthetic value sequence — ``prefix_of(payload)`` for each of
    the ``(gid, payload)`` snapshot ``entries`` — and the unmodified scan
    runs over the extended columns; the outputs at the ``real`` positions
    are the answers.  For FCM plans the prefix is the entry's value
    history, used only for context lookback — virtual positions never
    join any update stream.
    """

    def __init__(self, np, group, entries, prefix_of) -> None:
        group_count = len(group.sizes)
        prefix_lengths = np.zeros(group_count, dtype=np.int64)
        prefix_values = []
        for gid, payload in entries:
            sequence = prefix_of(payload)
            prefix_lengths[gid] = len(sequence)
            prefix_values.extend(sequence)
        sizes = group.sizes + prefix_lengths
        n = int(sizes.sum())
        starts = np.zeros(group_count, dtype=np.int64)
        if group_count:
            starts[1:] = np.cumsum(sizes)[:-1]
        self.n = n
        self.sizes = sizes
        self.gid = np.repeat(np.arange(group_count, dtype=np.int64), sizes)
        self.t = np.arange(n, dtype=np.int64) - starts[self.gid]
        self.real = self.t >= prefix_lengths[self.gid]
        values = np.empty(n, dtype=np.int64)
        values[self.real] = group.vs
        values[~self.real] = _as_int64(np, prefix_values)
        self.vs = values


def _scan_plan(core, virtual_records):
    """Wrap a stateless segmented-scan plan with snapshot-start support.

    ``virtual_records(fields)`` maps one table entry to the shortest value
    sequence that drives a fresh scalar entry into exactly the snapshot
    state (verified per predictor against the scalar update rules).
    """

    def plan(np, columns, group, state):
        if state is None or not state["table"]:
            return core(np, group)
        entries = _present_entries(np, group, state)
        augmented = _AugmentedGroup(np, group, entries, virtual_records)
        has, pred = core(np, augmented)
        real = np.flatnonzero(augmented.real)
        return has[real], pred[real]

    return plan


def _virtual_last_value(fields):
    # hysteresis == "always": only the stored value affects predictions.
    return [fields[0]]


def _virtual_simple_stride(fields):
    last_value, stride = fields[0], fields[1]
    if stride is None:
        return [last_value]
    return [wrap_value(last_value - stride), last_value]


def _virtual_two_delta(fields):
    last_value, stride, transient = fields[0], fields[1], fields[3]
    if stride is None and transient is None:
        return [last_value]
    if stride is None or transient is None:
        # The scalar update sets both together; a half-set entry cannot
        # come from a real snapshot.
        raise _VectorizationUnsupported("inconsistent two-delta snapshot entry")
    # Replaying [L - t - s, L - t, L] leaves stride == s whether or not
    # the two virtual deltas coincide (they do exactly when s == t).
    return [
        wrap_value(last_value - transient - stride),
        wrap_value(last_value - transient),
        last_value,
    ]


def _virtual_lv_counter(fields, counter_max):
    value, counter = fields[0], fields[1]
    if not 0 <= counter <= counter_max:
        raise _VectorizationUnsupported("lv-counter snapshot counter out of range")
    # A fresh entry stores the value with counter 0; each repeat hits.
    return [value] * (counter + 1)


def _virtual_lv_consecutive(fields, required_run):
    value, candidate, run = fields[0], fields[2], fields[3]
    if candidate is None and run == 0:
        return [value]
    if candidate is None or candidate == value or not 0 < run < required_run:
        raise _VectorizationUnsupported("inconsistent lv-consecutive snapshot entry")
    # Each repeat of the candidate is a miss that extends its run.
    return [value] + [candidate] * run


def _virtual_stride_counter(fields, counter_max):
    last_value, stride, counter = fields[0], fields[1], fields[2]
    if not 0 <= counter <= counter_max or (stride is None and counter):
        raise _VectorizationUnsupported("inconsistent stride-counter snapshot entry")
    # A fresh entry acts as a zero stride with counter 0.  From there a
    # nonzero delta misses and is adopted with the counter at 0, a zero
    # delta hits, and every repeat of the delta hits.
    stride = stride or 0
    deltas = counter + 1 if stride else counter
    return [wrap_value(last_value - back * stride) for back in range(deltas, -1, -1)]


# --------------------------------------------------------------------------- #
# Lockstep scheduling (feedback state machines: counters, saturating FCM)
# --------------------------------------------------------------------------- #
def _lockstep_schedule(np, sizes, n):
    """Schedule per-group state machines over the group depth.

    Step ``k`` touches the ``k``-th record of every group that has one:
    the first ``active[k]`` groups of ``by_size`` (descending size), so
    total elementwise work stays O(n).  The guard rejects the
    pathological shape (one dominant group driving thousands of tiny
    steps) where per-step overhead would lose to the scalar loop anyway.
    """
    depth = int(sizes.max()) if len(sizes) else 0
    if depth > 4096 and depth * 32 > n:
        raise _VectorizationUnsupported("dominant group too deep for lockstep")
    by_size = np.argsort(-sizes, kind="stable")
    active = np.searchsorted(-sizes[by_size], -np.arange(depth), side="left")
    return by_size, active


# --------------------------------------------------------------------------- #
# The FCM count/argmax machinery (shared by single-order and blended plans)
# --------------------------------------------------------------------------- #
def _fcm_stream(np, group_ids, y):
    """Predict each element of a (group, value) stream from its group's past.

    The stream must list observations in time order.  For each element
    returns ``has`` (a previous same-group element exists, i.e. the
    context has non-empty counts) and ``pred`` (the value
    :func:`~repro.core.fcm.select_maximum_count` would pick from the
    counts of the previous same-group elements, with the immediately
    preceding one as the recency tie-breaker).
    """
    m = len(y)
    if m == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    order = np.argsort(group_ids, kind="stable")
    y2 = y[order]
    g_sorted = group_ids[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    new_group[1:] = g_sorted[1:] != g_sorted[:-1]
    gid = np.cumsum(new_group) - 1
    u = np.arange(m) - np.flatnonzero(new_group)[gid]

    # Running count c of each (group, value) pair at each occurrence.
    pid, _ = _factorize_pairs(np, gid, y2)
    pair_order = np.argsort(pid, kind="stable")
    pid_sorted = pid[pair_order]
    pair_start = np.empty(m, dtype=bool)
    pair_start[0] = True
    pair_start[1:] = pid_sorted[1:] != pid_sorted[:-1]
    counts = np.empty(m, dtype=np.int64)
    counts[pair_order] = (
        np.arange(m) - np.flatnonzero(pair_start)[np.cumsum(pair_start) - 1] + 1
    )

    # Running maximum count per group.
    count_bound = int(counts.max()) + 1
    running_max = _segmented_cummax(np, gid, counts, count_bound)

    # Insertion rank of each pair within its group, plus the group-local
    # table decoding (group, rank) back to the pair's value.
    pair_count = int(pid.max()) + 1
    first_pos = np.empty(pair_count, dtype=np.int64)
    first_pos[pid_sorted[pair_start]] = pair_order[pair_start]
    pair_gid = gid[first_pos]
    rank_order = np.lexsort((first_pos, pair_gid))
    ranked_gid = pair_gid[rank_order]
    rank_start = np.empty(pair_count, dtype=bool)
    rank_start[0] = True
    rank_start[1:] = ranked_gid[1:] != ranked_gid[:-1]
    # Every group holds at least one pair and pair_gid is dense, so the
    # group-change positions double as per-group base offsets.
    group_base = np.flatnonzero(rank_start)
    rank_sorted = np.arange(pair_count) - group_base[np.cumsum(rank_start) - 1]
    rank_of_pair = np.empty(pair_count, dtype=np.int64)
    rank_of_pair[rank_order] = rank_sorted
    value_by_rank = y2[first_pos][rank_order]

    # Leader = first-inserted value among the current maximal-count set.
    # Packing count (major) against inverted insertion rank (minor) makes
    # the running key-max decode to exactly that value: a value's latest
    # occurrence carries its full count, so the maximal key belongs to the
    # max-count value with the smallest rank.
    rank_bound = int(rank_of_pair.max()) + 2
    keys = counts * np.int64(rank_bound) + (
        np.int64(rank_bound - 1) - rank_of_pair[pid]
    )
    key_max = _segmented_cummax(np, gid, keys, count_bound * rank_bound)
    leader_rank = np.int64(rank_bound - 1) - (key_max % np.int64(rank_bound))
    leader = value_by_rank[group_base[gid] + leader_rank]

    # The prediction for element p reads the state after element p-1 of
    # its group: recent value, its count, the running max and the leader.
    has = u >= 1
    recent = np.zeros(m, dtype=np.int64)
    prev_count = np.zeros(m, dtype=np.int64)
    prev_max = np.full(m, -1, dtype=np.int64)
    prev_leader = np.zeros(m, dtype=np.int64)
    if m > 1:
        recent[1:] = y2[:-1]
        prev_count[1:] = counts[:-1]
        prev_max[1:] = running_max[:-1]
        prev_leader[1:] = leader[:-1]
    pred = np.where(prev_count == prev_max, recent, prev_leader)

    has_out = np.empty(m, dtype=bool)
    pred_out = np.empty(m, dtype=np.int64)
    has_out[order] = has
    pred_out[order] = pred
    return has_out, pred_out


# --------------------------------------------------------------------------- #
# Stateless scan plans (operate in any grouping-shaped sorted domain)
# --------------------------------------------------------------------------- #
def _plan_last_value(np, group):
    has = group.t >= 1
    pred = np.zeros(group.n, dtype=np.int64)
    if group.n > 1:
        pred[1:] = group.vs[:-1]
    return has, pred


def _deltas(np, group):
    """64-bit wrapping value deltas within each PC group (uint64 domain),
    zero on each group's first record."""
    values = group.vs.view(np.uint64)
    deltas = np.zeros(group.n, dtype=np.uint64)
    deltas[1:] = values[1:] - values[:-1]
    deltas[group.t == 0] = 0
    return deltas


def _stride_predictions(np, group, strides):
    """``last_value + stride`` with 64-bit wrap, given per-position strides."""
    values = group.vs.view(np.uint64)
    pred = np.zeros(group.n, dtype=np.uint64)
    if group.n > 1:
        pred[1:] = values[:-1] + strides[:-1]
    return group.t >= 1, pred.view(np.int64)


def _plan_simple_stride(np, group):
    # Stride state after each update: the latest delta; zero (i.e. plain
    # last-value) while the entry has seen a single value.
    return _stride_predictions(np, group, _deltas(np, group))


def _plan_two_delta(np, group):
    deltas = _deltas(np, group)
    prev_deltas = np.zeros(group.n, dtype=np.uint64)
    prev_deltas[1:] = deltas[:-1]
    # s2 adopts the observed delta on the first delta ever and whenever it
    # repeats the previous one; otherwise it keeps its old value, which a
    # forward-fill of the last adoption point reproduces.  t == 0 rows are
    # adoption points of stride zero so fills never leak across groups.
    adopt = (group.t <= 1) | (deltas == prev_deltas)
    fill = np.maximum.accumulate(np.where(adopt, np.arange(group.n), -1))
    return _stride_predictions(np, group, deltas[fill])


# --------------------------------------------------------------------------- #
# Hysteresis plans: lv-consecutive as a scan, the saturating counters as one
# counter-register automaton stepped over lanes
# --------------------------------------------------------------------------- #
def _plan_lv_consecutive(np, group, required_run):
    """``lv-consecutive``: replace after a run of identical new values.

    A hit clears the candidate, and a run of a new value restarts its
    candidate run at 1 (the value before it differs), so the stored value
    changes only at the ``required_run``-th element of a run of equal
    values, and only to that value.  Those elements, the rest of their
    run and every group's first record are *anchors*: the stored value
    after a record is the value at the last anchor up to it.
    """
    n = group.n
    index = np.arange(n)
    run_start = group.t == 0
    run_start[1:] |= group.vs[1:] != group.vs[:-1]
    run_index = index - np.maximum.accumulate(np.where(run_start, index, 0))
    # Every group starts with an anchor, so fills never cross groups.
    anchor = (group.t == 0) | (run_index >= required_run - 1)
    fill = np.maximum.accumulate(np.where(anchor, index, 0))
    pred = np.zeros(n, dtype=np.int64)
    pred[1:] = group.vs[fill[:-1]]
    return group.t >= 1, pred


def _lanes(np, group):
    """The lane layout of a grouping: ``(slot, offsets)``, memoised.

    Lanes are the groups by descending size, so the groups with a
    ``k``-th record are a prefix of them.  Step ``k`` of lane ``l`` sits
    at ``offsets[k] + l``; ``slot`` maps each sorted position there.
    """
    shared = _shared(group) if type(group) is _Grouping else None
    if shared is not None and shared.lanes is not None:
        return shared.lanes
    by_size, active = _lockstep_schedule(np, group.sizes, group.n)
    lane = np.empty(len(by_size), dtype=np.int64)
    lane[by_size] = np.arange(len(by_size))
    offsets = np.zeros(len(active) + 1, dtype=np.int64)
    np.cumsum(active, out=offsets[1:])
    lanes = (_frozen(offsets[group.t] + lane[group.gid]), tuple(offsets.tolist()))
    if shared is not None:
        shared.lanes = lanes
    return lanes


def _counter_register(np, group, inputs, counter_max, threshold, reset):
    """The register each record's ``predict`` reads, in the sorted domain.

    The automaton of ``lv-counter`` (inputs: values) and ``stride-counter``
    (inputs: deltas): a group's first input loads the register with the
    counter at 0; then a hit (register == input) bumps the counter, and a
    miss decays it and, below ``threshold``, loads the input (and with
    ``reset`` zeroes the counter).  The counter steps by table lookups on
    ``2 * counter + hit``: a few in-place ufuncs per step, on a prefix.
    """
    slot, offsets = _lanes(np, group)
    flat = np.empty(group.n, dtype=np.int64)
    flat[slot] = inputs
    out = np.zeros(group.n, dtype=np.int64)
    counts = np.arange(counter_max + 1)
    decayed = np.maximum(counts - 1, 0)
    load = np.zeros(2 * counter_max + 2, dtype=bool)
    load[0::2] = decayed < threshold
    following = np.empty(2 * counter_max + 2, dtype=np.intp)
    following[1::2] = 2 * np.minimum(counts + 1, counter_max)
    following[0::2] = 2 * np.where(load[0::2] & reset, 0, decayed)
    width = offsets[1] if group.n else 0
    register = flat[:width].copy()
    doubled, key = np.zeros((2, width), dtype=np.intp)
    hit, loads = np.zeros((2, width), dtype=bool)
    for start, stop in zip(offsets[1:], offsets[2:]):
        live = stop - start
        actual = flat[start:stop]
        stored = register[:live]
        out[start:stop] = stored
        np.equal(stored, actual, out=hit[:live])
        np.add(doubled[:live], hit[:live], out=key[:live])
        np.take(load, key[:live], out=loads[:live], mode="clip")
        np.copyto(stored, actual, where=loads[:live])
        np.take(following, key[:live], out=doubled[:live], mode="clip")
    return out[slot]


def _plan_lv_counter(np, group, counter_max, threshold):
    """``lv-counter``: replace the value only when the counter sags."""
    pred = _counter_register(np, group, group.vs, counter_max, threshold, True)
    return group.t >= 1, pred


def _plan_stride_counter(np, group, counter_max, threshold):
    """``stride-counter``: replace the stride only when the counter sags.

    An entry's empty stride predicts ``last_value``, as a zero stride
    with the counter at 0 would: the automaton's first step.
    """
    deltas = _deltas(np, group).view(np.int64)
    strides = _counter_register(np, group, deltas, counter_max, threshold, False)
    pred = np.zeros(group.n, dtype=np.uint64)
    pred[1:] = group.vs[:-1].view(np.uint64) + strides[1:].view(np.uint64)
    return group.t >= 1, pred.view(np.int64)


# --------------------------------------------------------------------------- #
# FCM with saturating counters and/or snapshot-seeded counts
# --------------------------------------------------------------------------- #
def _ragged_arange(np, counts):
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated."""
    total = int(counts.sum())
    starts = np.zeros(len(counts), dtype=np.int64)
    if len(counts):
        starts[1:] = np.cumsum(counts)[:-1]
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _fcm_eval(np, group_ids, y, counter_max=None, init=None):
    """(has, pred) for a (context, value) stream in time order.

    ``init`` (optional) seeds counts from a predictor snapshot: arrays
    ``(group, value, count, is_recent)`` listing the seeded pairs in
    snapshot insertion order per context, in the same id space as
    ``group_ids``.  The pure scan handles the stateless exact-count case;
    saturation and seeding run the same pair/rank tables in lockstep.
    """
    if counter_max is None and (init is None or len(init[0]) == 0):
        return _fcm_stream(np, group_ids, y)
    return _fcm_lockstep(np, group_ids, y, counter_max, init)


def _fcm_lockstep(np, group_ids, y, counter_max, init):
    """The FCM count/argmax pass as per-context lockstep state machines.

    Covers the two features the closed-form scan cannot: halve-on-
    saturation counters (``counter_max``) and counts seeded from a
    snapshot.  Predictions mirror
    :func:`~repro.core.fcm.select_maximum_count` exactly — the recent
    value wins a count tie, otherwise the first-inserted of the maximal
    set (its insertion *rank*) is chosen.
    """
    m = len(y)
    if m == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    if init is None:
        init = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=bool),
        )
    init_group, init_value, init_count, init_is_recent = init

    order = np.argsort(group_ids, kind="stable")
    g_sorted = group_ids[order]
    y2 = y[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    new_group[1:] = g_sorted[1:] != g_sorted[:-1]
    gid = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    group_count = int(gid[-1]) + 1
    sizes = np.diff(np.append(starts, m))
    unique_ids = g_sorted[starts]

    # Seeded pairs whose context never occurs in the stream cannot affect
    # any prediction; drop them and re-key the rest to dense group ids.
    if len(init_group):
        slot = np.searchsorted(unique_ids, init_group)
        slot = np.minimum(slot, group_count - 1)
        keep = unique_ids[slot] == init_group
        init_gid = slot[keep]
        init_value = init_value[keep]
        init_count = init_count[keep]
        init_is_recent = init_is_recent[keep]
    else:
        init_gid = np.zeros(0, dtype=np.int64)

    # One dense id per distinct (context, value) pair across init+stream.
    # First-occurrence positions are taken over the concatenation, so
    # seeded pairs keep their snapshot insertion ranks ahead of any pair
    # first produced by the stream — exactly the scalar dict order.
    seeded_pairs = len(init_gid)
    all_gid = np.concatenate((init_gid, gid))
    all_value = np.concatenate((init_value, y2))
    pair_id, _ = _factorize_pairs(np, all_gid, all_value)
    pair_count = int(pair_id.max()) + 1
    by_pair = np.argsort(pair_id, kind="stable")
    pair_sorted = pair_id[by_pair]
    pair_start = np.empty(len(pair_id), dtype=bool)
    pair_start[0] = True
    pair_start[1:] = pair_sorted[1:] != pair_sorted[:-1]
    first_pos = np.empty(pair_count, dtype=np.int64)
    first_pos[pair_sorted[pair_start]] = by_pair[pair_start]
    pair_gid = all_gid[first_pos]
    rank_order = np.lexsort((first_pos, pair_gid))
    ranked_gid = pair_gid[rank_order]
    rank_start = np.empty(pair_count, dtype=bool)
    rank_start[0] = True
    rank_start[1:] = ranked_gid[1:] != ranked_gid[:-1]
    # Every dense group has at least one stream element, hence at least
    # one pair, so the group-change positions double as base offsets.
    group_base = np.flatnonzero(rank_start)
    rank_sorted = np.arange(pair_count) - group_base[np.cumsum(rank_start) - 1]
    rank_of_pair = np.empty(pair_count, dtype=np.int64)
    rank_of_pair[rank_order] = rank_sorted
    value_of_pair = all_value[first_pos]
    value_by_rank = value_of_pair[rank_order]
    pairs_per_group = np.bincount(pair_gid, minlength=group_count)

    rank_bound = int(rank_of_pair.max()) + 2
    top_count = m + (int(init_count.max()) if len(init_count) else 0) + 1
    if top_count * rank_bound >= 2**62:
        raise _VectorizationUnsupported("packed count key would overflow int64")

    # Mutable per-pair counts and per-group running state.
    counts = np.zeros(pair_count, dtype=np.int64)
    has_counts = np.zeros(group_count, dtype=bool)
    max_count = np.zeros(group_count, dtype=np.int64)
    leader_rank = np.zeros(group_count, dtype=np.int64)
    recent_pair = np.zeros(group_count, dtype=np.int64)
    if seeded_pairs:
        init_pid = pair_id[:seeded_pairs]
        counts[init_pid] = init_count
        has_counts[init_gid] = True
        packed = np.full(group_count, -1, dtype=np.int64)
        key = init_count * np.int64(rank_bound) + (
            np.int64(rank_bound - 1) - rank_of_pair[init_pid]
        )
        np.maximum.at(packed, init_gid, key)
        seeded = packed >= 0
        max_count[seeded] = packed[seeded] // rank_bound
        leader_rank[seeded] = np.int64(rank_bound - 1) - packed[seeded] % rank_bound
        recent_source = init_pid[init_is_recent]
        recent_pair[pair_gid[recent_source]] = recent_source
        # The scalar update writes `recent` whenever it touches counts, so
        # every seeded context must carry exactly one recent marker.
        marks = np.bincount(pair_gid[recent_source], minlength=group_count)
        if not bool(np.all(marks[seeded] == 1)) or bool(np.any(marks[~seeded])):
            raise _VectorizationUnsupported("snapshot recent markers inconsistent")

    by_size, live = _lockstep_schedule(np, sizes, m)
    stream_pid = pair_id[seeded_pairs:]
    has2 = np.empty(m, dtype=bool)
    pred2 = np.empty(m, dtype=np.int64)
    saturation = None if counter_max is None else np.int64(counter_max)
    for step, width in enumerate(live.tolist()):
        active = by_size[:width]
        position = starts[active] + step
        pair = stream_pid[position]
        actual = y2[position]
        known = has_counts[active]
        recent = recent_pair[active]
        recent_hot = counts[recent] == max_count[active]
        leader_value = value_by_rank[group_base[active] + leader_rank[active]]
        has2[position] = known
        pred2[position] = np.where(
            known, np.where(recent_hot, value_of_pair[recent], leader_value), 0
        )
        # Update: bump this pair, move the leader if the pair now wins the
        # (count, -rank) order, and mark it recent.
        bumped = counts[pair] + 1
        counts[pair] = bumped
        rank = rank_of_pair[pair]
        promote = ~known | (bumped > max_count[active])
        tie = known & (bumped == max_count[active]) & (rank < leader_rank[active])
        max_count[active] = np.where(promote, bumped, max_count[active])
        leader_rank[active] = np.where(promote | tie, rank, leader_rank[active])
        recent_pair[active] = pair
        has_counts[active] = True
        if saturation is not None:
            hot = np.flatnonzero(bumped >= saturation)
            if len(hot):
                _halve_and_rescan(
                    np,
                    counts,
                    active[hot],
                    group_base,
                    pairs_per_group,
                    rank_order,
                    rank_bound,
                    rank_of_pair,
                    max_count,
                    leader_rank,
                )

    has_out = np.empty(m, dtype=bool)
    pred_out = np.empty(m, dtype=np.int64)
    has_out[order] = has2
    pred_out[order] = pred2
    return has_out, pred_out


def _halve_and_rescan(
    np,
    counts,
    groups,
    group_base,
    pairs_per_group,
    rank_order,
    rank_bound,
    rank_of_pair,
    max_count,
    leader_rank,
):
    """Halve every live count of the saturated ``groups`` in place.

    A halved count never drops below 1 and never-seen pairs stay at 0
    (mirroring the scalar loop over the live dict only), then each
    group's running max and leader are recomputed from scratch.
    """
    base = group_base[groups]
    width = pairs_per_group[groups]
    segment = np.repeat(base, width) + _ragged_arange(np, width)
    pairs = rank_order[segment]
    live = counts[pairs]
    counts[pairs] = np.where(live > 0, np.maximum(np.int64(1), live // 2), 0)
    keys = counts[pairs] * np.int64(rank_bound) + (
        np.int64(rank_bound - 1) - rank_of_pair[pairs]
    )
    offsets = np.zeros(len(groups), dtype=np.int64)
    offsets[1:] = np.cumsum(width)[:-1]
    best = np.maximum.reduceat(keys, offsets)
    max_count[groups] = best // rank_bound
    leader_rank[groups] = np.int64(rank_bound - 1) - best % rank_bound


# --------------------------------------------------------------------------- #
# FCM plans: context keys, snapshot seeding, single and blended orders
# --------------------------------------------------------------------------- #
def _context_keys(np, group, order, stream, init_contexts):
    """Dense context ids for stream records and snapshot contexts together.

    A context is (group, last ``order`` values); chaining the pair
    factorisation over stream lookbacks and snapshot context tuples at
    once puts both in a single id space.
    """
    stream_keys = group.gid[stream]
    init_keys = _as_int64(np, [gid for gid, _ in init_contexts])
    for back in range(1, order + 1):
        merged, _ = _factorize_pairs(
            np,
            np.concatenate((stream_keys, init_keys)),
            np.concatenate(
                (
                    group.vs[stream - back],
                    _as_int64(np, [context[-back] for _, context in init_contexts]),
                )
            ),
        )
        stream_keys = merged[: len(stream)]
        init_keys = merged[len(stream):]
    return stream_keys, init_keys


def _fcm_seed(np, group, order, stream, seeds):
    """Context ids plus the init-pair arrays for one FCM order.

    ``seeds`` lists ``(gid, counts_encoded, recent_encoded)`` per snapshot
    entry, in the transport encoding of :mod:`repro.simulation.state`
    (pairs lists preserving dict insertion order).
    """
    init_contexts = []
    pair_context, pair_value, pair_count, pair_recent = [], [], [], []
    for gid, counts_encoded, recent_encoded in seeds:
        recent_map = {tuple(context): value for context, value in recent_encoded}
        for context_list, pairs in counts_encoded:
            context = tuple(context_list)
            if len(context) != order or not pairs:
                raise _VectorizationUnsupported("malformed snapshot context")
            recent_value = recent_map.get(context)
            flags = [value == recent_value for value, _ in pairs]
            if not any(flags):
                raise _VectorizationUnsupported(
                    "snapshot recent value missing from its context counts"
                )
            for (value, count), flag in zip(pairs, flags):
                pair_context.append(len(init_contexts))
                pair_value.append(value)
                pair_count.append(count)
                pair_recent.append(flag)
            init_contexts.append((gid, context))
    stream_keys, init_keys = _context_keys(np, group, order, stream, init_contexts)
    if not pair_context:
        return stream_keys, None
    return stream_keys, (
        init_keys[np.asarray(pair_context, dtype=np.int64)],
        _as_int64(np, pair_value),
        _as_int64(np, pair_count),
        np.asarray(pair_recent, dtype=bool),
    )


def _context_ids(np, group, order):
    """Per-record ids of the (PC, last ``order`` values) context.

    Returns ``(ids, first)``.  Two records get the same id exactly when
    they share that context; the ids are valid where ``t >= order``
    (``-1`` elsewhere) and ``first`` flags the first record of every
    context, which the stable lexsort of the factorisation yields for
    free.  Order ``k`` extends order ``k - 1`` by one pair factorisation,
    and every order of the grouping is memoised in the shared slot, so
    all FCM plans over a trace together factorise at most once per order.
    """
    if order == 0:
        return group.gid, group.t == 0
    shared = _shared(group)
    ids = shared.contexts.get(order)
    if ids is None:
        shorter, _ = _context_ids(np, group, order - 1)
        valid = np.flatnonzero(group.t >= order)
        ids = np.full(group.n, -1, dtype=np.int64)
        first = np.zeros(group.n, dtype=bool)
        ids[valid], first[valid] = _factorize_pairs(
            np, shorter[valid], group.vs[valid - order]
        )
        shared.first_seen[order] = _frozen(first)
        ids = shared.contexts[order] = _frozen(ids)
    return ids, shared.first_seen[order]


def _plan_fcm(np, group, order):
    stream = np.flatnonzero(group.t >= order)
    keys = _context_ids(np, group, order)[0][stream]
    stream_has, stream_pred = _fcm_stream(np, keys, group.vs[stream])
    has = np.zeros(group.n, dtype=bool)
    pred = np.zeros(group.n, dtype=np.int64)
    has[stream] = stream_has
    pred[stream] = stream_pred
    return has, pred


def _history_augment(np, group, order, entries):
    """Fold snapshot value histories in as lookback-only virtual records.

    The ``t`` of the augmented grouping then counts *all* values the PC
    has produced (capped at ``order``), so the scalar gate
    ``len(history) >= order`` is exactly ``t >= order``.
    """
    return _AugmentedGroup(
        np, group, entries, lambda entry: list(entry["history"])[-order:] if order else []
    )


def _plan_fcm_stateful(np, group, order, counter_max, state):
    """Single fixed-order FCM, with optional saturation and snapshot."""
    if state is None and counter_max is None:
        return _plan_fcm(np, group, order)
    entries = _present_entries(np, group, state)
    augmented = _history_augment(np, group, order, entries)
    stream = np.flatnonzero(augmented.real & (augmented.t >= order))
    seeds = [(gid, entry["counts"], entry["recent"]) for gid, entry in entries]
    stream_keys, init = _fcm_seed(np, augmented, order, stream, seeds)
    stream_has, stream_pred = _fcm_eval(
        np, stream_keys, augmented.vs[stream], counter_max, init
    )
    has = np.zeros(augmented.n, dtype=bool)
    pred = np.zeros(augmented.n, dtype=np.int64)
    has[stream] = stream_has
    pred[stream] = stream_pred
    real = np.flatnonzero(augmented.real)
    return has[real], pred[real]


def _exclusion(np, group, order):
    """``(positions, predictions)`` of the order-``order`` lazy-exclusion
    matches, shared by every blended ``fcmN`` with ``N > order``.

    Longer contexts extend shorter ones, so the first record with an
    order-``j`` context sees new contexts above ``j``, matches nowhere
    above ``j`` and joins the order-``j`` stream.  A record thus matches
    at the highest order whose context it saw before, and for all
    ``N > j`` the order-``j`` stream is one set: the records with
    ``t == j`` or seeing their order-``j + 1`` context first.  Only its
    matches are stored; they are disjoint across orders, so the memo
    holds at most ``n`` values per trace.
    """
    shared = _shared(group)
    memo = shared.exclusions.get(order)
    if memo is None:
        _, first_above = _context_ids(np, group, order + 1)
        stream = np.flatnonzero((group.t == order) | first_above)
        keys = _context_ids(np, group, order)[0][stream]
        has, pred = _fcm_stream(np, keys, group.vs[stream])
        memo = shared.exclusions[order] = (_frozen(stream[has]), _frozen(pred[has]))
    return memo


def _plan_blended_fcm(np, group, order):
    # The top order's stream is every record with t >= order; below it,
    # each order adds its shared exclusion matches, which are disjoint
    # from the top order's and from each other (see _exclusion).
    has, pred = _plan_fcm(np, group, order)
    for lower in range(order):
        positions, predictions = _exclusion(np, group, lower)
        has[positions] = True
        pred[positions] = predictions
    return has, pred


def _plan_blended_stateful(np, group, order, counter_max, update_policy, state):
    """Blended FCM over orders ``order..0`` under either update policy."""
    if state is None and counter_max is None and update_policy == "lazy-exclusion":
        return _plan_blended_fcm(np, group, order)
    entries = _present_entries(np, group, state)
    for _, entry in entries:
        if len(entry["tables"]) != order + 1 or len(entry["recent"]) != order + 1:
            raise _VectorizationUnsupported("blended snapshot order mismatch")
    augmented = _history_augment(np, group, order, entries)
    has = np.zeros(augmented.n, dtype=bool)
    pred = np.zeros(augmented.n, dtype=np.int64)
    if update_policy == "lazy-exclusion":
        remaining = augmented.real.copy()
        for model_order in range(order, -1, -1):
            candidates = np.flatnonzero(remaining & (augmented.t >= model_order))
            seeds = [
                (gid, entry["tables"][model_order], entry["recent"][model_order])
                for gid, entry in entries
            ]
            stream_keys, init = _fcm_seed(np, augmented, model_order, candidates, seeds)
            if candidates.size == 0:
                continue
            stream_has, stream_pred = _fcm_eval(
                np, stream_keys, augmented.vs[candidates], counter_max, init
            )
            matched = candidates[stream_has]
            has[matched] = True
            pred[matched] = stream_pred[stream_has]
            remaining[matched] = False
    else:
        # Full update: every gated record feeds every order's table, and a
        # record keeps the highest-order context match.
        assigned = np.zeros(augmented.n, dtype=bool)
        for model_order in range(order, -1, -1):
            candidates = np.flatnonzero(augmented.real & (augmented.t >= model_order))
            seeds = [
                (gid, entry["tables"][model_order], entry["recent"][model_order])
                for gid, entry in entries
            ]
            stream_keys, init = _fcm_seed(np, augmented, model_order, candidates, seeds)
            if candidates.size == 0:
                continue
            stream_has, stream_pred = _fcm_eval(
                np, stream_keys, augmented.vs[candidates], counter_max, init
            )
            fresh = stream_has & ~assigned[candidates]
            chosen = candidates[fresh]
            has[chosen] = True
            pred[chosen] = stream_pred[fresh]
            assigned[candidates[stream_has]] = True
    real = np.flatnonzero(augmented.real)
    return has[real], pred[real]


# --------------------------------------------------------------------------- #
# Hybrid plans: component composition plus vectorized choosers
# --------------------------------------------------------------------------- #
def _hybrid_components(np, columns, group, plans, state):
    """Run every component plan; return (has, pred) pairs and correctness."""
    if state is not None:
        states = state["components"]
        if len(states) != len(plans):
            raise _VectorizationUnsupported("hybrid snapshot component mismatch")
    else:
        states = [None] * len(plans)
    results = [
        plan(np, columns, group, component_state)
        for plan, component_state in zip(plans, states)
    ]
    correct = [has & (pred == group.vs) for has, pred in results]
    return results, correct


def _gather_selected(np, results, selection):
    """Per-record gather of (has, pred) from the selected component.

    Fancy indexing accepts the same negative indices Python list indexing
    does, so exotic chooser mappings behave exactly like the scalar
    ``components[index]`` access.
    """
    all_has = np.stack([has for has, _ in results])
    all_pred = np.stack([pred for _, pred in results])
    index = np.arange(all_has.shape[1])
    return all_has[selection, index], all_pred[selection, index]


def _pc_chooser_select(np, group, correct, score_max, state):
    """Vectorized :class:`~repro.core.hybrid.PcChooser` selection.

    Each component's per-PC score stream is a prefix composition of
    saturating ±1 steps.  The step ``y -> min(C, max(B, y + A))`` is
    closed under composition, so a segmented Hillis–Steele doubling scan
    yields, per record, the transform of all earlier same-PC records;
    applied to the entry's initial score that is exactly the score the
    scalar ``select`` reads (``train`` runs after selection).
    """
    n = group.n
    width = len(correct)
    group_count = len(group.sizes)
    seeded = np.zeros(group_count, dtype=bool)
    base_scores = np.zeros((width, group_count), dtype=np.int64)
    entries = _present_entries(np, group, state) if state is not None else []
    if entries:
        for _, scores in entries:
            if len(scores) != width:
                raise _VectorizationUnsupported("chooser snapshot width mismatch")
        target = _as_int64(np, [gid for gid, _ in entries])
        seeded[target] = True
        for component in range(width):
            base_scores[component][target] = _as_int64(
                np, [scores[component] for _, scores in entries]
            )
    depth = int(group.sizes.max()) if group_count else 0
    top = np.int64(score_max)
    scores = []
    for component in range(width):
        shift = np.where(correct[component], np.int64(1), np.int64(-1))
        low = np.zeros(n, dtype=np.int64)
        high = np.full(n, top, dtype=np.int64)
        span = 1
        while span < depth:
            later = np.flatnonzero(group.t >= span)
            earlier = later - span
            shift_early = shift[earlier]
            low_early = low[earlier]
            high_early = high[earlier]
            shift_late = shift[later]
            low_late = low[later]
            high_late = high[later]
            new_high = np.minimum(
                high_late, np.maximum(low_late, high_early + shift_late)
            )
            new_low = np.minimum(
                new_high, np.maximum(low_late, low_early + shift_late)
            )
            shift[later] = shift_early + shift_late
            low[later] = new_low
            high[later] = new_high
            span *= 2
        value = np.empty(n, dtype=np.int64)
        initial = base_scores[component][group.gid]
        first = group.t == 0
        value[first] = initial[first]
        later = np.flatnonzero(~first)
        earlier = later - 1
        value[later] = np.minimum(
            high[earlier], np.maximum(low[earlier], initial[later] + shift[earlier])
        )
        scores.append(value)
    # Argmax with the scalar's earlier-index tie-break; records whose PC
    # has no chooser entry yet (first occurrence, unseeded) take index 0.
    selection = np.zeros(n, dtype=np.int64)
    best = scores[0]
    for component in range(1, width):
        better = scores[component] > best
        selection = np.where(better, np.int64(component), selection)
        best = np.where(better, scores[component], best)
    exists = (group.t >= 1) | seeded[group.gid]
    return np.where(exists, selection, np.int64(0))


def _plan_hybrid(predictor, component_plans):
    """Build the plan closure for one hybrid configuration."""
    from repro.core.hybrid import CategoryChooser, OracleChooser, PcChooser

    chooser = predictor.chooser
    if isinstance(chooser, OracleChooser):

        def plan(np, columns, group, state):
            _, correct = _hybrid_components(np, columns, group, component_plans, state)
            combined = np.zeros(group.n, dtype=bool)
            for flags in correct:
                combined |= flags
            # correct == has & (pred == value): emitting the true value as
            # the prediction makes the bitmap exactly "any component hit".
            return combined, group.vs

        return plan
    if isinstance(chooser, CategoryChooser):
        mapping = dict(chooser.mapping)
        default = chooser.default

        def plan(np, columns, group, state):
            results, _ = _hybrid_components(np, columns, group, component_plans, state)
            lookup = _as_int64(
                np, [mapping.get(category, default) for category in columns.categories]
            )
            selection = lookup[columns.category_codes[group.order]]
            return _gather_selected(np, results, selection)

        return plan
    if isinstance(chooser, PcChooser):
        if chooser.num_components != len(component_plans):
            return None
        score_max = chooser.score_max

        def plan(np, columns, group, state):
            chooser_state = state["chooser"] if state is not None else None
            results, correct = _hybrid_components(
                np, columns, group, component_plans, state
            )
            selection = _pc_chooser_select(np, group, correct, score_max, chooser_state)
            return _gather_selected(np, results, selection)

        return plan
    return None


# --------------------------------------------------------------------------- #
# Plan resolution (memoised per registry name; cold-start results shared
# per configuration)
# --------------------------------------------------------------------------- #
def _plan_for(predictor):
    """Build the vector plan for a predictor instance, or ``None``.

    Every plan is a pure closure ``plan(np, columns, group, state)``
    returning ``(has, pred)`` in the grouping's sorted domain; ``state``
    is a :func:`repro.simulation.state.snapshot_predictor` dict (or
    ``None`` for a cold start).  Dispatch inspects the instantiated
    configuration, so dynamic names and re-bound registry entries select
    the right plan.  Cold-start results are memoised under the
    configuration signature (:func:`_memoised`).
    """
    plan = _build_plan(predictor)
    if plan is None:
        return None
    return _memoised(plan, predictor.config_signature())


def _memoised(plan, signature: str):
    """Serve a cold-start plan's ``(has, pred)`` from the shared slot.

    Equal signatures mean interchangeable predictors, so a hybrid's
    components and the standalone configurations share one result per
    trace.  Snapshot-started runs and augmented groupings bypass the memo.
    """

    def memoised_plan(np, columns, group, state):
        if state is not None or type(group) is not _Grouping:
            return plan(np, columns, group, state)
        results = _shared(group).results
        result = results.get(signature)
        if result is None:
            has, pred = plan(np, columns, group, state)
            result = results[signature] = (_frozen(has), _frozen(pred))
        return result

    return memoised_plan


def _build_plan(predictor):
    """The unmemoised plan of :func:`_plan_for`."""
    from repro.core.blending import BlendedFcmPredictor
    from repro.core.fcm import FcmPredictor
    from repro.core.hybrid import HybridPredictor
    from repro.core.last_value import LastValuePredictor
    from repro.core.stride import (
        CounterStridePredictor,
        SimpleStridePredictor,
        TwoDeltaStridePredictor,
    )

    kind = type(predictor)
    if kind is LastValuePredictor:
        if predictor.hysteresis == "always":
            return _scan_plan(_plan_last_value, _virtual_last_value)
        if predictor.hysteresis == "counter":
            maximum, limit = predictor.counter_max, predictor.counter_threshold
            return _scan_plan(
                lambda np, group: _plan_lv_counter(np, group, maximum, limit),
                lambda fields: _virtual_lv_counter(fields, maximum),
            )
        required = predictor.required_run
        return _scan_plan(
            lambda np, group: _plan_lv_consecutive(np, group, required),
            lambda fields: _virtual_lv_consecutive(fields, required),
        )
    if kind is SimpleStridePredictor:
        return _scan_plan(_plan_simple_stride, _virtual_simple_stride)
    if kind is TwoDeltaStridePredictor:
        return _scan_plan(_plan_two_delta, _virtual_two_delta)
    if kind is CounterStridePredictor:
        maximum, limit = predictor.counter_max, predictor.threshold
        return _scan_plan(
            lambda np, group: _plan_stride_counter(np, group, maximum, limit),
            lambda fields: _virtual_stride_counter(fields, maximum),
        )
    if kind is FcmPredictor:
        order = predictor.order
        saturation = predictor.counter_max
        return lambda np, columns, group, state: _plan_fcm_stateful(
            np, group, order, saturation, state
        )
    if kind is BlendedFcmPredictor:
        order = predictor.order
        saturation = predictor.counter_max
        policy = predictor.update_policy
        return lambda np, columns, group, state: _plan_blended_stateful(
            np, group, order, saturation, policy, state
        )
    if kind is HybridPredictor:
        component_plans = [
            _plan_for(component.predictor) for component in predictor.components
        ]
        if any(plan is None for plan in component_plans):
            return None
        return _plan_hybrid(predictor, component_plans)
    return None


#: name -> (registered factory at resolution time, plan).  The factory
#: object is the cache validity token: re-registering a name swaps the
#: factory and invalidates the entry, while dynamic ``fcmN*`` spellings
#: (token ``None``) are fixed by construction and cache indefinitely.
_PLAN_CACHE: dict[str, tuple[object, object]] = {}


def vector_plan(predictor_name: str):
    """The vector plan for a registry name, or ``None`` (scalar fallback).

    Resolution is memoised per name: sharded runs resolve the same few
    names once per window otherwise, and instantiating a throwaway
    predictor per resolution is the expensive part.  The cache is
    validated against the registry's current factory object, so
    ``register_predictor(..., overwrite=True)`` takes effect immediately.
    """
    from repro.core.registry import create_predictor, registered_factory

    token = registered_factory(predictor_name)
    cached = _PLAN_CACHE.get(predictor_name)
    if cached is not None and cached[0] is token:
        return cached[1]
    plan = _plan_for(create_predictor(predictor_name))
    _PLAN_CACHE[predictor_name] = (token, plan)
    return plan


# --------------------------------------------------------------------------- #
# Result assembly — dict insertion orders must match the scalar loop's,
# because cache entries are JSON renderings of these dicts and the two
# kernels must produce byte-identical entries.
# --------------------------------------------------------------------------- #
def _first_occurrence_order(np, keys):
    """Unique keys with counts, ordered by first occurrence in ``keys``."""
    unique, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return unique[order], first[order], counts[order]


def _first_order_counts(np, keys, first_index, width):
    """The distinct ``keys`` (dense, below ``width``) and their counts,
    ordered by each key's smallest ``first_index`` — the insertion order
    of a scalar loop that counts the keys in ``first_index`` order."""
    counts = np.bincount(keys, minlength=width)
    first = np.full(width, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, keys, first_index)
    present = np.flatnonzero(counts)
    present = present[np.argsort(first[present])]
    return present.tolist(), counts[present].tolist()


def _category_counts(np, columns, codes):
    """Category -> count, keyed in first-occurrence order of ``codes``."""
    present, counts = _first_order_counts(
        np, codes, np.arange(len(codes)), len(columns.categories)
    )
    return {columns.categories[code]: count for code, count in zip(present, counts)}


def _category_totals(np, columns):
    """Per-category record counts — identical for every predictor's shard."""
    totals = columns.scratch.get("category_totals")
    if totals is None:
        totals = _category_counts(np, columns, columns.category_codes)
        columns.scratch["category_totals"] = totals
    return totals


def simulate_shard_vector(
    columns: "TraceColumns",
    predictor_name: str,
    state: dict | None = None,
    count_simulation: bool = True,
):
    """Vectorized :func:`~repro.simulation.simulator.simulate_shard`.

    ``state`` starts the plan from a restored predictor snapshot
    (:mod:`repro.simulation.state`), which is how ``simulate-window``
    tasks of an intra-trace sharded run execute mid-trace windows on the
    vector kernel.  ``count_simulation=False`` suppresses the process-wide
    simulation counter — window shards count once per (trace, predictor)
    pair, at the window that starts the trace.

    Returns ``None`` when the predictor has no vector plan or a size
    guard trips — callers then run the scalar reference loop.
    """
    from repro.simulation.simulator import (
        SIMULATION_COUNTER,
        PredictorResult,
        PredictorShard,
    )

    np = numpy_or_none()
    if np is None:
        return None
    plan = vector_plan(predictor_name)
    if plan is None:
        return None
    group = _grouping(np, columns)
    try:
        has_sorted, pred_sorted = plan(np, columns, group, state)
    except _VectorizationUnsupported:
        return None
    if count_simulation:
        SIMULATION_COUNTER.increment()
    n = group.n
    correct_sorted = has_sorted & (pred_sorted == group.vs)
    correct = np.empty(n, dtype=bool)
    correct[group.order] = correct_sorted
    # Sorted positions keep program order within a group, so keying each
    # group by its correct records' original indices orders pc_correct
    # by first correct record without sorting the records.
    hits = np.flatnonzero(correct_sorted)
    groups, counts = _first_order_counts(
        np, group.gid[hits], group.order[hits], len(group.sizes)
    )
    result = PredictorResult(
        predictor=predictor_name,
        total=n,
        correct=int(np.count_nonzero(correct_sorted)),
        category_total=dict(_category_totals(np, columns)),
        category_correct=_category_counts(np, columns, columns.category_codes[correct]),
        pc_correct=dict(zip(group.unique_pcs[groups].tolist(), counts)),
    )
    return PredictorShard(
        result=result,
        correctness=np.packbits(correct, bitorder="little").tobytes(),
        record_count=n,
    )


def merge_shards_vector(
    columns: "TraceColumns", shards: Mapping[str, "PredictorShard"]
) -> "SimulationResult | None":
    """Vectorized :func:`~repro.simulation.simulator.merge_shards`.

    The caller validates shard/record counts first; ``None`` means the
    merge is outside the vector path (no numpy, or more than 62
    predictors, whose joint outcomes no longer pack into one int64 key).
    """
    from repro.simulation.simulator import SimulationResult

    np = numpy_or_none()
    names = tuple(shards)
    if np is None or len(names) > 62:
        return None
    n = len(columns)

    key = np.zeros(n, dtype=np.uint64)
    for position, name in enumerate(names):
        bits = np.unpackbits(
            np.frombuffer(shards[name].correctness, dtype=np.uint8),
            count=n,
            bitorder="little",
        )
        key |= bits.astype(np.uint64) << np.uint64(position)

    width = len(names)

    def outcome_tuple(packed: int) -> tuple[bool, ...]:
        return tuple(bool(packed >> position & 1) for position in range(width))

    def subset_dict(keys) -> dict:
        unique, _, counts = _first_occurrence_order(np, keys)
        return {
            outcome_tuple(packed): count
            for packed, count in zip(unique.tolist(), counts.tolist())
        }

    subset_counts = subset_dict(key)
    subset_by_category: dict = {}
    category_codes, _, _ = _first_occurrence_order(np, columns.category_codes)
    for code in category_codes:
        mask = columns.category_codes == code
        subset_by_category[columns.categories[int(code)]] = subset_dict(key[mask])

    unique_pcs, first_seen, pc_counts = _first_occurrence_order(np, columns.pcs)
    pc_total = dict(zip(unique_pcs.tolist(), pc_counts.tolist()))
    first_codes = columns.category_codes[first_seen].tolist()
    pc_category = {
        pc: columns.categories[code]
        for pc, code in zip(unique_pcs.tolist(), first_codes)
    }
    return SimulationResult(
        trace_name=columns.name,
        predictor_names=names,
        total_records=n,
        results={name: shards[name].result for name in names},
        pc_total=pc_total,
        pc_category=pc_category,
        subset_counts=subset_counts,
        subset_counts_by_category=subset_by_category,
    )
