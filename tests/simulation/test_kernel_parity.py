"""Differential harness pinning the vector kernel to the scalar reference.

The scalar loop of :mod:`repro.simulation.simulator` is the golden
reference; the columnar kernel (:mod:`repro.simulation.vectorized`) must be
*bit-identical* to it — not just equal totals, but the same packed
per-record correctness bits and the same dict insertion orders, because
cache entries are JSON renderings of these dicts and the two kernels must
produce byte-identical entries.  The harness drives every registered
predictor configuration over seeded synthetic traces engineered to stress
each plan: skewed PC reuse, stride runs with breaks, repeating FCM
contexts, mixed instruction categories and occasional extreme values.
"""

from __future__ import annotations

import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import PAPER_PREDICTORS, available_predictors
from repro.engine.codecs import shard_to_dict, simulation_to_dict
from repro.errors import SimulationError
from repro.isa.opcodes import CATEGORY_OF, Opcode
from repro.simulation import vectorized
from repro.simulation.simulator import (
    SIMULATION_COUNTER,
    merge_shards,
    simulate_shard,
    simulate_trace,
)
from repro.trace.io import decode_trace_columns, dumps_trace_binary, trace_columns
from repro.trace.record import TraceRecord
from repro.trace.stream import ValueTrace

requires_numpy = pytest.mark.skipif(
    vectorized.numpy_or_none() is None, reason="vector kernel requires numpy"
)

#: Register-writing opcodes spanning all predicted categories (Table 3).
_OPCODES = (
    Opcode.ADD,
    Opcode.ADDI,
    Opcode.LW,
    Opcode.LB,
    Opcode.AND,
    Opcode.XOR,
    Opcode.SLL,
    Opcode.SLT,
    Opcode.MULT,
    Opcode.LUI,
    Opcode.MOV,
)

_EXTREMES = (2**63 - 1, -(2**63), -1, 0)


@functools.lru_cache(maxsize=None)
def synthetic_trace(seed: int, length: int, pcs: int) -> ValueTrace:
    """A seeded random trace with per-PC value behaviours.

    Each static PC gets one behaviour: arithmetic strides with occasional
    breaks (stride adoption/two-delta hysteresis), mostly-constant values
    (last-value hits), short repeating cycles (FCM contexts that recur) or
    uniform 64-bit noise.  PC selection is skewed so a few PCs dominate,
    as in real traces; rare extreme values exercise the zigzag boundaries.
    """
    rng = random.Random(seed)
    pc_pool = [0x400000 + 4 * index for index in range(pcs)]
    opcode_of = {pc: rng.choice(_OPCODES) for pc in pc_pool}
    behaviour_of = {pc: rng.choice(("stride", "repeat", "cycle", "noisy")) for pc in pc_pool}
    state: dict[int, object] = {}
    occurrences: dict[int, int] = {}
    records = []
    serial = 0
    for _ in range(length):
        serial += rng.randint(1, 4)
        # Quadratic skew: low-index PCs are reused far more often.
        pc = pc_pool[min(int(rng.random() ** 2 * pcs), pcs - 1)]
        occurrence = occurrences.get(pc, 0)
        occurrences[pc] = occurrence + 1
        behaviour = behaviour_of[pc]
        if behaviour == "stride":
            base, stride = state.setdefault(
                pc, (rng.randint(-1000, 1000), rng.choice((-8, -1, 1, 4, 8)))
            )
            value = base
            if rng.random() < 0.05:
                stride = rng.choice((-8, -1, 1, 4, 8))
            state[pc] = (base + stride, stride)
        elif behaviour == "repeat":
            value = state.setdefault(pc, rng.randint(-50, 50))
            if rng.random() < 0.1:
                value = rng.randint(-50, 50)
                state[pc] = value
        elif behaviour == "cycle":
            pattern = state.setdefault(
                pc, tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 5)))
            )
            value = pattern[occurrence % len(pattern)]
        else:
            value = rng.randrange(-(2**63), 2**63)
        if rng.random() < 0.01:
            value = rng.choice(_EXTREMES)
        opcode = opcode_of[pc]
        records.append(
            TraceRecord(
                serial=serial,
                pc=pc,
                opcode=opcode,
                category=CATEGORY_OF[opcode],
                value=value,
            )
        )
    trace = ValueTrace(f"synthetic-{seed}-{length}-{pcs}", records)
    trace.set_total_dynamic_instructions(serial + rng.randint(0, 5))
    return trace


#: (seed, length, pcs) — dozens of shapes: hot single PCs, wide PC sets,
#: tiny traces, deep per-PC streams.
SCENARIOS = (
    (1, 400, 8),
    (2, 640, 3),
    (3, 500, 40),
    (4, 256, 1),
    (5, 700, 16),
    (6, 123, 5),
    (7, 810, 25),
    (8, 320, 64),
)

#: Every statically registered name plus dynamic-suffix names, covering
#: both the vectorized plans and the scalar-fallback configurations.
ALL_NAMES = tuple(available_predictors()) + (
    "fcm0",
    "fcm4",
    "fcm2-single",
    "fcm2-small",
    "fcm2-full",
)


def assert_shard_parity(trace: ValueTrace, name: str) -> None:
    scalar = simulate_shard(trace, name, kernel="scalar")
    vector = simulate_shard(trace, name, kernel="vector")
    assert json.dumps(shard_to_dict(scalar)) == json.dumps(shard_to_dict(vector))


@requires_numpy
class TestShardParity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: f"seed{s[0]}")
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_predictor_every_scenario(self, scenario, name):
        assert_shard_parity(synthetic_trace(*scenario), name)

    def test_every_name_has_a_vector_plan(self):
        # Guard against the parity tests comparing scalar against a silent
        # scalar fallback: every registered name — and every dynamic fcm
        # spelling — must have a real plan.
        for name in ALL_NAMES + ("fcm5-single", "fcm6-small", "fcm1-full"):
            assert vectorized.vector_plan(name) is not None, name

    def test_vector_kernel_actually_engages(self):
        columns = trace_columns(synthetic_trace(*SCENARIOS[0]))
        assert columns is not None
        assert vectorized.simulate_shard_vector(columns, "fcm2") is not None

    def test_vector_plan_memoized_per_registry_name(self):
        from repro.core.registry import register_predictor, registered_factory
        from repro.core.last_value import LastValuePredictor

        assert vectorized.vector_plan("lv-counter") is vectorized.vector_plan("lv-counter")
        assert vectorized.vector_plan("fcm5") is vectorized.vector_plan("fcm5")
        original = registered_factory("lv-counter")
        first = vectorized.vector_plan("lv-counter")
        register_predictor(
            "lv-counter",
            lambda: LastValuePredictor(
                hysteresis="counter", counter_max=1, counter_threshold=1
            ),
            overwrite=True,
        )
        try:
            # Re-binding the name swaps the factory token, so the memoised
            # plan must be rebuilt for the new configuration.
            assert vectorized.vector_plan("lv-counter") is not first
        finally:
            register_predictor("lv-counter", original, overwrite=True)
        assert vectorized.vector_plan("lv-counter") is not None


@requires_numpy
class TestMergeParity:
    @pytest.mark.parametrize("scenario", SCENARIOS[:4], ids=lambda s: f"seed{s[0]}")
    def test_simulate_trace_parity(self, scenario):
        trace = synthetic_trace(*scenario)
        scalar = simulate_trace(trace, PAPER_PREDICTORS, kernel="scalar")
        vector = simulate_trace(trace, PAPER_PREDICTORS, kernel="vector")
        assert json.dumps(simulation_to_dict(scalar)) == json.dumps(simulation_to_dict(vector))

    def test_merge_parity_mixed_shards(self):
        # Shards computed by either kernel merge identically on either kernel.
        trace = synthetic_trace(*SCENARIOS[1])
        names = ("l", "s2", "fcm1", "fcm2-small")
        shards = {
            name: simulate_shard(trace, name, kernel="vector" if index % 2 else "scalar")
            for index, name in enumerate(names)
        }
        scalar = merge_shards(trace, shards, kernel="scalar")
        vector = merge_shards(trace, shards, kernel="vector")
        assert json.dumps(simulation_to_dict(scalar)) == json.dumps(simulation_to_dict(vector))

    def test_subset_excluding_fcm(self):
        trace = synthetic_trace(*SCENARIOS[2])
        scalar = simulate_trace(trace, ("l", "s2"), kernel="scalar")
        vector = simulate_trace(trace, ("l", "s2"), kernel="vector")
        assert json.dumps(simulation_to_dict(scalar)) == json.dumps(simulation_to_dict(vector))


def _edge_trace(name: str, triples) -> ValueTrace:
    """Build a tiny trace from (pc, opcode, value) triples."""
    records = [
        TraceRecord(
            serial=index + 1,
            pc=pc,
            opcode=opcode,
            category=CATEGORY_OF[opcode],
            value=value,
        )
        for index, (pc, opcode, value) in enumerate(triples)
    ]
    return ValueTrace(name, records)


@requires_numpy
class TestEdgeCases:
    EDGE_NAMES = ("l", "s", "s2", "fcm1", "fcm2", "fcm3", "fcm0", "fcm2-single")

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_empty_trace(self, name):
        assert_shard_parity(ValueTrace("empty", []), name)

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_single_record(self, name):
        assert_shard_parity(_edge_trace("one", [(0x10, Opcode.ADD, 7)]), name)

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_single_hot_pc(self, name):
        triples = [(0x10, Opcode.LW, value) for value in (3, 5, 7, 9, 9, 9, 11, 3, 5, 7)]
        assert_shard_parity(_edge_trace("hot", triples), name)

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_interleaved_aliasing_pcs(self, name):
        # Two PCs in lockstep with identical values: per-PC grouping must
        # not leak one PC's history into the other's table walk.
        triples = []
        for value in (1, 2, 3, 5, 8, 13, 21):
            triples.append((0x10, Opcode.ADD, value))
            triples.append((0x20, Opcode.SUB, value))
        assert_shard_parity(_edge_trace("alias", triples), name)

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_extreme_values_through_zigzag(self, name):
        triples = [
            (0x10, Opcode.LUI, 2**63 - 1),
            (0x10, Opcode.LUI, -(2**63)),
            (0x10, Opcode.LUI, 2**63 - 1),
            (0x14, Opcode.ADD, -(2**63)),
            (0x14, Opcode.ADD, -1),
            (0x14, Opcode.ADD, 2**63 - 2),
            (0x10, Opcode.LUI, -(2**63)),
        ]
        assert_shard_parity(_edge_trace("extreme", triples), name)

    @pytest.mark.parametrize("compress", (False, True))
    def test_columnar_decode_matches_object_columns(self, compress):
        # The wire-bytes fast path and the record-object path must build
        # the same columns — boundary values and all.
        np = vectorized.numpy_or_none()
        trace = synthetic_trace(9, 300, 12)
        decoded = decode_trace_columns(dumps_trace_binary(trace, compress=compress))
        reference = trace_columns(trace)
        assert decoded is not None and reference is not None
        assert decoded.name == reference.name
        assert decoded.total_dynamic_instructions == reference.total_dynamic_instructions
        assert decoded.categories == reference.categories
        for field in ("serials", "pcs", "values", "category_codes"):
            assert np.array_equal(getattr(decoded, field), getattr(reference, field)), field


@pytest.fixture
def temporary_predictor():
    """Register throwaway configurations; pop them again on teardown."""
    from repro.core import registry

    names: list[str] = []

    def _register(name: str, factory) -> str:
        registry.register_predictor(name, factory)
        names.append(name)
        return name

    yield _register
    for name in names:
        registry._REGISTRY.pop(name, None)
        vectorized._PLAN_CACHE.pop(name, None)


@requires_numpy
class TestCounterEdges:
    """Saturation-counter boundaries: counter_max=1 and threshold==counter_max."""

    def _cases(self):
        from repro.core.last_value import LastValuePredictor
        from repro.core.stride import CounterStridePredictor

        return (
            ("edge-lv-m1", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=1, counter_threshold=1)),
            ("edge-lv-tmax", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=3, counter_threshold=3)),
            ("edge-lv-run1", lambda: LastValuePredictor(
                hysteresis="consecutive", required_run=1)),
            ("edge-sc-m1", lambda: CounterStridePredictor(counter_max=1, threshold=1)),
            ("edge-sc-tmax", lambda: CounterStridePredictor(counter_max=3, threshold=3)),
            ("edge-lv-run3", lambda: LastValuePredictor(
                hysteresis="consecutive", required_run=3)),
            ("edge-lv-run5", lambda: LastValuePredictor(
                hysteresis="consecutive", required_run=5)),
            ("edge-lv-m5t1", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=5, counter_threshold=1)),
            ("edge-lv-m5t4", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=5, counter_threshold=4)),
            ("edge-sc-m5t2", lambda: CounterStridePredictor(counter_max=5, threshold=2)),
        )

    def test_counter_boundary_parity(self, temporary_predictor):
        for name, factory in self._cases():
            temporary_predictor(name, factory)
            for scenario in SCENARIOS[:4]:
                assert_shard_parity(synthetic_trace(*scenario), name)

    def test_counter_boundary_hot_pc(self, temporary_predictor):
        # A value flip-flop drives the counter across every saturation and
        # replacement edge on a single entry.
        values = (5, 5, 5, 9, 5, 9, 9, 5, 5, 9, 9, 9, 5, 13, 13, 5, 9)
        triples = [(0x40, Opcode.ADD, value) for value in values]
        for name, factory in self._cases():
            temporary_predictor(name, factory)
            assert_shard_parity(_edge_trace("flipflop", triples), name)


def _scalar_window_shard(name: str, state, tail: ValueTrace):
    """The reference scalar window loop (mirrors the worker's fallback)."""
    from repro.core.registry import create_predictor
    from repro.simulation.simulator import (
        PredictorResult,
        PredictorShard,
        pack_outcomes,
    )
    from repro.simulation.state import restore_predictor

    predictor = create_predictor(name)
    if state is not None:
        restore_predictor(predictor, state)
    result = PredictorResult(predictor=name)
    outcomes = []
    for record in tail.records:
        category = record.category
        correct = predictor.observe(record.pc, record.value, category)
        outcomes.append(correct)
        result.total += 1
        result.category_total[category] = result.category_total.get(category, 0) + 1
        if correct:
            result.correct += 1
            result.category_correct[category] = result.category_correct.get(category, 0) + 1
            result.pc_correct[record.pc] = result.pc_correct.get(record.pc, 0) + 1
    return PredictorShard(
        result=result, correctness=pack_outcomes(outcomes), record_count=len(tail)
    )


def assert_window_parity(trace: ValueTrace, name: str, split: int) -> None:
    """Vector plan started from a mid-trace snapshot == scalar continuation."""
    from repro.core.registry import create_predictor
    from repro.simulation.state import replay_records, snapshot_predictor

    predictor = create_predictor(name)
    replay_records(predictor, trace.records[:split])
    state = snapshot_predictor(predictor)
    # The snapshot crosses a JSON wire in the engine; round-trip it so any
    # representation the codec cannot carry shows up as a parity break.
    state = json.loads(json.dumps(state))
    tail = ValueTrace(trace.name, trace.records[split:])
    scalar = _scalar_window_shard(name, state, tail)
    columns = trace_columns(tail)
    assert columns is not None
    vector = vectorized.simulate_shard_vector(
        columns, name, state=state, count_simulation=False
    )
    assert vector is not None, f"{name} fell back to scalar for the window"
    assert json.dumps(shard_to_dict(scalar)) == json.dumps(shard_to_dict(vector))


@requires_numpy
class TestWindowedVectorParity:
    """Plans started from restored snapshots — the sharded-run composition."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_predictor_from_snapshot(self, name):
        trace = synthetic_trace(*SCENARIOS[4])
        for split in (1, 7, len(trace) // 2, len(trace) - 1):
            assert_window_parity(trace, name, split)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_three_window_stitch_matches_monolithic(self, name):
        # Chained snapshots across two interior boundaries: the stitched
        # windows must reproduce the unsharded shard bit-exactly.
        from repro.engine.sharding import merge_window_shards
        from repro.core.registry import create_predictor
        from repro.simulation.state import replay_records, snapshot_predictor

        trace = synthetic_trace(*SCENARIOS[5])
        length = len(trace)
        cuts = (0, length // 3, 2 * length // 3, length)
        predictor = create_predictor(name)
        parts = []
        for start, stop in zip(cuts, cuts[1:]):
            state = None
            if start:
                state = json.loads(json.dumps(snapshot_predictor(predictor)))
            window = ValueTrace(trace.name, trace.records[start:stop])
            columns = trace_columns(window)
            shard = vectorized.simulate_shard_vector(
                columns, name, state=state, count_simulation=False
            )
            assert shard is not None, name
            parts.append(shard)
            replay_records(predictor, window.records)
        stitched = merge_window_shards(name, parts)
        reference = simulate_shard(trace, name, kernel="scalar")
        assert json.dumps(shard_to_dict(stitched)) == json.dumps(shard_to_dict(reference))

    def test_counter_state_straddles_boundary(self, temporary_predictor):
        from repro.core.last_value import LastValuePredictor
        from repro.core.stride import CounterStridePredictor

        # Splits landing mid-saturation: the snapshot must carry partially
        # saturated counters (and candidate runs) bit-exactly.
        values = (5, 5, 5, 5, 9, 9, 5, 9, 9, 9, 9, 5, 5, 9, 13, 13, 13, 5)
        triples = [(0x40, Opcode.LW, value) for value in values]
        trace = _edge_trace("straddle", triples)
        cases = (
            ("edge-w-lv", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=3, counter_threshold=2)),
            ("edge-w-lv1", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=1, counter_threshold=1)),
            ("edge-w-cons", lambda: LastValuePredictor(
                hysteresis="consecutive", required_run=2)),
            ("edge-w-sc", lambda: CounterStridePredictor(counter_max=3, threshold=3)),
            ("edge-w-cons3", lambda: LastValuePredictor(
                hysteresis="consecutive", required_run=3)),
            ("edge-w-cons5", lambda: LastValuePredictor(
                hysteresis="consecutive", required_run=5)),
            ("edge-w-lv5t1", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=5, counter_threshold=1)),
            ("edge-w-lv5t4", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=5, counter_threshold=4)),
            ("edge-w-sc5t2", lambda: CounterStridePredictor(counter_max=5, threshold=2)),
        )
        for name, factory in cases:
            temporary_predictor(name, factory)
            for split in range(1, len(values)):
                assert_window_parity(trace, name, split)


#: The plans with a closed form or a shared stream that a short stream
#: over a tiny alphabet stresses hardest: runs, promotions, counter flaps.
_CLOSED_FORM_NAMES = (
    "lv-consecutive",
    "lv-counter",
    "stride-counter",
    "fcm0",
    "fcm1",
    "fcm2",
    "fcm3",
    "fcm4",
)


@st.composite
def tiny_alphabet_traces(draw):
    """A short trace over 1-3 PCs whose values come from 2-3 symbols,
    plus a split point for a snapshot-started window."""
    symbols = draw(
        st.lists(
            st.sampled_from((0, 1, 2, 7, -1, 2**63 - 1, -(2**63))),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    pcs = draw(st.integers(1, 3))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, pcs - 1), st.sampled_from(symbols)),
            min_size=1,
            max_size=60,
        )
    )
    triples = [(0x80 + 4 * pc, Opcode.ADD, value) for pc, value in steps]
    return _edge_trace("tiny", triples), draw(st.integers(0, len(triples) - 1))


@requires_numpy
class TestClosedFormProperties:
    @settings(max_examples=80, deadline=None)
    @given(tiny_alphabet_traces())
    def test_vector_equals_scalar(self, drawn):
        trace, split = drawn
        for name in _CLOSED_FORM_NAMES:
            assert_shard_parity(trace, name)
            if split:
                assert_window_parity(trace, name, split)


#: Hybrids and the standalone configurations of their components.
_HYBRIDS = tuple(name for name in ALL_NAMES if name.startswith("hybrid-"))


def _sharing_orders(seed: int):
    """Several simulation orders: hybrids first, hybrids last, shuffles."""
    rest = [name for name in ALL_NAMES if name not in _HYBRIDS]
    rng = random.Random(seed)
    shuffled = [list(ALL_NAMES) for _ in range(2)]
    for order in shuffled:
        rng.shuffle(order)
    return [list(_HYBRIDS) + rest, rest + list(_HYBRIDS), *shuffled]


@requires_numpy
class TestSharedWork:
    """Per-trace kernel work shared across predictors changes no result."""

    @pytest.mark.parametrize("scenario", SCENARIOS[:3], ids=lambda s: f"seed{s[0]}")
    def test_shared_columns_match_fresh_columns(self, scenario):
        blob = dumps_trace_binary(synthetic_trace(*scenario))
        # Fresh columns per predictor: a new grouping every time, so no
        # context id or plan result is ever reused.
        fresh = {
            name: vectorized.simulate_shard_vector(decode_trace_columns(blob), name)
            for name in ALL_NAMES
        }
        for order in _sharing_orders(scenario[0]):
            columns = decode_trace_columns(blob)
            for name in order:
                shard = vectorized.simulate_shard_vector(columns, name)
                assert shard.correctness == fresh[name].correctness, (name, order)
                assert shard_to_dict(shard) == shard_to_dict(fresh[name]), (name, order)

    def test_shared_arrays_are_read_only(self):
        columns = decode_trace_columns(dumps_trace_binary(synthetic_trace(*SCENARIOS[0])))
        for name in ALL_NAMES:
            vectorized.simulate_shard_vector(columns, name)
        shared = vectorized._SHARED
        assert shared.group is columns.scratch["grouping"]
        assert set(shared.contexts) == set(range(1, 9))
        assert set(shared.first_seen) == set(range(1, 9))
        assert set(shared.exclusions) == set(range(8))
        arrays = list(shared.contexts.values()) + list(shared.first_seen.values())
        for positions, predictions in shared.exclusions.values():
            arrays.extend((positions, predictions))
        arrays.append(shared.lanes[0])
        for has, pred in shared.results.values():
            arrays.extend((has, pred))
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: f"seed{s[0]}")
    def test_exclusion_memo_holds_at_most_n_values(self, scenario):
        np = vectorized.numpy_or_none()
        columns = decode_trace_columns(dumps_trace_binary(synthetic_trace(*scenario)))
        vectorized.simulate_shard_vector(columns, "fcm8")
        exclusions = vectorized._SHARED.exclusions
        positions = np.concatenate([stored for stored, _ in exclusions.values()])
        # One stored value per matched record at most: the per-order sets
        # are disjoint, so the memo never outgrows the trace.
        assert len(positions) <= len(columns)
        assert len(np.unique(positions)) == len(positions)

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: f"seed{s[0]}")
    def test_exclusion_streams_are_shared_across_orders(self, scenario):
        # The top-down lazy-exclusion loop of every blended fcmN, run as
        # written: its order-j candidate stream is the same set for every
        # N > j, namely the records with t == j or seeing their order-j+1
        # context first, and its order-j matches are the shared memo.
        np = vectorized.numpy_or_none()
        columns = decode_trace_columns(dumps_trace_binary(synthetic_trace(*scenario)))
        group = vectorized._grouping(np, columns)
        streams: dict[int, object] = {}
        for top in range(9):
            has = np.zeros(group.n, dtype=bool)
            pred = np.zeros(group.n, dtype=np.int64)
            remaining = np.ones(group.n, dtype=bool)
            for order in range(top, -1, -1):
                candidates = np.flatnonzero(remaining & (group.t >= order))
                ids, _ = vectorized._context_ids(np, group, order)
                matched_flags, predictions = vectorized._fcm_stream(
                    np, ids[candidates], group.vs[candidates]
                )
                matched = candidates[matched_flags]
                has[matched] = True
                pred[matched] = predictions[matched_flags]
                remaining[matched] = False
                if order == top:
                    continue
                if order in streams:
                    assert np.array_equal(streams[order], candidates), (top, order)
                streams[order] = candidates
                _, first_above = vectorized._context_ids(np, group, order + 1)
                expected = np.flatnonzero((group.t == order) | first_above)
                assert np.array_equal(candidates, expected), (top, order)
                positions, values = vectorized._exclusion(np, group, order)
                assert np.array_equal(positions, matched), (top, order)
                assert np.array_equal(values, predictions[matched_flags]), (top, order)
            # Predictions where has is False are never read.
            blended_has, blended_pred = vectorized._plan_blended_fcm(np, group, top)
            assert np.array_equal(blended_has, has), top
            assert np.array_equal(blended_pred[has], pred[has]), top

    def test_hybrid_fills_its_components_results(self):
        from repro.core.registry import create_predictor

        columns = decode_trace_columns(dumps_trace_binary(synthetic_trace(*SCENARIOS[1])))
        vectorized.simulate_shard_vector(columns, "hybrid-oracle")
        results = vectorized._SHARED.results
        for name in ("l", "s2", "fcm3", "hybrid-oracle"):
            assert create_predictor(name).config_signature() in results, name
        assert create_predictor("s").config_signature() not in results

    def test_slot_holds_one_grouping(self):
        blob = dumps_trace_binary(synthetic_trace(*SCENARIOS[2]))
        first, second = decode_trace_columns(blob), decode_trace_columns(blob)
        vectorized.simulate_shard_vector(first, "fcm2")
        vectorized.simulate_shard_vector(second, "fcm2")
        assert vectorized._SHARED.group is second.scratch["grouping"]
        # The shared arrays live in the slot, not on the columns: traces
        # kept alive for a whole run must not each carry them.
        assert set(second.scratch) <= {"grouping", "category_totals"}


@requires_numpy
class TestAccounting:
    def test_counter_counts_one_per_trace_predictor_pair(self):
        trace = synthetic_trace(10, 200, 6)
        SIMULATION_COUNTER.reset()
        simulate_trace(trace, PAPER_PREDICTORS, kernel="vector")
        assert SIMULATION_COUNTER.count == len(PAPER_PREDICTORS)
        SIMULATION_COUNTER.reset()
        simulate_shard(trace, "fcm1", kernel="vector")
        assert SIMULATION_COUNTER.count == 1


class TestKernelResolution:
    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv(vectorized.KERNEL_ENV, raising=False)
        assert vectorized.resolve_kernel(None) == "scalar"

    def test_empty_environment_is_scalar(self, monkeypatch):
        monkeypatch.setenv(vectorized.KERNEL_ENV, "")
        assert vectorized.resolve_kernel(None) == "scalar"

    @requires_numpy
    def test_environment_forces_vector(self, monkeypatch):
        monkeypatch.setenv(vectorized.KERNEL_ENV, "vector")
        assert vectorized.resolve_kernel(None) == "vector"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(vectorized.KERNEL_ENV, "vector")
        assert vectorized.resolve_kernel("scalar") == "scalar"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SimulationError, match="unknown simulation kernel"):
            vectorized.resolve_kernel("turbo")

    def test_unknown_environment_kernel_names_source(self, monkeypatch):
        monkeypatch.setenv(vectorized.KERNEL_ENV, "turbo")
        with pytest.raises(SimulationError, match=vectorized.KERNEL_ENV):
            vectorized.resolve_kernel(None)

    def test_auto_without_numpy_is_scalar(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_numpy_module", None)
        assert vectorized.resolve_kernel("auto") == "scalar"

    def test_forced_vector_without_numpy_is_clean_error(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_numpy_module", None)
        with pytest.raises(SimulationError, match="requires numpy"):
            vectorized.resolve_kernel("vector")
        with pytest.raises(SimulationError, match="requires numpy"):
            simulate_shard(synthetic_trace(11, 20, 2), "l", kernel="vector")
