"""Predictor-state snapshot, restore and boundary replay.

Intra-trace sharding (:mod:`repro.engine.sharding`) splits one trace into
windows and runs each window as an independent work unit.  A window that
does not start at record 0 must begin from exactly the predictor state the
preceding records would have produced — otherwise the composed outcome
diverges from the monolithic run.  This module provides the three pieces
that make the handoff exact:

* :func:`replay_records` — advance a fresh predictor over a trace prefix
  using ``update()`` only.  Every registered predictor's ``observe()`` is
  ``predict`` (pure) → stats accounting (never read by ``predict``) →
  ``update``, and :class:`~repro.core.hybrid.HybridPredictor.observe`
  additionally touches only per-component selection tallies — so
  update-only replay reproduces the *prediction-affecting* state of a full
  simulation bit-exactly, at roughly half the cost.
* :func:`snapshot_predictor` — serialize that state into a JSON-safe dict.
  Every mapping is rendered as a ``[[key, value], ...]`` pairs list so the
  original *insertion order* survives any transport (in-process, pickle,
  or the remote backend's JSON wire).  Order is load-bearing:
  :func:`~repro.core.fcm.select_maximum_count` breaks count ties by dict
  iteration order, so a reordered table would change predictions.
* :func:`restore_predictor` — rebuild a fresh predictor's tables from a
  snapshot, inserting keys in the recorded order.

Snapshots feed both kernels: the scalar window path restores a predictor
object and runs the reference observe loop, while the vector kernel's
plans (:mod:`repro.simulation.vectorized`) consume the snapshot dict
directly — virtual-record prefixes, or seeded FCM counts and chooser scores —
so ``--kernel vector`` composes with ``--shard-window``.

Snapshots are a transport format between one replay and the windows it
feeds, not a cache format: they are never persisted, so the encoding can
evolve freely with the predictor classes (both travel inside one
``TASK_FORMAT_VERSION``-pinned task payload).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.base import ValuePredictor
from repro.core.blending import BlendedFcmPredictor, _BlendedEntry
from repro.core.fcm import FcmPredictor, _FcmEntry
from repro.core.hybrid import HybridPredictor, PcChooser, _ScoreEntry
from repro.core.last_value import LastValuePredictor, _LastValueEntry
from repro.core.stride import _StrideEntry, _StridePredictorBase
from repro.errors import SimulationError


def replay_records(predictor: ValuePredictor, records: Iterable) -> None:
    """Advance ``predictor`` over ``records`` with update-only replay.

    Equivalent to calling ``observe`` per record as far as any future
    prediction is concerned (see the module docstring), but skips the
    predict/compare half of the loop.  Never touches the process-wide
    ``SIMULATION_COUNTER`` — a replay is bookkeeping for a window handoff,
    not a simulation.
    """
    update = predictor.update
    for record in records:
        update(record.pc, record.value, record.category)


# --------------------------------------------------------------------------- #
# Snapshot — JSON-safe, insertion-order-preserving
# --------------------------------------------------------------------------- #
def snapshot_predictor(predictor: ValuePredictor) -> dict:
    """Serialize a predictor's prediction-affecting state to a JSON-safe dict."""
    if isinstance(predictor, HybridPredictor):
        return {
            "components": [
                snapshot_predictor(component.predictor)
                for component in predictor.components
            ],
            "chooser": _snapshot_chooser(predictor.chooser),
        }
    if isinstance(predictor, LastValuePredictor):
        return {
            "table": [
                [pc, [e.value, e.counter, e.candidate, e.candidate_run]]
                for pc, e in predictor._table.items()
            ]
        }
    if isinstance(predictor, _StridePredictorBase):
        return {
            "table": [
                [pc, [e.last_value, e.stride, e.counter, e.transient_stride]]
                for pc, e in predictor._table.items()
            ]
        }
    if isinstance(predictor, BlendedFcmPredictor):
        return {
            "table": [
                [
                    pc,
                    {
                        "history": list(e.history),
                        "tables": [_encode_counts(table) for table in e.tables],
                        "recent": [_encode_recent(recent) for recent in e.recent],
                    },
                ]
                for pc, e in predictor._table.items()
            ]
        }
    if isinstance(predictor, FcmPredictor):
        return {
            "table": [
                [
                    pc,
                    {
                        "history": list(e.history),
                        "counts": _encode_counts(e.counts),
                        "recent": _encode_recent(e.recent),
                    },
                ]
                for pc, e in predictor._table.items()
            ]
        }
    raise SimulationError(
        f"predictor {getattr(predictor, 'name', '?')!r} "
        f"({type(predictor).__name__}) has no state codec; intra-trace "
        f"sharding cannot hand its state across window boundaries"
    )


def restore_predictor(predictor: ValuePredictor, state: dict) -> None:
    """Rebuild a fresh predictor's tables from :func:`snapshot_predictor` output.

    Keys are inserted in the snapshot's recorded order, reproducing the
    dict iteration orders (and therefore the tie-breaking) of a predictor
    that processed the prefix natively.
    """
    if isinstance(predictor, HybridPredictor):
        components = state["components"]
        if len(components) != len(predictor.components):
            raise SimulationError(
                f"hybrid state carries {len(components)} component(s), "
                f"predictor {predictor.name!r} has {len(predictor.components)}"
            )
        for component, component_state in zip(predictor.components, components):
            restore_predictor(component.predictor, component_state)
        _restore_chooser(predictor.chooser, state["chooser"])
        return
    if isinstance(predictor, LastValuePredictor):
        predictor._table = {
            pc: _LastValueEntry(
                value=fields[0],
                counter=fields[1],
                candidate=fields[2],
                candidate_run=fields[3],
            )
            for pc, fields in state["table"]
        }
        return
    if isinstance(predictor, _StridePredictorBase):
        predictor._table = {
            pc: _StrideEntry(
                last_value=fields[0],
                stride=fields[1],
                counter=fields[2],
                transient_stride=fields[3],
            )
            for pc, fields in state["table"]
        }
        return
    if isinstance(predictor, BlendedFcmPredictor):
        predictor._table = {
            pc: _BlendedEntry(
                history=list(entry["history"]),
                tables=[_decode_counts(table) for table in entry["tables"]],
                recent=[_decode_recent(recent) for recent in entry["recent"]],
            )
            for pc, entry in state["table"]
        }
        return
    if isinstance(predictor, FcmPredictor):
        predictor._table = {
            pc: _FcmEntry(
                history=list(entry["history"]),
                counts=_decode_counts(entry["counts"]),
                recent=_decode_recent(entry["recent"]),
            )
            for pc, entry in state["table"]
        }
        return
    raise SimulationError(
        f"predictor {getattr(predictor, 'name', '?')!r} "
        f"({type(predictor).__name__}) has no state codec; intra-trace "
        f"sharding cannot hand its state across window boundaries"
    )


# --------------------------------------------------------------------------- #
# Internals
# --------------------------------------------------------------------------- #
def _encode_counts(counts: dict) -> list:
    # context tuple -> {value -> count}, both levels order-preserving.
    return [
        [list(context), [[value, count] for value, count in values.items()]]
        for context, values in counts.items()
    ]


def _decode_counts(encoded: list) -> dict:
    return {
        tuple(context): {value: count for value, count in values}
        for context, values in encoded
    }


def _encode_recent(recent: dict) -> list:
    return [[list(context), value] for context, value in recent.items()]


def _decode_recent(encoded: list) -> dict:
    return {tuple(context): value for context, value in encoded}


def _snapshot_chooser(chooser) -> dict | None:
    # CategoryChooser and OracleChooser are stateless: their selection is a
    # pure function of the inputs, so there is nothing to hand off.
    if isinstance(chooser, PcChooser):
        return {
            "table": [
                [pc, list(entry.scores)] for pc, entry in chooser._table.items()
            ]
        }
    return None


def _restore_chooser(chooser, state: dict | None) -> None:
    if isinstance(chooser, PcChooser):
        if state is None:
            raise SimulationError("hybrid state is missing its chooser table")
        chooser._table = {
            pc: _ScoreEntry(scores=list(scores)) for pc, scores in state["table"]
        }
    elif state is not None:
        raise SimulationError(
            f"hybrid state carries a chooser table but {type(chooser).__name__} "
            f"is stateless"
        )
