"""The campaign paths read trace columns and never build ``TraceRecord`` objects."""

from __future__ import annotations

import pytest

from repro.core.registry import PAPER_PREDICTORS
from repro.simulation import vectorized
from repro.simulation.campaign import clear_campaign_cache, last_engine_stats, run_campaign
from repro.simulation.value_profile import value_profile
from repro.trace.stream import ValueTrace


@pytest.mark.skipif(vectorized.numpy_or_none() is None, reason="vector kernel requires numpy")
def test_cold_then_warm_campaign_never_materialises_records(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("ValueTrace.records was materialised")

    monkeypatch.setattr(ValueTrace, "records", property(refuse))
    try:
        for warm in (False, True):
            # Drop the in-process memo so the warm run reads the disk cache.
            clear_campaign_cache()
            campaign = run_campaign(
                scale=0.05,
                predictors=PAPER_PREDICTORS,
                cache_dir=tmp_path,
                jobs=1,
                backend="serial",
                kernel="vector",
            )
            stats = last_engine_stats()
            if warm:
                assert (stats.traces_computed, stats.simulations_computed) == (0, 0)
            else:
                assert stats.traces_computed == len(campaign.traces)
            for trace in campaign.traces.values():
                profile = value_profile(trace)
                assert sum(profile.static_percent["All"].values()) == pytest.approx(100.0)
    finally:
        clear_campaign_cache()


@pytest.mark.skipif(vectorized.numpy_or_none() is None, reason="vector kernel requires numpy")
def test_cold_then_warm_campaign_never_builds_decoded_lists(tmp_path, monkeypatch):
    # A trace decoded from v3 bytes holds numpy columns; the vector kernel
    # and value_profile must read those, never the lists built from them.
    column_lists = ValueTrace._column_lists

    def refuse_decoded(self):
        if self._lists is None:
            raise AssertionError("a decoded trace built its list columns")
        return column_lists(self)

    monkeypatch.setattr(ValueTrace, "_column_lists", refuse_decoded)
    try:
        for warm in (False, True):
            clear_campaign_cache()
            campaign = run_campaign(
                scale=0.05,
                predictors=PAPER_PREDICTORS,
                cache_dir=tmp_path,
                jobs=1,
                backend="serial",
                kernel="vector",
            )
            stats = last_engine_stats()
            if warm:
                assert (stats.traces_computed, stats.simulations_computed) == (0, 0)
            # Fresh traces reach the campaign through the v3 bytes too.
            assert all(trace._lists is None for trace in campaign.traces.values())
            for trace in campaign.traces.values():
                profile = value_profile(trace)
                assert sum(profile.static_percent["All"].values()) == pytest.approx(100.0)
                assert trace._lists is None
    finally:
        clear_campaign_cache()
