"""Deadline scopes, and what the band fan-out's threads inherit.

A :func:`~repro.deadline.deadline_scope` and the open span
are both context variables.  Pool threads do not inherit context
variables on their own, so the thread fan-out submits every block
through ``contextvars.copy_context().run``; these tests pin that the
budget and the span tree both reach the blocks, on every method.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import DeadlineExceededError
from repro.deadline import (
    check_deadline,
    deadline_scope,
    scope_remaining_s,
)
from repro.uncertainty.mc import mc_band_stack


def _stack(n_cells=6, n=40):
    rng = np.random.default_rng(7)
    return (rng.uniform(1.0, 500.0, (n_cells, n)),
            rng.uniform(0.05, 0.5, (n_cells, n)))


class TestDeadlineScope:
    def test_no_scope_means_no_budget(self):
        assert scope_remaining_s() is None
        check_deadline("probe")          # never raises outside a scope

    def test_none_budget_is_a_noop_scope(self):
        with deadline_scope(None):
            assert scope_remaining_s() is None

    def test_remaining_counts_down_and_resets(self):
        with deadline_scope(30.0):
            left = scope_remaining_s()
            assert 0.0 < left <= 30.0
            check_deadline("probe")
        assert scope_remaining_s() is None

    def test_nested_scopes_keep_the_tighter_deadline(self):
        with deadline_scope(30.0):
            with deadline_scope(60.0):
                assert scope_remaining_s() <= 30.0
            with deadline_scope(5.0):
                assert scope_remaining_s() <= 5.0
            assert scope_remaining_s() > 5.0

    def test_spent_budget_raises_with_label_and_budget(self):
        before = obs.get_counter("fanout.deadline_scope_exceeded")
        with deadline_scope(1e-9):
            time.sleep(0.001)
            with pytest.raises(DeadlineExceededError) as excinfo:
                check_deadline("probe")
        assert excinfo.value.label == "probe"
        assert excinfo.value.budget_s == 1e-9
        assert obs.get_counter("fanout.deadline_scope_exceeded") \
            == before + 1


class TestThreadPropagation:
    @pytest.mark.parametrize("method", ["threads", "serial"])
    def test_expired_scope_stops_the_band_kernel(self, method):
        values, unc = _stack()
        with deadline_scope(1e-9):
            time.sleep(0.001)
            with pytest.raises(DeadlineExceededError) as excinfo:
                mc_band_stack(values, unc, n_samples=100, method=method,
                              max_workers=2)
        assert excinfo.value.label == "mc-bands"

    def test_threaded_stats_spans_nest_under_the_band_stack(self):
        values, unc = _stack()
        with obs.capture() as trace:
            mc_band_stack(values, unc, n_samples=100, method="threads",
                          max_workers=2)
        (stack,) = trace.by_name("mc.band_stack")
        stats = trace.by_name("mc.stats")
        assert len(stats) == 2
        assert all(r["parent_id"] == stack["span_id"] for r in stats)

    def test_many_threads_fast_switching_lose_nothing(self):
        """More blocks than cores, switching every microsecond: every
        band still matches serial, and the shared counters (one lock)
        lose no update."""
        values, unc = _stack(n_cells=16)
        values[2:4, :9] = np.nan         # one block with a shorter stream
        unc[2:4, :9] = np.nan
        serial = mc_band_stack(values, unc, n_samples=64, method="serial")
        counts = (~np.isnan(values)).sum(axis=1)
        expected_draws = 64 * sum(int(counts[c0:c0 + 2].max())
                                  for c0 in range(0, 16, 2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                draws = obs.get_counter("mc.draws")
                blocks = obs.get_counter("fanout.blocks_dispatched")
                assert mc_band_stack(values, unc, n_samples=64,
                                     method="threads",
                                     max_workers=8) == serial
                assert obs.get_counter("mc.draws") - draws \
                    == expected_draws
                assert obs.get_counter("fanout.blocks_dispatched") \
                    - blocks == 8
        finally:
            sys.setswitchinterval(interval)
