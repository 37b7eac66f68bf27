"""Breaker transitions and single-flight warm-state rebuild."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import BreakerOpenError
from repro.serve.lifecycle import (
    BREAKER_CLOSED,
    BREAKER_DEGRADED,
    BREAKER_OPEN,
    CircuitBreaker,
    WarmState,
)


class TestBreakerTransitions:
    def test_closed_to_degraded_to_open(self):
        breaker = CircuitBreaker(degrade_after=2, open_after=4)
        assert breaker.state == BREAKER_CLOSED
        assert not breaker.serial_only
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_DEGRADED
        assert breaker.serial_only
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_open_refuses_with_cooldown_retry_after(self):
        breaker = CircuitBreaker(degrade_after=1, open_after=1,
                                 cooldown_s=60.0)
        breaker.record_failure()
        with pytest.raises(BreakerOpenError) as excinfo:
            breaker.check_admission(False)
        assert excinfo.value.code == "breaker-open"
        assert excinfo.value.state == BREAKER_OPEN
        assert 0.0 < excinfo.value.retry_after_s <= 60.0

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(degrade_after=1, open_after=1,
                                 close_after=2, cooldown_s=0.02)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        time.sleep(0.03)
        breaker.check_admission(False)      # cooldown elapsed: probe
        assert breaker.state == BREAKER_DEGRADED
        assert breaker.serial_only          # the probe runs serial
        breaker.record_success()
        assert breaker.state == BREAKER_DEGRADED
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(degrade_after=1, open_after=1,
                                 cooldown_s=0.02)
        breaker.record_failure()
        time.sleep(0.03)
        breaker.check_admission(False)
        assert breaker.state == BREAKER_DEGRADED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(degrade_after=2, open_after=3)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED   # streak broken at 1

    def test_draining_refuses_regardless_of_state(self):
        breaker = CircuitBreaker()
        with pytest.raises(BreakerOpenError) as excinfo:
            breaker.check_admission(True)
        assert excinfo.value.state == "draining"
        assert excinfo.value.retry_after_s is None

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError, match="degrade_after"):
            CircuitBreaker(degrade_after=5, open_after=2)


class TestWarmState:
    def test_single_flight_builds_once_per_key(self):
        async def scenario():
            warm = WarmState()
            builds = []

            def build():
                builds.append(1)
                return ("r1", "r2")

            results = await asyncio.gather(
                *(warm.records_for("doe-like", build) for _ in range(5)))
            assert len(builds) == 1
            # Everyone shares the winner's tuple, identity included.
            assert all(r is results[0] for r in results)
            assert warm.peek("doe-like") is results[0]

        asyncio.run(scenario())

    def test_invalidate_triggers_exactly_one_rebuild(self):
        async def scenario():
            warm = WarmState()
            builds = []

            def build():
                builds.append(1)
                return ("r",)

            await warm.records_for("k", build)
            warm.invalidate("k")
            assert warm.peek("k") is None
            await asyncio.gather(
                *(warm.records_for("k", build) for _ in range(3)))
            assert len(builds) == 2

        asyncio.run(scenario())

    def test_invalidate_all(self):
        async def scenario():
            warm = WarmState()
            await warm.records_for("a", lambda: ("x",))
            await warm.records_for("b", lambda: ("y",))
            warm.invalidate()
            assert warm.peek("a") is None and warm.peek("b") is None

        asyncio.run(scenario())

    def test_lru_bound_at_the_frame_cache_size(self):
        from repro.core.vectorized import _FRAME_CACHE_MAX

        async def scenario():
            warm = WarmState()
            await warm.records_for("keep", lambda: ("k",))
            for i in range(_FRAME_CACHE_MAX + 4):
                await warm.records_for(f"f{i}", lambda: ("x",))
                await warm.records_for("keep", lambda: ("k",))  # touched
            assert len(warm._fleets) == _FRAME_CACHE_MAX
            assert warm.peek("keep") == ("k",)
            assert warm.peek("f0") is None       # least recently used
            assert warm.peek(f"f{_FRAME_CACHE_MAX + 3}") == ("x",)

        asyncio.run(scenario())

    def test_a_failed_build_leaves_nothing_behind(self):
        async def scenario():
            warm = WarmState()

            def build():
                raise ValueError("bad record")

            with pytest.raises(ValueError):
                await warm.records_for("bad", build)
            assert warm.peek("bad") is None and not warm._fleets

        asyncio.run(scenario())
