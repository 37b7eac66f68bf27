"""The supervised dispatcher and the degradation ladder, unit-level.

The chaos suite (``test_faults.py``) drives these paths end-to-end
through real worker processes; this module pins the pure control-flow
contracts with fake pools — retry accounting, deadline conversion,
partial-result harvesting, latch arithmetic, forced-method pinning —
so a failure here localizes to the dispatcher, not the substrate.
"""

from __future__ import annotations

import functools
import operator
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import (
    BlockTimeoutError,
    FanOutExhaustedError,
    LadderExhaustedError,
)
from repro.parallel import faults, resilience
from repro.parallel import pool as pool_mod
from repro.parallel.resilience import (
    DegradedFanOutWarning,
    RetryPolicy,
    run_ladder,
    supervised_map,
)

WORKERS = 2


@pytest.fixture(autouse=True)
def _clean_ladder():
    resilience.reset_ladder_state()
    yield
    resilience.reset_ladder_state()
    pool_mod.shutdown_pool()


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.attempts >= 1
        assert policy.timeout_s is None or policy.timeout_s > 0

    @pytest.mark.parametrize("kwargs", [
        {"attempts": 0},
        {"attempts": -1},
        {"backoff_s": -0.1},
        {"backoff_factor": 0.5},
        {"timeout_s": 0.0},
        {"timeout_s": -5.0},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_none_timeout_disables_deadlines(self):
        assert RetryPolicy(timeout_s=None).timeout_s is None

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(resilience.ATTEMPTS_ENV, "5")
        monkeypatch.setenv(resilience.TIMEOUT_ENV, "12.5")
        monkeypatch.setenv(resilience.BACKOFF_ENV, "0.5")
        policy = resilience.default_policy()
        assert policy.attempts == 5
        assert policy.timeout_s == 12.5
        assert policy.backoff_s == 0.5

    def test_zero_timeout_env_disables_deadlines(self, monkeypatch):
        monkeypatch.setenv(resilience.TIMEOUT_ENV, "0")
        assert resilience.default_policy().timeout_s is None

    def test_malformed_env_warns_and_keeps_defaults(self, monkeypatch):
        monkeypatch.setenv(resilience.ATTEMPTS_ENV, "banana")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            policy = resilience.default_policy()
        assert policy.attempts == resilience.DEFAULT_ATTEMPTS


# ---------------------------------------------------------------------------
# supervised_map: fake-pool control flow
# ---------------------------------------------------------------------------

def _ok_future(value) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def _broken_future() -> Future:
    future: Future = Future()
    future.set_exception(BrokenProcessPool("worker died"))
    return future


class _ScriptedPool:
    """A fake pool whose submits follow a per-round script."""

    def __init__(self, rounds):
        # rounds: list of callables (task, block) -> Future
        self.rounds = list(rounds)
        self.round_no = -1
        self.submitted: list[list[int]] = []

    def next_round(self):
        self.round_no += 1
        self.submitted.append([])

    def submit(self, fn, inner_fn, task, block, attempt, traced=False):
        self.submitted[-1].append(block)
        return self.rounds[self.round_no](task, block)


def _install(monkeypatch, pool: _ScriptedPool) -> list[int]:
    """Wire the fake pool into the dispatcher; count kill_pool calls."""
    kills: list[int] = []

    def fake_get_pool(max_workers=None):
        pool.next_round()
        return pool

    monkeypatch.setattr(pool_mod, "get_pool", fake_get_pool)
    monkeypatch.setattr(pool_mod, "kill_pool", lambda: kills.append(1))
    return kills


class TestSupervisedMap:
    def test_empty_tasks(self):
        assert supervised_map(str, []) == []

    def test_inline_when_no_pool(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "get_pool", lambda *_: None)
        double = functools.partial(operator.mul, 2)
        assert supervised_map(double, [1, 2, 3]) == [2, 4, 6]

    def test_single_task_runs_inline(self, monkeypatch):
        # Even with a pool, one block is cheaper inline.
        monkeypatch.setattr(
            pool_mod, "get_pool",
            lambda *_: pytest.fail("pool must not be consulted") if False
            else object())
        assert supervised_map(functools.partial(operator.mul, 3),
                              [7]) == [21]

    def test_all_blocks_succeed(self, monkeypatch):
        pool = _ScriptedPool([lambda task, b: _ok_future(task * 2)])
        _install(monkeypatch, pool)
        assert supervised_map(None, [1, 2, 3]) == [2, 4, 6]
        assert pool.submitted == [[0, 1, 2]]

    def test_lost_blocks_retried_results_harvested(self, monkeypatch):
        # Round 0: block 0 completes, blocks 1-2 die with the pool.
        # Round 1: the two lost blocks (only) are re-dispatched.
        def round0(task, block):
            return _ok_future(task * 2) if block == 0 else _broken_future()

        pool = _ScriptedPool([round0, lambda task, b: _ok_future(task * 2)])
        kills = _install(monkeypatch, pool)
        policy = RetryPolicy(attempts=3, backoff_s=0.0)
        assert supervised_map(None, [1, 2, 3], policy=policy) == [2, 4, 6]
        assert pool.submitted[0] == [0, 1, 2]
        assert sorted(pool.submitted[1]) == [1, 2]
        assert kills  # the broken pool was killed between rounds

    def test_exhaustion_raises_with_cause(self, monkeypatch):
        pool = _ScriptedPool([lambda task, b: _broken_future()] * 2)
        _install(monkeypatch, pool)
        policy = RetryPolicy(attempts=2, backoff_s=0.0)
        with pytest.raises(FanOutExhaustedError) as excinfo:
            supervised_map(None, [1, 2], policy=policy)
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)

    def test_deadline_miss_counts_as_crash(self, monkeypatch):
        # A future that never completes: every round times out until
        # the attempt budget is spent; the terminal error chains from
        # the BlockTimeoutError that killed the last round.
        pool = _ScriptedPool([lambda task, b: Future()] * 2)
        _install(monkeypatch, pool)
        policy = RetryPolicy(attempts=2, backoff_s=0.0, timeout_s=0.05)
        with pytest.raises(FanOutExhaustedError) as excinfo:
            supervised_map(None, [1, 2], policy=policy)
        assert isinstance(excinfo.value.__cause__, BlockTimeoutError)

    def test_ordinary_task_error_propagates_unretried(self, monkeypatch):
        def round0(task, block):
            future: Future = Future()
            if block == 1:
                future.set_exception(KeyError("task bug"))
            else:
                future.set_result(task)
            return future

        pool = _ScriptedPool([round0])
        _install(monkeypatch, pool)
        with pytest.raises(KeyError, match="task bug"):
            supervised_map(None, [1, 2, 3])
        assert len(pool.submitted) == 1  # no retry round

    def test_submit_failure_is_bounded(self, monkeypatch):
        class _DeadPool:
            def submit(self, *args):
                raise BrokenProcessPool("dead at submit")

        monkeypatch.setattr(pool_mod, "get_pool", lambda *_: _DeadPool())
        monkeypatch.setattr(pool_mod, "kill_pool", lambda: None)
        policy = RetryPolicy(attempts=2, backoff_s=0.0)
        with pytest.raises(FanOutExhaustedError):
            supervised_map(None, [1, 2], policy=policy)

    def test_real_pool_round_trip(self):
        if not pool_mod.pool_available(WORKERS):
            pytest.skip("cannot spawn worker processes")
        double = functools.partial(operator.mul, 2)
        assert supervised_map(double, [1, 2, 3],
                              max_workers=WORKERS) == [2, 4, 6]


# ---------------------------------------------------------------------------
# run_ladder
# ---------------------------------------------------------------------------

class TestRunLadder:
    def test_first_rung_wins(self):
        assert run_ladder((("shm", lambda: "fast"),
                           ("serial", lambda: "slow"))) == "fast"

    def test_decline_falls_through_uncounted(self):
        assert run_ladder((("shm", lambda: None),
                           ("serial", lambda: "slow"))) == "slow"
        assert resilience.rung_failures().get("shm", 0) == 0

    def test_failure_counts_and_degrades(self):
        def fail():
            raise pool_mod.WorkerCrashError("boom")
        assert run_ladder((("shm", fail),
                           ("serial", lambda: "slow"))) == "slow"
        assert resilience.rung_failures()["shm"] == 1
        assert resilience.latched_rungs() == ()

    def test_latch_after_repeated_failures_warns_once(self):
        def fail():
            raise pool_mod.WorkerCrashError("boom")
        ladder = (("shm", fail), ("serial", lambda: "slow"))
        for _ in range(resilience.LATCH_AFTER - 1):
            run_ladder(ladder)
        with pytest.warns(DegradedFanOutWarning, match="latching"):
            run_ladder(ladder)
        assert resilience.latched_rungs() == ("shm",)
        # Latched: the rung is skipped without re-running its thunk.
        calls = []

        def must_not_run():
            calls.append(1)
            raise AssertionError("latched rung ran")

        assert run_ladder((("shm", must_not_run),
                           ("serial", lambda: "slow"))) == "slow"
        assert not calls

    def test_success_resets_failure_count(self):
        def fail():
            raise pool_mod.WorkerCrashError("boom")
        run_ladder((("shm", fail), ("serial", lambda: "slow")))
        run_ladder((("shm", lambda: "recovered"),
                    ("serial", lambda: "slow")))
        assert resilience.rung_failures()["shm"] == 0

    def test_injected_fault_counts_as_infrastructure(self):
        def fail():
            raise faults.InjectedFault("attach")
        assert run_ladder((("shm", fail),
                           ("serial", lambda: "slow"))) == "slow"

    def test_genuine_bug_propagates(self):
        def bug():
            raise KeyError("logic error")
        with pytest.raises(KeyError):
            run_ladder((("shm", bug), ("serial", lambda: "slow")))

    def test_last_rung_failure_propagates(self):
        def fail():
            raise OSError("even serial failed")
        with pytest.raises(OSError):
            run_ladder((("serial", fail),))

    def test_all_declined_raises(self):
        with pytest.raises(LadderExhaustedError):
            run_ladder((("shm", lambda: None), ("serial", lambda: None)))

    def test_forced_method_pins_one_rung(self, monkeypatch):
        monkeypatch.setenv(resilience.FORCE_METHOD_ENV, "serial")
        calls = []

        def shm_thunk():
            calls.append("shm")
            return "fast"

        assert run_ladder((("shm", shm_thunk),
                           ("serial", lambda: "slow"))) == "slow"
        assert not calls

    def test_forced_method_failure_propagates(self, monkeypatch):
        monkeypatch.setenv(resilience.FORCE_METHOD_ENV, "shm")

        def fail():
            raise pool_mod.WorkerCrashError("boom")

        with pytest.raises(pool_mod.WorkerCrashError):
            run_ladder((("shm", fail), ("serial", lambda: "slow")))
        assert resilience.latched_rungs() == ()

    def test_forced_method_decline_raises(self, monkeypatch):
        monkeypatch.setenv(resilience.FORCE_METHOD_ENV, "shm")
        with pytest.raises(LadderExhaustedError):
            run_ladder((("shm", lambda: None),
                        ("serial", lambda: "slow")))

    def test_forced_method_not_in_ladder_ignored(self, monkeypatch):
        monkeypatch.setenv(resilience.FORCE_METHOD_ENV, "shm")
        assert run_ladder((("serial", lambda: "slow"),)) == "slow"

    def test_retired_pickle_method_warns_and_ignored(self, monkeypatch):
        monkeypatch.setenv(resilience.FORCE_METHOD_ENV, "pickle")
        with pytest.warns(RuntimeWarning, match="shm/serial"):
            assert run_ladder((("shm", lambda: "fast"),
                               ("serial", lambda: "slow"))) == "fast"

    def test_malformed_forced_method_warns_and_ignored(self, monkeypatch):
        monkeypatch.setenv(resilience.FORCE_METHOD_ENV, "warp-drive")
        with pytest.warns(RuntimeWarning, match="shm/serial"):
            assert run_ladder((("shm", lambda: "fast"),
                               ("serial", lambda: "slow"))) == "fast"
