"""Fork-safety and latch-recovery guards of the persistent pool.

The pool's module state (executor handle, spawn-failure latch, atexit
teardown) is inherited by every forked worker; the PID guards exist so
a child can never shut down, double-free, or reuse its parent's pool.
These tests fork real children to prove it, and pin the
:func:`~repro.parallel.pool.reset_pool` contract — the spawn-failure
latch is recoverable, not a death sentence.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.parallel import pool as pool_mod

WORKERS = 2

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


@pytest.fixture(autouse=True)
def _teardown_pool():
    yield
    pool_mod.shutdown_pool()


def _echo(task):
    return task


def _require_pool():
    pool = pool_mod.get_pool(WORKERS)
    if pool is None:
        pytest.skip("cannot spawn worker processes")
    return pool


def _run_in_fork(child_body) -> int:
    """Fork, run ``child_body``, and return the child's exit status.

    The child exits via ``os._exit`` so pytest machinery (capture,
    atexit, fixtures) never runs twice.
    """
    pid = os.fork()
    if pid == 0:
        try:
            code = child_body()
        except BaseException:
            code = 99
        os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status)
    return os.WEXITSTATUS(status)


class TestForkGuards:
    def test_forked_child_teardown_is_noop_on_parents_pool(self):
        _require_pool()

        def child():
            # Both teardown paths must refuse to touch the inherited
            # pool: it belongs to the parent PID.
            pool_mod.shutdown_pool()
            pool_mod.kill_pool()
            return 0 if pool_mod._POOL is not None else 1

        assert _run_in_fork(child) == 0
        # The parent's pool survived the child's teardown attempts.
        assert pool_mod.pool_map(_echo, [1, 2, 3],
                                 max_workers=WORKERS) == [1, 2, 3]

    def test_forked_child_discards_not_shuts_down_inherited_pool(self):
        _require_pool()

        def child():
            # get_pool in the child must notice the PID mismatch and
            # *discard* the inherited handle (never shutdown(), which
            # would reap the parent's workers).  It then builds a pool
            # of its own or returns None — either is fine; what matters
            # is the parent's pool surviving, asserted below.
            pool_mod.get_pool(WORKERS)
            pool_mod.shutdown_pool()
            return 0

        assert _run_in_fork(child) == 0
        assert pool_mod.pool_map(_echo, list(range(6)),
                                 max_workers=WORKERS) == list(range(6))

    def test_atexit_teardown_is_pid_guarded(self):
        _require_pool()

        def child():
            # The registered atexit hook is shutdown_pool itself; a
            # child running it (as a normal exit would) must not touch
            # the parent's pool.
            pool_mod.shutdown_pool()
            return 0

        assert _run_in_fork(child) == 0
        assert pool_mod.pool_map(_echo, [7], max_workers=WORKERS) == [7]


class TestSpawnLatchRecovery:
    def test_spawn_failure_latches_and_reset_pool_clears(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_SPAWN_FAILED", True)
        assert pool_mod.get_pool(WORKERS) is None
        assert not pool_mod.pool_available(WORKERS)
        pool_mod.reset_pool()
        assert not pool_mod._SPAWN_FAILED
        # After the reset the next call re-probes from scratch.
        pool = pool_mod.get_pool(WORKERS)
        if pool is None:
            pytest.skip("cannot spawn worker processes")
        assert pool_mod.pool_map(_echo, [1, 2], max_workers=WORKERS) == [1, 2]

    def test_status_probe_never_spawns(self, monkeypatch):
        pool_mod.shutdown_pool()
        monkeypatch.setattr(
            pool_mod, "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("a status probe must not spawn"))
        status = pool_mod.pool_status(WORKERS)
        assert status["live"] is False
        assert status["would_spawn"] is status["available"]
        monkeypatch.setattr(pool_mod, "_SPAWN_FAILED", True)
        assert pool_mod.pool_status(WORKERS) == {
            "available": False, "would_spawn": False, "live": False}

    def test_status_reports_a_live_pool(self):
        _require_pool()
        assert pool_mod.pool_status(WORKERS) == {
            "available": True, "would_spawn": False, "live": True}
        # Asking for more workers than the live pool has would rebuild.
        assert pool_mod.pool_status(WORKERS + 1)["would_spawn"] is True

    def test_reset_pool_tears_down_live_pool(self):
        _require_pool()
        assert pool_mod._POOL is not None
        pool_mod.reset_pool()
        assert pool_mod._POOL is None

    def test_probe_failure_sets_latch(self, monkeypatch):
        class _Unspawnable:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes here")

        monkeypatch.setattr(pool_mod, "_SPAWN_FAILED", False)
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", _Unspawnable)
        assert pool_mod.get_pool(WORKERS) is None
        assert pool_mod._SPAWN_FAILED
        # Latched: later calls fall back fast without re-probing.
        monkeypatch.setattr(
            pool_mod, "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("latched probe must not re-run"))
        assert pool_mod.get_pool(WORKERS) is None
        pool_mod.reset_pool()
