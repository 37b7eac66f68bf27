"""Persistent worker pool for the Monte-Carlo band fan-out.

The pool is created once, reused by every
:func:`~repro.uncertainty.mc.mc_band_stack` call that fans out, and
torn down at interpreter exit.  Dispatch goes through
:func:`repro.parallel.resilience.supervised_map`; this module only
owns the pool's lifecycle.  The properties callers rely on:

* **Serial fallback is first-class.**  ``get_pool`` returns ``None``
  (and the supervised dispatcher runs inline) whenever processes are
  unavailable: a single-CPU host with no explicit worker count, a
  sandbox where spawning fails, or ``REPRO_DISABLE_PROCESS_POOL=1``.
  Callers get identical results either way — only the wall clock
  changes.
* **A broken pool is replaced, never reused.**  :func:`kill_pool`
  terminates a pool whose worker died or hung, and the next
  :func:`get_pool` builds a fresh one.
* **Fork-safety of teardown.**  The atexit teardown and all pool state
  are PID-guarded, so a forked worker inheriting this module never
  shuts down (or double-frees) its parent's pool.
* **Workers die with their creator.**  Each worker restores default
  SIGTERM/SIGINT handling (a forked worker would otherwise inherit a
  daemon's handlers and ignore SIGTERM) and, on Linux, asks the kernel
  for SIGTERM when its parent dies, so a SIGKILLed parent leaves no
  orphans holding its pipes open.

The pool prefers the ``fork`` start method where available: workers
share the parent's resource-tracker process, which keeps
``multiprocessing.shared_memory`` bookkeeping single-owner (see
:mod:`repro.parallel.shm`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor

from repro import obs
from repro.envflags import env_flag

__all__ = [
    "WorkerCrashError",
    "pool_available",
    "pool_status",
    "processes_disabled",
    "get_pool",
    "shutdown_pool",
    "kill_pool",
    "reset_pool",
]

#: Set truthy (1/true/yes/on) to force the serial fallback everywhere.
DISABLE_ENV = "REPRO_DISABLE_PROCESS_POOL"

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS: int = 0
_POOL_PID: int = -1
#: Latched after a failed spawn probe so later calls fall back fast;
#: cleared by :func:`reset_pool` (a transient sandbox failure must not
#: disable parallelism for the rest of the process).
_SPAWN_FAILED: bool = False
#: One orphaned-segment sweep per process, on first pool construction.
_JANITOR_RAN: bool = False


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-batch; the batch's results are lost.

    The broken pool is discarded before this is raised, so retrying the
    call builds a fresh pool.
    """


def _noop() -> None:
    """Probe body (module-level for pickling)."""
    return None


#: ``prctl`` option: deliver a signal when the parent dies (linux/prctl.h).
_PR_SET_PDEATHSIG = 1


def _worker_init(creator_pid: int) -> None:
    """Pool-worker initializer: default signals, die with the creator.

    ``PR_SET_PDEATHSIG`` fires when the *thread* that forked this
    worker exits, not when its process does: a pool built from a
    short-lived thread loses its workers with that thread (the
    supervised dispatcher then rebuilds it).  The ``getppid`` check
    closes the race of a creator that died before the ``prctl`` call.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if sys.platform.startswith("linux"):
        try:
            import ctypes

            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl(_PR_SET_PDEATHSIG, int(signal.SIGTERM), 0, 0, 0)
        except (OSError, AttributeError):
            pass
    if os.getppid() != creator_pid:
        os._exit(0)


def _effective_workers(max_workers: int | None) -> int:
    if max_workers is not None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        return max_workers
    return os.cpu_count() or 1


def pool_available(max_workers: int | None = None) -> bool:
    """Whether :func:`get_pool` would hand back a live pool.

    ``False`` means callers should take (or will transparently get) the
    serial path.  Cheap after the first probe.
    """
    return get_pool(max_workers) is not None


def pool_status(max_workers: int | None = None) -> dict[str, bool]:
    """What :func:`get_pool` would do, without spawning anything.

    ``live`` — this process holds a built pool; ``would_spawn`` — the
    next ``get_pool(max_workers)`` would build one; ``available`` — it
    would hand back a pool, live or new.  Health probes report this
    instead of calling :func:`pool_available`, which builds the pool it
    asks about.
    """
    live = _POOL is not None and _POOL_PID == os.getpid()
    workers = _effective_workers(max_workers)
    available = (not processes_disabled() and workers >= 2
                 and not _SPAWN_FAILED)
    return {
        "available": available,
        "would_spawn": available and not (live and _POOL_WORKERS >= workers),
        "live": live,
    }


def processes_disabled() -> bool:
    """Whether ``REPRO_DISABLE_PROCESS_POOL`` forbids worker processes.

    The persistent pool is the only process-spawning path, so one flag
    really does mean "serial everywhere".
    """
    return env_flag(DISABLE_ENV)


def get_pool(max_workers: int | None = None) -> ProcessPoolExecutor | None:
    """The persistent pool, or ``None`` when serial is the right path.

    The pool is created on first use and reused by every later call; a
    call asking for *more* workers than the live pool has replaces it.
    Returns ``None`` when processes are disabled (``DISABLE_ENV``),
    when only one worker would run (serial is strictly better), or
    when spawning fails on this host (latched after one probe).
    """
    global _POOL, _POOL_WORKERS, _POOL_PID, _SPAWN_FAILED, _JANITOR_RAN
    if processes_disabled():
        return None
    workers = _effective_workers(max_workers)
    if workers < 2 or _SPAWN_FAILED:
        return None
    if _POOL is not None and _POOL_PID != os.getpid():
        # Inherited through a fork: the pool belongs to the parent.
        _POOL, _POOL_WORKERS = None, 0
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL, _POOL_WORKERS = None, 0

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork") if "fork" in methods else None
    try:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                   initializer=_worker_init,
                                   initargs=(os.getpid(),))
    except Exception:
        _SPAWN_FAILED = True
        return None
    try:
        # One round trip proves workers actually spawn here (sandboxes
        # and exotic hosts fail at submit time, not construction time).
        pool.submit(_noop).result()
    except Exception:
        _SPAWN_FAILED = True
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        return None
    _POOL, _POOL_WORKERS, _POOL_PID = pool, workers, os.getpid()
    obs.inc("pool.rebuilds")
    if not _JANITOR_RAN:
        # First pool of this process: sweep /dev/shm segments whose
        # owner died between create and unlink (see the shm janitor).
        # Best-effort — a broken registry directory must not block
        # pool construction.
        _JANITOR_RAN = True
        try:
            from repro.parallel import shm as shm_mod
            shm_mod.sweep_orphaned_segments()
        except Exception:
            pass
    return pool


def shutdown_pool() -> None:
    """Tear down the persistent pool (no-op without one, or in a fork).

    Leaves the spawn-failure latch untouched: tearing down a working
    pool says nothing about whether the next one would spawn, and
    :func:`reset_pool` exists for the latched case.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_PID != os.getpid():
        return
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


def kill_pool() -> None:
    """Forcibly terminate the pool's workers and discard it.

    The hung-worker path: a wedged worker never returns, so the
    ordinary ``shutdown(wait=True)`` would wedge with it.  Terminate
    every worker process, then reap the executor without waiting.
    No-op without a pool, or in a forked child (PID-guarded like every
    other teardown).
    """
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_PID != os.getpid():
        return
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    obs.inc("pool.kills")
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def reset_pool() -> None:
    """Clear the spawn-failure latch and probe state.

    A failed spawn probe latches ``None``-forever so steady-state
    callers fall back fast — but the failure may have been transient
    (a sandbox being set up, a ulimit briefly exhausted).  After
    ``reset_pool()`` the next :func:`get_pool` call re-probes from
    scratch.  Also tears down any live pool, so the reset is total —
    including the orphan-sweep janitor, which re-arms so the next pool
    build sweeps again (a reset usually follows the kind of crash that
    orphans segments; the serve daemon's janitor task leans on this).
    """
    global _SPAWN_FAILED, _JANITOR_RAN
    shutdown_pool()
    _SPAWN_FAILED = False
    _JANITOR_RAN = False


atexit.register(shutdown_pool)
