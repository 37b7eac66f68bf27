"""Parallel fleet-evaluation substrate.

Assessing one 500-system list is cheap, but the benchmark harness runs
parameter sweeps (ablation grids × scenarios × Monte-Carlo missingness
draws) that evaluate many thousands of fleets, and the scale-out path
assesses synthetic portfolios of 10⁴–10⁶ systems.  Five layers:

* :mod:`repro.parallel.chunking` — chunking arithmetic (tested
  separately, since off-by-ones silently drop work items);
* :mod:`repro.parallel.executor` — the small, dependency-free chunked
  ``parallel_map`` over short-lived process pools;
* :mod:`repro.parallel.pool` + :mod:`repro.parallel.shm` — the
  fleet-scale substrate: a persistent worker pool reused across calls,
  and zero-copy shared-memory placement of
  :class:`~repro.core.vectorized.FleetFrame` columns so workers attach
  instead of unpickling column chunks per task.  Both fall back to the
  serial path (identical results) when processes or ``/dev/shm`` are
  unavailable, and an shm *janitor* sweeps segments orphaned by
  crashed owners;
* :mod:`repro.parallel.resilience` — the supervised dispatcher every
  fan-out caller routes through: per-block retries with deterministic
  backoff after worker crashes, per-block deadlines with hung-worker
  detection, and the ``shm → pickle → serial`` degradation ladder
  (bit-identical at every rung; see ``docs/robustness.md``);
* :mod:`repro.parallel.faults` — deterministic fault injection
  (``REPRO_FAULT_SPEC``) so every one of those recovery paths is
  testable end-to-end, in-process and in CI.
"""

from repro._lazy import attach

# Lazy (PEP 562): ``repro.core.vectorized`` imports
# ``repro.parallel.tuning`` at import time, and that must not pull in
# the executor, the pool, ``concurrent.futures`` and shared memory.
__getattr__, __dir__, __all__ = attach(__name__, {
    "chunking": ("chunk_indices", "chunked"),
    "executor": ("parallel_map", "ExecutionStats"),
    "faults": ("FaultPlan", "FaultRule", "InjectedFault"),
    "pool": ("WorkerCrashError", "get_pool", "kill_pool", "pool_available",
             "pool_map", "processes_disabled", "reset_pool",
             "shutdown_pool"),
    "resilience": ("DegradedFanOutWarning", "RetryPolicy", "latched_rungs",
                   "reset_ladder_state", "run_ladder", "supervised_map"),
    "shm": ("SharedArrayPack", "SharedFleetFrame", "live_owned_segments",
            "release_shared_frames", "shared_fleet_frame", "shm_available",
            "sweep_orphaned_segments"),
})
