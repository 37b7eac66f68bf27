"""Parallel substrate for the Monte-Carlo band fan-out.

One fan-out in this codebase beats serial on recorded hardware: the
cell blocks of :func:`repro.uncertainty.mc.mc_band_stack`
(``results/BENCH_scaling.json``).  Every other fleet-scale pass — batch
assessment, scenario sweeps, projections, hour-window shifts — runs
the in-process kernels.  The layers under that one fan-out:

* :mod:`repro.parallel.chunking` — chunking arithmetic (tested
  separately, since off-by-ones silently drop work items);
* :mod:`repro.parallel.pool` + :mod:`repro.parallel.shm` — a persistent
  worker pool reused across calls, and zero-copy shared-memory
  placement of the band stack so workers attach instead of unpickling
  it per task.  Both fall back to the serial path (identical results)
  when processes or ``/dev/shm`` are unavailable, and an shm *janitor*
  sweeps segments orphaned by crashed owners;
* :mod:`repro.parallel.resilience` — the supervised dispatcher: per-block
  retries with deterministic backoff after worker crashes, per-block
  deadlines with hung-worker detection, and the ``shm → serial``
  degradation ladder (bit-identical at both rungs; see
  ``docs/robustness.md``);
* :mod:`repro.parallel.faults` — deterministic fault injection
  (``REPRO_FAULT_SPEC``) so every one of those recovery paths is
  testable end-to-end, in-process and in CI.
"""

from repro._lazy import attach

# Lazy (PEP 562): importing the package must not pull in the pool,
# ``concurrent.futures`` and shared memory.
__getattr__, __dir__, __all__ = attach(__name__, {
    "chunking": ("chunk_indices",),
    "faults": ("FaultPlan", "FaultRule", "InjectedFault"),
    "pool": ("WorkerCrashError", "get_pool", "kill_pool", "pool_available",
             "processes_disabled", "reset_pool", "shutdown_pool"),
    "resilience": ("DegradedFanOutWarning", "RetryPolicy", "latched_rungs",
                   "reset_ladder_state", "run_ladder", "supervised_map"),
    "shm": ("SharedArrayPack", "live_owned_segments", "shm_available",
            "sweep_orphaned_segments"),
})
