"""Support layers for the Monte-Carlo band fan-out.

One fan-out in this codebase beats serial on recorded hardware: the
cell blocks of :func:`repro.uncertainty.mc.mc_band_stack`
(``results/BENCH_scaling.json``), which run on a thread pool.  Every
other fleet-scale pass — batch assessment, scenario sweeps,
projections, hour-window shifts — runs the in-process kernels.  The
layers here:

* :mod:`repro.parallel.chunking` — chunking arithmetic (tested
  separately, since off-by-ones silently drop work items);
* :mod:`repro.parallel.resilience` — request deadline scopes, which
  the band kernel checks before every stream window;
* :mod:`repro.parallel.faults` — deterministic fault injection
  (``REPRO_FAULT_SPEC``) for the serving daemon's recovery paths.
"""

from repro._lazy import attach

# Lazy (PEP 562): importing the package loads no submodule.
__getattr__, __dir__, __all__ = attach(__name__, {
    "chunking": ("chunk_indices",),
    "faults": ("FaultPlan", "FaultRule", "InjectedFault"),
    "resilience": ("check_deadline", "deadline_scope", "scope_remaining_s"),
})
