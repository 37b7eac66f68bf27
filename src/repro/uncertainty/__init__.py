"""Batched uncertainty machinery for cube-shaped workloads.

:mod:`repro.core.uncertainty` owns the *semantics* of a Monte-Carlo
fleet band (one fleet, one draw); this package owns the *engine* that
computes whole stacks of them — every ``(scenario[, year])`` cell of a
:class:`~repro.scenarios.ScenarioCube` or
:class:`~repro.projection.ProjectionCube` from one vectorized draw,
optionally fanned out over threads.  See
``docs/uncertainty.md`` for the seed-stream contract that keeps every
cell bit-identical to its per-fleet reference call.
"""

from repro.uncertainty.mc import (
    BandStack,
    band_scalar_reference,
    mc_band_stack,
    sample_totals,
)

__all__ = [
    "BandStack",
    "band_scalar_reference",
    "mc_band_stack",
    "sample_totals",
]
