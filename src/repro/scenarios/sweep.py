"""The sweep compiler: grid of specs → one 2-D evaluation kernel.

``sweep`` lowers a scenario grid onto the fleet's cached
:class:`~repro.core.vectorized.FleetFrame` and evaluates every
scenario over every system in one ``(n_scenarios, n_systems)``
broadcast pass per footprint, replacing the per-scenario Python loop
over ``batch_*_mt`` calls.  The lowering stage is where the structure
pays off:

* **Column deltas, not re-extraction.**  The frame is extracted once
  per fleet; a scenario only contributes *deltas* — a per-scenario ACI
  row gathered through the frame's location codes, per-scenario PUE /
  utilization scalars, per-unique-catalog device factor tables.
* **Sharing across scenarios.**  Scenarios that share a grid share one
  ACI row; scenarios that share a hardware catalog share one factor
  table and one component-power / embodied row — a 64-scenario
  utilization sweep resolves factors exactly once.
* **One kernel per footprint.**  The kernels live in
  :mod:`repro.core.vectorized`, where the 1-D batch engine is the same
  kernel at one scenario; they broadcast in exactly the scalar models'
  operation order, so every cube row is bit-identical to the scalar
  per-scenario loop (``sweep_scalar_reference``), as asserted by
  ``tests/scenarios``.

Records the array path cannot represent under some scenario (strict
catalog failures, out-of-domain values) fall back to that scenario's
scalar model per record.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro import obs
from repro.core import vectorized as vz
from repro.core.embodied import EmbodiedModel
from repro.core.operational import OperationalModel
from repro.core.record import SystemRecord
from repro.core.vectorized import FleetFrame, fleet_frame
from repro.errors import InsufficientDataError
from repro.scenarios.cube import ScenarioCube
from repro.scenarios.spec import ScenarioGrid, ScenarioSpec, _as_specs

__all__ = ["sweep", "sweep_scalar_reference"]


def sweep(records: Sequence[SystemRecord],
          specs: "Iterable[ScenarioSpec] | ScenarioGrid", *,
          operational_model: OperationalModel | None = None,
          embodied_model: EmbodiedModel | None = None,
          frame: FleetFrame | None = None) -> ScenarioCube:
    """Evaluate a scenario grid over a fleet as one 2-D kernel.

    Args:
        records: the fleet (one data scenario's record views).
        specs: scenario specs, or a :class:`ScenarioGrid` to expand.
        operational_model / embodied_model: the base configuration the
            specs override (paper defaults when omitted).
        frame: pre-extracted frame (defaults to the identity-keyed
            :func:`~repro.core.vectorized.fleet_frame` cache).

    Returns:
        A :class:`~repro.scenarios.ScenarioCube`, every row of which is
        bit-identical to :func:`sweep_scalar_reference` on the same
        inputs.  The kernel runs in-process: fanning scenario blocks
        out over worker processes measured slower than it at every
        recorded grid size (``docs/performance.md``).
    """
    specs = _as_specs(specs)
    base_op = operational_model or OperationalModel()
    base_emb = embodied_model or EmbodiedModel()
    records = list(records)
    if frame is None:
        frame = fleet_frame(records)
    if frame.n != len(records):
        raise ValueError("frame/records length mismatch")

    with obs.span("sweep.kernel", n_scenarios=len(specs),
                  n_systems=frame.n):
        op_models = tuple(spec.operational_model(base_op) for spec in specs)
        emb_models = tuple(spec.embodied_model(base_emb) for spec in specs)
        with obs.span("sweep.operational", n_scenarios=len(specs),
                      n_systems=frame.n):
            op_values, op_unc, _, _ = vz._operational_sweep(frame,
                                                            op_models)
        with obs.span("sweep.embodied", n_scenarios=len(specs),
                      n_systems=frame.n):
            emb_values, emb_unc = vz._embodied_sweep(frame, emb_models)
    return ScenarioCube(
        specs=specs,
        ranks=tuple(int(r) for r in frame.ranks),
        names=frame.names,
        operational_mt=op_values, operational_unc=op_unc,
        embodied_mt=emb_values, embodied_unc=emb_unc,
        lifetime_years=_lifetimes(specs),
    )


def _lifetimes(specs: Sequence[ScenarioSpec]) -> np.ndarray:
    return np.array([
        spec.lifetime_years if spec.lifetime_years is not None else 1.0
        for spec in specs])


# ---------------------------------------------------------------------------
# The reference semantics: per-scenario scalar loop
# ---------------------------------------------------------------------------

def sweep_scalar_reference(records: Sequence[SystemRecord],
                           specs: "Iterable[ScenarioSpec] | ScenarioGrid", *,
                           operational_model: OperationalModel | None = None,
                           embodied_model: EmbodiedModel | None = None,
                           ) -> ScenarioCube:
    """The reference implementation: loop scenarios, loop records.

    Lowers each spec to its models and calls the scalar
    ``model.estimate`` per record — the semantics the 2-D kernel must
    (and, per ``tests/scenarios``, does) match bit-for-bit: values,
    uncertainty columns, coverage masks, and therefore the Monte-Carlo
    bands drawn from them.  Uncovered cells carry ``nan`` in both the
    value and uncertainty arrays.
    """
    specs = _as_specs(specs)
    base_op = operational_model or OperationalModel()
    base_emb = embodied_model or EmbodiedModel()
    records = list(records)
    n_scen, n = len(specs), len(records)

    op_values = np.full((n_scen, n), np.nan)
    op_unc = np.full((n_scen, n), np.nan)
    emb_values = np.full((n_scen, n), np.nan)
    emb_unc = np.full((n_scen, n), np.nan)
    for s, spec in enumerate(specs):
        op_model = spec.operational_model(base_op)
        emb_model = spec.embodied_model(base_emb)
        for i, record in enumerate(records):
            try:
                estimate = op_model.estimate(record)
                op_values[s, i] = estimate.value_mt
                op_unc[s, i] = estimate.uncertainty_frac
            except InsufficientDataError:
                pass
            try:
                estimate = emb_model.estimate(record)
                emb_values[s, i] = estimate.value_mt
                emb_unc[s, i] = estimate.uncertainty_frac
            except InsufficientDataError:
                pass
    op_unc[np.isnan(op_values)] = np.nan
    emb_unc[np.isnan(emb_values)] = np.nan

    return ScenarioCube(
        specs=specs,
        ranks=tuple(r.rank for r in records),
        names=tuple(r.name for r in records),
        operational_mt=op_values, operational_unc=op_unc,
        embodied_mt=emb_values, embodied_unc=emb_unc,
        lifetime_years=_lifetimes(specs),
    )
