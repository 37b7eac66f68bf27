"""Declarative scenario engine with a 2-D batched sweep kernel.

The paper's headline results are scenario deltas — baseline versus
+PublicInfo (Fig. 9), utilization and lifetime ablations,
decarbonization what-ifs.  This package turns "a scenario" into data:

* :class:`ScenarioSpec` — composable, named overrides for grid carbon
  intensity (including year-indexed decarbonization trajectories),
  PUE, utilization, hardware lifetime/refresh and embodied factors;
* :class:`ScenarioGrid` — cartesian / zip sweep builders over spec
  axes, plus ``*_axis`` helpers for the common levers;
* :func:`sweep` — the compiler that lowers a grid of specs onto the
  cached :class:`~repro.core.vectorized.FleetFrame` as column deltas
  and evaluates all scenarios in one ``(n_scenarios, n_systems)``
  kernel, bit-identical to :func:`sweep_scalar_reference` (the
  per-scenario scalar loop);
* :class:`ScenarioCube` — the labeled scenario × system result with
  reductions to :class:`~repro.analysis.series.CarbonSeries`, totals,
  coverage counts, and per-scenario Monte-Carlo bands.

Typical use::

    from repro import scenarios

    grid = scenarios.ScenarioGrid.cartesian(
        scenarios.aci_scale_axis((1.0, 0.8, 0.6)),
        scenarios.pue_axis((1.0, 1.2)),
        scenarios.utilization_axis((0.6, 0.8, 1.0)),
    )
    cube = scenarios.sweep(records, grid)
    cube.totals("operational")          # (18,) fleet totals
    cube.band("aci x0.8+pue=1.2+util=0.8")
"""

from repro.scenarios.cube import FOOTPRINTS, FactorCube, ScenarioCube
from repro.scenarios.spec import (
    ScenarioGrid,
    ScenarioSpec,
    aci_scale_axis,
    baseline_spec,
    decarbonization_axis,
    greenest_hours_axis,
    growth_axis,
    hour_profile_axis,
    lifetime_axis,
    load_hours_axis,
    offpeak_shift_axis,
    pue_axis,
    refresh_axis,
    spec_from_dict,
    spec_to_dict,
    trajectory_axis,
    utilization_axis,
)
from repro.scenarios.sweep import sweep, sweep_scalar_reference
from repro.scenarios.timeaxis import (
    HourWindow,
    ShiftCube,
    ShiftReference,
    default_hour_windows,
    hourly_windows,
    shift_scalar_reference,
    shift_sweep,
)

__all__ = [
    "FOOTPRINTS",
    "FactorCube",
    "ScenarioCube",
    "ScenarioGrid",
    "ScenarioSpec",
    "aci_scale_axis",
    "baseline_spec",
    "decarbonization_axis",
    "greenest_hours_axis",
    "growth_axis",
    "hour_profile_axis",
    "lifetime_axis",
    "load_hours_axis",
    "offpeak_shift_axis",
    "pue_axis",
    "refresh_axis",
    "spec_from_dict",
    "spec_to_dict",
    "trajectory_axis",
    "utilization_axis",
    "sweep",
    "sweep_scalar_reference",
    "HourWindow",
    "ShiftCube",
    "ShiftReference",
    "default_hour_windows",
    "hourly_windows",
    "shift_scalar_reference",
    "shift_sweep",
]
