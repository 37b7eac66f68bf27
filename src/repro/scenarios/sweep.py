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
  table and one component-power / embodied-kg row — a 64-scenario
  utilization sweep resolves factors exactly once.
* **One kernel, scalar float-op order.**  The per-unique rows are
  produced by the same 1-D kernels the batch engine uses
  (:func:`~repro.core.vectorized._component_power_kw_array`,
  :func:`~repro.core.vectorized._embodied_kg_terms`), and the
  scenario-dependent arithmetic broadcasts in exactly the scalar
  models' operation order — so every cube row is bit-identical to the
  scalar per-scenario loop (``sweep_scalar_reference``), as asserted
  by ``tests/scenarios``.

Records the array path cannot represent under some scenario (strict
catalog failures, out-of-domain values) fall back to that scenario's
scalar model per record, exactly as the 1-D batch engine does.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro import obs, units
from repro.core import operational as op_mod
from repro.core import vectorized as vz
from repro.core.embodied import EmbodiedModel
from repro.core.estimate import EstimateMethod
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
            op_values, op_unc = _operational_sweep(frame, op_models)
        with obs.span("sweep.embodied", n_scenarios=len(specs),
                      n_systems=frame.n):
            emb_values, emb_unc = _embodied_sweep(frame, emb_models)
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
# Operational: (n_scenarios, n_systems) kernel
# ---------------------------------------------------------------------------

def _dedupe(models, key_fn, resolve_fn):
    """Resolve one artifact per unique key; map scenarios onto them."""
    seen: dict = {}
    resolved = []
    index_map = np.empty(len(models), dtype=np.int64)
    for s, model in enumerate(models):
        key = key_fn(model)
        r = seen.get(key)
        if r is None:
            obs.inc("cache.lowering_misses")
            r = seen[key] = len(resolved)
            resolved.append(resolve_fn(model))
        else:
            obs.inc("cache.lowering_hits")
        index_map[s] = r
    return resolved, index_map


def _grid_key(grid) -> tuple:
    """Value key for ACI-row sharing.

    Scenario lowering derives a fresh ``GridIntensityDB`` per spec, so
    identity misses; two grids with equal entries resolve every lookup
    to the identical float, which is exactly the sharing the kernel
    needs (e.g. a 64-scenario grid with 4 distinct ACI scales resolves
    4 rows, not 64).
    """
    return (tuple(sorted(grid.country_aci.items())),
            tuple(sorted(grid.region_aci.items())),
            grid.world_average)


def _operational_sweep(frame: FleetFrame,
                       models: Sequence[OperationalModel],
                       ) -> tuple[np.ndarray, np.ndarray]:
    n_scen, n = len(models), frame.n
    obs.inc("kernel.cells", n_scen * n)
    values = np.full((n_scen, n), np.nan)
    unc = np.full((n_scen, n), np.nan)

    # Per-scenario ACI rows: one unique-location resolution per unique
    # grid, gathered through the frame's location codes.
    aci_rows, grid_map = _dedupe(models, lambda m: _grid_key(m.grid),
                                 lambda m: frame.aci(m.grid))
    aci2d = np.stack(aci_rows)[grid_map]
    # nan columns mark records with no grid location — a property of
    # the frame, not of any scenario's grid.
    aci_ok = frame.loc_code >= 0

    pue_meas = np.array([m.pue.for_measured_power() for m in models])
    mpu = np.array([m.measured_power_utilization for m in models])
    cu = np.array([m.component_utilization for m in models])
    util = frame.utilization

    # Reported-energy path: (energy × PUE) × ACI ÷ 1000.
    he = ~np.isnan(frame.annual_energy_kwh) & aci_ok
    if he.any():
        e = frame.annual_energy_kwh[he][None, :] * pue_meas[:, None]
        values[:, he] = (e * aci2d[:, he]) / units.KG_PER_MT
        unc[:, he] = np.minimum(
            op_mod.METHOD_UNCERTAINTY[EstimateMethod.REPORTED_ENERGY]
            + 0.02 * frame.region_missing[he].astype(np.float64),
            2.0)[None, :]

    # Measured-power path: (((power × util) × hours) × PUE) × ACI ÷ 1000.
    hp = np.isnan(frame.annual_energy_kwh) & ~np.isnan(frame.power_kw) & aci_ok
    if hp.any():
        u = util[hp]
        util2d = np.where(np.isnan(u)[None, :], mpu[:, None], u[None, :])
        e = ((frame.power_kw[hp][None, :] * util2d)
             * units.HOURS_PER_YEAR) * pue_meas[:, None]
        values[:, hp] = (e * aci2d[:, hp]) / units.KG_PER_MT
        n_notes = frame.region_missing[hp].astype(np.float64)[None, :] \
            + ((mpu != 1.0)[:, None] & np.isnan(u)[None, :])
        unc[:, hp] = np.minimum(
            op_mod.METHOD_UNCERTAINTY[EstimateMethod.MEASURED_POWER]
            + 0.02 * n_notes, 2.0)

    # Component path: per-unique-catalog power rows (the same 1-D
    # kernel the batch engine uses), broadcast against per-scenario
    # utilization, cooling-resolved PUE and ACI.
    scalar_todo: list[tuple[int, np.ndarray]] = []
    if bool((frame.op_path == vz._OP_COMPONENT).any()):
        # Device power tables (and the rebuilt kW rows) depend only on
        # the catalog; the per-scenario PUE enters as a separate
        # cooling-resolved (S, 3) table, so a utilization/PUE sweep
        # over one catalog resolves factors exactly once.
        factors, cat_map = _dedupe(
            models, lambda m: id(m.catalog),
            lambda m: vz._resolve_component_factors(frame, m))
        kw = np.stack([vz._component_power_kw_array(frame, f)
                       for f in factors])[cat_map]
        util2d = np.where(np.isnan(util)[None, :], cu[:, None], util[None, :])
        e = (kw * util2d) * units.HOURS_PER_YEAR
        pue_cool = np.array([[m.pue.for_component_power(None),
                              m.pue.for_component_power("liquid"),
                              m.pue.for_component_power("air")]
                             for m in models])
        e = e * pue_cool[:, frame.cooling_code]
        comp_vals = (e * aci2d) / units.KG_PER_MT

        gpu_idx = np.where(frame.comp_gpu_code >= 0, frame.comp_gpu_code,
                           len(frame.accelerators))
        base_notes = ((frame.comp_cpu_src != vz._CPU_EXPLICIT)
                      .astype(np.float64)
                      + frame.comp_memory_defaulted + frame.comp_ssd_defaulted
                      + np.isnan(util) + frame.region_missing)
        # Coverage masks and note counts depend only on the factor
        # table (plus the rare out-of-domain default utilization), so
        # the masked scatter into the value matrix runs once per
        # scenario *group*, not per scenario.
        groups: dict[tuple[int, bool], list[int]] = {}
        for s, model in enumerate(models):
            cu_valid = 0.0 <= model.component_utilization <= 1.5
            groups.setdefault((int(cat_map[s]), cu_valid), []).append(s)
        for (r, _), scen in groups.items():
            f = factors[r]
            array_ok, needs_scalar = vz._component_partition(
                frame, models[scen[0]], f)
            cols = np.flatnonzero(array_ok & aci_ok)
            idx = np.ix_(scen, cols)
            values[idx] = comp_vals[idx]
            n_notes = base_notes + (
                frame.comp_accel & ((frame.comp_gpu_code < 0)
                                    | ~f.gpu_known[gpu_idx]))
            unc[idx] = np.minimum(
                op_mod.METHOD_UNCERTAINTY[EstimateMethod.COMPONENT_POWER]
                + 0.02 * n_notes[cols], 2.0)[None, :]
            fallback = np.flatnonzero(needs_scalar & aci_ok)
            if fallback.size:
                scalar_todo.extend((s, fallback) for s in scen)

    for s, idxs in scalar_todo:
        model = models[s]
        for i in idxs:
            try:
                estimate = model.estimate(frame.records[i])
                values[s, i] = estimate.value_mt
                unc[s, i] = estimate.uncertainty_frac
            except InsufficientDataError:
                pass

    unc[np.isnan(values)] = np.nan
    return values, unc


# ---------------------------------------------------------------------------
# Embodied: (n_scenarios, n_systems) kernel
# ---------------------------------------------------------------------------

def _embodied_sweep(frame: FleetFrame, models: Sequence[EmbodiedModel],
                    ) -> tuple[np.ndarray, np.ndarray]:
    n = frame.n
    obs.inc("kernel.cells", len(models) * n)
    has_gpu = frame.gpu_code >= 0

    def resolve_row(model: EmbodiedModel) -> tuple[np.ndarray, np.ndarray]:
        """One unique configuration's (values, unc) row — the same
        1-D kg kernel and partition the batch engine uses, scalar
        fallback included.  An ``EmbodiedModel`` *is* its (catalog,
        fab_yield) pair, so scenarios sharing the dedupe key share the
        entire row, fallback estimates and all."""
        f = vz._resolve_embodied_factors(frame, model)
        array_ok, needs_scalar, cpu_idx, mem_idx = \
            vz._embodied_partition(frame, f)
        cpu_kg, gpu_kg, mem_kg, ssd_kg, node_kg = vz._embodied_kg_terms(
            f, frame.n_cpus, cpu_idx, frame.n_gpus, frame.gpu_code,
            frame.memory_gb, mem_idx, frame.ssd_gb, frame.n_nodes)
        total_kg = (((cpu_kg + gpu_kg) + mem_kg) + ssd_kg) + node_kg
        row_values = np.full(n, np.nan)
        row_values[array_ok] = total_kg[array_ok] / units.KG_PER_MT
        gpu_proxy = np.zeros(n)
        if has_gpu.any():
            gpu_proxy[has_gpu] = \
                (~f.gpu_known[frame.gpu_code[has_gpu]]).astype(np.float64)
        n_notes = (
            (frame.cpu_count_src != vz._CPU_EXPLICIT).astype(np.float64)
            + ((frame.cpu_code < 0) | ~f.cpu_known[cpu_idx])
            + gpu_proxy + frame.nodes_derived + frame.memory_defaulted
            + frame.memtype_noted + frame.ssd_defaulted)
        row_unc = np.full(n, np.nan)
        row_unc[array_ok] = np.minimum(0.25 + 0.03 * n_notes[array_ok], 2.0)
        for i in np.flatnonzero(needs_scalar):
            try:
                estimate = model.estimate(frame.records[i])
                row_values[i] = estimate.value_mt
                row_unc[i] = estimate.uncertainty_frac
            except InsufficientDataError:
                pass
        row_unc[np.isnan(row_values)] = np.nan
        return row_values, row_unc

    rows, cat_map = _dedupe(models,
                            lambda m: (id(m.catalog), m.fab_yield),
                            resolve_row)
    values = np.stack([row[0] for row in rows])[cat_map]
    unc = np.stack([row[1] for row in rows])[cat_map]
    return values, unc


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
        lifetime_years=np.array([
            spec.lifetime_years if spec.lifetime_years is not None else 1.0
            for spec in specs]),
    )
