"""Columnar ``FleetFrame`` engine: vectorized fleet assessment.

The scalar models in :mod:`repro.core.operational` and
:mod:`repro.core.embodied` are the reference semantics; this module is
the primary *evaluation engine* for fleet-sized workloads.  Sweep
workloads (ablation grids, Monte-Carlo draws, projection sensitivity)
evaluate the same 500-system fleet hundreds to thousands of times, so
per-record Python dispatch — catalog lookups, exception control flow,
f-string audit notes — dominates the cost.  The engine splits the work
in two:

1. :class:`FleetFrame.from_records` extracts, **once per fleet**, an
   immutable column-oriented view: float columns for the operational
   inputs (power, energy, utilization), resolved embodied quantities
   (CPU/GPU/node counts, memory and SSD capacities), and
   dictionary-encoded device/location columns (each unique processor,
   accelerator, memory type and grid location appears once in a lookup
   table and per-record codes index into it).

2. Per model evaluation then costs one factor resolution per *unique*
   device (a handful, not 500) plus pure array arithmetic.  The same
   frame serves any number of model configurations — ablation sweeps
   re-evaluate with different catalogs, grids and utilizations without
   re-extraction.

Each footprint's arithmetic is written once.  The operational kernel
evaluates ``(n_scenarios, n_systems)`` cells; :func:`operational_batch`
is that kernel at one scenario and :func:`repro.scenarios.sweep` calls
it with a whole grid.  The embodied kernel builds one row per unique
(catalog, fab_yield) configuration; :func:`embodied_batch` is one such
row and the sweep stacks them.

Records the array path cannot represent exactly (component-power
energy rebuilds, strict-catalog lookup failures, out-of-domain values)
fall back to the scalar models record-by-record, so every batch
function is *exactly* equivalent to looping the scalar model — the
audit metadata included.  ``tests/properties/test_model_invariants.py``
asserts full ``SystemAssessment`` equality on every scenario view.

Floating-point note: the kernels replicate the scalar models'
operation order (``((power × util) × hours) × pue × aci ÷ 1000``,
component sums left-folded in breakdown order), so results are
bit-identical, not merely close.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs, units
from repro.core import embodied as emb_mod
from repro.core import operational as op_mod
from repro.core.embodied import EmbodiedModel, die_embodied_kg
from repro.core.estimate import (
    CarbonEstimate,
    CarbonKind,
    EstimateMethod,
    SystemAssessment,
)
from repro.core.operational import OperationalModel
from repro.core.record import SystemRecord
from repro.errors import InsufficientDataError
from repro.grid.intensity import GridIntensityDB
from repro.hardware.memory import MemoryType

__all__ = [
    "FleetFrame",
    "EmbodiedBatch",
    "OperationalBatch",
    "fleet_frame",
    "batch_operational_mt",
    "batch_embodied_mt",
    "operational_batch",
    "embodied_batch",
    "assess_fleet_frame",
]

# Operational energy-path codes (FleetFrame.op_path).  Coverage is a
# separate axis: a record with no grid location (loc_code == -1) is
# uncovered whatever its path.
_OP_ENERGY = 1          # reported-energy path (vectorized)
_OP_POWER = 2           # measured-power path (vectorized)
_OP_COMPONENT = 3       # component rebuild: scalar fallback

# CPU-count provenance codes (FleetFrame.cpu_count_src /
# comp_cpu_src), shared with resolve_cpu_count_detail.
_CPU_EXPLICIT = op_mod.CPU_COUNT_EXPLICIT
_CPU_FROM_CORES = op_mod.CPU_COUNT_FROM_CORES
_CPU_FROM_NODES = op_mod.CPU_COUNT_FROM_NODES

@dataclass(frozen=True)
class FleetFrame:
    """Immutable columnar view of a fleet (see module docstring).

    ``nan`` encodes a missing value in float columns; ``-1`` encodes
    "absent" in code columns.  The ``records`` tuple is retained for
    the scalar-fallback paths and to anchor the frame cache.
    """

    records: tuple[SystemRecord, ...]
    ranks: np.ndarray                  # (n,) int64
    names: tuple[str | None, ...]
    install_year: np.ndarray           # (n,) float64, nan = not disclosed

    # -- operational columns ------------------------------------------------
    power_kw: np.ndarray               # (n,) float64, nan = missing
    annual_energy_kwh: np.ndarray      # (n,) float64, nan = missing
    utilization: np.ndarray            # (n,) float64, nan = not disclosed
    op_path: np.ndarray                # (n,) int8, _OP_* codes
    loc_code: np.ndarray               # (n,) int64 into `locations`, -1 = none
    locations: tuple[tuple[str, str | None], ...]   # unique (country, region)
    region_missing: np.ndarray         # (n,) bool (no sub-national hint)

    # -- embodied columns ---------------------------------------------------
    emb_covered: np.ndarray            # (n,) bool: component inventory possible
    emb_needs_scalar: np.ndarray       # (n,) bool: delegate to scalar model
    cpu_resolved: np.ndarray           # (n,) bool: CPU count resolution passed
    n_cpus: np.ndarray                 # (n,) float64 (resolved count)
    cpu_count_src: np.ndarray          # (n,) int8, _CPU_* codes
    cpu_code: np.ndarray               # (n,) int64 into `processors`, -1 = None
    processors: tuple[str, ...]        # unique processor names
    cpu_derived_cores: np.ndarray      # (n,) int64 catalog cores used to derive
    n_gpus: np.ndarray                 # (n,) float64, 0 = no accelerator
    gpu_code: np.ndarray               # (n,) int64 into `accelerators`, -1 = none
    accelerators: tuple[str, ...]      # unique accelerator names
    n_nodes: np.ndarray                # (n,) float64 (resolved count)
    nodes_derived: np.ndarray          # (n,) bool
    memory_gb: np.ndarray              # (n,) float64 (resolved capacity)
    memory_defaulted: np.ndarray       # (n,) bool
    memtype_noted: np.ndarray          # (n,) bool (type defaulted, capacity known)
    mem_code: np.ndarray               # (n,) int64 into `memory_types`, -1 = None
    memory_types: tuple[MemoryType, ...]
    ssd_gb: np.ndarray                 # (n,) float64 (resolved capacity)
    ssd_defaulted: np.ndarray          # (n,) bool

    # -- operational component-path columns ---------------------------------
    # Only populated where op_path == _OP_COMPONENT.  The resolution
    # rules differ from the embodied ones (the component-power path
    # demands an explicit node count and CPU identity, derives nothing,
    # and tolerates unnamed accelerators via the mainstream proxy), so
    # the columns are kept separate.
    comp_covered: np.ndarray           # (n,) bool: component rebuild possible
    comp_needs_scalar: np.ndarray      # (n,) bool: delegate to scalar model
    comp_n_cpus: np.ndarray            # (n,) float64 (resolved count)
    comp_cpu_src: np.ndarray           # (n,) int8, _CPU_* codes
    comp_cpu_code: np.ndarray          # (n,) int64 into `processors`, -1 = None
    comp_cpu_cores: np.ndarray         # (n,) int64 catalog cores used to derive
    comp_accel: np.ndarray             # (n,) bool (accelerated system)
    comp_n_gpus: np.ndarray            # (n,) float64 (0 when CPU-only)
    comp_gpu_code: np.ndarray          # (n,) int64 into `accelerators`, -1 = unnamed
    comp_n_nodes: np.ndarray           # (n,) float64 (explicit node count)
    comp_memory_gb: np.ndarray         # (n,) float64 (resolved capacity)
    comp_memory_defaulted: np.ndarray  # (n,) bool
    comp_mem_code: np.ndarray          # (n,) int64 into `memory_types`, -1 = None
    comp_ssd_gb: np.ndarray            # (n,) float64 (resolved capacity)
    comp_ssd_defaulted: np.ndarray     # (n,) bool
    cooling_code: np.ndarray           # (n,) int8: 0 generic, 1 liquid, 2 air

    @property
    def n(self) -> int:
        return len(self.records)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[SystemRecord]) -> "FleetFrame":
        """Extract the column view (one pass; model-independent)."""
        records = tuple(records)
        with obs.span("frame.extract", n_systems=len(records)):
            return cls._extract(records)

    @classmethod
    def _extract(cls, records: tuple) -> "FleetFrame":
        n = len(records)
        ranks = np.empty(n, dtype=np.int64)
        install_year = np.full(n, np.nan)
        power = np.full(n, np.nan)
        energy = np.full(n, np.nan)
        util = np.full(n, np.nan)
        op_path = np.zeros(n, dtype=np.int8)
        loc_code = np.full(n, -1, dtype=np.int64)
        region_missing = np.ones(n, dtype=bool)

        emb_covered = np.zeros(n, dtype=bool)
        emb_needs_scalar = np.zeros(n, dtype=bool)
        cpu_resolved = np.zeros(n, dtype=bool)
        n_cpus = np.zeros(n)
        cpu_count_src = np.zeros(n, dtype=np.int8)
        cpu_code = np.full(n, -1, dtype=np.int64)
        cpu_derived_cores = np.zeros(n, dtype=np.int64)
        n_gpus = np.zeros(n)
        gpu_code = np.full(n, -1, dtype=np.int64)
        n_nodes = np.zeros(n)
        nodes_derived = np.zeros(n, dtype=bool)
        memory_gb = np.zeros(n)
        memory_defaulted = np.zeros(n, dtype=bool)
        memtype_noted = np.zeros(n, dtype=bool)
        mem_code = np.full(n, -1, dtype=np.int64)
        ssd_gb = np.zeros(n)
        ssd_defaulted = np.zeros(n, dtype=bool)

        comp_covered = np.zeros(n, dtype=bool)
        comp_needs_scalar = np.zeros(n, dtype=bool)
        comp_n_cpus = np.zeros(n)
        comp_cpu_src = np.zeros(n, dtype=np.int8)
        comp_cpu_code = np.full(n, -1, dtype=np.int64)
        comp_cpu_cores = np.zeros(n, dtype=np.int64)
        comp_accel = np.zeros(n, dtype=bool)
        comp_n_gpus = np.zeros(n)
        comp_gpu_code = np.full(n, -1, dtype=np.int64)
        comp_n_nodes = np.zeros(n)
        comp_memory_gb = np.zeros(n)
        comp_memory_defaulted = np.zeros(n, dtype=bool)
        comp_mem_code = np.full(n, -1, dtype=np.int64)
        comp_ssd_gb = np.zeros(n)
        comp_ssd_defaulted = np.zeros(n, dtype=bool)
        cooling_code = np.zeros(n, dtype=np.int8)

        locations: dict[tuple[str, str | None], int] = {}
        processors: dict[str, int] = {}
        accelerators: dict[str, int] = {}
        memory_types: dict[MemoryType, int] = {}
        names = []

        for i, record in enumerate(records):
            ranks[i] = record.rank
            names.append(record.name)
            if record.year is not None:
                install_year[i] = record.year

            # ---- operational ------------------------------------------
            if record.country is not None:
                key = (record.country, record.region)
                code = locations.get(key)
                if code is None:
                    code = locations[key] = len(locations)
                loc_code[i] = code
                region_missing[i] = record.region is None
            if record.annual_energy_kwh is not None:
                op_path[i] = _OP_ENERGY
                energy[i] = record.annual_energy_kwh
            elif record.power_kw is not None:
                op_path[i] = _OP_POWER
                power[i] = record.power_kw
            else:
                op_path[i] = _OP_COMPONENT
                try:
                    cls._extract_component(
                        record, i, comp_covered, comp_needs_scalar,
                        comp_n_cpus, comp_cpu_src, comp_cpu_code,
                        comp_cpu_cores, comp_accel, comp_n_gpus,
                        comp_gpu_code, comp_n_nodes, comp_memory_gb,
                        comp_memory_defaulted, comp_mem_code, comp_ssd_gb,
                        comp_ssd_defaulted, cooling_code, processors,
                        accelerators, memory_types)
                except Exception:
                    # Anything surprising: preserve scalar semantics.
                    comp_covered[i] = False
                    comp_needs_scalar[i] = True
            if record.utilization is not None:
                util[i] = record.utilization

            # ---- embodied ---------------------------------------------
            try:
                cls._extract_embodied(
                    record, i, emb_covered, emb_needs_scalar, cpu_resolved,
                    n_cpus, cpu_count_src, cpu_code, cpu_derived_cores,
                    n_gpus, gpu_code, n_nodes, nodes_derived, memory_gb,
                    memory_defaulted, memtype_noted, mem_code, ssd_gb,
                    ssd_defaulted, processors, accelerators, memory_types)
            except Exception:
                # Anything surprising: preserve scalar semantics exactly.
                emb_needs_scalar[i] = True

        return cls(
            records=records, ranks=ranks, names=tuple(names),
            install_year=install_year,
            power_kw=power, annual_energy_kwh=energy, utilization=util,
            op_path=op_path, loc_code=loc_code,
            locations=tuple(locations), region_missing=region_missing,
            emb_covered=emb_covered, emb_needs_scalar=emb_needs_scalar,
            cpu_resolved=cpu_resolved,
            n_cpus=n_cpus, cpu_count_src=cpu_count_src, cpu_code=cpu_code,
            processors=tuple(processors),
            cpu_derived_cores=cpu_derived_cores,
            n_gpus=n_gpus, gpu_code=gpu_code,
            accelerators=tuple(accelerators),
            n_nodes=n_nodes, nodes_derived=nodes_derived,
            memory_gb=memory_gb, memory_defaulted=memory_defaulted,
            memtype_noted=memtype_noted, mem_code=mem_code,
            memory_types=tuple(memory_types),
            ssd_gb=ssd_gb, ssd_defaulted=ssd_defaulted,
            comp_covered=comp_covered, comp_needs_scalar=comp_needs_scalar,
            comp_n_cpus=comp_n_cpus, comp_cpu_src=comp_cpu_src,
            comp_cpu_code=comp_cpu_code, comp_cpu_cores=comp_cpu_cores,
            comp_accel=comp_accel, comp_n_gpus=comp_n_gpus,
            comp_gpu_code=comp_gpu_code, comp_n_nodes=comp_n_nodes,
            comp_memory_gb=comp_memory_gb,
            comp_memory_defaulted=comp_memory_defaulted,
            comp_mem_code=comp_mem_code, comp_ssd_gb=comp_ssd_gb,
            comp_ssd_defaulted=comp_ssd_defaulted, cooling_code=cooling_code,
        )

    @staticmethod
    def _extract_embodied(record, i, emb_covered, emb_needs_scalar,
                          cpu_resolved, n_cpus, cpu_count_src, cpu_code,
                          cpu_derived_cores, n_gpus, gpu_code, n_nodes,
                          nodes_derived, memory_gb, memory_defaulted,
                          memtype_noted, mem_code, ssd_gb, ssd_defaulted,
                          processors, accelerators, memory_types) -> None:
        """Resolve one record's embodied-model inputs (mirrors the
        scalar model's resolution order; see EmbodiedModel.estimate)."""
        try:
            count, src, cores = op_mod.resolve_cpu_count_detail(record)
        except InsufficientDataError:
            return                       # uncovered: no way to count CPUs
        cpu_derived_cores[i] = cores
        cpu_resolved[i] = True
        if count < 0:
            emb_needs_scalar[i] = True
            return

        # Register the processor as soon as the count is resolved: the
        # scalar model resolves catalog.cpu *before* the accelerator
        # checks, so a strict-policy lookup failure must win over an
        # accelerated-without-identity InsufficientDataError.
        if record.processor is not None:
            code = processors.get(record.processor)
            if code is None:
                code = processors[record.processor] = len(processors)
            cpu_code[i] = code

        if record.has_accelerator:
            if record.n_gpus is None or record.accelerator is None:
                return                   # uncovered: accelerated w/o identity
            if record.n_gpus < 0:
                emb_needs_scalar[i] = True
                return
            code = accelerators.get(record.accelerator)
            if code is None:
                code = accelerators[record.accelerator] = len(accelerators)
            gpu_code[i] = code
            n_gpus[i] = record.n_gpus

        nodes = record.n_nodes
        if nodes is None:
            nodes = max(count // op_mod.DEFAULT_SOCKETS_PER_NODE, 1)
            nodes_derived[i] = True
        elif nodes < 0:
            emb_needs_scalar[i] = True
            return

        memory = record.memory_gb
        if memory is None:
            memory = nodes * op_mod.DEFAULT_MEMORY_GB_PER_NODE
            memory_defaulted[i] = True
        elif memory < 0:
            emb_needs_scalar[i] = True
            return
        if record.memory_type is None:
            if record.memory_gb is not None:
                memtype_noted[i] = True
        else:
            code = memory_types.get(record.memory_type)
            if code is None:
                code = memory_types[record.memory_type] = len(memory_types)
            mem_code[i] = code

        ssd = record.ssd_gb
        if ssd is None:
            ssd = nodes * op_mod.DEFAULT_SSD_GB_PER_NODE
            ssd_defaulted[i] = True
        elif ssd < 0:
            emb_needs_scalar[i] = True
            return

        n_cpus[i] = count
        cpu_count_src[i] = src
        n_nodes[i] = nodes
        memory_gb[i] = memory
        ssd_gb[i] = ssd
        emb_covered[i] = True

    @staticmethod
    def _extract_component(record, i, comp_covered, comp_needs_scalar,
                           comp_n_cpus, comp_cpu_src, comp_cpu_code,
                           comp_cpu_cores, comp_accel, comp_n_gpus,
                           comp_gpu_code, comp_n_nodes, comp_memory_gb,
                           comp_memory_defaulted, comp_mem_code, comp_ssd_gb,
                           comp_ssd_defaulted, cooling_code, processors,
                           accelerators, memory_types) -> None:
        """Resolve one record's component-power inputs (mirrors the
        scalar model's resolution order; see
        ``OperationalModel._component_power_kw``)."""
        if record.cooling == "liquid":
            cooling_code[i] = 1
        elif record.cooling == "air":
            cooling_code[i] = 2

        nodes = record.n_nodes
        if nodes is None:
            return                       # uncovered: needs node count
        if record.processor is None and record.n_cpus is None:
            return                       # uncovered: needs CPU info
        accelerated = record.has_accelerator
        if accelerated and record.n_gpus is None:
            return                       # uncovered: accelerated w/o GPU count

        # CPU count (n_nodes is present, so resolution cannot fail for
        # data reasons).
        count, src, cores = op_mod.resolve_cpu_count_detail(record)
        comp_cpu_cores[i] = cores

        n_gpus = record.n_gpus if accelerated else 0
        if count < 0 or nodes < 0 or n_gpus < 0:
            comp_needs_scalar[i] = True
            return

        if record.processor is not None:
            code = processors.get(record.processor)
            if code is None:
                code = processors[record.processor] = len(processors)
            comp_cpu_code[i] = code
        if accelerated:
            comp_accel[i] = True
            comp_n_gpus[i] = n_gpus
            if record.accelerator is not None:
                code = accelerators.get(record.accelerator)
                if code is None:
                    code = accelerators[record.accelerator] = len(accelerators)
                comp_gpu_code[i] = code

        memory = record.memory_gb
        if memory is None:
            memory = nodes * op_mod.DEFAULT_MEMORY_GB_PER_NODE
            comp_memory_defaulted[i] = True
        elif memory < 0:
            comp_needs_scalar[i] = True
            return
        if record.memory_type is not None:
            code = memory_types.get(record.memory_type)
            if code is None:
                code = memory_types[record.memory_type] = len(memory_types)
            comp_mem_code[i] = code

        ssd = record.ssd_gb
        if ssd is None:
            ssd = nodes * op_mod.DEFAULT_SSD_GB_PER_NODE
            comp_ssd_defaulted[i] = True
        elif ssd < 0:
            comp_needs_scalar[i] = True
            return

        comp_n_cpus[i] = count
        comp_cpu_src[i] = src
        comp_n_nodes[i] = nodes
        comp_memory_gb[i] = memory
        comp_ssd_gb[i] = ssd
        comp_covered[i] = True

    # -- derived views ------------------------------------------------------

    def aci(self, grid: GridIntensityDB) -> np.ndarray:
        """Per-record grid intensity under ``grid`` (nan = no location).

        One lookup per *unique* location, gathered through the code
        column.  ``grid`` is duck-typed: anything with a
        ``lookup(country, region)`` works, including
        :class:`~repro.grid.intervals.IntervalGridDB` (whose lookup
        collapses interval series to their declared annual mean, so a
        frame built against an interval DB matches the scalar DB
        bit-for-bit).
        """
        table = np.empty(len(self.locations) + 1)
        table[-1] = np.nan
        for idx, (country, region) in enumerate(self.locations):
            table[idx] = grid.lookup(country, region)
        return table[self.loc_code]

    def hour_aci(self, interval_db) -> np.ndarray:
        """Per-record hour-of-day grid intensity, shape ``(24, n)``.

        Row ``h`` holds each record's mean intensity during hour ``h``
        under ``interval_db`` (an
        :class:`~repro.grid.intervals.IntervalGridDB`); locations
        without an interval series fall back to their flat annual
        scalar in every row, and records with no location are nan.
        Like :meth:`aci`, one resolution per *unique* location,
        gathered through the code column.
        """
        table = np.empty((24, len(self.locations) + 1))
        table[:, -1] = np.nan
        for idx, (country, region) in enumerate(self.locations):
            annual = interval_db.lookup(country, region)
            factors = interval_db.hour_factors(country, region)
            for h in range(24):
                table[h, idx] = annual * factors[h]
        return table[:, self.loc_code]


# ---------------------------------------------------------------------------
# Frame cache: one extraction per fleet, reused across scenario sweeps
# ---------------------------------------------------------------------------

_FRAME_CACHE: OrderedDict[tuple[int, ...], FleetFrame] = OrderedDict()
_FRAME_CACHE_MAX = 8


def fleet_frame(records: Sequence[SystemRecord]) -> FleetFrame:
    """The (cached) :class:`FleetFrame` for a fleet.

    Keyed by the identity of the record objects; the cache holds strong
    references to the records, so a hit is guaranteed to refer to the
    same objects.  Records are treated as immutable once framed —
    mutate a record and you must build a new list (or call
    :func:`clear_frame_cache`).
    """
    key = tuple(map(id, records))
    frame = _FRAME_CACHE.get(key)
    if frame is not None:
        _FRAME_CACHE.move_to_end(key)
        obs.inc("cache.frame_hits")
        return frame
    obs.inc("cache.frame_misses")
    frame = FleetFrame.from_records(records)
    _FRAME_CACHE[key] = frame
    while len(_FRAME_CACHE) > _FRAME_CACHE_MAX:
        _FRAME_CACHE.popitem(last=False)
    return frame


def clear_frame_cache() -> None:
    """Drop all cached frames (after in-place record mutation)."""
    _FRAME_CACHE.clear()


# ---------------------------------------------------------------------------
# Lowering: one resolution per unique model configuration
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


# ---------------------------------------------------------------------------
# Operational kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ComponentFactors:
    """Per-unique-device power factors for one (frame, model) pair."""

    cpu_tdp_w: np.ndarray        # per processor code (last slot: generic)
    cpu_failed: np.ndarray       # bool: catalog lookup raised (strict policy)
    gpu_tdp_w: np.ndarray        # per accelerator code (last slot: unnamed)
    gpu_known: np.ndarray        # bool per accelerator code
    gpu_failed: np.ndarray
    mem_power_w_per_gb: np.ndarray  # per memory-type code (last slot: default)
    storage_power_w_per_tb: float
    idle_node_w: float
    power_overhead_frac: float
    pue_by_cooling: np.ndarray   # (3,) generic / liquid / air


def _resolve_component_factors(frame: FleetFrame,
                               model: OperationalModel) -> _ComponentFactors:
    catalog = model.catalog
    n_cpu = len(frame.processors)
    cpu_tdp = np.full(n_cpu + 1, np.nan)
    cpu_failed = np.zeros(n_cpu + 1, dtype=bool)
    for code, name in enumerate((*frame.processors, "generic")):
        try:
            cpu_tdp[code] = catalog.cpu(name).tdp_w
        except Exception:
            cpu_failed[code] = True

    n_gpu = len(frame.accelerators)
    gpu_tdp = np.full(n_gpu + 1, np.nan)
    gpu_known = np.zeros(n_gpu + 1, dtype=bool)
    gpu_failed = np.zeros(n_gpu + 1, dtype=bool)
    for code, name in enumerate((*frame.accelerators, "unknown")):
        try:
            gpu_tdp[code] = catalog.gpu(name).tdp_w
            gpu_known[code] = catalog.knows_gpu(name)
        except Exception:
            gpu_failed[code] = True

    mem = np.empty(len(frame.memory_types) + 1)
    for code, mem_type in enumerate(frame.memory_types):
        mem[code] = catalog.memory_spec(mem_type).power_w_per_gb
    mem[-1] = catalog.memory_spec(None).power_w_per_gb

    pue = model.pue
    return _ComponentFactors(
        cpu_tdp_w=cpu_tdp, cpu_failed=cpu_failed,
        gpu_tdp_w=gpu_tdp, gpu_known=gpu_known, gpu_failed=gpu_failed,
        mem_power_w_per_gb=mem,
        storage_power_w_per_tb=catalog.storage_spec().power_w_per_tb,
        idle_node_w=catalog.node_overheads.idle_node_w,
        power_overhead_frac=catalog.node_overheads.power_overhead_frac,
        pue_by_cooling=np.array([pue.for_component_power(None),
                                 pue.for_component_power("liquid"),
                                 pue.for_component_power("air")]),
    )


def _component_power_kw_array(frame: FleetFrame,
                              factors: _ComponentFactors) -> np.ndarray:
    """Component-rebuilt IT power (kW) per record, mirroring
    ``OperationalModel._component_power_kw``'s float-op order exactly
    (left-folded sums, idle floor, then the overhead multiplier).

    Values are only meaningful where the frame's component columns are
    populated; callers mask by their coverage/fallback partition.
    """
    cpu_idx = np.where(frame.comp_cpu_code >= 0, frame.comp_cpu_code,
                       len(frame.processors))
    power_w = frame.comp_n_cpus * factors.cpu_tdp_w[cpu_idx]
    accel = frame.comp_accel
    if accel.any():
        gpu_idx = np.where(frame.comp_gpu_code >= 0, frame.comp_gpu_code,
                           len(frame.accelerators))
        gpu_w = np.zeros(frame.n)
        gpu_w[accel] = frame.comp_n_gpus[accel] * \
            factors.gpu_tdp_w[gpu_idx[accel]]
        power_w = power_w + gpu_w
    mem_idx = np.where(frame.comp_mem_code >= 0, frame.comp_mem_code,
                       len(frame.memory_types))
    power_w = power_w + frame.comp_memory_gb * \
        factors.mem_power_w_per_gb[mem_idx]
    power_w = power_w + (frame.comp_ssd_gb / 1e3) * \
        factors.storage_power_w_per_tb
    power_w = np.maximum(power_w, frame.comp_n_nodes * factors.idle_node_w)
    power_w = power_w * (1.0 + factors.power_overhead_frac)
    return power_w / 1e3


def _component_partition(frame: FleetFrame, model: OperationalModel,
                         factors: _ComponentFactors,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(array_ok, needs_scalar) masks for the component-power path.

    A component record is array-evaluable when its extraction covered
    it, every device factor resolved under this model's catalog policy,
    and the utilization it would use is in the domain the scalar model
    accepts.  Everything else that the scalar model would *evaluate or
    raise on* (rather than declare uncovered) goes to the fallback.
    """
    is_comp = frame.op_path == _OP_COMPONENT
    cpu_idx = np.where(frame.comp_cpu_code >= 0, frame.comp_cpu_code,
                       len(frame.processors))
    gpu_idx = np.where(frame.comp_gpu_code >= 0, frame.comp_gpu_code,
                       len(frame.accelerators))
    factor_failed = factors.cpu_failed[cpu_idx] | \
        (frame.comp_accel & factors.gpu_failed[gpu_idx])
    # units.annual_energy_kwh rejects utilization outside [0, 1.5]; a
    # model configured that way raises in the scalar path, so records
    # that would consume the default must take the fallback.
    if 0.0 <= model.component_utilization <= 1.5:
        util_ok = np.ones(frame.n, dtype=bool)
    else:
        util_ok = ~np.isnan(frame.utilization)
    array_ok = is_comp & frame.comp_covered & ~factor_failed & util_ok
    needs_scalar = is_comp & (frame.comp_needs_scalar |
                              (frame.comp_covered & ~array_ok))
    return array_ok, needs_scalar


@dataclass(frozen=True)
class OperationalBatch:
    """Array results of one operational evaluation over a frame."""

    values_mt: np.ndarray        # nan where uncovered
    uncertainty_frac: np.ndarray  # nan where uncovered
    #: estimate objects from the scalar fallback (None = uncovered),
    #: keyed by record index — reused when assessments are materialized
    #: so no record is estimated twice.
    scalar_estimates: dict[int, CarbonEstimate | None]
    #: per-unique-device power factors when the frame has component-path
    #: records (None otherwise) — reused to materialize assessments.
    comp_factors: _ComponentFactors | None = None

    @property
    def scalar_idx(self) -> np.ndarray:
        """Indices evaluated by the scalar model."""
        return np.fromiter(self.scalar_estimates, dtype=np.int64)


def _operational_sweep(frame: FleetFrame,
                       models: Sequence[OperationalModel],
                       ) -> tuple[np.ndarray, np.ndarray,
                                  list[dict[int, CarbonEstimate | None]],
                                  list[_ComponentFactors | None]]:
    """The operational model over ``(n_scenarios, n_systems)`` cells.

    The one implementation of the operational arithmetic: the scenario
    sweep calls it with every scenario's model, :func:`operational_batch`
    with one.  Scenario-dependent quantities broadcast in the scalar
    model's operation order, so every row is bit-identical to looping
    ``model.estimate``.

    Returns ``(values, unc, estimates, comp_factors)``: the value and
    uncertainty matrices (nan = uncovered), and per scenario the
    scalar-fallback estimates keyed by record index (None = uncovered)
    and the component factor table (None when no record takes the
    component-power path).
    """
    n_scen, n = len(models), frame.n
    obs.inc("kernel.cells", n_scen * n)
    values = np.full((n_scen, n), np.nan)
    unc = np.full((n_scen, n), np.nan)
    estimates: list[dict[int, CarbonEstimate | None]] = \
        [{} for _ in range(n_scen)]
    comp_factors: list[_ComponentFactors | None] = [None] * n_scen

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

    # Component path: per-unique-catalog power rows, broadcast against
    # per-scenario utilization, cooling-resolved PUE and ACI.
    scalar_todo: list[tuple[int, np.ndarray]] = []
    if bool((frame.op_path == _OP_COMPONENT).any()):
        # Device power tables (and the rebuilt kW rows) depend only on
        # the catalog; the per-scenario PUE enters as a separate
        # cooling-resolved (S, 3) table, so a utilization/PUE sweep
        # over one catalog resolves factors exactly once.
        factors, cat_map = _dedupe(
            models, lambda m: id(m.catalog),
            lambda m: _resolve_component_factors(frame, m))
        comp_factors = [factors[r] for r in cat_map]
        kw = np.stack([_component_power_kw_array(frame, f)
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
        base_notes = ((frame.comp_cpu_src != _CPU_EXPLICIT)
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
            array_ok, needs_scalar = _component_partition(
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

    # Scalar fallback.  Records without a grid location are simply
    # uncovered (the scalar model raises before looking at energy), so
    # they never reach this loop.
    for s, idxs in scalar_todo:
        model = models[s]
        for i in idxs:
            try:
                estimate = model.estimate(frame.records[i])
            except InsufficientDataError:
                estimates[s][int(i)] = None
                continue
            values[s, i] = estimate.value_mt
            unc[s, i] = estimate.uncertainty_frac
            estimates[s][int(i)] = estimate

    unc[np.isnan(values)] = np.nan
    return values, unc, estimates, comp_factors


def operational_batch(frame: FleetFrame,
                      model: OperationalModel | None = None,
                      ) -> OperationalBatch:
    """Evaluate the operational model over a frame: the sweep kernel at
    one scenario.

    Also derives the per-record uncertainty band as arrays (base method
    uncertainty widened by 0.02 per recorded assumption — identical to
    the scalar model's arithmetic), so Monte-Carlo fleet bands never
    need estimate objects.
    """
    model = model or OperationalModel()
    with obs.span("batch.operational", n_systems=frame.n):
        values, unc, estimates, comp_factors = \
            _operational_sweep(frame, (model,))
    return OperationalBatch(values_mt=values[0], uncertainty_frac=unc[0],
                            scalar_estimates=estimates[0],
                            comp_factors=comp_factors[0])


def batch_operational_mt(records: list[SystemRecord],
                         model: OperationalModel | None = None,
                         frame: FleetFrame | None = None) -> np.ndarray:
    """Operational carbon (MT CO2e) per record; ``nan`` where uncovered.

    Exactly equivalent to calling ``model.estimate`` per record and
    taking ``value_mt`` (or ``nan`` on
    :class:`~repro.errors.InsufficientDataError`).

    Without ``frame``, the fleet's frame comes from the identity-keyed
    :func:`fleet_frame` cache — records must be treated as immutable
    once evaluated (after an in-place mutation, call
    :func:`clear_frame_cache`).  Pass a pre-extracted
    :class:`FleetFrame` to reuse it across model sweeps (it resolves
    ACI per model, so grid sweeps reuse it too).
    """
    if frame is None:
        frame = fleet_frame(records)
    if frame.n != len(records):
        raise ValueError("frame/records length mismatch")
    return operational_batch(frame, model).values_mt


# ---------------------------------------------------------------------------
# Embodied batch path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _EmbodiedFactors:
    """Per-unique-device factors resolved for one (frame, model) pair."""

    cpu_pkg_kg: np.ndarray       # per processor code (last slot: unknown/None)
    cpu_known: np.ndarray        # bool per processor code
    cpu_failed: np.ndarray       # bool: catalog lookup raised (strict policy)
    gpu_dev_kg: np.ndarray
    gpu_known: np.ndarray
    gpu_failed: np.ndarray
    mem_kg_per_gb: np.ndarray    # per memory-type code (last slot: default)
    ssd_kg_per_gb: float
    node_kg: float


def _resolve_embodied_factors(frame: FleetFrame,
                              model: EmbodiedModel) -> _EmbodiedFactors:
    catalog = model.catalog
    n_cpu = len(frame.processors)
    cpu_pkg = np.full(n_cpu + 1, np.nan)
    cpu_known = np.zeros(n_cpu + 1, dtype=bool)
    cpu_failed = np.zeros(n_cpu + 1, dtype=bool)
    for code, name in enumerate((*frame.processors, "generic")):
        try:
            spec = catalog.cpu(name)
            cpu_pkg[code] = die_embodied_kg(
                spec.die_area_mm2, spec.process_nm, model.fab_yield
            ) + emb_mod.PACKAGE_KG
            cpu_known[code] = catalog.knows_cpu(name)
        except Exception:
            cpu_failed[code] = True

    n_gpu = len(frame.accelerators)
    gpu_dev = np.full(n_gpu, np.nan)
    gpu_known = np.zeros(n_gpu, dtype=bool)
    gpu_failed = np.zeros(n_gpu, dtype=bool)
    for code, name in enumerate(frame.accelerators):
        try:
            spec = catalog.gpu(name)
            gpu_dev[code] = (
                die_embodied_kg(spec.die_area_mm2, spec.process_nm,
                                model.fab_yield)
                + spec.hbm_gb * emb_mod.HBM_KG_PER_GB
                + emb_mod.PACKAGE_KG)
            gpu_known[code] = catalog.knows_gpu(name)
        except Exception:
            gpu_failed[code] = True

    mem = np.empty(len(frame.memory_types) + 1)
    for code, mem_type in enumerate(frame.memory_types):
        mem[code] = catalog.memory_spec(mem_type).embodied_kg_per_gb
    mem[-1] = catalog.memory_spec(None).embodied_kg_per_gb

    return _EmbodiedFactors(
        cpu_pkg_kg=cpu_pkg, cpu_known=cpu_known, cpu_failed=cpu_failed,
        gpu_dev_kg=gpu_dev, gpu_known=gpu_known, gpu_failed=gpu_failed,
        mem_kg_per_gb=mem,
        ssd_kg_per_gb=catalog.storage_spec().embodied_kg_per_gb,
        node_kg=catalog.node_overheads.embodied_kg_per_node,
    )


@dataclass(frozen=True)
class EmbodiedBatch:
    """Array results of one embodied evaluation over a frame."""

    values_mt: np.ndarray        # nan where uncovered
    uncertainty_frac: np.ndarray  # nan where uncovered
    cpu_mt: np.ndarray
    gpu_mt: np.ndarray           # 0 where no accelerator
    memory_mt: np.ndarray
    storage_mt: np.ndarray
    node_mt: np.ndarray
    covered: np.ndarray          # bool (array path produced the value)
    scalar_idx: np.ndarray       # indices evaluated by the scalar model
    #: estimate objects from the scalar fallback (None = uncovered).
    scalar_estimates: dict[int, CarbonEstimate | None]
    factors: _EmbodiedFactors


def embodied_batch(frame: FleetFrame,
                   model: EmbodiedModel | None = None) -> EmbodiedBatch:
    """Evaluate the embodied model over a frame (array fast path).

    Records whose extraction flagged scalar fallback — or whose device
    resolution failed under this model's catalog policy — are evaluated
    by the scalar model, preserving its exact semantics (including
    raised errors for non-coverage failure modes).
    """
    obs.inc("kernel.cells", frame.n)
    with obs.span("batch.embodied", n_systems=frame.n):
        return _embodied_batch_impl(frame, model or EmbodiedModel())


def _embodied_batch_impl(frame: FleetFrame,
                         model: EmbodiedModel) -> EmbodiedBatch:
    """One model's embodied row: component terms in the scalar
    breakdown order, the uncertainty band, then the scalar fallback.

    A strict-catalog CPU failure must reach the scalar model for every
    record whose CPU count resolved — the scalar path raises
    UnknownDeviceError there even when a later check (e.g. missing
    accelerator identity) would have made the record uncovered.
    """
    factors = _resolve_embodied_factors(frame, model)
    cpu_idx = np.where(frame.cpu_code >= 0, frame.cpu_code,
                       len(frame.processors))
    has_gpu = frame.gpu_code >= 0
    gpu_fail = np.zeros(frame.n, dtype=bool)
    gpu_fail[has_gpu] = factors.gpu_failed[frame.gpu_code[has_gpu]]
    needs_scalar = frame.emb_needs_scalar | (
        frame.cpu_resolved & factors.cpu_failed[cpu_idx]) | (
        frame.emb_covered & gpu_fail)
    array_ok = frame.emb_covered & ~needs_scalar
    mem_idx = np.where(frame.mem_code >= 0, frame.mem_code,
                       len(frame.memory_types))

    cpu_kg = frame.n_cpus * factors.cpu_pkg_kg[cpu_idx]
    gpu_kg = np.zeros(frame.n)
    gpu_kg[has_gpu] = frame.n_gpus[has_gpu] * \
        factors.gpu_dev_kg[frame.gpu_code[has_gpu]]
    mem_kg = frame.memory_gb * factors.mem_kg_per_gb[mem_idx]
    ssd_kg = frame.ssd_gb * factors.ssd_kg_per_gb
    node_kg = frame.n_nodes * factors.node_kg
    total_kg = (((cpu_kg + gpu_kg) + mem_kg) + ssd_kg) + node_kg
    values = np.full(frame.n, np.nan)
    values[array_ok] = total_kg[array_ok] / units.KG_PER_MT

    # Uncertainty band: 0.25 base + 0.03 per recorded assumption
    # (identical to the scalar arithmetic; assumptions counted from the
    # frame's provenance flags).
    gpu_proxy_note = np.zeros(frame.n)
    if has_gpu.any():
        gpu_proxy_note[has_gpu] = \
            (~factors.gpu_known[frame.gpu_code[has_gpu]]).astype(np.float64)
    n_notes = (
        (frame.cpu_count_src != _CPU_EXPLICIT).astype(np.float64)
        + ((frame.cpu_code < 0) | ~factors.cpu_known[cpu_idx])
        + gpu_proxy_note
        + frame.nodes_derived + frame.memory_defaulted
        + frame.memtype_noted + frame.ssd_defaulted)
    unc = np.full(frame.n, np.nan)
    unc[array_ok] = np.minimum(0.25 + 0.03 * n_notes[array_ok], 2.0)

    scalar_idx = np.flatnonzero(needs_scalar)
    scalar_estimates: dict[int, CarbonEstimate | None] = {}
    for i in scalar_idx:
        try:
            estimate = model.estimate(frame.records[i])
            values[i] = estimate.value_mt
            unc[i] = estimate.uncertainty_frac
            scalar_estimates[int(i)] = estimate
        except InsufficientDataError:
            values[i] = np.nan
            scalar_estimates[int(i)] = None

    return EmbodiedBatch(
        values_mt=values, uncertainty_frac=unc,
        cpu_mt=cpu_kg / units.KG_PER_MT,
        gpu_mt=gpu_kg / units.KG_PER_MT,
        memory_mt=mem_kg / units.KG_PER_MT,
        storage_mt=ssd_kg / units.KG_PER_MT,
        node_mt=node_kg / units.KG_PER_MT,
        covered=array_ok, scalar_idx=scalar_idx,
        scalar_estimates=scalar_estimates, factors=factors,
    )


def _embodied_sweep(frame: FleetFrame, models: Sequence[EmbodiedModel],
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The embodied model over ``(n_scenarios, n_systems)`` cells.

    An ``EmbodiedModel`` *is* its (catalog, fab_yield) pair, so
    scenarios sharing that key share one :func:`embodied_batch` row,
    scalar fallback and all.
    """
    obs.inc("kernel.cells", len(models) * frame.n)
    rows, cat_map = _dedupe(models,
                            lambda m: (id(m.catalog), m.fab_yield),
                            lambda m: _embodied_batch_impl(frame, m))
    values = np.stack([row.values_mt for row in rows])[cat_map]
    unc = np.stack([row.uncertainty_frac for row in rows])[cat_map]
    unc[np.isnan(values)] = np.nan
    return values, unc


def batch_embodied_mt(records: list[SystemRecord],
                      model: EmbodiedModel | None = None,
                      frame: FleetFrame | None = None) -> np.ndarray:
    """Embodied carbon (MT CO2e) per record; ``nan`` where uncovered.

    Exactly equivalent to calling ``EmbodiedModel.estimate`` per record
    (``nan`` on :class:`~repro.errors.InsufficientDataError`; other
    errors — e.g. strict-catalog unknown devices — propagate just as
    the scalar model raises them).

    Without ``frame``, the fleet's frame comes from the identity-keyed
    :func:`fleet_frame` cache — records must be treated as immutable
    once evaluated (after an in-place mutation, call
    :func:`clear_frame_cache`).
    """
    if frame is None:
        frame = fleet_frame(records)
    if frame.n != len(records):
        raise ValueError("frame/records length mismatch")
    return embodied_batch(frame, model).values_mt


# ---------------------------------------------------------------------------
# Full assessments from the frame (estimate objects, scalar-identical)
# ---------------------------------------------------------------------------

def assess_fleet_frame(records: Sequence[SystemRecord],
                       operational_model: OperationalModel | None = None,
                       embodied_model: EmbodiedModel | None = None,
                       frame: FleetFrame | None = None,
                       op_batch: OperationalBatch | None = None,
                       emb_batch: EmbodiedBatch | None = None,
                       ) -> list[SystemAssessment]:
    """Assess a fleet through the columnar engine.

    Returns :class:`SystemAssessment` objects equal — dataclass
    equality, estimate metadata included — to looping
    ``EasyC.assess`` over the records.  Pass ``op_batch`` /
    ``emb_batch`` when the batches were already computed for this
    (frame, model) pair (as :func:`repro.coverage.analyzer.coverage_of`
    does) so no record is evaluated twice.
    """
    op_model = operational_model or OperationalModel()
    em_model = embodied_model or EmbodiedModel()
    if frame is None:
        frame = fleet_frame(records)
    if frame.n != len(records):
        raise ValueError("frame/records length mismatch")

    opb = op_batch if op_batch is not None else \
        operational_batch(frame, op_model)
    emb = emb_batch if emb_batch is not None else \
        embodied_batch(frame, em_model)
    emb_scalar = np.zeros(frame.n, dtype=bool)
    emb_scalar[emb.scalar_idx] = True

    # Per-call interned metadata.
    util_note = None
    if op_model.measured_power_utilization != 1.0:
        util_note = op_mod.utilization_default_note(
            op_model.measured_power_utilization)
    country_notes = tuple(op_mod.country_average_note(country)
                          for country, _ in frame.locations)
    base_unc_energy = op_mod.METHOD_UNCERTAINTY[EstimateMethod.REPORTED_ENERGY]
    base_unc_power = op_mod.METHOD_UNCERTAINTY[EstimateMethod.MEASURED_POWER]

    cpu_notes = _cpu_notes(frame.cpu_count_src, frame.cpu_derived_cores)
    comp_cpu_notes = None
    comp_util_note = None
    if (frame.op_path == _OP_COMPONENT).any():
        comp_cpu_notes = _cpu_notes(frame.comp_cpu_src, frame.comp_cpu_cores)
        comp_util_note = op_mod.utilization_default_note(
            op_model.component_utilization)

    out: list[SystemAssessment] = []
    values = opb.values_mt
    has_util = ~np.isnan(frame.utilization)
    for i in range(frame.n):
        # ---- operational ---------------------------------------------
        path = frame.op_path[i]
        if path == _OP_COMPONENT:
            if i in opb.scalar_estimates:
                # Scalar-fallback estimate captured by the batch.
                operational = opb.scalar_estimates[i]
            elif np.isnan(values[i]):
                operational = None
            else:
                operational = _materialize_component(
                    frame, opb, comp_cpu_notes, country_notes,
                    comp_util_note, i)
        elif np.isnan(values[i]):
            operational = None
        else:
            assumptions: tuple[str, ...] = ()
            if path == _OP_POWER:
                method = EstimateMethod.MEASURED_POWER
                base_unc = base_unc_power
                if util_note is not None and not has_util[i]:
                    assumptions = (util_note,)
            else:
                method = EstimateMethod.REPORTED_ENERGY
                base_unc = base_unc_energy
            if frame.region_missing[i]:
                assumptions = (*assumptions,
                               country_notes[frame.loc_code[i]])
            value = float(values[i])
            operational = CarbonEstimate(
                kind=CarbonKind.OPERATIONAL,
                value_mt=value,
                method=method,
                breakdown_mt={"grid": value},
                assumptions=assumptions,
                uncertainty_frac=min(base_unc + 0.02 * len(assumptions), 2.0),
            )

        # ---- embodied ------------------------------------------------
        if emb_scalar[i]:
            embodied = emb.scalar_estimates[int(i)]
        elif not emb.covered[i]:
            embodied = None
        else:
            embodied = _materialize_embodied(frame, emb, cpu_notes, i)

        out.append(SystemAssessment(
            rank=int(frame.ranks[i]), name=frame.names[i],
            operational=operational, embodied=embodied))
    return out


def _cpu_notes(src_col: np.ndarray, cores_col: np.ndarray,
               ) -> tuple[str | None, ...]:
    """Per-record CPU-count provenance notes (interned per unique).

    Shared by the embodied and component-power materializers — both
    resolve counts with ``resolve_cpu_count`` semantics, so the note
    grammar is identical.
    """
    derived_cache: dict[int, str] = {}
    notes: list[str | None] = []
    for src, cores in zip(src_col, cores_col):
        if src == _CPU_FROM_CORES:
            cores = int(cores)
            note = derived_cache.get(cores)
            if note is None:
                note = derived_cache[cores] = op_mod.cpu_derived_note(cores)
            notes.append(note)
        elif src == _CPU_FROM_NODES:
            notes.append(op_mod.NOTE_CPU_DEFAULT)
        else:
            notes.append(None)
    return tuple(notes)


def _materialize_component(frame: FleetFrame, opb: OperationalBatch,
                           cpu_notes: tuple[str | None, ...],
                           country_notes: tuple[str, ...],
                           util_note: str, i: int) -> CarbonEstimate:
    """Build one component-power estimate from batch arrays
    (scalar-identical value, assumptions and uncertainty)."""
    assumptions: list[str] = []
    note = cpu_notes[i]
    if note is not None:
        assumptions.append(note)
    if frame.comp_accel[i]:
        code = frame.comp_gpu_code[i]
        if code < 0 or not opb.comp_factors.gpu_known[code]:
            assumptions.append(op_mod.NOTE_ACCEL_PROXY)
    if frame.comp_memory_defaulted[i]:
        assumptions.append(op_mod.NOTE_MEMORY_DEFAULT)
    if frame.comp_ssd_defaulted[i]:
        assumptions.append(op_mod.NOTE_SSD_DEFAULT)
    if np.isnan(frame.utilization[i]):
        assumptions.append(util_note)
    if frame.region_missing[i]:
        assumptions.append(country_notes[frame.loc_code[i]])
    value = float(opb.values_mt[i])
    return CarbonEstimate(
        kind=CarbonKind.OPERATIONAL,
        value_mt=value,
        method=EstimateMethod.COMPONENT_POWER,
        breakdown_mt={"grid": value},
        assumptions=tuple(assumptions),
        uncertainty_frac=min(
            op_mod.METHOD_UNCERTAINTY[EstimateMethod.COMPONENT_POWER]
            + 0.02 * len(assumptions), 2.0),
    )


def _materialize_embodied(frame: FleetFrame, emb: EmbodiedBatch,
                          cpu_notes: tuple[str | None, ...],
                          i: int) -> CarbonEstimate:
    """Build one embodied estimate from batch arrays (scalar-identical
    breakdown, assumptions and uncertainty)."""
    assumptions: list[str] = []
    note = cpu_notes[i]
    if note is not None:
        assumptions.append(note)
    code = frame.cpu_code[i]
    if code < 0:
        assumptions.append(emb_mod.NOTE_PROCESSOR_UNKNOWN)
    elif not emb.factors.cpu_known[code]:
        assumptions.append(emb_mod.NOTE_PROCESSOR_NOT_IN_CATALOG)

    breakdown = {"cpu": float(emb.cpu_mt[i])}
    gcode = frame.gpu_code[i]
    if gcode >= 0:
        if not emb.factors.gpu_known[gcode]:
            assumptions.append(emb_mod.NOTE_GPU_PROXY)
        breakdown["gpu"] = float(emb.gpu_mt[i])
    if frame.nodes_derived[i]:
        assumptions.append(emb_mod.NOTE_NODES_DERIVED)
    if frame.memory_defaulted[i]:
        assumptions.append(op_mod.NOTE_MEMORY_DEFAULT)
    if frame.memtype_noted[i]:
        assumptions.append(emb_mod.NOTE_MEMORY_TYPE_DEFAULT)
    if frame.ssd_defaulted[i]:
        assumptions.append(op_mod.NOTE_SSD_DEFAULT)
    breakdown["memory"] = float(emb.memory_mt[i])
    breakdown["storage"] = float(emb.storage_mt[i])
    breakdown["node_hardware"] = float(emb.node_mt[i])

    return CarbonEstimate(
        kind=CarbonKind.EMBODIED,
        value_mt=float(emb.values_mt[i]),
        method=EstimateMethod.COMPONENT_INVENTORY,
        breakdown_mt=breakdown,
        assumptions=tuple(assumptions),
        uncertainty_frac=min(0.25 + 0.03 * len(assumptions), 2.0),
    )
