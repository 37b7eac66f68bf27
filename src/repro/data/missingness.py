"""Missingness choreography: who is missing what, in which scenario.

The coverage results of the paper are entirely a story about *which
fields are invisible where*.  This module builds a
:class:`MissingnessPlan` — per-system hidden-field sets for the
Baseline (top500.org) scenario and the Baseline+PublicInfo scenario —
calibrated so that EasyC's requirement rules land exactly on the
paper's coverage numbers:

====================  ========  ============
quantity              baseline  +public info
====================  ========  ============
operational covered   391       490
embodied covered      283       404
interpolated (op)     —         10
interpolated (emb)    —         96
====================  ========  ============

Structure of the plan (see DESIGN.md §2 and the derivation in
``tests/data/test_missingness.py``):

* **225 accelerated** systems, concentrated at the top of the list
  (via :func:`repro.data.truth.accel_probability`); 275 CPU-only.
* **8 flagships** — accelerated, top-30, fully disclosed on top500.org
  (Frontier/Aurora-like open-science machines) — embodied-covered even
  at baseline: 275 + 8 = **283**.
* **10 dark systems** — accelerated, commercially/government operated:
  no power column, node count never public, accelerator identity never
  public.  These are the paper's 10 operational-interpolated systems,
  and part of its 96 embodied-interpolated ones.
* **8 name-hidden systems** — GPU count printed but accelerator model
  blank at baseline (so GPU-count missingness is 225−8−8 = **209**,
  Table I), disclosed by public info.
* **86 component-opaque** accelerated systems — power known, GPU count
  never public: embodied-uncovered even with public info
  (86 + 10 dark = **96** interpolated), but operational-covered via
  power (404 + 86 = **490**).
* Node-count hiding: 209 baseline / 86 public (Table I), overlapping
  the sets above so the operational-component path unlocks for exactly
  the right systems.
* Operational baseline gaps (109 systems) are rank-skewed into the
  26-100 band, reproducing Figure 5a's surprising high-rank holes.
* Key-metric fields nobody publishes (Table I): memory capacity
  visible for 1 / 208 systems (baseline/public), memory type 0 / 208,
  SSD 0 / 50, utilization 0 / 3, annual energy 0 / 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.record import SystemRecord

if TYPE_CHECKING:
    from repro.data.top500 import TrueSystem

# --- calibration targets (Table I + coverage) -------------------------------

N_SYSTEMS = 500
N_ACCELERATED = 225
N_FLAGSHIPS = 8
N_DARK = 10
N_NAME_HIDDEN = 8
N_GPUS_HIDDEN_BASELINE = 209        # Table I
N_NODES_HIDDEN_BASELINE = 209       # Table I
N_NODES_HIDDEN_PUBLIC = 86          # Table I
N_COMPONENT_OPAQUE = 86             # embodied-uncovered with public info, minus dark
N_OP_UNCOVERED_BASELINE = 109       # 500 - 391
N_MEMORY_VISIBLE_BASELINE = 1       # Table I: 499 missing
N_MEMORY_VISIBLE_PUBLIC = 208       # Table I: 292 missing
N_SSD_VISIBLE_PUBLIC = 50           # Table I: 450 missing
N_UTIL_VISIBLE_PUBLIC = 3           # Table I: 497 missing
N_ENERGY_VISIBLE_PUBLIC = 8         # Table I: 492 missing

#: Fields a scenario can hide on a SystemRecord (everything optional).
HIDEABLE_FIELDS: tuple[str, ...] = (
    "name", "year", "segment", "vendor", "processor_speed_mhz",
    "accelerator", "accelerator_cores", "n_nodes", "n_gpus", "n_cpus",
    "power_kw", "energy_efficiency", "nmax", "interconnect", "os",
    "memory_gb", "memory_type", "ssd_gb", "utilization",
    "annual_energy_kwh", "region", "cooling",
)


@dataclass
class MissingnessPlan:
    """Hidden-field sets per scenario, keyed by system rank.

    ``hidden_baseline[rank]`` ⊇ ``hidden_public[rank]``: public info
    only ever reveals, never redacts.
    """

    hidden_baseline: dict[int, frozenset[str]]
    hidden_public: dict[int, frozenset[str]]
    accelerated_ranks: frozenset[int]
    flagship_ranks: frozenset[int]
    dark_ranks: frozenset[int]
    component_opaque_ranks: frozenset[int]

    def __post_init__(self) -> None:
        for rank, base in self.hidden_baseline.items():
            if not self.hidden_public[rank] <= base:
                raise ValueError(
                    f"rank {rank}: public hides fields baseline does not")

    def record_for(self, truth: TrueSystem, scenario: str) -> SystemRecord:
        """Masked :class:`SystemRecord` view of a true system.

        Args:
            truth: the ground-truth system.
            scenario: ``"baseline"`` or ``"public"``.
        """
        if scenario == "baseline":
            hidden = self.hidden_baseline[truth.rank]
        elif scenario == "public":
            hidden = self.hidden_public[truth.rank]
        else:
            raise ValueError(f"unknown scenario {scenario!r}")
        kwargs: dict[str, object] = {
            "rank": truth.rank,
            "rmax_tflops": truth.rmax_tflops,
            "rpeak_tflops": truth.rpeak_tflops,
            # Always-visible columns: required for Top500 inclusion.
            "country": truth.country,
            "processor": truth.processor,
            "total_cores": truth.total_cores,
        }
        for name in HIDEABLE_FIELDS:
            value = getattr(truth, name)
            if name == "accelerator" and value is None:
                kwargs[name] = None        # genuinely CPU-only, not hidden
                continue
            if name in ("n_gpus", "accelerator_cores") and truth.accelerator is None:
                kwargs[name] = None        # meaningless for CPU-only
                continue
            kwargs[name] = None if name in hidden else value
        return SystemRecord(**kwargs)  # type: ignore[arg-type]


def _pick(rng: np.random.Generator, pool: list[int], k: int,
          weight_fn=None) -> list[int]:
    """Sample ``k`` distinct ranks from ``pool`` (optionally weighted)."""
    if k > len(pool):
        raise ValueError(f"cannot pick {k} from pool of {len(pool)}")
    if weight_fn is None:
        chosen = rng.choice(pool, size=k, replace=False)
    else:
        weights = np.array([weight_fn(r) for r in pool], dtype=float)
        weights = weights / weights.sum()
        chosen = rng.choice(pool, size=k, replace=False, p=weights)
    return sorted(int(r) for r in chosen)


def choose_accelerated_ranks(rng: np.random.Generator) -> frozenset[int]:
    """Exactly :data:`N_ACCELERATED` ranks, biased to the top of the list."""
    from repro.data.truth import accel_probability
    scores = {rank: float(rng.uniform()) / accel_probability(rank)
              for rank in range(1, N_SYSTEMS + 1)}
    chosen = sorted(scores, key=scores.get)[:N_ACCELERATED]
    return frozenset(chosen)


def build_plan(rng: np.random.Generator) -> MissingnessPlan:
    """Construct a calibrated missingness plan (deterministic per rng)."""
    all_ranks = list(range(1, N_SYSTEMS + 1))
    accel = choose_accelerated_ranks(rng)
    cpu_only = [r for r in all_ranks if r not in accel]

    flagships = frozenset(_pick(rng, [r for r in sorted(accel) if r <= 30],
                                N_FLAGSHIPS))
    regular_accel = [r for r in sorted(accel) if r not in flagships]

    dark = frozenset(_pick(rng, [r for r in regular_accel if r >= 40], N_DARK))
    name_hidden = frozenset(_pick(
        rng, [r for r in regular_accel if r not in dark], N_NAME_HIDDEN))

    # GPU count hidden at baseline: every accelerated system except the
    # flagships and the name-hidden eight (whose counts are printed).
    gpus_hidden_base = frozenset(
        r for r in accel if r not in flagships and r not in name_hidden)
    assert len(gpus_hidden_base) == N_GPUS_HIDDEN_BASELINE

    # GPU count hidden with public info: the component-opaque systems.
    component_opaque = frozenset(_pick(
        rng, [r for r in sorted(gpus_hidden_base) if r not in dark],
        N_COMPONENT_OPAQUE,
        weight_fn=lambda r: 1.5 if r <= 150 else 1.0))
    gpus_hidden_public = component_opaque  # dark systems get counts revealed

    # Node count hidden with public info (86): dark 10 + 76 of the
    # component-opaque (the remaining 10 opaque systems reveal nodes
    # but still hide GPU counts).  Chosen first so the baseline set can
    # be built as a superset (public only ever reveals).
    opaque_nodes_hidden = set(
        _pick(rng, sorted(component_opaque), N_NODES_HIDDEN_PUBLIC - N_DARK))
    nodes_hidden_public = set(dark) | opaque_nodes_hidden
    assert len(nodes_hidden_public) == N_NODES_HIDDEN_PUBLIC

    # Node count hidden at baseline (209): the public-hidden 86 +
    # name-hidden 8 + 107 more gpus-hidden accelerated + 8 CPU-only.
    other_accel_pool = [r for r in sorted(gpus_hidden_base)
                        if r not in dark and r not in opaque_nodes_hidden]
    nodes_hidden_base = set(nodes_hidden_public) | set(name_hidden)
    nodes_hidden_base |= set(_pick(
        rng, other_accel_pool,
        N_NODES_HIDDEN_BASELINE - len(nodes_hidden_base) - 8))
    nodes_hidden_base |= set(_pick(rng, cpu_only, 8))
    assert len(nodes_hidden_base) == N_NODES_HIDDEN_BASELINE

    # Operational baseline gaps: dark 10 + 99 rank-skewed others that
    # are not component-complete at baseline and must also lack power.
    comp_complete_base = (set(cpu_only) - _cpu_only_without_nodes(
        nodes_hidden_base, cpu_only)) | set(flagships)
    non_comp = [r for r in all_ranks if r not in comp_complete_base]
    uncovered_pool = [r for r in non_comp
                      if r not in dark and r not in component_opaque]
    uncovered_extra = _pick(
        rng, uncovered_pool, N_OP_UNCOVERED_BASELINE - N_DARK,
        weight_fn=lambda r: 4.0 if 26 <= r <= 100 else 1.0)
    op_uncovered_base = set(dark) | set(uncovered_extra)

    # Power column: visible for every non-comp system that is *not* in
    # the uncovered set (so coverage lands exactly on 391), plus a
    # random 55% of component-complete systems (their coverage does not
    # depend on it).
    power_visible = {r for r in non_comp if r not in op_uncovered_base}
    power_visible |= {r for r in sorted(comp_complete_base)
                      if rng.uniform() < 0.55}

    # Key metrics nobody publishes (Table I).
    memory_visible_base = set(_pick(rng, all_ranks, N_MEMORY_VISIBLE_BASELINE))
    memory_visible_public = set(memory_visible_base) | set(
        _pick(rng, [r for r in all_ranks if r not in memory_visible_base],
              N_MEMORY_VISIBLE_PUBLIC - N_MEMORY_VISIBLE_BASELINE))
    # Reveal pools exclude the dark systems: by definition nothing about
    # them is public, and an accidental energy reveal would break the
    # 490-operational-coverage calibration.
    lit_ranks = [r for r in all_ranks if r not in dark]
    ssd_visible_public = set(_pick(rng, lit_ranks, N_SSD_VISIBLE_PUBLIC,
                                   weight_fn=lambda r: 3.0 if r <= 100 else 1.0))
    util_visible_public = set(_pick(rng, lit_ranks, N_UTIL_VISIBLE_PUBLIC))
    energy_visible_public = set(_pick(rng, lit_ranks, N_ENERGY_VISIBLE_PUBLIC))

    # Incidental structural gaps (Figure 2 flavor; no coverage effect).
    nmax_hidden = set(_pick(rng, all_ranks, 300))
    interconnect_hidden = set(_pick(rng, all_ranks, 80))
    os_hidden = set(_pick(rng, all_ranks, 30))
    speed_hidden = set(_pick(rng, all_ranks, 120))
    segment_hidden = set(_pick(rng, all_ranks, 40))
    vendor_hidden = set(_pick(rng, all_ranks, 10))
    name_blank = set(_pick(rng, [r for r in all_ranks if r > 90], 40))

    hidden_baseline: dict[int, frozenset[str]] = {}
    hidden_public: dict[int, frozenset[str]] = {}
    for rank in all_ranks:
        base: set[str] = {"n_cpus", "utilization", "annual_energy_kwh",
                          "memory_type", "ssd_gb", "region", "cooling"}
        if rank not in memory_visible_base:
            base.add("memory_gb")
        if rank in gpus_hidden_base:
            base.add("n_gpus")
            # Dark systems keep the accelerator-cores column: the list
            # shows the machine *is* accelerated, but with the device
            # model undisclosed the count cannot be derived — exactly
            # the "novel accelerator" failure the paper describes.
            if rank not in dark:
                base.add("accelerator_cores")
        if rank in name_hidden or rank in dark:
            base.add("accelerator")
        if rank in nodes_hidden_base:
            base.add("n_nodes")
        if rank not in power_visible:
            base |= {"power_kw", "energy_efficiency"}
        for hidden_set, field_name in (
                (nmax_hidden, "nmax"), (interconnect_hidden, "interconnect"),
                (os_hidden, "os"), (speed_hidden, "processor_speed_mhz"),
                (segment_hidden, "segment"), (vendor_hidden, "vendor"),
                (name_blank, "name")):
            if rank in hidden_set:
                base.add(field_name)

        public = set(base)
        public.discard("region")            # enrichment attaches grid hints
        public.discard("cooling")
        public.discard("n_cpus")            # site pages list socket counts
        if rank in gpus_hidden_base and rank not in gpus_hidden_public:
            public -= {"n_gpus", "accelerator_cores"}
        if rank in name_hidden:
            public.discard("accelerator")   # dark systems stay hidden
        if rank in nodes_hidden_base and rank not in nodes_hidden_public:
            public.discard("n_nodes")
        if rank in memory_visible_public:
            public.discard("memory_gb")
            public.discard("memory_type")
        if rank in ssd_visible_public:
            public.discard("ssd_gb")
        if rank in util_visible_public:
            public.discard("utilization")
        if rank in energy_visible_public:
            public.discard("annual_energy_kwh")
        public.discard("name")              # public sources name systems
        public.discard("vendor")

        hidden_baseline[rank] = frozenset(base)
        hidden_public[rank] = frozenset(public)

    return MissingnessPlan(
        hidden_baseline=hidden_baseline,
        hidden_public=hidden_public,
        accelerated_ranks=accel,
        flagship_ranks=flagships,
        dark_ranks=dark,
        component_opaque_ranks=component_opaque,
    )


def _cpu_only_without_nodes(nodes_hidden: set[int],
                            cpu_only: list[int]) -> set[int]:
    return {r for r in cpu_only if r in nodes_hidden}
