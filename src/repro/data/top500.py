"""Synthetic Top500 dataset: ground truth + scenario views.

:func:`generate_top500` is the model path's entry point: a deterministic
(seeded) November-2024-like list of 500 :class:`TrueSystem`s together
with a calibrated :class:`MissingnessPlan`.  The two data-scenario
views the paper analyzes are then::

    ds = generate_top500(seed=20241118)
    baseline = ds.baseline_records()    # what top500.org shows
    public   = ds.public_records()      # + other public information

Both are lists of :class:`~repro.core.record.SystemRecord` ready for
:class:`~repro.core.easyc.EasyC`.

:func:`default_dataset` does not synthesize the default seed's list: it
decodes the committed snapshot (:mod:`repro.data.snapshot`), which
``tests/data`` holds equal to ``generate_top500(DEFAULT_SEED)`` bit
for bit.  Every other seed is synthesized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import obs
from repro.core.record import SystemRecord
from repro.data.missingness import MissingnessPlan
from repro.hardware.memory import MemoryType

#: Default seed: the Nov-2024 list publication date.
DEFAULT_SEED: int = 20241118


@dataclass(slots=True)
class TrueSystem:
    """Full physical truth about one synthetic system (no hidden fields)."""

    rank: int
    name: str
    country: str
    region: str | None          # sub-national grid refinement, if any
    year: int
    segment: str
    vendor: str
    processor: str              # catalog key
    processor_speed_mhz: float
    accelerator: str | None     # catalog key; None => CPU-only
    n_nodes: int
    n_cpus: int
    n_gpus: int                 # 0 for CPU-only
    total_cores: int
    accelerator_cores: int
    rmax_tflops: float
    rpeak_tflops: float
    nmax: int
    power_kw: float
    energy_efficiency: float    # GFlops/W
    memory_gb: float
    memory_type: MemoryType
    ssd_gb: float
    utilization: float
    annual_energy_kwh: float
    interconnect: str
    os: str
    cooling: str

    @property
    def is_accelerated(self) -> bool:
        return self.accelerator is not None


@dataclass(frozen=True)
class Top500Dataset:
    """A synthetic Top500 list with its missingness plan."""

    truths: tuple[TrueSystem, ...]
    plan: MissingnessPlan
    seed: int

    def __post_init__(self) -> None:
        if len(self.truths) != 500:
            raise ValueError(f"expected 500 systems, got {len(self.truths)}")
        ranks = [t.rank for t in self.truths]
        if ranks != list(range(1, 501)):
            raise ValueError("systems must be ranked 1..500 in order")

    def truth(self, rank: int) -> TrueSystem:
        """Ground truth for one rank."""
        return self.truths[rank - 1]

    def baseline_records(self) -> list[SystemRecord]:
        """The Baseline scenario: fields visible on top500.org only.

        The record objects are built once per dataset and shared by
        every call (a fresh list each time); sweep workloads re-running
        the study over one dataset therefore hit the vectorized
        engine's per-fleet frame cache.  Treat them as immutable views.
        """
        return list(self._records_view("baseline"))

    def public_records(self) -> list[SystemRecord]:
        """The Baseline+PublicInfo scenario (already enriched).

        The :mod:`repro.enrich` pipeline produces this same view by
        *augmenting* baseline records through the public-info oracle;
        ``tests/integration`` asserts the two constructions agree.
        Like :meth:`baseline_records`, the objects are memoized per
        dataset and must be treated as immutable views.
        """
        return list(self._records_view("public"))

    def _records_view(self, scenario: str) -> tuple[SystemRecord, ...]:
        cache = self.__dict__.setdefault("_view_cache", {})
        view = cache.get(scenario)
        if view is None:
            view = cache[scenario] = tuple(
                self.plan.record_for(t, scenario) for t in self.truths)
        return view

    def true_records(self) -> list[SystemRecord]:
        """Fully visible records (what an omniscient observer would see)."""
        records = []
        for t in self.truths:
            records.append(SystemRecord(
                rank=t.rank, rmax_tflops=t.rmax_tflops,
                rpeak_tflops=t.rpeak_tflops, name=t.name, country=t.country,
                region=t.region, year=t.year, segment=t.segment,
                vendor=t.vendor, processor=t.processor,
                processor_speed_mhz=t.processor_speed_mhz,
                total_cores=t.total_cores,
                accelerator=t.accelerator,
                accelerator_cores=t.accelerator_cores or None,
                n_nodes=t.n_nodes, interconnect=t.interconnect, os=t.os,
                nmax=t.nmax, power_kw=t.power_kw,
                energy_efficiency=t.energy_efficiency,
                n_cpus=t.n_cpus, n_gpus=t.n_gpus or None,
                memory_gb=t.memory_gb, memory_type=t.memory_type,
                ssd_gb=t.ssd_gb, utilization=t.utilization,
                annual_energy_kwh=t.annual_energy_kwh, cooling=t.cooling))
        return records


def generate_top500(seed: int = DEFAULT_SEED) -> Top500Dataset:
    """Generate the synthetic list (deterministic for a given seed)."""
    import numpy as np

    from repro.data.missingness import build_plan
    from repro.data.truth import generate_true_system

    with obs.span("data.generate", seed=seed):
        rng = np.random.default_rng(seed)
        plan = build_plan(rng)
        truths = []
        for rank in range(1, 501):
            truths.append(generate_true_system(
                rank, rng, accelerated=rank in plan.accelerated_ranks))
        return Top500Dataset(truths=tuple(truths), plan=plan, seed=seed)


@lru_cache(maxsize=4)
def default_dataset(seed: int = DEFAULT_SEED) -> Top500Dataset:
    """Cached dataset for ``seed`` (used by the CLI, examples, benchmarks).

    The default seed's list is read from the committed snapshot; a
    snapshot that does not match this code raises rather than falling
    back to synthesis.  Other seeds are generated.
    """
    if seed == DEFAULT_SEED:
        from repro.data import snapshot
        return snapshot.load()
    return generate_top500(seed)
