"""Named-fleet assessment: the paper's future-work direction.

The summary section: "we would like to model carbon footprint for all
of the US National Science Foundation ACCESS scientific computing
sites, those of the US Department of Energy, or of similar such systems
in Europe or China."  This module generalizes the Top500 pipeline to
*any* named collection of systems: define a :class:`Fleet`, assess it,
get coverage + totals + uncertainty in one report.

Three illustrative built-in fleets (ACCESS-like, DOE-like, EuroHPC-like)
are constructed from public configuration knowledge of representative
systems; they exercise the exact code path an operator would use for a
real portfolio.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.easyc import EasyC
from repro.core.equivalences import Equivalence, equivalences
from repro.core.estimate import SystemAssessment
from repro.core.record import SystemRecord
from repro.core.uncertainty import UncertaintyBand, total_with_uncertainty_arrays
from repro.core.vectorized import embodied_batch, fleet_frame, operational_batch
from repro.hardware.memory import MemoryType


@dataclass(frozen=True)
class Fleet:
    """A named collection of systems to assess together."""

    name: str
    systems: tuple[SystemRecord, ...]

    def __post_init__(self) -> None:
        if not self.systems:
            raise ValueError(f"fleet {self.name!r} has no systems")


@dataclass(frozen=True)
class FleetReport:
    """Assessment outcome for one fleet.

    Totals, coverage counts and the Monte-Carlo band come straight
    from the columnar engine's batch arrays; the full
    :class:`~repro.core.estimate.SystemAssessment` objects are
    materialized lazily on first access to :attr:`assessments` (the
    same laziness :class:`~repro.study.Top500CarbonStudy` uses), so
    portfolio-scale reports never build per-record estimate objects
    unless somebody reads them.
    """

    fleet: str
    operational_total_mt: float
    embodied_total_mt: float
    n_systems: int
    n_operational_covered: int
    n_embodied_covered: int
    operational_band: UncertaintyBand | None
    operational_equivalence: Equivalence
    _records: tuple[SystemRecord, ...] = field(repr=False)
    _easyc: EasyC = field(repr=False)

    @cached_property
    def assessments(self) -> tuple[SystemAssessment, ...]:
        """Full per-system assessments (materialized on first access)."""
        return tuple(self._easyc.assess_fleet(list(self._records)))


def _report_from_arrays(name: str, records: tuple[SystemRecord, ...],
                        ez: EasyC, op_mt: np.ndarray, op_unc: np.ndarray,
                        emb_mt: np.ndarray, emb_unc: np.ndarray,
                        mc_samples: int) -> FleetReport:
    """Build one report from batch-array slices (no estimate objects).

    Totals left-fold the covered values in record order and the band
    samples the same (value, uncertainty) pairs the estimate objects
    would carry, so every number equals the materialized-assessment
    construction bit-for-bit.
    """
    op_covered = ~np.isnan(op_mt)
    emb_covered = ~np.isnan(emb_mt)
    op_total = sum(op_mt[op_covered].tolist())
    band = (total_with_uncertainty_arrays(op_mt, op_unc,
                                          n_samples=mc_samples)
            if bool(op_covered.any()) else None)
    return FleetReport(
        fleet=name,
        operational_total_mt=op_total,
        embodied_total_mt=sum(emb_mt[emb_covered].tolist()),
        n_systems=len(records),
        n_operational_covered=int(op_covered.sum()),
        n_embodied_covered=int(emb_covered.sum()),
        operational_band=band,
        operational_equivalence=equivalences(op_total),
        _records=records,
        _easyc=ez,
    )


def assess_fleet(fleet: Fleet, easyc: EasyC | None = None,
                 mc_samples: int = 2000) -> FleetReport:
    """Assess a named fleet: coverage, totals, uncertainty, equivalences.

    Runs both models over the fleet's cached
    :class:`~repro.core.vectorized.FleetFrame` as batch arrays;
    assessments stay lazy on the report.
    """
    return assess_portfolio((fleet,), easyc,
                            mc_samples=mc_samples).reports[0]


@dataclass(frozen=True)
class PortfolioReport:
    """Per-fleet reports for a portfolio assessed as one batch."""

    reports: tuple[FleetReport, ...]

    @property
    def n_fleets(self) -> int:
        return len(self.reports)

    @property
    def n_systems(self) -> int:
        return sum(r.n_systems for r in self.reports)

    @property
    def operational_total_mt(self) -> float:
        return sum(r.operational_total_mt for r in self.reports)

    @property
    def embodied_total_mt(self) -> float:
        return sum(r.embodied_total_mt for r in self.reports)

    def report(self, fleet_name: str) -> FleetReport:
        for r in self.reports:
            if r.fleet == fleet_name:
                return r
        raise KeyError(f"no fleet named {fleet_name!r} in portfolio "
                       f"(have {[r.fleet for r in self.reports]})")


def assess_portfolio(fleets: Iterable[Fleet], easyc: EasyC | None = None, *,
                     mc_samples: int = 2000) -> PortfolioReport:
    """Assess many fleets as one batched evaluation.

    The paper's future-work scale-out: rather than assessing each
    fleet separately, every system of every fleet is concatenated into
    one :class:`~repro.core.vectorized.FleetFrame` and evaluated in a
    single batch pass — one frame extraction, one factor resolution
    per unique device.  The combined arrays
    are then sliced back into per-fleet :class:`FleetReport`\\ s whose
    numbers are bit-identical to assessing each fleet alone (asserted
    in ``tests/test_fleets_and_cli.py``).
    """
    fleets = tuple(fleets)
    if not fleets:
        raise ValueError("portfolio needs at least one fleet")
    ez = easyc or EasyC()
    all_records = [record for fleet in fleets for record in fleet.systems]
    frame = fleet_frame(all_records)
    op = operational_batch(frame, ez.operational_model)
    emb = embodied_batch(frame, ez.embodied_model)
    reports = []
    offset = 0
    for fleet in fleets:
        stop = offset + len(fleet.systems)
        sl = slice(offset, stop)
        reports.append(_report_from_arrays(
            fleet.name, fleet.systems, ez,
            op.values_mt[sl], op.uncertainty_frac[sl],
            emb.values_mt[sl], emb.uncertainty_frac[sl], mc_samples))
        offset = stop
    return PortfolioReport(reports=tuple(reports))


def sweep_fleet(fleet: Fleet, specs, easyc: EasyC | None = None):
    """Scenario-sweep a named fleet through the 2-D kernel.

    The portfolio what-if entry point: "what do this fleet's footprints
    look like under cleaner grids / longer refresh cycles / different
    utilization?".  ``specs`` is an iterable of
    :class:`~repro.scenarios.ScenarioSpec` or a
    :class:`~repro.scenarios.ScenarioGrid`; returns a
    :class:`~repro.scenarios.ScenarioCube` whose system axis is the
    fleet's ranks.
    """
    from repro.scenarios import sweep

    ez = easyc or EasyC()
    return sweep(list(fleet.systems), specs,
                 operational_model=ez.operational_model,
                 embodied_model=ez.embodied_model)


def project_fleet(fleet: Fleet, specs=None, easyc: EasyC | None = None, *,
                  years=None, end_year=None, turnover=None):
    """Temporal projection of a named fleet's footprints.

    The portfolio planning entry point: "where do this fleet's
    footprints land by 2030 under growth G, a grid decarbonizing at
    rate R, and an L-year refresh cycle?".  ``specs`` is an iterable
    of :class:`~repro.scenarios.ScenarioSpec` or a
    :class:`~repro.scenarios.ScenarioGrid` (default: the paper's
    baseline growth assumptions); returns a
    :class:`~repro.projection.ProjectionCube` whose system axis is the
    fleet's ranks.
    """
    from repro.projection import project_sweep

    ez = easyc or EasyC()
    return project_sweep(list(fleet.systems), specs,
                         years=years, end_year=end_year, turnover=turnover,
                         operational_model=ez.operational_model,
                         embodied_model=ez.embodied_model)


# ---------------------------------------------------------------------------
# Illustrative built-in fleets (representative public configurations)
# ---------------------------------------------------------------------------

def _sys(rank: int, name: str, country: str, region: str | None,
         rmax: float, power: float | None, nodes: int, cpu: str,
         gpu: str | None = None, gpus: int = 0, mem_per_node: float = 512.0,
         ssd_gb: float | None = None, year: int = 2022) -> SystemRecord:
    return SystemRecord(
        rank=rank, name=name, country=country, region=region,
        rmax_tflops=rmax, rpeak_tflops=rmax / 0.7, power_kw=power,
        n_nodes=nodes, processor=cpu, accelerator=gpu,
        n_gpus=gpus or None, memory_gb=nodes * mem_per_node,
        memory_type=MemoryType.DDR4, ssd_gb=ssd_gb, year=year)


#: An ACCESS-like portfolio of US academic systems.
ACCESS_LIKE_FLEET = Fleet(name="access-like", systems=(
    _sys(1, "Frontera-like", "United States", "us-texas", 23_500.0, 6_000.0,
         8_008, "Xeon Platinum 8280 28C 2.7GHz", year=2019),
    _sys(2, "Expanse-like", "United States", "us-california", 5_000.0, 1_300.0,
         728, "AMD EPYC 7742 64C 2.25GHz", year=2020),
    _sys(3, "Anvil-like", "United States", None, 5_300.0, 1_600.0,
         1_000, "AMD EPYC 7763 64C 2.45GHz", year=2021),
    _sys(4, "Delta-like", "United States", "us-illinois", 6_200.0, None,
         124, "AMD EPYC 7763 64C 2.45GHz", "NVIDIA A100", 496, year=2022),
    _sys(5, "Stampede3-like", "United States", "us-texas", 9_800.0, 4_000.0,
         1_858, "Xeon CPU Max 9480", year=2024),
))

#: A DOE-like portfolio of leadership systems.
DOE_LIKE_FLEET = Fleet(name="doe-like", systems=(
    _sys(1, "Frontier-like", "United States", "us-tva", 1_353_000.0, 22_786.0,
         9_408, "AMD Optimized 3rd Generation EPYC 64C 2GHz",
         "AMD Instinct MI250X", 37_632, ssd_gb=716e6, year=2022),
    _sys(2, "Aurora-like", "United States", "us-illinois", 1_012_000.0, 38_698.0,
         10_624, "Xeon CPU Max 9470", "Intel Data Center GPU Max", 63_744,
         ssd_gb=230e6, year=2023),
    _sys(3, "Perlmutter-like", "United States", "us-california", 79_200.0,
         2_590.0, 3_072, "AMD EPYC 7763 64C 2.45GHz", "NVIDIA A100",
         7_168, ssd_gb=35e6, year=2021),
))

#: A EuroHPC-like portfolio.
EUROHPC_LIKE_FLEET = Fleet(name="eurohpc-like", systems=(
    _sys(1, "LUMI-like", "Finland", "fi-hydro-contract", 380_000.0, 7_107.0,
         2_978, "AMD Optimized 3rd Generation EPYC 64C 2GHz",
         "AMD Instinct MI250X", 11_912, ssd_gb=117e6, year=2022),
    _sys(2, "Leonardo-like", "Italy", "it-cineca", 241_000.0, 7_494.0,
         3_456, "Xeon Platinum 8358 32C 2.6GHz", "NVIDIA A100",
         13_824, ssd_gb=106e6, year=2022),
    _sys(3, "MareNostrum5-like", "Spain", "es-bsc", 138_000.0, 2_560.0,
         1_120, "Xeon Platinum 8480+", "NVIDIA H100", 4_480, year=2023),
    _sys(4, "JUWELS-like", "Germany", None, 44_100.0, 1_764.0,
         936, "AMD EPYC 7402 24C 2.8GHz", "NVIDIA A100", 3_744, year=2020),
))

BUILTIN_FLEETS: dict[str, Fleet] = {
    fleet.name: fleet
    for fleet in (ACCESS_LIKE_FLEET, DOE_LIKE_FLEET, EUROHPC_LIKE_FLEET)
}
