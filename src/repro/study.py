"""End-to-end study orchestration: the paper's whole workflow in one call.

:class:`Top500CarbonStudy` runs the model path over a synthetic list:

1. take the Baseline (top500.org) records and assess them with EasyC;
2. enrich through the public-info oracle and assess again;
3. interpolate the remaining holes (nearest-10-peers);
4. aggregate totals/averages, sensitivity, coverage by rank range;
5. derive turnover growth and project 2025-2030.

Every intermediate product is a cached property of the
:class:`StudyResult`, derived on first read and kept, so figures,
benchmarks, and tests can reach in without re-deriving anything, and
a caller that reads only the public records pays for nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro import obs
from repro.analysis.aggregate import Fig7Row, fig7_rows
from repro.analysis.sensitivity import SensitivityResult, compare_scenarios
from repro.analysis.series import CarbonSeries, series_from_coverage
from repro.core.easyc import EasyC
from repro.core.record import SystemRecord
from repro.coverage.analyzer import CoverageResult, coverage_of
from repro.data.top500 import Top500Dataset, default_dataset
from repro.enrich.pipeline import EnrichmentPipeline, EnrichmentReport
from repro.enrich.public_info import PublicInfoOracle
from repro.interpolate.peers import InterpolatedValue

if TYPE_CHECKING:
    # The projection stack loads on first use: the scenario and shift
    # commands run a study but never project it.
    from repro.projection.growth import CarbonProjection
    from repro.projection.perf_carbon import PerfCarbonProjection
    from repro.projection.turnover import TurnoverModel


@dataclass(frozen=True)
class StudyResult:
    """Everything the study produces, each part derived on first read.

    ``engine`` is the fleet-evaluation path the coverage passes use
    (see :class:`Top500CarbonStudy`).
    """

    dataset: Top500Dataset
    easyc: EasyC
    engine: str = "vectorized"

    # -- records, enrichment, coverage -------------------------------------

    @cached_property
    def baseline_records(self) -> tuple[SystemRecord, ...]:
        """The Baseline (top500.org) view: the dataset's memoized records."""
        return tuple(self.dataset.baseline_records())

    @cached_property
    def public_records(self) -> tuple[SystemRecord, ...]:
        """The Baseline+PublicInfo view: the dataset's memoized records.

        Equal, record for record, to what :attr:`enrichment_report`'s
        pass produces from :attr:`baseline_records`
        (``tests/test_lazy_study.py`` asserts it), so reading it runs
        no enrichment.
        """
        return tuple(self.dataset.public_records())

    @cached_property
    def enrichment_report(self) -> EnrichmentReport:
        """What enriching the baseline through the public-info oracle took."""
        with obs.span("study.enrich"):
            pipeline = EnrichmentPipeline(
                oracle=PublicInfoOracle(dataset=self.dataset))
            _, report = pipeline.enrich(list(self.baseline_records))
        return report

    @cached_property
    def baseline_coverage(self) -> CoverageResult:
        return self._coverage("baseline")

    @cached_property
    def public_coverage(self) -> CoverageResult:
        return self._coverage("public")

    def _coverage(self, scenario: str) -> CoverageResult:
        with obs.span("study.coverage", scenario=scenario):
            return coverage_of(self._records(scenario), scenario,
                               self.easyc, engine=self.engine)

    # -- series ---------------------------------------------------------------

    @cached_property
    def op_baseline(self) -> CarbonSeries:
        return series_from_coverage(
            self.baseline_coverage, "operational", "baseline")

    @cached_property
    def emb_baseline(self) -> CarbonSeries:
        return series_from_coverage(
            self.baseline_coverage, "embodied", "baseline")

    @cached_property
    def op_public(self) -> CarbonSeries:
        return series_from_coverage(
            self.public_coverage, "operational", "public")

    @cached_property
    def emb_public(self) -> CarbonSeries:
        return series_from_coverage(
            self.public_coverage, "embodied", "public")

    @cached_property
    def op_full(self) -> tuple[CarbonSeries, list[InterpolatedValue]]:
        """Operational series completed to all 500 by interpolation."""
        return self.op_public.interpolated()

    @cached_property
    def emb_full(self) -> tuple[CarbonSeries, list[InterpolatedValue]]:
        """Embodied series completed to all 500 by interpolation."""
        return self.emb_public.interpolated()

    # -- aggregates --------------------------------------------------------------

    @cached_property
    def fig7(self) -> tuple[Fig7Row, Fig7Row]:
        return fig7_rows(self.op_public, self.emb_public)

    @cached_property
    def op_sensitivity(self) -> SensitivityResult:
        return compare_scenarios(self.op_baseline, self.op_public)

    @cached_property
    def emb_sensitivity(self) -> SensitivityResult:
        return compare_scenarios(self.emb_baseline, self.emb_public)

    # -- projection ----------------------------------------------------------------

    @cached_property
    def turnover(self) -> TurnoverModel:
        from repro.projection.turnover import TurnoverModel
        op_series, _ = self.op_full
        emb_series, _ = self.emb_full
        op_obs, emb_obs = TurnoverModel.observe(
            {r: v for r, v in op_series.values.items() if v is not None},
            {r: v for r, v in emb_series.values.items() if v is not None})
        return TurnoverModel.from_observations(op_obs, emb_obs)

    @cached_property
    def projection(self) -> CarbonProjection:
        from repro.projection.growth import CarbonProjection
        op_series, _ = self.op_full
        emb_series, _ = self.emb_full
        return CarbonProjection.paper_defaults(
            base_operational_mt=op_series.total_mt(),
            base_embodied_mt=emb_series.total_mt())

    @cached_property
    def total_rmax_tflops(self) -> float:
        return sum(t.rmax_tflops for t in self.dataset.truths)

    # -- scenario sweeps ------------------------------------------------------

    def _records(self, data_scenario: str) -> list:
        """The ``"public"`` or ``"baseline"`` record view, as a list."""
        if data_scenario not in ("public", "baseline"):
            raise ValueError(f"unknown data scenario {data_scenario!r}; "
                             "expected 'public' or 'baseline'")
        return list(getattr(self, f"{data_scenario}_records"))

    def scenario_sweep(self, specs, *, data_scenario: str = "public"):
        """Sweep model scenarios over this study's records as one 2-D kernel.

        The sweep-workload entry point on a finished study: the record
        views and their :class:`~repro.core.vectorized.FleetFrame` are
        already cached per dataset, so only the scenario deltas are
        evaluated.  ``specs`` is an iterable of
        :class:`~repro.scenarios.ScenarioSpec` or a
        :class:`~repro.scenarios.ScenarioGrid`; ``data_scenario``
        selects which record view the model scenarios apply to
        (``"public"`` or ``"baseline"``).

        Returns a :class:`~repro.scenarios.ScenarioCube`.
        """
        from repro.scenarios import sweep
        return sweep(self._records(data_scenario), specs,
                     operational_model=self.easyc.operational_model,
                     embodied_model=self.easyc.embodied_model)

    def project_sweep(self, specs=None, *, years=None, end_year=None,
                      data_scenario: str = "public",
                      use_turnover: bool = False):
        """Temporal projection of this study's fleet (Fig. 10, per record).

        Lowers a scenario grid × a year axis onto the study's cached
        frame via :func:`repro.projection.project_sweep`: per-record
        growth compounding, per-year decarbonization, refresh
        re-spend.  With no arguments this is the paper's Fig. 10
        configuration — the returned
        :class:`~repro.projection.ProjectionCube`'s totals reproduce
        :attr:`projection` (``CarbonProjection.paper_defaults``)
        bit-identically year by year, but over the *model-path*
        records rather than two pre-aggregated totals.

        Args:
            specs: scenario specs or grid (default: baseline).
            years / end_year: the year axis (default 2024-2030).
            data_scenario: ``"public"`` or ``"baseline"`` record view.
            use_turnover: derive default growth rates from this
                study's measured :attr:`turnover` model instead of the
                paper's constants.
        """
        from repro.projection import project_sweep
        return project_sweep(
            self._records(data_scenario), specs, years=years,
            end_year=end_year,
            turnover=self.turnover if use_turnover else None,
            operational_model=self.easyc.operational_model,
            embodied_model=self.easyc.embodied_model)

    def perf_carbon(self, footprint: str) -> PerfCarbonProjection:
        from repro.projection.perf_carbon import perf_carbon_projection
        series = self.op_full[0] if footprint == "operational" else self.emb_full[0]
        return perf_carbon_projection(self.total_rmax_tflops,
                                      series.total_mt(), footprint)


@dataclass(frozen=True)
class Top500CarbonStudy:
    """The runnable study: dataset + models → :class:`StudyResult`.

    ``engine`` selects the fleet-evaluation path: the columnar
    :class:`~repro.core.vectorized.FleetFrame` engine by default (the
    hot path for sweep workloads — the scenario record views and their
    frames are computed once per dataset and reused), or ``"scalar"``
    for the reference per-record loop.
    """

    easyc: EasyC = EasyC()
    engine: str = "vectorized"

    def run(self, dataset: Top500Dataset | None = None) -> StudyResult:
        """Bind the dataset (default: :func:`default_dataset`) and models.

        Nothing is computed here: records, enrichment, coverage and
        every figure input are derived when the result is first read.
        """
        return StudyResult(dataset=dataset or default_dataset(),
                           easyc=self.easyc, engine=self.engine)


def run_default_study() -> StudyResult:
    """Module-level convenience: run the study on the default dataset."""
    return Top500CarbonStudy().run()
