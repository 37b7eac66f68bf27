"""End-to-end study orchestration: the paper's whole workflow in one call.

:class:`Top500CarbonStudy` runs the model path over a synthetic list:

1. take the Baseline (top500.org) records and assess them with EasyC;
2. enrich through the public-info oracle and assess again;
3. interpolate the remaining holes (nearest-10-peers);
4. aggregate totals/averages, sensitivity, coverage by rank range;
5. derive turnover growth and project 2025-2030.

Every intermediate product is kept on the :class:`StudyResult` so
figures, benchmarks, and tests can reach in without re-deriving
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

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
    """Everything the study produced, lazily derived where cheap."""

    dataset: Top500Dataset
    easyc: EasyC
    baseline_records: tuple[SystemRecord, ...]
    public_records: tuple[SystemRecord, ...]
    baseline_coverage: CoverageResult
    public_coverage: CoverageResult
    enrichment_report: EnrichmentReport

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
        if data_scenario == "public":
            records = list(self.public_records)
        elif data_scenario == "baseline":
            records = list(self.baseline_records)
        else:
            raise ValueError(f"unknown data scenario {data_scenario!r}; "
                             "expected 'public' or 'baseline'")
        return sweep(records, specs,
                     operational_model=self.easyc.operational_model,
                     embodied_model=self.easyc.embodied_model)

    def project_sweep(self, specs=None, *, years=None, end_year=None,
                      data_scenario: str = "public",
                      use_turnover: bool = False,
                      parallel: str | None = None,
                      max_workers: int | None = None):
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
            parallel / max_workers: forwarded to the base sweep
                (``"scenario-block"`` fans over the shm pool).
        """
        from repro.projection import project_sweep
        if data_scenario == "public":
            records = list(self.public_records)
        elif data_scenario == "baseline":
            records = list(self.baseline_records)
        else:
            raise ValueError(f"unknown data scenario {data_scenario!r}; "
                             "expected 'public' or 'baseline'")
        return project_sweep(
            records, specs, years=years, end_year=end_year,
            turnover=self.turnover if use_turnover else None,
            operational_model=self.easyc.operational_model,
            embodied_model=self.easyc.embodied_model,
            parallel=parallel, max_workers=max_workers)

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
    hot path for sweep workloads — scenario record views, their
    frames, and the enrichment pass are all computed once per dataset
    and reused), or ``"scalar"`` for the reference per-record loop.
    """

    easyc: EasyC = EasyC()
    engine: str = "vectorized"

    def run(self, dataset: Top500Dataset | None = None) -> StudyResult:
        """Execute the full workflow (milliseconds for 500 systems)."""
        ds = dataset or default_dataset()
        baseline = ds.baseline_records()
        public, report = self._enrich(ds, baseline)
        return StudyResult(
            dataset=ds,
            easyc=self.easyc,
            baseline_records=tuple(baseline),
            public_records=tuple(public),
            baseline_coverage=coverage_of(baseline, "baseline", self.easyc,
                                          engine=self.engine),
            public_coverage=coverage_of(public, "public", self.easyc,
                                        engine=self.engine),
            enrichment_report=report,
        )

    @staticmethod
    def _enrich(ds: Top500Dataset, baseline) -> tuple[list, EnrichmentReport]:
        """Run (and per-dataset memoize) the enrichment pass.

        Enrichment is deterministic for a dataset, and reusing the
        enriched record objects lets the engine's frame cache hit
        across repeated study runs over one dataset.  The memo keys on
        the identity of the cached baseline records, so a caller
        passing its own record list still gets a fresh pass.
        """
        memo = ds.__dict__.get("_enrich_memo")
        if memo is not None and len(memo[0]) == len(baseline) and \
                all(a is b for a, b in zip(memo[0], baseline)):
            return list(memo[1]), memo[2]
        pipeline = EnrichmentPipeline(oracle=PublicInfoOracle(dataset=ds))
        public, report = pipeline.enrich(baseline)
        ds.__dict__["_enrich_memo"] = (tuple(baseline), tuple(public), report)
        return public, report


def run_default_study() -> StudyResult:
    """Module-level convenience: run the study on the default dataset."""
    return Top500CarbonStudy().run()
