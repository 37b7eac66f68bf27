"""Regeneration of every figure and table in the paper's evaluation.

Each ``figure*``/``table*`` function returns the figure's underlying
numbers as rendered text.  Reference-path figures (3, 7, 8, 9, 10, 11,
Table II, headline) are computed from the paper's own per-system data
(:mod:`repro.data.paper_table`), so they reproduce the printed values;
model-path figures (2, 4, 5, 6, Table I) run the EasyC pipeline on the
synthetic list via :class:`repro.study.Top500CarbonStudy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.equivalences import equivalences
from repro.core.metrics import KeyMetric, metric_present
from repro.core.uncertainty import DEFAULT_MC_SAMPLES
from repro.reporting.charts import bar_chart, series_summary
from repro.reporting.tables import render_table

if TYPE_CHECKING:
    from repro.analysis.series import CarbonSeries
    from repro.study import StudyResult

# The analysis, coverage and Table II modules are imported inside the
# figures that use them: ``repro scenarios``/``shift``/``project``
# render cubes through this module and must not load the study stack.

#: Total Rmax of the November-2024 list (TFlop/s), used where the
#: reference path needs performance (the appendix table has none).
REFERENCE_TOTAL_RMAX_TFLOPS: float = 11.72e6


def reference_series(footprint: str, scenario: str) -> CarbonSeries:
    """A :class:`CarbonSeries` built from the paper's Table II.

    Args:
        footprint: ``"operational"`` or ``"embodied"``.
        scenario: ``"top500"``, ``"public"`` or ``"interpolated"``.
    """
    from repro.analysis.series import CarbonSeries
    from repro.data.paper_table import load_paper_table

    values: dict[int, float | None] = {}
    for system in load_paper_table():
        metric = getattr(system, footprint)
        values[system.rank] = getattr(metric, scenario)
    return CarbonSeries(footprint=footprint, scenario=f"paper-{scenario}",
                        values=values)


# ---------------------------------------------------------------------------
# Model-path figures (synthetic list through the EasyC pipeline)
# ---------------------------------------------------------------------------

def figure2(study: StudyResult) -> str:
    """Missing-data-items histogram over the baseline records."""
    from repro.coverage.analyzer import missing_items_histogram

    hist = missing_items_histogram(list(study.baseline_records))
    labels = [str(k) if k else "None" for k in hist]
    return bar_chart(labels, [float(v) for v in hist.values()],
                     title="Fig 2: # systems missing k structural data items "
                           "(top500.org view)")


def table1(study: StudyResult) -> str:
    """Key-metric incompleteness, Baseline vs Baseline+PublicInfo."""
    rows = []
    for metric in KeyMetric:
        base_missing = sum(
            not metric_present(r, metric) for r in study.baseline_records)
        pub_missing = sum(
            not metric_present(r, metric) for r in study.public_records)
        rows.append((metric.value, base_missing, pub_missing))
    return render_table(
        ("Type", "# Incomplete [Top500.org]", "# Incomplete [Other Public]"),
        rows, title="Table I: EasyC data requirements vs availability")


def figure4(study: StudyResult) -> str:
    """Coverage: GHG protocol vs EasyC vs EasyC+public, both footprints."""
    from repro.ghg.protocol import GhgProtocolCalculator
    ghg = GhgProtocolCalculator()
    ghg_op = sum(ghg.can_report_scope2(r) for r in study.public_records)
    ghg_emb = sum(ghg.can_report_scope3(r) for r in study.public_records)
    rows = [
        ("Operational", ghg_op,
         study.baseline_coverage.operational.n_covered,
         study.public_coverage.operational.n_covered),
        ("Embodied", ghg_emb,
         study.baseline_coverage.embodied.n_covered,
         study.public_coverage.embodied.n_covered),
    ]
    return render_table(
        ("Footprint", "GHG protocol", "EasyC (top500.org)", "EasyC (+public)"),
        rows, title="Fig 4: carbon-footprint reporting coverage (# of 500)")


def _coverage_range_table(study: StudyResult, footprint: str,
                          title: str) -> str:
    from repro.coverage.rank_ranges import coverage_by_rank_range

    base_cov = getattr(study.baseline_coverage, footprint)
    pub_cov = getattr(study.public_coverage, footprint)
    base_rows = coverage_by_rank_range(base_cov)
    pub_rows = coverage_by_rank_range(pub_cov)
    rows = [(b.label, round(b.percent_covered, 1), round(p.percent_covered, 1))
            for b, p in zip(base_rows, pub_rows)]
    return render_table(
        ("Rank range", "% covered (top500.org)", "% covered (+public)"),
        rows, title=title)


def figure5(study: StudyResult) -> str:
    """Operational coverage by rank range, both scenarios."""
    return _coverage_range_table(
        study, "operational",
        "Fig 5: operational-carbon coverage by Top500 rank range")


def figure6(study: StudyResult) -> str:
    """Embodied coverage by rank range, both scenarios."""
    return _coverage_range_table(
        study, "embodied",
        "Fig 6: embodied-carbon coverage by Top500 rank range")


# ---------------------------------------------------------------------------
# Reference-path figures (the paper's own per-system data)
# ---------------------------------------------------------------------------

def figure3() -> str:
    """Carbon vs rank under the top500.org-only scenario."""
    parts = []
    for footprint, cap in (("operational", 100), ("embodied", 50)):
        series = reference_series(footprint, "top500")
        parts.append(series_summary(
            series.points(),
            title=f"Fig 3{'a' if footprint == 'operational' else 'b'}: "
                  f"{footprint} carbon vs rank, top500.org data "
                  f"({series.n_covered} systems; paper y-max {cap}k MT)",
            unit=" MT"))
    return "\n\n".join(parts)


def figure7() -> str:
    """Total and average carbon: covered sets vs interpolated 500."""
    from repro.analysis.aggregate import totals_of

    rows = []
    for footprint in ("operational", "embodied"):
        covered = reference_series(footprint, "public")
        completed = reference_series(footprint, "interpolated")
        cov_t = totals_of(covered)
        comp_t = totals_of(completed)
        increase = 100.0 * (comp_t.total_mt - cov_t.total_mt) / cov_t.total_mt
        rows.append((footprint, cov_t.n_systems,
                     round(cov_t.total_mt / 1e3, 1),
                     round(comp_t.total_mt / 1e3, 1),
                     round(increase, 2),
                     round(cov_t.average_mt / 1e3, 2),
                     round(comp_t.average_mt / 1e3, 2)))
    return render_table(
        ("Footprint", "# covered", "Total covered (kMT)",
         "Total 500 (kMT)", "Interp +%", "Avg covered (kMT)", "Avg 500 (kMT)"),
        rows,
        title="Fig 7: Top 500 total and average carbon "
              "(covered vs interpolation-completed)")


def figure8() -> str:
    """Full-assessment carbon vs rank (all 500, interpolated)."""
    parts = []
    for footprint in ("operational", "embodied"):
        series = reference_series(footprint, "interpolated")
        parts.append(series_summary(
            series.points(),
            title=f"Fig 8{'a' if footprint == 'operational' else 'b'}: "
                  f"{footprint} carbon vs rank, full 500 (interpolated)",
            unit=" MT"))
    return "\n\n".join(parts)


def figure9() -> str:
    """Per-system change from adding public information."""
    from repro.analysis.sensitivity import compare_scenarios
    from repro.analysis.series import CarbonSeries

    parts = []
    for footprint in ("operational", "embodied"):
        baseline = reference_series(footprint, "top500")
        public_vals = {
            rank: (v if baseline.values.get(rank) is not None else None)
            for rank, v in reference_series(footprint, "public").values.items()
        }
        public = CarbonSeries(footprint=footprint, scenario="paper-public",
                              values=public_vals)
        sens = compare_scenarios(baseline, public)
        full_public = reference_series(footprint, "public")
        total_change = full_public.total_mt() - baseline.total_mt()
        pct = 100.0 * total_change / baseline.total_mt()
        changed = [(r, d) for r, d in sens.diffs.values.items()
                   if d is not None and d != 0.0]
        parts.append(
            f"Fig 9 ({footprint}): {len(changed)} systems changed; "
            f"max increase {sens.max_increase_mt:+,.0f} MT, "
            f"max decrease {sens.max_decrease_mt:+,.0f} MT; "
            f"total change {total_change:+,.0f} MT ({pct:+.2f}%) incl. "
            f"newly covered systems")
    return "\n".join(parts)


def figure9_cube(cube, scenario, baseline=0,
                 footprints=("operational", "embodied")) -> str:
    """Fig-9-style sensitivity table for any two scenarios of a cube.

    Figure 9 quantifies what the *data* scenario change (top500.org →
    +public info) does to per-system estimates; this renders exactly
    the same statistics for an arbitrary *model* scenario pair taken
    from a :class:`~repro.scenarios.ScenarioCube` — "what does PUE 1.3
    change?" reported in the paper's own terms, via
    :func:`repro.analysis.sensitivity.cube_sensitivity`.

    Args:
        cube: a scenario cube from :func:`repro.scenarios.sweep`.
        scenario: the changed scenario (cube index or name).
        baseline: the reference scenario (default: the cube's first).
        footprints: which footprints to tabulate.
    """
    from repro.analysis.sensitivity import cube_sensitivity

    base_name = cube.specs[cube.index(baseline)].name
    scen_name = cube.specs[cube.index(scenario)].name
    rows = []
    for footprint in footprints:
        sens = cube_sensitivity(cube, scenario, footprint,
                                baseline=baseline)
        rows.append((
            footprint,
            sens.n_both_covered,
            sens.n_newly_covered,
            round(sens.total_baseline_mt / 1e3, 1),
            round(sens.total_public_mt / 1e3, 1),
            f"{sens.total_change_percent:+.2f}",
            f"{sens.max_increase_mt:+,.0f}",
            f"{sens.max_decrease_mt:+,.0f}",
            f"{100.0 * sens.max_relative_change:.1f}",
        ))
    return render_table(
        ("Footprint", "# both", "# newly", "Base (kMT)", "Scenario (kMT)",
         "Total Δ%", "Max +MT", "Max -MT", "Max |Δ|%"),
        rows,
        title=f"Fig 9-style scenario delta: {base_name!r} → {scen_name!r}")


def cube_table(cube, footprints=("operational", "embodied"),
               baseline=0, *, bands: bool = False,
               n_samples: int = DEFAULT_MC_SAMPLES,
               band_kind: str = "quantile") -> str:
    """Render a whole :class:`~repro.scenarios.ScenarioCube` as one table.

    The multi-scenario view `figure9_cube` deliberately is not: every
    scenario of the cube, every requested footprint, totals + coverage
    + delta against the baseline scenario, optionally with per-scenario
    Monte-Carlo p5-p95 bands.  This is what ``repro scenarios`` prints.

    Args:
        cube: a scenario cube from :func:`repro.scenarios.sweep`.
        footprints: which footprints to column-ize.
        baseline: the delta reference scenario (index/name/spec), or
            ``None`` to suppress delta columns.
        bands: append a p5-p95 band column per footprint (operational
            and embodied share the cube's uncertainty machinery); all
            scenarios of a footprint are drawn as one batched kernel
            (:meth:`~repro.scenarios.ScenarioCube.band_stack`).
        n_samples: Monte-Carlo draws per band.
        band_kind: ``"quantile"`` (sampled percentiles — the reference
            semantics) or ``"normal"`` (``mean ± 1.645·σ``).
    """
    headers = ["Scenario", "Covered"]
    for footprint in footprints:
        headers.append(f"{footprint} (kMT)")
        if baseline is not None:
            headers.append("Δ%")
        if bands:
            headers.append("p5-p95 (kMT)")
    rows = []
    per_footprint = {fp: cube.table_rows(fp, baseline) for fp in footprints}
    stacks = {fp: cube.band_stack(fp, n_samples=n_samples)
              for fp in footprints} if bands else {}
    for s, spec in enumerate(cube.specs):
        row: list[object] = [spec.name,
                             f"{cube.n_covered(s)}/{cube.n_systems}"]
        for footprint in footprints:
            _, total, _, delta = per_footprint[footprint][s]
            row.append(round(total / 1e3, 1))
            if baseline is not None:
                row.append(f"{delta:+.1f}")
            if bands:
                band = stacks[footprint].band(s, kind=band_kind)
                row.append(f"{band.p5_mt / 1e3:,.1f} - "
                           f"{band.p95_mt / 1e3:,.1f}")
        rows.append(tuple(row))
    return render_table(
        tuple(headers), rows,
        title=f"Scenario cube: {cube.n_scenarios} scenarios x "
              f"{cube.n_systems} systems")


def shift_table(cube, footprint: str = "operational", *,
                bands: bool = False, band_window=None,
                n_samples: int = DEFAULT_MC_SAMPLES,
                band_kind: str = "quantile") -> str:
    """Load-shifting table for a :class:`~repro.scenarios.ShiftCube`.

    One row per scenario, one column per hour window (totals in kMT),
    closing with the best-window multiple of the first window — the
    hour-axis sibling of :func:`figure10_cube`.  This is what
    ``repro shift`` prints.

    Args:
        cube: a :class:`~repro.scenarios.ShiftCube` from
            :func:`repro.scenarios.shift_sweep`.
        footprint: which footprint to tabulate (embodied is
            hour-invariant — its columns repeat the base total).
        bands: append the Monte-Carlo p5-p95 band (kMT) at
            ``band_window`` — all scenarios sampled as one batched
            kernel (:meth:`~repro.scenarios.ShiftCube.band_stack`).
        band_window: window name/index for the band column (default:
            the first window).
        n_samples: Monte-Carlo draws per band.
        band_kind: ``"quantile"`` (sampled percentiles — the reference
            semantics) or ``"normal"`` (``mean ± 1.645·σ``).
    """
    headers = ["Scenario"] + list(cube.window_names) + ["best x"]
    stack = None
    if bands:
        band_window = 0 if band_window is None else band_window
        w = cube.window_index(band_window)
        headers.append(f"p5-p95@{cube.windows[w].name} (kMT)")
        stack = cube.band_stack(footprint, w, n_samples=n_samples)
    rows = []
    for s, (name, per_window, multiple) in \
            enumerate(cube.table_rows(footprint)):
        row = [name] + [round(v, 1) for v in per_window] \
            + [round(multiple, 3)]
        if bands:
            band = stack.band(s, kind=band_kind)
            row.append(f"{band.p5_mt / 1e3:,.1f} - {band.p95_mt / 1e3:,.1f}")
        rows.append(tuple(row))
    return render_table(
        tuple(headers), rows,
        title=f"Load-shifting sweep: {cube.n_scenarios} scenarios x "
              f"{cube.n_windows} hour windows x {cube.n_systems} systems "
              f"({footprint}, kMT)")


def _reference_projection_cube():
    """The paper-defaults engine cube over the reference-path totals.

    Both Fig. 10 and Fig. 11 render from this one
    :class:`~repro.projection.ProjectionCube`, so the figures and the
    temporal engine cannot drift: the cube's totals are bit-identical
    to ``CarbonProjection.paper_defaults`` (asserted in
    ``tests/projection``) and any change to the engine's paper-defaults
    scenario shows up in the rendered tables immediately.
    """
    from repro.projection.growth import CarbonProjection
    op_total = reference_series("operational", "interpolated").total_mt()
    emb_total = reference_series("embodied", "interpolated").total_mt()
    return CarbonProjection.paper_defaults(op_total, emb_total).cube()


def figure10() -> str:
    """Projected totals 2024-2030 (through the temporal engine)."""
    cube = _reference_projection_cube()
    op = cube.totals("operational")[0]
    emb = cube.totals("embodied")[0]
    rows = [(str(year), round(op[yi] / 1e3, 1), round(emb[yi] / 1e3, 1))
            for yi, year in enumerate(cube.years)]
    op_x, emb_x = cube.multiplier_at(0, 2030)
    return render_table(
        ("Year", "Operational (kMT)", "Embodied (kMT)"), rows,
        title=f"Fig 10: projected Top 500 carbon (2030 multiples: "
              f"operational {op_x:.2f}x, embodied {emb_x:.2f}x of 2024)")


def figure10_cube(cube, footprint: str = "operational", *,
                  bands: bool = False,
                  n_samples: int = DEFAULT_MC_SAMPLES,
                  band_kind: str = "quantile") -> str:
    """Fig-10-style projection table for any temporal-engine cube.

    One row per scenario, one column per projected year (totals in
    kMT), closing with the end-year multiple of the base year — the
    Fig. 10 bands generalized to arbitrary scenario grids (growth-rate
    axes × decarbonization trajectories × refresh schedules).

    Args:
        cube: a :class:`~repro.projection.ProjectionCube` from
            :func:`repro.projection.project_sweep` (or
            ``StudyResult.project_sweep`` / ``fleets.project_fleet``).
        footprint: which footprint to tabulate.
        bands: append the end-year Monte-Carlo p5-p95 band (kMT) — all
            scenarios sampled as one batched kernel
            (:meth:`~repro.projection.ProjectionCube.band_stack`).
        n_samples: Monte-Carlo draws per band.
        band_kind: ``"quantile"`` (sampled percentiles — the reference
            semantics) or ``"normal"`` (``mean ± 1.645·σ``).
    """
    headers = ["Scenario"] + [str(y) for y in cube.years] \
        + [f"{cube.years[-1]}x"]
    if bands:
        headers.append(f"p5-p95@{cube.years[-1]} (kMT)")
    rows = []
    stack = cube.band_stack(footprint, cube.years[-1],
                            n_samples=n_samples) if bands else None
    for s, (name, yearly, multiple) in enumerate(cube.table_rows(footprint)):
        row = [name] + [round(v, 1) for v in yearly] + [round(multiple, 2)]
        if bands:
            band = stack.band(s, kind=band_kind)
            row.append(f"{band.p5_mt / 1e3:,.1f} - {band.p95_mt / 1e3:,.1f}")
        rows.append(tuple(row))
    return render_table(
        tuple(headers), rows,
        title=f"Fig 10-style projection: {cube.n_scenarios} scenarios x "
              f"{cube.n_years} years x {cube.n_systems} systems "
              f"({footprint}, kMT)")


def figure11() -> str:
    """Performance-per-carbon projection vs the ideal scaling line.

    Fed from the temporal engine: the base ratios come from the same
    projection cube Fig. 10 renders, via
    :meth:`~repro.projection.ProjectionCube.perf_carbon`.
    """
    cube = _reference_projection_cube()
    parts = []
    for footprint in ("operational", "embodied"):
        projection = cube.perf_carbon(REFERENCE_TOTAL_RMAX_TFLOPS,
                                      footprint=footprint)
        rows = [(str(p.year), round(p.projected_pflops_per_kmt, 2),
                 round(p.ideal_pflops_per_kmt, 2))
                for p in projection.series()]
        parts.append(render_table(
            ("Year", "Projected PFlops/kMT", "Ideal (2x/18mo)"), rows,
            title=f"Fig 11 ({footprint}): performance per carbon, "
                  f"gap at 2030 = {projection.gap_at(2030):.1f}x"))
    return "\n\n".join(parts)


def table2_excerpt(n_rows: int = 15) -> str:
    """Top of the per-system table plus the paper's named contrasts."""
    from repro.data.paper_table import load_paper_table

    rows = []
    for system in load_paper_table()[:n_rows]:
        rows.append((
            system.rank, system.name or "(unnamed)",
            _cell(system.operational.top500), _cell(system.operational.public),
            _cell(system.operational.interpolated),
            _cell(system.embodied.top500), _cell(system.embodied.public),
            _cell(system.embodied.interpolated)))
    table = render_table(
        ("Rank", "System", "Op t500", "Op +pub", "Op +interp",
         "Emb t500", "Emb +pub", "Emb +interp"),
        rows, title="Table II (excerpt): per-system carbon, MT CO2e")
    lumi = _first_named("LUMI").operational.interpolated
    leonardo = _first_named("Leonardo").operational.interpolated
    frontier = _first_named("Frontier").embodied.interpolated
    elcap = _first_named("El Capitan").embodied.interpolated
    notes = (f"\nLeonardo/LUMI operational ratio: {leonardo / lumi:.1f}x "
             f"(paper: 4.3x)\n"
             f"Frontier/El Capitan embodied ratio: {frontier / elcap:.1f}x "
             f"(paper: 2.6x)")
    return table + notes


def headline() -> str:
    """The abstract's numbers, with equivalences."""
    op = reference_series("operational", "interpolated").total_mt()
    emb = reference_series("embodied", "interpolated").total_mt()
    return "\n".join([
        "Headline: carbon footprint of the Top 500 (Nov 2024)",
        f"  operational (1 yr): {equivalences(op).describe()}",
        f"  embodied (1-time) : {equivalences(emb).describe()}",
    ])


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:,.0f}"


def _first_named(name: str):
    from repro.data.paper_table import load_paper_table

    for system in load_paper_table():
        if system.name == name:
            return system
    raise KeyError(name)
