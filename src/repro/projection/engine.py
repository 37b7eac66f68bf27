"""The temporal projection engine: scenario grids × a year axis.

The paper's forward-looking results (Fig. 10's compound-growth
projection, Fig. 11's performance-per-carbon trajectory) were served
by two fleet-level multipliers applied to pre-aggregated totals.  This
module lifts them onto the scenario/FleetFrame stack:
:func:`project_sweep` lowers a
:class:`~repro.scenarios.ScenarioGrid` and a year range onto the
fleet's cached :class:`~repro.core.vectorized.FleetFrame` and
evaluates one ``(n_scenarios, n_years, n_systems)`` workload —
per-record compounding of operational growth,
:class:`~repro.grid.intensity.DecarbonizationTrajectory`-driven grid
intensity per year, and per-record embodied re-spend on refresh
schedules — instead of scaling two totals.

Structure of the kernel
-----------------------

The year axis is *separable* for every temporal lever except refresh
re-spend: annual growth and grid-decarbonization factors are uniform
across records, so the cube factorizes as

``value[s, y, i] = base[s, i] × year_factor[s, y]``

where ``base`` is the ordinary 2-D scenario sweep (one
:class:`~repro.scenarios.ScenarioCube`, evaluated once, in-process)
and the year factors are an ``(S, Y)`` matrix.  A :class:`ProjectionCube` stores exactly that factorization:
the year axis costs O(S·Y), not O(S·Y·n), and a 10⁵-system fleet
projects for free once swept.  Refresh scenarios
(``ScenarioSpec.refresh_embodied``) are the exception — each system
re-spends its embodied carbon every ``lifetime_years`` after its own
install year, so their factors are genuinely per-record and stored
densely for those scenario rows only.

Bit-compatibility contracts
---------------------------

* ``value[s, y, i]`` materialized by the cube is **bit-identical** to
  the scalar per-record reference loop
  (:func:`project_scalar_reference`): one multiply of the scalar base
  estimate by a factor computed with the same float ops
  (``tests/projection`` asserts this on randomized grids).
* Cube *totals* apply the year factor **after** the system-axis
  reduction — the float-op order of the paper's own
  :class:`~repro.projection.growth.CarbonProjection`
  (``total × (1 + rate)^Δt``) — so the paper-defaults scenario
  reproduces ``CarbonProjection.paper_defaults`` totals bit-identically
  year by year.  (Summing materialized per-record values agrees to the
  usual last-ulp reassociation; refresh scenarios, which have no
  scalar-totals counterpart, are reduced per record.)
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs, units
from repro.core.embodied import EmbodiedModel
from repro.core.operational import OperationalModel
from repro.core.record import SystemRecord
from repro.core.uncertainty import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_MC_SEED,
    UncertaintyBand,
)
from repro.core.vectorized import FleetFrame, fleet_frame
from repro.projection.turnover import TurnoverModel
from repro.scenarios import spec as spec_mod
from repro.scenarios import (
    FactorCube,
    ScenarioCube,
    ScenarioGrid,
    ScenarioSpec,
    sweep,
    sweep_scalar_reference,
)
from repro.scenarios.spec import _as_specs

__all__ = [
    "BASE_YEAR",
    "END_YEAR",
    "OPERATIONAL_ANNUAL_GROWTH",
    "EMBODIED_ANNUAL_GROWTH",
    "ProjectionCube",
    "ProjectionReference",
    "growth_factor",
    "project_sweep",
    "project_scalar_reference",
    "project_totals",
]

#: The paper's annualized growth rates (48 systems replaced per cycle,
#: +5 % operational / +1 % embodied per cycle, two cycles a year).
OPERATIONAL_ANNUAL_GROWTH: float = 0.103
EMBODIED_ANNUAL_GROWTH: float = 0.02

#: The paper's projection window (Fig. 10 / Fig. 11).
BASE_YEAR: int = 2024
END_YEAR: int = 2030


def growth_factor(rate: float, base_year: float, year: float) -> float:
    """Compound growth multiple of ``year`` relative to ``base_year``.

    The one float-op sequence every growth path shares —
    ``CarbonProjection.at``, the temporal kernel, and the scalar
    reference loop all multiply by exactly this value, which is what
    makes their bit-compatibility checkable.
    """
    return units.compound(1.0, rate, year - base_year)


def _operational_year_factor(spec: ScenarioSpec, rate: float,
                             base_year: int, year: int) -> float:
    """One scenario's operational multiplier for one year.

    Compound growth first, then the (optional) decarbonization
    trajectory's grid factor — the order the scalar reference uses.
    """
    factor = growth_factor(rate, base_year, year)
    if spec.trajectory is not None:
        factor = factor * spec.trajectory.factor(year)
    return factor


def _respend_scalar(install_year: float | None, lifetime: float,
                    rate: float, base_year: int, year: int) -> float:
    """Cumulative embodied multiple under refresh re-spend (scalar).

    The original build counts 1.0 (already spent); every refresh at
    ``install + k·lifetime`` inside ``(base_year, year]`` re-spends the
    system's embodied carbon scaled by entrant intensity growth to the
    refresh date.  Undisclosed install years anchor at ``base_year``.
    """
    install = base_year if install_year is None else install_year
    factor = 1.0
    k = 1
    while True:
        t = install + k * lifetime
        if t > year:
            break
        if t > base_year:
            factor += (1.0 + rate) ** (t - base_year)
        k += 1
    return factor


def _respend_factors(install_year: np.ndarray, lifetime: float,
                     rate: float, base_year: int,
                     years: Sequence[int]) -> np.ndarray:
    """Vectorized :func:`_respend_scalar` over all records and years.

    Terms accumulate in ascending-``k`` order, exactly like the scalar
    loop.  The growth power is evaluated with *Python's* ``pow`` per
    unique install year and gathered — ``numpy``'s vectorized ``pow``
    rounds the last ulp differently from libm for fractional
    exponents, and install years dictionary-encode to a handful of
    uniques anyway — so each ``(year, record)`` cell is bit-identical
    to the scalar loop.
    """
    install = np.where(np.isnan(install_year), float(base_year),
                       install_year)
    unique, inverse = np.unique(install, return_inverse=True)
    factors = np.ones((len(years), len(install)))
    last = years[-1]
    k = 1
    while True:
        t_unique = unique + k * lifetime
        if not bool((t_unique <= last).any()):
            break
        term_unique = np.array([
            (1.0 + rate) ** (float(t) - base_year) for t in t_unique])
        t = t_unique[inverse]
        term = term_unique[inverse]
        for yi, year in enumerate(years):
            mask = (t > base_year) & (t <= year)
            if bool(mask.any()):
                factors[yi, mask] += term[mask]
        k += 1
    return factors


def _resolve_years(years, base_year, end_year) -> tuple[tuple[int, ...], int]:
    if years is None:
        by = BASE_YEAR if base_year is None else int(base_year)
        ey = END_YEAR if end_year is None else int(end_year)
        if ey < by:
            raise ValueError(f"end year {ey} precedes base year {by}")
        return tuple(range(by, ey + 1)), by
    years = tuple(int(y) for y in years)
    if not years:
        raise ValueError("need at least one projection year")
    if list(years) != sorted(set(years)):
        raise ValueError("projection years must be strictly ascending")
    by = years[0] if base_year is None else int(base_year)
    if years[0] < by:
        raise ValueError(
            f"first projection year {years[0]} precedes base year {by}")
    return years, by


def _strip_temporal(spec: ScenarioSpec) -> ScenarioSpec:
    """The atemporal residue of a spec (what the base sweep lowers).

    Trajectories resolve along the year axis, not at lowering time, so
    they (and any pinned ``year``) are stripped; everything else —
    including the temporal growth fields, which atemporal lowering
    ignores — stays put so identity-keyed caches still hit.
    """
    if spec.trajectory is None and spec.year is None:
        return spec
    return dataclasses.replace(spec, trajectory=None, year=None)


def _factor_tables(specs: Sequence[ScenarioSpec],
                   years: Sequence[int], base_year: int,
                   default_op: float, default_emb: float,
                   install_year: np.ndarray | None,
                   ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...],
                              np.ndarray | None]:
    """(op_year_factors, emb_year_factors, refresh_rows, emb_respend)."""
    n_scen, n_years = len(specs), len(years)
    op_factors = np.empty((n_scen, n_years))
    emb_factors = np.ones((n_scen, n_years))
    refresh_rows: list[int] = []
    respend_blocks: list[np.ndarray] = []
    for s, spec in enumerate(specs):
        g_op = spec.operational_growth \
            if spec.operational_growth is not None else default_op
        g_emb = spec.embodied_growth \
            if spec.embodied_growth is not None else default_emb
        for yi, year in enumerate(years):
            op_factors[s, yi] = _operational_year_factor(
                spec, g_op, base_year, year)
        if spec.refresh_embodied:
            if install_year is None:
                raise ValueError(
                    f"scenario {spec.name!r} needs per-record install "
                    "years for refresh re-spend; totals-only projections "
                    "cannot refresh")
            refresh_rows.append(s)
            respend_blocks.append(_respend_factors(
                install_year, spec.lifetime_years, g_emb, base_year, years))
        else:
            for yi, year in enumerate(years):
                emb_factors[s, yi] = growth_factor(g_emb, base_year, year)
    respend = np.stack(respend_blocks) if respend_blocks else None
    return op_factors, emb_factors, tuple(refresh_rows), respend


# One growth-plausibility rule shared with ScenarioSpec construction.
_validate_rate = spec_mod.validate_growth_rate


# ---------------------------------------------------------------------------
# The (scenario × year × system) result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionCube(FactorCube):
    """Scenario × year × system carbon values, factorized over years.

    A :class:`~repro.scenarios.FactorCube` whose axis is the projection
    years: ``base`` is the year-zero
    :class:`~repro.scenarios.ScenarioCube` (the ordinary 2-D sweep);
    the year axis rides as per-scenario factor rows, densified per
    record only for refresh scenarios.  ``values(footprint)``
    materializes the full ``(S, Y, n)`` cube; every reduction that can
    stay factorized does.  Year arguments are calendar years.
    """

    base: ScenarioCube
    base_year: int
    years: tuple[int, ...]
    op_year_factors: np.ndarray            # (S, Y)
    emb_year_factors: np.ndarray           # (S, Y); 1.0 on refresh rows
    refresh_rows: tuple[int, ...] = ()
    emb_respend: np.ndarray | None = None  # (len(refresh_rows), Y, n)

    _BANDS_AT = -1          # bands() defaults to the end year
    _ASCENDING = True
    labels = property(lambda self: self.years)
    op_factors = property(lambda self: self.op_year_factors)
    emb_factors = property(lambda self: self.emb_year_factors)

    # -- the year axis -------------------------------------------------------

    @property
    def n_years(self) -> int:
        return len(self.years)

    def year_index(self, year: int) -> int:
        """Year-axis position of ``year``."""
        try:
            return self.years.index(year)
        except ValueError:
            raise KeyError(f"year {year} not in cube "
                           f"(have {list(self.years)})") from None

    _point_index = year_index
    #: The cube's one-year slice as an ordinary scenario cube.
    at_year = FactorCube.at

    def multiplier_at(self, scenario, year: int) -> tuple[float, float]:
        """(operational, embodied) growth multiples relative to base.

        The Fig. 10 headline statistic ("operational nearly doubles by
        2030"); refresh scenarios report the covered-total ratio since
        their growth is per-record.
        """
        s = self.index(scenario)
        yi = self.year_index(year)
        op = float(self.op_year_factors[s, yi])
        if s in self.refresh_rows:
            totals = self.totals("embodied")
            base = float(self.base.totals("embodied")[s])
            emb = totals[s, yi] / base if base else float("nan")
        else:
            emb = float(self.emb_year_factors[s, yi])
        return op, emb

    def band_series(self, scenario, footprint: str = "operational", *,
                    n_samples: int = DEFAULT_MC_SAMPLES,
                    seed: int = DEFAULT_MC_SEED, method: str = "auto",
                    kind: str = "quantile",
                    ) -> dict[int, UncertaintyBand]:
        """Per-year Monte-Carlo bands for one scenario (Fig. 10 bands).

        All years drawn from one batched kernel; each entry is
        bit-identical to :meth:`band` for that year.
        """
        from repro.uncertainty.mc import mc_band_stack

        s = self.index(scenario)
        values = self.values(footprint)[s]          # (Y, n)
        unc = np.broadcast_to(self.uncertainty(footprint)[s][None, :],
                              values.shape)
        stack = mc_band_stack(values, unc, n_samples=n_samples, seed=seed,
                              method=method)
        return {year: stack.band(yi, kind=kind)
                for yi, year in enumerate(self.years)}

    def perf_carbon(self, total_rmax_tflops: float, scenario=0,
                    footprint: str = "operational", *,
                    slope: float | None = None):
        """The Figure 11 trajectory seeded from this cube's base totals.

        Returns a
        :class:`~repro.projection.perf_carbon.PerfCarbonProjection`
        anchored at the cube's base year — the engine-fed path
        ``figures.figure11`` uses.
        """
        from repro.projection.perf_carbon import (
            PROJECTED_RATIO_SLOPE,
            perf_carbon_projection,
        )
        s = self.index(scenario)
        fp = "embodied" if footprint.startswith("embodied") else footprint
        return perf_carbon_projection(
            total_rmax_tflops, float(self.base.totals(fp)[s]), fp,
            base_year=self.base_year,
            slope=PROJECTED_RATIO_SLOPE if slope is None else slope)

    def table_rows(self, footprint: str = "operational",
                   ) -> list[tuple[str, list[float], float]]:
        """(name, yearly totals in kMT, end-year multiple) per scenario."""
        totals = self.totals(footprint)
        rows = []
        for s, spec in enumerate(self.base.specs):
            yearly = [float(v) / 1e3 for v in totals[s]]
            base = totals[s, 0]
            multiple = float(totals[s, -1] / base) if base else float("nan")
            rows.append((spec.name, yearly, multiple))
        return rows


# ---------------------------------------------------------------------------
# The sweep entry point
# ---------------------------------------------------------------------------

def project_sweep(records: Sequence[SystemRecord],
                  specs: "Iterable[ScenarioSpec] | ScenarioGrid | None" = None,
                  *,
                  years: Sequence[int] | None = None,
                  base_year: int | None = None,
                  end_year: int | None = None,
                  operational_growth: float | None = None,
                  embodied_growth: float | None = None,
                  turnover: TurnoverModel | None = None,
                  operational_model: OperationalModel | None = None,
                  embodied_model: EmbodiedModel | None = None,
                  frame: FleetFrame | None = None) -> ProjectionCube:
    """Project a scenario grid over a fleet along a year axis.

    The temporal sweep entry point: one base
    :func:`~repro.scenarios.sweep` over the cached frame, then
    per-scenario year factors.

    Args:
        records: the fleet.
        specs: scenario specs or a grid (default: the baseline
            scenario → the paper's Fig. 10 configuration).  Specs may
            carry temporal fields (``operational_growth``,
            ``embodied_growth``, ``refresh_embodied`` +
            ``lifetime_years``) and *unpinned* decarbonization
            trajectories — the year axis resolves them.
        years: explicit ascending year axis; default
            ``base_year..end_year`` (the paper's 2024–2030).
        base_year / end_year: projection window when ``years`` is
            omitted; ``base_year`` also anchors growth compounding
            (default: the first year).
        operational_growth / embodied_growth: default annual rates for
            specs that do not override them (paper: 10.3 % / 2 %).
        turnover: derive the default rates from a
            :class:`~repro.projection.TurnoverModel` instead (the
            measured-growth path); explicit rate arguments win.
        operational_model / embodied_model: base models the specs
            override (paper defaults when omitted).
        frame: pre-extracted frame (defaults to the cached one).

    Returns:
        A :class:`ProjectionCube`; the paper-defaults scenario's
        totals reproduce ``CarbonProjection.paper_defaults``
        year-by-year bit-identically.
    """
    specs = _as_specs(specs)
    years, by = _resolve_years(years, base_year, end_year)
    default_op, default_emb = _default_rates(
        operational_growth, embodied_growth, turnover)
    records = list(records)
    if frame is None:
        frame = fleet_frame(records)
    with obs.span("project.sweep", n_scenarios=len(specs),
                  n_years=len(years), n_systems=frame.n):
        base_specs = tuple(_strip_temporal(spec) for spec in specs)
        base = sweep(records, base_specs,
                     operational_model=operational_model,
                     embodied_model=embodied_model,
                     frame=frame)
        with obs.span("project.factors", n_scenarios=len(specs),
                      n_years=len(years)):
            op_f, emb_f, refresh_rows, respend = _factor_tables(
                specs, years, by, default_op, default_emb,
                frame.install_year)
    return ProjectionCube(base=base, base_year=by, years=years,
                          op_year_factors=op_f, emb_year_factors=emb_f,
                          refresh_rows=refresh_rows, emb_respend=respend)


def _default_rates(operational_growth, embodied_growth,
                   turnover: TurnoverModel | None) -> tuple[float, float]:
    if operational_growth is None:
        operational_growth = turnover.operational_annual \
            if turnover is not None else OPERATIONAL_ANNUAL_GROWTH
    if embodied_growth is None:
        embodied_growth = turnover.embodied_annual \
            if turnover is not None else EMBODIED_ANNUAL_GROWTH
    return (_validate_rate("operational growth", operational_growth),
            _validate_rate("embodied growth", embodied_growth))


# ---------------------------------------------------------------------------
# The reference semantics: per-scenario, per-year, per-record loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionReference:
    """Materialized reference result (no factorization, no broadcast)."""

    base: ScenarioCube
    base_year: int
    years: tuple[int, ...]
    operational_mt: np.ndarray   # (S, Y, n)
    embodied_mt: np.ndarray      # (S, Y, n)


def project_scalar_reference(records: Sequence[SystemRecord],
                             specs=None, *,
                             years: Sequence[int] | None = None,
                             base_year: int | None = None,
                             end_year: int | None = None,
                             operational_growth: float | None = None,
                             embodied_growth: float | None = None,
                             turnover: TurnoverModel | None = None,
                             operational_model: OperationalModel | None = None,
                             embodied_model: EmbodiedModel | None = None,
                             ) -> ProjectionReference:
    """The reference implementation: loop scenarios, years, records.

    Base estimates come from the scalar per-record loop
    (:func:`~repro.scenarios.sweep_scalar_reference`); each (scenario,
    year, record) cell is then one Python-float multiply by the
    scenario's year factor (refresh re-spend accumulated per record).
    The engine's materialized :meth:`ProjectionCube.values` must — and,
    per ``tests/projection``, does — match this bit-for-bit.
    """
    specs = _as_specs(specs)
    years, by = _resolve_years(years, base_year, end_year)
    default_op, default_emb = _default_rates(
        operational_growth, embodied_growth, turnover)
    records = list(records)
    base_specs = tuple(_strip_temporal(spec) for spec in specs)
    base = sweep_scalar_reference(records, base_specs,
                                  operational_model=operational_model,
                                  embodied_model=embodied_model)
    n_scen, n_years, n = len(specs), len(years), len(records)
    op_values = np.full((n_scen, n_years, n), np.nan)
    emb_values = np.full((n_scen, n_years, n), np.nan)
    for s, spec in enumerate(specs):
        g_op = spec.operational_growth \
            if spec.operational_growth is not None else default_op
        g_emb = spec.embodied_growth \
            if spec.embodied_growth is not None else default_emb
        for yi, year in enumerate(years):
            op_factor = _operational_year_factor(spec, g_op, by, year)
            emb_factor = growth_factor(g_emb, by, year)
            for i, record in enumerate(records):
                base_op = base.operational_mt[s, i]
                if not np.isnan(base_op):
                    op_values[s, yi, i] = base_op * op_factor
                base_emb = base.embodied_mt[s, i]
                if not np.isnan(base_emb):
                    if spec.refresh_embodied:
                        factor = _respend_scalar(
                            record.year, spec.lifetime_years, g_emb, by,
                            year)
                    else:
                        factor = emb_factor
                    emb_values[s, yi, i] = base_emb * factor
    return ProjectionReference(base=base, base_year=by, years=years,
                               operational_mt=op_values,
                               embodied_mt=emb_values)


# ---------------------------------------------------------------------------
# Totals-only projection (the reference-path figures, CarbonProjection)
# ---------------------------------------------------------------------------

def project_totals(base_operational_mt: float, base_embodied_mt: float, *,
                   operational_rate: float | None = None,
                   embodied_rate: float | None = None,
                   base_year: int = BASE_YEAR,
                   end_year: int = END_YEAR,
                   years: Sequence[int] | None = None,
                   trajectory=None,
                   name: str = "paper-defaults") -> ProjectionCube:
    """Project two fleet totals through the engine (no records).

    The bridge between the paper's aggregate Fig. 10 arithmetic and
    the temporal engine: the totals become a one-"system" cube, so
    every engine reduction (yearly tables, multipliers, ``perf_carbon``
    seeding) runs through exactly the same code path as a full
    per-record sweep — which is how ``figures.figure10`` and
    :class:`~repro.projection.growth.CarbonProjection` stay incapable
    of drifting from the model.
    """
    if base_operational_mt <= 0 or base_embodied_mt <= 0:
        raise ValueError("base totals must be positive")
    op_rate = OPERATIONAL_ANNUAL_GROWTH \
        if operational_rate is None else operational_rate
    emb_rate = EMBODIED_ANNUAL_GROWTH \
        if embodied_rate is None else embodied_rate
    spec = ScenarioSpec(name=name, trajectory=trajectory,
                        operational_growth=_validate_rate(
                            "operational rate", op_rate),
                        embodied_growth=_validate_rate(
                            "embodied rate", emb_rate))
    base = ScenarioCube(
        specs=(spec,), ranks=(0,), names=("fleet-total",),
        operational_mt=np.array([[float(base_operational_mt)]]),
        operational_unc=np.array([[0.0]]),
        embodied_mt=np.array([[float(base_embodied_mt)]]),
        embodied_unc=np.array([[0.0]]),
        lifetime_years=np.array([1.0]),
    )
    years, by = _resolve_years(years, base_year, end_year)
    op_f, emb_f, refresh_rows, respend = _factor_tables(
        (spec,), years, by, op_rate, emb_rate, None)
    return ProjectionCube(base=base, base_year=by, years=years,
                          op_year_factors=op_f, emb_year_factors=emb_f,
                          refresh_rows=refresh_rows, emb_respend=respend)
