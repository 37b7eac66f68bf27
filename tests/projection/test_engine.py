"""The temporal projection engine: the (scenario × year × system) cube.

The hard contracts:

* materialized cube values bit-identical to the scalar per-record
  reference loop (`project_scalar_reference`) on randomized grids,
  years, and degraded fleets;
* the paper-defaults scenario's totals bit-identical to
  `CarbonProjection.paper_defaults`, year by year (the Fig. 10 anchor:
  ≈1.8× operational / ≈1.1× embodied at 2030);
* `ProjectionCube.save_npz` an exact round trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import scenarios
from repro.core.record import SystemRecord
from repro.core.vectorized import FleetFrame
from repro.fleets import DOE_LIKE_FLEET, project_fleet
from repro.grid.intensity import DecarbonizationTrajectory
from repro.projection import (
    CarbonProjection,
    ProjectionCube,
    project_scalar_reference,
    project_sweep,
    project_totals,
)
from repro.projection.engine import _respend_scalar
from repro.scenarios import (
    ScenarioGrid,
    ScenarioSpec,
    aci_scale_axis,
    baseline_spec,
    growth_axis,
    pue_axis,
    refresh_axis,
    trajectory_axis,
    utilization_axis,
)

YEARS = tuple(range(2024, 2031))


def acceptance_grid() -> ScenarioGrid:
    """The 64-scenario acceptance grid from PR 2/3, reused temporally."""
    return ScenarioGrid.cartesian(
        aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
        pue_axis((1.0, 1.1, 1.2, 1.3)),
        utilization_axis((0.5, 0.65, 0.8, 0.95)),
    )


def assert_projections_identical(cube: ProjectionCube, reference):
    """Bit-identity of materialized values against the scalar loop."""
    assert cube.years == reference.years
    assert np.array_equal(cube.values("operational"),
                          reference.operational_mt, equal_nan=True)
    assert np.array_equal(cube.values("embodied"),
                          reference.embodied_mt, equal_nan=True)


# ---------------------------------------------------------------------------
# The paper anchor
# ---------------------------------------------------------------------------

class TestPaperDefaults:
    @pytest.fixture(scope="class")
    def cube(self, study) -> ProjectionCube:
        return study.project_sweep()

    def test_shape_is_scenario_year_system(self, cube):
        assert (cube.n_scenarios, cube.n_years, cube.n_systems) == (1, 7, 500)
        assert cube.years == YEARS
        assert cube.values("operational").shape == (1, 7, 500)

    def test_totals_bit_identical_to_carbon_projection(self, cube):
        """The acceptance criterion: the engine's paper-defaults
        scenario reproduces CarbonProjection.paper_defaults totals
        bit-identically year by year."""
        projection = CarbonProjection.paper_defaults(
            float(cube.base.totals("operational")[0]),
            float(cube.base.totals("embodied")[0]))
        op = cube.totals("operational")[0]
        emb = cube.totals("embodied")[0]
        for yi, year in enumerate(cube.years):
            point = projection.at(year)
            assert op[yi] == point.operational_mt
            assert emb[yi] == point.embodied_mt

    def test_2030_multipliers_match_paper(self, cube):
        op_x, emb_x = cube.multiplier_at(0, 2030)
        assert op_x == pytest.approx(1.80, abs=0.02)
        assert emb_x == pytest.approx(1.13, abs=0.02)

    def test_carbon_projection_cube_is_bit_compatible(self):
        projection = CarbonProjection.paper_defaults(1_393_725.0,
                                                     1_881_797.0)
        cube = projection.cube()
        for yi, point in enumerate(projection.series()):
            assert cube.totals("operational")[0, yi] == point.operational_mt
            assert cube.totals("embodied")[0, yi] == point.embodied_mt
        # The cube reports the growth factor itself; the wrapper's
        # multiplier divides base×factor back by base (one rounding).
        op_x, emb_x = projection.multiplier_at(2030)
        assert cube.multiplier_at(0, 2030) == \
            (pytest.approx(op_x, rel=1e-14), pytest.approx(emb_x, rel=1e-14))

    def test_per_record_values_compound_uniformly(self, cube):
        base = cube.base.operational_mt[0]
        y2030 = cube.values("operational", 2030)[0]
        covered = ~np.isnan(base)
        factor = cube.op_year_factors[0, -1]
        assert np.array_equal(y2030[covered], base[covered] * factor)

    def test_coverage_is_year_invariant(self, cube):
        assert np.array_equal(cube.coverage("operational"),
                              cube.base.coverage("operational"))
        assert cube.at_year(2030).n_covered(0, "operational") == \
            cube.base.n_covered(0, "operational")


# ---------------------------------------------------------------------------
# Bit-identity against the scalar reference loop
# ---------------------------------------------------------------------------

def record_strategy():
    """Random plausible SystemRecords, partially masked (mirrors
    tests/scenarios), with install years for the refresh path."""
    return st.builds(
        _build_record,
        rank=st.integers(min_value=1, max_value=500),
        rmax=st.floats(min_value=1e3, max_value=2e6),
        power=st.one_of(st.none(), st.floats(min_value=50.0, max_value=4e4)),
        nodes=st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)),
        accel=st.sampled_from([None, "NVIDIA H100", "Unknown NPU"]),
        country=st.sampled_from([None, "United States", "Finland",
                                 "Atlantis"]),
        year=st.one_of(st.none(), st.integers(min_value=2015,
                                              max_value=2024)),
    )


def _build_record(rank, rmax, power, nodes, accel, country, year):
    return SystemRecord(
        rank=rank, rmax_tflops=rmax, rpeak_tflops=rmax / 0.7,
        country=country, power_kw=power, n_nodes=nodes,
        processor="epyc-7763" if nodes is not None else None,
        accelerator=accel,
        n_gpus=nodes * 4 if accel is not None and nodes is not None else None,
        memory_gb=nodes * 512.0 if nodes is not None else None,
        year=year,
    )


def temporal_spec_strategy():
    """Random scenario overrides across atemporal + temporal families."""
    return st.builds(
        _build_spec,
        aci_scale=st.one_of(st.none(),
                            st.floats(min_value=0.25, max_value=2.0)),
        pue=st.one_of(st.none(), st.floats(min_value=1.0, max_value=2.0)),
        op_growth=st.one_of(st.none(),
                            st.floats(min_value=-0.2, max_value=0.5)),
        emb_growth=st.one_of(st.none(),
                             st.floats(min_value=-0.2, max_value=0.5)),
        decline=st.one_of(st.none(),
                          st.floats(min_value=0.0, max_value=0.2)),
        lifetime=st.one_of(st.none(),
                           st.floats(min_value=1.0, max_value=8.0)),
        refresh=st.booleans(),
    )


def _build_spec(aci_scale, pue, op_growth, emb_growth, decline, lifetime,
                refresh):
    return ScenarioSpec(
        name="s",
        aci_scale=aci_scale,
        measured_power_pue=pue,
        operational_growth=op_growth,
        embodied_growth=emb_growth,
        trajectory=(DecarbonizationTrajectory(base_year=2024,
                                              annual_decline=decline)
                    if decline is not None else None),
        lifetime_years=lifetime,
        refresh_embodied=bool(refresh and lifetime is not None) or None,
    )


class TestScalarReferenceIdentity:
    @staticmethod
    def _named(specs):
        return tuple(
            ScenarioSpec(**{**spec.__dict__, "name": f"s{i}"})
            for i, spec in enumerate(specs))

    @given(st.lists(record_strategy(), min_size=1, max_size=8),
           st.lists(temporal_spec_strategy(), min_size=1, max_size=4),
           st.integers(min_value=2025, max_value=2034))
    @settings(max_examples=30, deadline=None)
    def test_randomized_grids_match_scalar_loop(self, records, specs,
                                                end_year):
        specs = self._named(specs)
        frame = FleetFrame.from_records(records)
        cube = project_sweep(records, specs, end_year=end_year, frame=frame)
        reference = project_scalar_reference(records, specs,
                                             end_year=end_year)
        assert_projections_identical(cube, reference)

    def test_acceptance_grid_on_study_fleet(self, dataset):
        records = dataset.public_records()
        cube = project_sweep(records, acceptance_grid())
        reference = project_scalar_reference(records, acceptance_grid())
        assert_projections_identical(cube, reference)
        # The base cube is the ordinary 2-D sweep of the same grid.
        atemporal = scenarios.sweep(records, acceptance_grid())
        assert np.array_equal(cube.base.operational_mt,
                              atemporal.operational_mt, equal_nan=True)

    def test_refresh_and_trajectory_axes(self, dataset):
        records = dataset.public_records()[:80]
        grid = ScenarioGrid.cartesian(
            trajectory_axis((
                DecarbonizationTrajectory(base_year=2024,
                                          annual_decline=0.06),
                DecarbonizationTrajectory(base_year=2024,
                                          annual_decline=0.0),
            )),
            refresh_axis((3.0, 5.0)) + growth_axis((0.05,)),
        )
        cube = project_sweep(records, grid)
        reference = project_scalar_reference(records, grid)
        assert_projections_identical(cube, reference)


# ---------------------------------------------------------------------------
# Refresh re-spend semantics
# ---------------------------------------------------------------------------

class TestRefreshSemantics:
    def test_scalar_respend_schedule(self):
        # Installed 2021, 4-year refreshes: 2025 and 2029 fall inside
        # (2024, 2030]; each re-spend grows at the embodied rate.
        factor = _respend_scalar(2021, 4.0, 0.02, 2024, 2030)
        assert factor == pytest.approx(1.0 + 1.02 ** 1 + 1.02 ** 5)
        # Refreshes at/before the base year are history, not re-spend.
        assert _respend_scalar(2020, 4.0, 0.02, 2024, 2024) == 1.0
        # Undisclosed install year anchors at the base year.
        assert _respend_scalar(None, 3.0, 0.0, 2024, 2030) == \
            pytest.approx(3.0)

    def test_refresh_needs_lifetime(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="r", refresh_embodied=True)

    def test_refresh_monotone_and_above_base(self, dataset):
        records = dataset.public_records()[:50]
        cube = project_sweep(records, refresh_axis((4.0,)))
        totals = cube.totals("embodied")[0]
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert totals[-1] > totals[0]

    def test_annualized_undefined_under_refresh(self, dataset):
        """Dividing cumulative re-spend by the lifetime is not a rate:
        the reduction must refuse rather than emit a number that grows
        without bound."""
        records = dataset.public_records()[:20]
        cube = project_sweep(records, refresh_axis((4.0,)))
        with pytest.raises(ValueError):
            cube.totals("embodied_annualized")
        with pytest.raises(ValueError):
            cube.values("embodied_annualized")
        # Non-refresh cubes still annualize.
        plain = project_sweep(records,
                              [ScenarioSpec(name="l", lifetime_years=4.0)])
        assert np.all(plain.totals("embodied_annualized")
                      == plain.totals("embodied") / 4.0)

    def test_operational_unaffected_by_refresh(self, dataset):
        records = dataset.public_records()[:50]
        refresh = project_sweep(records, refresh_axis((4.0,)))
        plain = project_sweep(records, [baseline_spec()])
        assert np.array_equal(refresh.values("operational"),
                              plain.values("operational"), equal_nan=True)


# ---------------------------------------------------------------------------
# Cube reductions, persistence, entry points
# ---------------------------------------------------------------------------

class TestProjectionCube:
    @pytest.fixture(scope="class")
    def cube(self, dataset) -> ProjectionCube:
        records = dataset.public_records()
        grid = ScenarioGrid.cartesian(growth_axis((0.05, 0.103)),
                                      aci_scale_axis((1.0, 0.8)))
        return project_sweep(records, grid)

    def test_axis_lookup(self, cube):
        assert cube.n_scenarios == 4
        assert cube.year_index(2024) == 0
        assert cube.year_index(2030) == 6
        with pytest.raises(KeyError):
            cube.year_index(2031)
        assert cube.index(cube.specs[2].name) == 2

    def test_at_year_is_a_scenario_cube(self, cube):
        sliced = cube.at_year(2027)
        yi = cube.year_index(2027)
        assert np.array_equal(sliced.operational_mt,
                              cube.values("operational")[:, yi, :],
                              equal_nan=True)
        # ScenarioCube reductions work on the projected year.
        assert sliced.totals("operational").shape == (4,)
        assert sliced.n_covered(0) == cube.base.n_covered(0)

    def test_totals_agree_with_materialized_sum_closely(self, cube):
        """Factorized totals (total × factor) vs summed per-record
        values: same quantity, reassociated — equal to ~1 ulp."""
        materialized = np.nansum(cube.values("operational"), axis=2)
        np.testing.assert_allclose(cube.totals("operational"),
                                   materialized, rtol=1e-12)

    def test_band_scales_with_growth(self, cube):
        b24 = cube.band("grow=+10.3%+aci x1", 2024)
        b30 = cube.band("grow=+10.3%+aci x1", 2030)
        assert b30.p50_mt > b24.p50_mt
        series = cube.band_series("grow=+10.3%+aci x1")
        assert set(series) == set(cube.years)
        assert series[2030] == b30

    def test_series_labels_scenario_and_year(self, cube):
        series = cube.series(0, 2028)
        assert series.scenario.endswith("@2028")
        assert series.n_covered == cube.base.n_covered(0)

    def test_perf_carbon_seeded_from_base_totals(self, cube):
        projection = cube.perf_carbon(11.72e6, 0)
        base_total = float(cube.base.totals("operational")[0])
        assert projection.base_ratio == \
            pytest.approx(11.72e3 / (base_total / 1e3))
        assert projection.base_year == cube.base_year

    def test_npz_round_trip_exact(self, cube, tmp_path):
        path = tmp_path / "projection"
        cube.save_npz(path)
        loaded = ProjectionCube.load_npz(path)
        assert loaded.years == cube.years
        assert loaded.base_year == cube.base_year
        assert loaded.base.specs == cube.base.specs
        for footprint in ("operational", "embodied"):
            assert np.array_equal(loaded.values(footprint),
                                  cube.values(footprint), equal_nan=True)
            assert np.array_equal(loaded.totals(footprint),
                                  cube.totals(footprint))
        assert loaded.band(0, 2030) == cube.band(0, 2030)

    def test_npz_round_trip_with_refresh(self, dataset, tmp_path):
        records = dataset.public_records()[:40]
        cube = project_sweep(records, refresh_axis((4.0,)))
        cube.save_npz(tmp_path / "refresh")
        loaded = ProjectionCube.load_npz(tmp_path / "refresh")
        assert loaded.refresh_rows == cube.refresh_rows
        assert np.array_equal(loaded.values("embodied"),
                              cube.values("embodied"), equal_nan=True)

    def test_year_validation(self, dataset):
        records = dataset.public_records()[:5]
        with pytest.raises(ValueError):
            project_sweep(records, years=())
        with pytest.raises(ValueError):
            project_sweep(records, years=(2026, 2025))
        with pytest.raises(ValueError):
            project_sweep(records, years=(2024, 2026), base_year=2025)
        with pytest.raises(ValueError):
            project_sweep(records, end_year=2020)

    def test_implausible_rates_rejected(self, dataset):
        records = dataset.public_records()[:5]
        with pytest.raises(ValueError):
            project_sweep(records, operational_growth=2.0)


class TestProjectTotals:
    def test_matches_carbon_projection(self):
        cube = project_totals(1e6, 2e6)
        projection = CarbonProjection.paper_defaults(1e6, 2e6)
        for yi, point in enumerate(projection.series()):
            assert cube.totals("operational")[0, yi] == point.operational_mt
            assert cube.totals("embodied")[0, yi] == point.embodied_mt

    def test_trajectory_modulates_operational(self):
        trajectory = DecarbonizationTrajectory(base_year=2024,
                                               annual_decline=0.103 / 1.103)
        cube = project_totals(1e6, 2e6, trajectory=trajectory)
        plain = project_totals(1e6, 2e6)
        assert cube.totals("operational")[0, -1] < \
            plain.totals("operational")[0, -1]

    def test_refresh_requires_records(self):
        from repro.projection.engine import _factor_tables
        with pytest.raises(ValueError):
            _factor_tables(refresh_axis((4.0,)), YEARS, 2024, 0.1, 0.02,
                           None)

    def test_invalid_totals_rejected(self):
        with pytest.raises(ValueError):
            project_totals(0.0, 1.0)


class TestEntryPoints:
    def test_study_project_sweep_turnover_rates(self, study):
        cube = study.project_sweep(use_turnover=True)
        op_x, _ = cube.multiplier_at(0, 2030)
        expected = (1.0 + study.turnover.operational_annual) ** 6
        assert op_x == pytest.approx(expected)
        with pytest.raises(ValueError):
            study.project_sweep(data_scenario="nope")

    def test_project_fleet(self):
        cube = project_fleet(DOE_LIKE_FLEET,
                             growth_axis((0.0, 0.103)))
        assert cube.n_systems == 3
        totals = cube.totals("operational")
        # Zero growth is flat; paper growth compounds.
        assert totals[0, 0] == totals[0, -1]
        assert totals[1, -1] > totals[1, 0]

    def test_figure10_cube_renders(self, study):
        from repro.reporting.figures import figure10_cube
        cube = study.project_sweep(growth_axis((0.05, 0.103)))
        text = figure10_cube(cube, bands=True, n_samples=200)
        assert "2030" in text and "p5-p95" in text
        for spec in cube.specs:
            assert spec.name in text
