"""The scenario engine: spec lowering, grid builders, and the hard
contract — every ScenarioCube row bit-identical to the scalar
per-scenario loop (values, uncertainty, coverage masks, Monte-Carlo
bands) on arbitrary scenario grids and degraded fleets."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import scenarios
from repro.analysis.sensitivity import cube_sensitivity
from repro.core.easyc import EasyC
from repro.core.embodied import EmbodiedModel
from repro.core.operational import OperationalModel
from repro.core.record import SystemRecord
from repro.core.vectorized import FleetFrame
from repro.errors import ParseError
from repro.fleets import DOE_LIKE_FLEET, sweep_fleet
from repro.grid.intensity import (
    DEFAULT_GRID_DB,
    DecarbonizationTrajectory,
    GridIntensityDB,
)
from repro.grid.intervals import synthetic_diurnal
from repro.grid.pue import PueModel
from repro.hardware.catalog import DEFAULT_CATALOG, UnknownDevicePolicy
from repro.scenarios import (
    ScenarioCube,
    ScenarioGrid,
    ScenarioSpec,
    aci_scale_axis,
    baseline_spec,
    decarbonization_axis,
    lifetime_axis,
    pue_axis,
    sweep,
    sweep_scalar_reference,
    utilization_axis,
)

CUBE_ARRAYS = ("operational_mt", "operational_unc",
               "embodied_mt", "embodied_unc")


def assert_cubes_identical(cube: ScenarioCube, reference: ScenarioCube):
    """Bit-identity over values, uncertainty and coverage masks."""
    for field in CUBE_ARRAYS:
        a, b = getattr(cube, field), getattr(reference, field)
        assert np.array_equal(a, b, equal_nan=True), field
    for footprint in ("operational", "embodied"):
        assert np.array_equal(cube.coverage(footprint),
                              reference.coverage(footprint))


# ---------------------------------------------------------------------------
# Spec semantics
# ---------------------------------------------------------------------------

class TestScenarioSpec:
    def test_identity_lowering_returns_base_models(self):
        base_op, base_emb = OperationalModel(), EmbodiedModel()
        spec = baseline_spec()
        assert spec.is_identity
        assert spec.operational_model(base_op) is base_op
        assert spec.embodied_model(base_emb) is base_emb

    def test_overrides_lower_to_model_fields(self):
        spec = ScenarioSpec(name="x", aci_scale=0.5, measured_power_pue=1.2,
                            component_utilization=0.6, fab_yield=0.7,
                            lifetime_years=6.0)
        op = spec.operational_model(OperationalModel())
        emb = spec.embodied_model(EmbodiedModel())
        assert op.pue.for_measured_power() == 1.2
        assert op.component_utilization == 0.6
        assert op.grid.lookup("France") == \
            pytest.approx(DEFAULT_GRID_DB.lookup("France") * 0.5)
        assert emb.fab_yield == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", aci_scale=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", component_utilization=1.6)
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", fab_yield=1.2)
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", lifetime_years=-1)
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", operational_growth=1.5)
        with pytest.raises(ValueError):
            # Re-spend needs a refresh horizon to schedule from.
            ScenarioSpec(name="bad", refresh_embodied=True)
        # A trajectory without a target year is *constructible* (the
        # temporal engine's year axis resolves it) but unresolvable in
        # an atemporal sweep: lowering must raise.
        open_ended = ScenarioSpec(
            name="temporal", trajectory=DecarbonizationTrajectory(
                base_year=2024, annual_decline=0.05))
        with pytest.raises(ValueError):
            open_ended.operational_model(OperationalModel())

    def test_compose_override_and_scale_fields(self):
        a = ScenarioSpec(name="a", aci_scale=0.5, component_utilization=0.6)
        b = ScenarioSpec(name="b", aci_scale=0.5, lifetime_years=5.0)
        c = a | b
        assert c.name == "a+b"
        assert c.aci_scale == 0.25            # scales multiply
        assert c.component_utilization == 0.6  # a's value survives
        assert c.lifetime_years == 5.0         # b's value wins

    def test_compose_with_baseline_is_transparent(self):
        spec = ScenarioSpec(name="x", aci_scale=0.5)
        composed = baseline_spec() | spec
        assert composed.name == "x"
        assert composed.aci_scale == 0.5

    def test_derived_models_shared_across_equal_specs(self):
        """Equal derivation parameters reuse the same derived objects,
        which is what lets the sweep compiler share ACI rows and factor
        tables across a cartesian grid."""
        base = OperationalModel()
        a = ScenarioSpec(name="a", aci_scale=0.8).operational_model(base)
        b = ScenarioSpec(name="b", aci_scale=0.8,
                         component_utilization=0.6).operational_model(base)
        assert a.grid is b.grid


class TestGridBuilders:
    def test_cartesian_size_and_names(self):
        grid = ScenarioGrid.cartesian(aci_scale_axis((1.0, 0.8)),
                                      pue_axis((1.0, 1.2)))
        specs = grid.specs()
        assert len(grid) == len(specs) == 4
        assert specs[0].name == "aci x1+pue=1"
        assert specs[-1].name == "aci x0.8+pue=1.2"

    def test_zip_pairs_positionally(self):
        grid = ScenarioGrid.zipped(aci_scale_axis((1.0, 0.8, 0.6)),
                                   lifetime_axis((4, 5, 6)))
        specs = grid.specs()
        assert len(specs) == 3
        assert specs[1].aci_scale == 0.8
        assert specs[1].lifetime_years == 5

    def test_zip_rejects_unequal_axes(self):
        with pytest.raises(ValueError):
            ScenarioGrid.zipped(aci_scale_axis((1.0, 0.8)),
                                lifetime_axis((4, 5, 6)))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGrid.cartesian(aci_scale_axis(()), pue_axis((1.0,)))

    def test_decarbonization_axis_declines_monotonically(self):
        trajectory = DecarbonizationTrajectory(base_year=2024,
                                               annual_decline=0.05)
        specs = decarbonization_axis(trajectory, (2025, 2030, 2035))
        factors = [spec.grid_scale_factor() for spec in specs]
        assert factors == sorted(factors, reverse=True)
        assert factors[0] == pytest.approx(0.95)

    def test_growth_axis_families(self):
        op = scenarios.growth_axis((0.05, 0.103))
        assert [s.operational_growth for s in op] == [0.05, 0.103]
        emb = scenarios.growth_axis((0.01,), footprint="embodied")
        assert emb[0].embodied_growth == 0.01
        with pytest.raises(ValueError):
            scenarios.growth_axis((0.05,), footprint="total")

    def test_refresh_axis_sets_horizon_and_mode(self):
        specs = scenarios.refresh_axis((4.0, 6.0))
        assert all(s.refresh_embodied for s in specs)
        assert [s.lifetime_years for s in specs] == [4.0, 6.0]

    def test_trajectory_axis_leaves_year_open(self):
        trajectory = DecarbonizationTrajectory(base_year=2024,
                                               annual_decline=0.06)
        (spec,) = scenarios.trajectory_axis((trajectory,))
        assert spec.trajectory is trajectory and spec.year is None
        with pytest.raises(ValueError):
            scenarios.trajectory_axis((trajectory,), names=("a", "b"))

    def test_temporal_fields_compose_last_wins(self):
        a = ScenarioSpec(name="a", operational_growth=0.05)
        b = ScenarioSpec(name="b", operational_growth=0.103,
                         lifetime_years=4.0, refresh_embodied=True)
        c = a | b
        assert c.operational_growth == 0.103
        assert c.refresh_embodied is True
        # Atemporal lowering ignores the temporal fields entirely.
        assert c.operational_model(OperationalModel()) is not None


# ---------------------------------------------------------------------------
# The bit-identity contract
# ---------------------------------------------------------------------------

def record_strategy():
    """Random plausible SystemRecords, partially masked (mirrors
    tests/properties)."""
    return st.builds(
        _build_record,
        rank=st.integers(min_value=1, max_value=500),
        rmax=st.floats(min_value=1e3, max_value=2e6),
        eff=st.floats(min_value=0.4, max_value=0.9),
        power=st.one_of(st.none(), st.floats(min_value=50.0, max_value=4e4)),
        nodes=st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)),
        gpus_per_node=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        accel=st.sampled_from([None, "NVIDIA H100", "AMD Instinct MI250X",
                               "Unknown NPU"]),
        country=st.sampled_from([None, "United States", "Japan", "Finland",
                                 "Germany", "Atlantis"]),
        memory_per_node=st.one_of(st.none(),
                                  st.floats(min_value=128.0, max_value=2048.0)),
        util=st.one_of(st.none(), st.floats(min_value=0.2, max_value=1.0)),
    )


def _build_record(rank, rmax, eff, power, nodes, gpus_per_node, accel,
                  country, memory_per_node, util):
    n_gpus = None
    if accel is not None and nodes is not None and gpus_per_node is not None:
        n_gpus = nodes * gpus_per_node
    return SystemRecord(
        rank=rank, rmax_tflops=rmax, rpeak_tflops=rmax / eff,
        country=country, power_kw=power, n_nodes=nodes,
        processor="epyc-7763" if nodes is not None else None,
        accelerator=accel, n_gpus=n_gpus,
        memory_gb=(memory_per_node * nodes
                   if memory_per_node is not None and nodes is not None
                   else None),
        utilization=util,
    )


def spec_strategy():
    """Random scenario overrides across every axis family."""
    return st.builds(
        ScenarioSpec,
        name=st.just("s"),
        aci_scale=st.one_of(st.none(),
                            st.floats(min_value=0.25, max_value=2.0)),
        trajectory=st.one_of(st.none(), st.builds(
            DecarbonizationTrajectory,
            base_year=st.just(2024),
            annual_decline=st.floats(min_value=0.0, max_value=0.2))),
        year=st.integers(min_value=2024, max_value=2040),
        measured_power_pue=st.one_of(
            st.none(), st.floats(min_value=1.0, max_value=2.0)),
        component_power_pue=st.one_of(
            st.none(), st.floats(min_value=1.0, max_value=2.0)),
        measured_power_utilization=st.one_of(
            st.none(), st.floats(min_value=0.2, max_value=1.2)),
        component_utilization=st.one_of(
            st.none(), st.floats(min_value=0.2, max_value=1.2)),
        memory_factor_scale=st.one_of(
            st.none(), st.floats(min_value=0.25, max_value=2.0)),
        storage_factor_scale=st.one_of(
            st.none(), st.floats(min_value=0.25, max_value=2.0)),
        fab_yield=st.one_of(st.none(),
                            st.floats(min_value=0.5, max_value=1.0)),
        lifetime_years=st.one_of(st.none(),
                                 st.floats(min_value=1.0, max_value=8.0)),
    )


class TestSweepBitIdentity:
    """ScenarioCube rows must equal the scalar per-scenario loop
    bit-for-bit: values, uncertainty columns, coverage masks, and the
    Monte-Carlo bands drawn from them."""

    @staticmethod
    def _named(specs):
        return tuple(
            ScenarioSpec(**{**spec.__dict__, "name": f"s{i}"})
            for i, spec in enumerate(specs))

    @given(st.lists(record_strategy(), min_size=1, max_size=10),
           st.lists(spec_strategy(), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_randomized_grids_match_scalar_loop(self, records, specs):
        specs = self._named(specs)
        frame = FleetFrame.from_records(records)
        cube = sweep(records, specs, frame=frame)
        reference = sweep_scalar_reference(records, specs)
        assert_cubes_identical(cube, reference)

    @pytest.mark.parametrize("scenario", ["baseline", "public"])
    def test_study_fleet_64_scenario_grid(self, dataset, scenario):
        """The acceptance grid shape: a 4 x 4 x 4 cartesian sweep over
        the 500-system list, checked row-by-row against the scalar
        loop (values, bands, coverage)."""
        records = getattr(dataset, f"{scenario}_records")()
        grid = ScenarioGrid.cartesian(
            aci_scale_axis((1.0, 0.9, 0.8, 0.7)),
            pue_axis((1.0, 1.1, 1.2, 1.3)),
            utilization_axis((0.5, 0.65, 0.8, 0.95)),
        )
        specs = grid.specs()
        assert len(specs) == 64
        cube = sweep(records, specs)
        reference = sweep_scalar_reference(records, specs)
        assert_cubes_identical(cube, reference)
        # Bands reuse total_with_uncertainty_arrays on identical rows,
        # so they are equal dataclasses; spot-check the grid corners.
        for s in (0, 31, 63):
            for footprint in ("operational", "embodied"):
                assert cube.band(s, footprint) == \
                    reference.band(s, footprint)

    def test_identity_sweep_equals_assess_fleet(self, dataset):
        records = dataset.public_records()
        cube = sweep(records, [baseline_spec()])
        assessments = EasyC().assess_fleet(records)
        for footprint in ("operational", "embodied"):
            expected = np.array([
                np.nan if getattr(a, footprint) is None
                else getattr(a, footprint).value_mt for a in assessments])
            assert np.array_equal(cube.values(footprint)[0], expected,
                                  equal_nan=True)

    def test_strict_catalog_scenario_matches_scalar(self, dataset):
        records = dataset.public_records()[:50]
        specs = (baseline_spec(),
                 ScenarioSpec(name="strict", catalog=DEFAULT_CATALOG
                              .with_policy(UnknownDevicePolicy.STRICT)))
        assert_cubes_identical(sweep(records, specs),
                               sweep_scalar_reference(records, specs))

    def test_replacement_grid_and_pue_model(self, dataset):
        records = dataset.public_records()[:40]
        specs = (baseline_spec(),
                 ScenarioSpec(name="flat-grid",
                              grid=GridIntensityDB(region_aci={})),
                 ScenarioSpec(name="hot-rooms",
                              pue=PueModel(measured_power_pue=1.5,
                                           component_power_pue=1.6)))
        assert_cubes_identical(sweep(records, specs),
                               sweep_scalar_reference(records, specs))


# ---------------------------------------------------------------------------
# Cube reductions
# ---------------------------------------------------------------------------

class _Touch:
    """A pickle payload with a side effect: unpickling creates a file."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (_touch, (self.path,))


def _touch(path: str) -> None:
    open(path, "w").close()


def _edit_meta(path, edit) -> None:
    """Rewrite a saved cube file with its JSON header edited in place."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    doc = json.loads(arrays.pop("meta").tobytes())
    edit(doc)
    np.savez(path, meta=np.frombuffer(json.dumps(doc).encode(),
                                      dtype=np.uint8), **arrays)


class TestScenarioCube:
    @pytest.fixture(scope="class")
    def cube(self, dataset):
        records = dataset.public_records()
        grid = ScenarioGrid.cartesian(aci_scale_axis((1.0, 0.5)),
                                      lifetime_axis((4.0,)))
        return sweep(records, grid)

    def test_axis_lookup(self, cube):
        assert cube.n_scenarios == 2
        assert cube.n_systems == 500
        assert cube.index("aci x1+life=4y") == 0
        assert cube.index(cube.specs[1]) == 1
        assert cube.index(-1) == 1
        with pytest.raises(KeyError):
            cube.index("nope")
        with pytest.raises(IndexError):
            cube.index(7)

    def test_totals_scale_with_aci(self, cube):
        totals = cube.totals("operational")
        assert totals[1] == pytest.approx(totals[0] * 0.5)

    def test_annualized_embodied_divides_by_lifetime(self, cube):
        emb = cube.totals("embodied")
        annualized = cube.totals("embodied_annualized")
        assert annualized[0] == pytest.approx(emb[0] / 4.0)

    def test_series_roundtrip(self, cube):
        series = cube.series(0, "operational")
        assert series.footprint == "operational"
        assert series.scenario == "aci x1+life=4y"
        assert series.n_covered == cube.n_covered(0, "operational")
        assert series.total_mt() == pytest.approx(cube.total(0))

    def test_delta_totals(self, cube):
        deltas = cube.delta_totals("aci x1+life=4y", "operational")
        assert deltas[0] == 0.0
        assert deltas[1] == pytest.approx(-0.5 * cube.total(0))

    def test_table_rows(self, cube):
        rows = cube.table_rows("operational")
        assert len(rows) == 2
        name, total, covered, delta = rows[1]
        assert name == "aci x0.5+life=4y"
        assert covered == cube.n_covered(1, "operational")
        assert delta == pytest.approx(-50.0)

    def test_band_monotone_in_values(self, cube):
        full = cube.band(0, "operational")
        halved = cube.band(1, "operational")
        assert halved.p50_mt < full.p50_mt

    def test_cube_sensitivity_reduction(self, cube):
        result = cube_sensitivity(cube, 1, "operational")
        assert result.total_change_percent == pytest.approx(-50.0)
        assert result.n_both_covered == cube.n_covered(0, "operational")

    def test_shape_validation(self, cube):
        with pytest.raises(ValueError):
            ScenarioCube(specs=cube.specs, ranks=cube.ranks[:3],
                         names=cube.names[:3],
                         operational_mt=cube.operational_mt,
                         operational_unc=cube.operational_unc,
                         embodied_mt=cube.embodied_mt,
                         embodied_unc=cube.embodied_unc,
                         lifetime_years=cube.lifetime_years)

    def test_empty_specs_rejected(self, dataset):
        with pytest.raises(ValueError):
            sweep(dataset.public_records()[:3], ())

    def test_npz_round_trip_exact(self, cube, tmp_path):
        """Cube persistence: save → load is an exact field-for-field
        round trip (arrays bit-identical, labeled axes equal), so big
        sweeps can be cached across runs."""
        path = tmp_path / "cube.npz"
        cube.save_npz(path)
        loaded = ScenarioCube.load_npz(path)
        assert loaded.specs == cube.specs
        assert loaded.ranks == cube.ranks
        assert loaded.names == cube.names
        assert_cubes_identical(loaded, cube)
        assert np.array_equal(loaded.lifetime_years, cube.lifetime_years)
        # Reductions survive the round trip bit-for-bit too.
        assert loaded.band(0, "operational") == cube.band(0, "operational")
        assert loaded.table_rows() == cube.table_rows()

    def test_npz_suffix_normalized(self, cube, tmp_path):
        """save/load agree on the .npz suffix numpy appends on save."""
        bare = tmp_path / "cube"                 # no suffix
        cube.save_npz(bare)
        loaded = ScenarioCube.load_npz(bare)
        assert loaded.specs == cube.specs
        assert_cubes_identical(loaded, cube)

    def test_npz_round_trip_nested_specs(self, dataset, tmp_path):
        """Catalogs, grids, PUE models, trajectories and hour profiles
        come back equal through the spec codec (constructors re-run)."""
        specs = (baseline_spec(),
                 ScenarioSpec(name="strict", catalog=DEFAULT_CATALOG
                              .with_policy(UnknownDevicePolicy.STRICT)),
                 ScenarioSpec(name="flat-grid",
                              grid=GridIntensityDB(region_aci={})),
                 ScenarioSpec(name="hot-rooms",
                              pue=PueModel(measured_power_pue=1.5,
                                           component_power_pue=1.6)),
                 ScenarioSpec(name="decarb", year=2030,
                              trajectory=DecarbonizationTrajectory(
                                  base_year=2024, annual_decline=0.05)),
                 ScenarioSpec(name="night", load_hours=(0, 1, 2),
                              hour_profile=synthetic_diurnal(0.4)))
        cube = sweep(dataset.public_records()[:40], specs)
        cube.save_npz(tmp_path / "nested")
        loaded = ScenarioCube.load_npz(tmp_path / "nested")
        assert loaded.specs == cube.specs
        assert loaded.specs[1].catalog.unknown_policy is \
            UnknownDevicePolicy.STRICT
        assert_cubes_identical(loaded, cube)

    @pytest.mark.parametrize("case", ["pickle-payload", "truncated",
                                      "unknown-tag", "version-1",
                                      "shift-file"])
    def test_load_npz_rejects_bad_files(self, cube, dataset, tmp_path,
                                        case):
        """Every malformed cube file is a ParseError; a pickled header
        is never unpickled, so its payload never runs."""
        path = tmp_path / "bad.npz"
        sentinel = tmp_path / "payload-ran"
        payload = pickle.dumps(_Touch(str(sentinel)))
        if case == "pickle-payload":
            np.savez(path, meta=np.frombuffer(payload, dtype=np.uint8),
                     operational_mt=cube.operational_mt)
        elif case == "truncated":
            cube.save_npz(path)
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])
        elif case == "unknown-tag":
            cube.save_npz(path)
            _edit_meta(path, lambda doc: doc["specs"][0].update(
                {"$type": "Popen"}))
        elif case == "version-1":
            cube.save_npz(path)
            _edit_meta(path, lambda doc: doc.update(version=1))
        else:
            scenarios.shift_sweep(dataset.public_records()[:20]
                                  ).save_npz(path)
        with pytest.raises(ParseError):
            ScenarioCube.load_npz(path)
        assert not sentinel.exists()
        # The payload is live: unpickling it would have run it.
        pickle.loads(payload)
        assert sentinel.exists()


# ---------------------------------------------------------------------------
# Entry points on study and fleets
# ---------------------------------------------------------------------------

class TestEntryPoints:
    def test_study_scenario_sweep(self, study):
        cube = study.scenario_sweep(aci_scale_axis((1.0, 0.8)))
        assert cube.operational_mt.shape == (2, 500)
        # The identity row reproduces the study's own coverage/series.
        assert cube.n_covered(0, "operational") == \
            study.public_coverage.operational.n_covered
        assert cube.total(0, "operational") == \
            pytest.approx(study.op_public.total_mt())

    def test_study_sweep_baseline_records(self, study):
        cube = study.scenario_sweep([baseline_spec()],
                                    data_scenario="baseline")
        assert cube.n_covered(0, "operational") == \
            study.baseline_coverage.operational.n_covered
        with pytest.raises(ValueError):
            study.scenario_sweep([baseline_spec()], data_scenario="true")

    def test_sweep_fleet(self):
        trajectory = DecarbonizationTrajectory(base_year=2024,
                                               annual_decline=0.08)
        cube = sweep_fleet(DOE_LIKE_FLEET,
                           decarbonization_axis(trajectory,
                                                (2025, 2030, 2035)))
        totals = cube.totals("operational")
        assert cube.n_systems == 3
        # A decarbonizing grid strictly shrinks operational carbon.
        assert totals[0] > totals[1] > totals[2]
        # Embodied carbon does not depend on the grid.
        emb = cube.totals("embodied")
        assert emb[0] == emb[1] == emb[2]
