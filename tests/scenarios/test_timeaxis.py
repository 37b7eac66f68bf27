"""Hour-axis engine tests.

The two load-bearing contracts:

* ``ShiftCube.values`` is bit-identical to the scalar reference loop
  (``shift_scalar_reference``) — the engine is one multiply of the
  base sweep by a shared-float-op window factor;
* with paper-default (annual-mean, no profile) intensity the
  ``(scenario × hour-window)`` sweep reproduces the existing atemporal
  sweep bit-identically (the acceptance criterion).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.intervals import synthetic_diurnal, synthetic_seasonal
from repro.scenarios import (
    HourWindow,
    ScenarioGrid,
    ScenarioSpec,
    ShiftCube,
    aci_scale_axis,
    baseline_spec,
    default_hour_windows,
    greenest_hours_axis,
    hour_profile_axis,
    hourly_windows,
    load_hours_axis,
    offpeak_shift_axis,
    shift_scalar_reference,
    shift_sweep,
    sweep,
)
from repro.scenarios.timeaxis import (
    _load_distribution,
    _profile_factors,
    _window_factor,
)

PROFILE = synthetic_diurnal(1.0, amplitude=0.3, peak_hour=19.0)


@pytest.fixture(scope="module")
def records(dataset):
    return dataset.public_records()[:48]


def mixed_specs():
    return ((baseline_spec(), ScenarioSpec(name="clean", aci_scale=0.8))
            + greenest_hours_axis((6, 12))
            + offpeak_shift_axis((0.3, 0.6))
            + load_hours_axis(((0, 1, 2, 3, 4, 5),), names=("night-only",))
            + hour_profile_axis((synthetic_seasonal(1.0),), ("seasonal",)))


def assert_shift_identical(cube, reference):
    assert np.array_equal(cube.values("operational"),
                          reference.operational_mt, equal_nan=True)
    assert np.array_equal(cube.values("embodied"),
                          reference.embodied_mt, equal_nan=True)


class TestHourWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            HourWindow("", (1,))
        with pytest.raises(ValueError):
            HourWindow("dup", (1, 1))
        with pytest.raises(ValueError):
            HourWindow("oob", (24,))
        with pytest.raises(ValueError):
            HourWindow("empty", ())
        with pytest.raises(ValueError):
            HourWindow.block("bad", 6, 6)

    def test_block_is_half_open(self):
        assert HourWindow.block("night", 0, 6).hours == (0, 1, 2, 3, 4, 5)

    def test_default_windows_cover_the_day(self):
        windows = default_hour_windows()
        assert windows[0].hours == tuple(range(24))
        parts = [h for w in windows[1:] for h in w.hours]
        assert sorted(parts) == list(range(24))

    def test_hourly_windows(self):
        windows = hourly_windows()
        assert len(windows) == 24
        assert windows[13].hours == (13,)


class TestSpecTimeFields:
    def test_placement_fields_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ScenarioSpec(name="x", greenest_hours=6, offpeak_shift=0.3)
        with pytest.raises(ValueError, match="mutually exclusive"):
            ScenarioSpec(name="x", load_hours=(1, 2), greenest_hours=6)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", load_hours=(25,))
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", load_hours=())
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", greenest_hours=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", offpeak_shift=1.5)

    def test_compose_carries_time_fields(self):
        composed = ScenarioSpec(name="a", aci_scale=0.8) | \
            ScenarioSpec(name="b", greenest_hours=6)
        assert composed.greenest_hours == 6
        assert composed.aci_scale == 0.8
        # Later spec wins on override fields.
        overridden = ScenarioSpec(name="a", greenest_hours=6) | \
            ScenarioSpec(name="b", greenest_hours=12)
        assert overridden.greenest_hours == 12

    def test_atemporal_sweep_ignores_time_fields(self, records):
        plain = sweep(records, (baseline_spec(),))
        timed = sweep(records, (ScenarioSpec(name="g6", greenest_hours=6,
                                             hour_profile=PROFILE),))
        assert np.array_equal(plain.values("operational"),
                              timed.values("operational"), equal_nan=True)


class TestFactorSemantics:
    def test_flat_profile_factors_exactly_one(self):
        factors = _profile_factors(baseline_spec(), None)
        assert factors == (1.0,) * 24
        dist = _load_distribution(baseline_spec(), factors)
        for window in default_hour_windows():
            assert _window_factor(factors, dist, window) == 1.0

    def test_greenest_hours_beat_uniform(self):
        factors = PROFILE.hour_factors()
        window = HourWindow("all", tuple(range(24)))
        uniform = _window_factor(
            factors, _load_distribution(baseline_spec(), factors), window)
        spec = ScenarioSpec(name="g", greenest_hours=6)
        green = _window_factor(
            factors, _load_distribution(spec, factors), window)
        assert green < uniform < max(factors)

    def test_greenest_24_is_uniform(self):
        factors = PROFILE.hour_factors()
        spec = ScenarioSpec(name="g24", greenest_hours=24)
        assert _load_distribution(spec, factors) == \
            _load_distribution(baseline_spec(), factors)

    def test_dirty_hours_cost_more(self):
        factors = PROFILE.hour_factors()
        window = HourWindow("all", tuple(range(24)))
        dirtiest = sorted(range(24), key=lambda h: -factors[h])[:4]
        spec = ScenarioSpec(name="dirty", load_hours=tuple(dirtiest))
        assert _window_factor(
            factors, _load_distribution(spec, factors), window) > 1.0

    def test_offpeak_shift_monotone(self):
        factors = PROFILE.hour_factors()
        window = HourWindow("all", tuple(range(24)))
        costs = [
            _window_factor(factors, _load_distribution(
                ScenarioSpec(name="s", offpeak_shift=x), factors), window)
            for x in (0.0, 0.3, 0.6, 1.0)]
        assert costs == sorted(costs, reverse=True)

    def test_zero_load_window_falls_back_to_unweighted_mean(self):
        import math
        factors = PROFILE.hour_factors()
        spec = ScenarioSpec(name="night", load_hours=(0, 1, 2))
        dist = _load_distribution(spec, factors)
        window = HourWindow("noon", (12, 13))
        assert _window_factor(factors, dist, window) == \
            math.fsum(factors[h] for h in (12, 13)) / 2

    def test_distribution_sums_to_one(self):
        import math
        factors = PROFILE.hour_factors()
        for spec in (baseline_spec(),
                     ScenarioSpec(name="a", greenest_hours=6),
                     ScenarioSpec(name="b", offpeak_shift=0.4),
                     ScenarioSpec(name="c", load_hours=(3, 4, 5))):
            assert math.fsum(_load_distribution(spec, factors)) == \
                pytest.approx(1.0)


class TestScalarReferenceIdentity:
    def test_mixed_grid_bit_identical(self, records):
        specs = mixed_specs()
        cube = shift_sweep(records, specs, profile=PROFILE)
        reference = shift_scalar_reference(records, specs, profile=PROFILE)
        assert_shift_identical(cube, reference)

    def test_hourly_windows_bit_identical(self, records):
        specs = (baseline_spec(),) + greenest_hours_axis((6,))
        windows = hourly_windows()
        cube = shift_sweep(records, specs, windows=windows, profile=PROFILE)
        reference = shift_scalar_reference(records, specs, windows=windows,
                                           profile=PROFILE)
        assert_shift_identical(cube, reference)

    @given(amplitude=st.floats(min_value=0.0, max_value=0.8),
           k=st.integers(min_value=1, max_value=24))
    @settings(max_examples=10, deadline=None)
    def test_randomized_profiles_bit_identical(self, dataset, amplitude, k):
        records = dataset.public_records()[:12]
        profile = synthetic_diurnal(1.0, amplitude=amplitude)
        specs = (baseline_spec(), ScenarioSpec(name="g", greenest_hours=k))
        cube = shift_sweep(records, specs, profile=profile)
        reference = shift_scalar_reference(records, specs, profile=profile)
        assert_shift_identical(cube, reference)


class TestPaperDefaultIdentity:
    """Acceptance criterion: no profile => the atemporal sweep, exactly."""

    def test_factors_are_exactly_one(self, records):
        cube = shift_sweep(records, mixed_specs())
        # The seasonal spec carries its own profile; every other row is
        # flat.  (cube.specs are the time-stripped base specs, so match
        # by name.)
        flat_rows = [s for s, spec in enumerate(cube.specs)
                     if spec.name != "seasonal"]
        assert (cube.op_hour_factors[flat_rows] == 1.0).all()
        assert not (cube.op_hour_factors[cube.index("seasonal")] == 1.0).all()

    def test_every_window_matches_the_atemporal_sweep(self, records):
        specs = (baseline_spec(),
                 ScenarioSpec(name="clean", aci_scale=0.8),
                 ScenarioSpec(name="g6", greenest_hours=6),
                 ScenarioSpec(name="shift", offpeak_shift=0.5))
        cube = shift_sweep(records, specs)
        atemporal = sweep(
            records, tuple(ScenarioSpec(name=s.name, aci_scale=s.aci_scale)
                           for s in specs))
        for footprint in ("operational", "embodied"):
            flat = atemporal.values(footprint)
            for w in range(cube.n_windows):
                assert np.array_equal(cube.values(footprint, w), flat,
                                      equal_nan=True), (footprint, w)

    def test_time_stripped_specs_share_base_rows(self, records):
        """Specs differing only in time fields lower to one base row."""
        cube = shift_sweep(records, (baseline_spec(),)
                           + greenest_hours_axis((6, 12, 18)),
                           profile=PROFILE)
        base = cube.base.values("operational")
        for s in range(1, 4):
            assert np.array_equal(base[0], base[s], equal_nan=True)


class TestShiftCube:
    @pytest.fixture(scope="class")
    def cube(self, dataset):
        return shift_sweep(dataset.public_records()[:48], mixed_specs(),
                           profile=PROFILE)

    def test_axes(self, cube):
        assert cube.n_scenarios == len(mixed_specs())
        assert cube.n_windows == 5
        assert cube.n_systems == 48
        assert cube.window_names[0] == "all-hours"
        assert cube.window_index("night") == 1
        assert cube.window_index(cube.windows[2]) == 2
        with pytest.raises(KeyError):
            cube.window_index("noon")
        with pytest.raises(KeyError):
            cube.window_index(9)

    def test_totals_factorize(self, cube):
        totals = cube.totals("operational")
        base_totals = cube.base.totals("operational")
        assert totals.shape == (cube.n_scenarios, cube.n_windows)
        assert np.array_equal(totals,
                              base_totals[:, None] * cube.op_hour_factors)
        # Embodied totals are window-invariant.
        emb = cube.totals("embodied")
        assert np.array_equal(emb, np.repeat(
            cube.base.totals("embodied")[:, None], cube.n_windows, axis=1))

    def test_shift_savings_positive_for_greenest(self, cube):
        assert cube.shift_savings("greenest-6") > 0.0

    def test_at_window_is_a_scenario_cube(self, cube):
        sliced = cube.at_window("night")
        assert np.array_equal(sliced.values("operational"),
                              cube.values("operational", "night"),
                              equal_nan=True)
        # Uncertainty masked exactly where values are nan.
        assert np.isnan(sliced.operational_unc[
            np.isnan(sliced.operational_mt)]).all()

    def test_series_labels(self, cube):
        series = cube.series("greenest-6", "night")
        assert series.scenario == "greenest-6@night"
        assert len(series.values) == cube.n_systems

    def test_band_matches_band_stack_cell(self, cube):
        lone = cube.band("greenest-6", "night", n_samples=500)
        stack = cube.band_stack(n_samples=500)
        s = cube.index("greenest-6")
        w = cube.window_index("night")
        batched = stack.band(s, w)
        assert lone.p5_mt == batched.p5_mt
        assert lone.p95_mt == batched.p95_mt
        assert lone.mean_mt == batched.mean_mt

    def test_bands_keyed_by_scenario(self, cube):
        bands = cube.bands(n_samples=200)
        assert set(bands) == set(cube.scenario_names)

    def test_table_rows(self, cube):
        rows = cube.table_rows()
        assert len(rows) == cube.n_scenarios
        name, per_window, multiple = rows[cube.index("greenest-6")]
        assert name == "greenest-6"
        assert len(per_window) == cube.n_windows
        assert multiple <= 1.0

    def test_npz_round_trip(self, cube, tmp_path):
        path = tmp_path / "shift"
        cube.save_npz(path)
        loaded = ShiftCube.load_npz(path)
        assert loaded.windows == cube.windows
        assert loaded.base.specs == cube.base.specs
        assert np.array_equal(loaded.op_hour_factors, cube.op_hour_factors)
        assert np.array_equal(loaded.values("operational"),
                              cube.values("operational"), equal_nan=True)

    def test_validation(self, cube):
        with pytest.raises(ValueError):
            ShiftCube(base=cube.base, windows=cube.windows,
                      op_hour_factors=cube.op_hour_factors[:, :2])

    def test_grid_input_and_empty_errors(self, records):
        grid = ScenarioGrid.cartesian(aci_scale_axis((1.0, 0.8)),
                                      greenest_hours_axis((6, 24)))
        cube = shift_sweep(records, grid, profile=PROFILE)
        assert cube.n_scenarios == 4
        with pytest.raises(ValueError):
            shift_sweep(records, ())
        with pytest.raises(ValueError):
            shift_sweep(records, grid, windows=())
        with pytest.raises(ValueError):
            shift_sweep(records, grid,
                        windows=(HourWindow("a", (1,)),
                                 HourWindow("a", (2,))))
