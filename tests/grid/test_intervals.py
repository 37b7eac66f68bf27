"""Interval-resolved intensity tests.

The load-bearing contracts:

* annual-mean collapse of an :class:`IntervalGridDB` built with
  ``from_profiles`` equals the base ``GridIntensityDB.lookup`` to the
  last bit for *every* country/region key;
* ``scaled`` / decarbonization-trajectory factors commute with
  interval aggregation bit-for-bit;
* a flat series has hour factors of exactly 1.0 (the paper-default
  path's bit-identity hinges on it).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError

from repro.grid.intensity import (
    COUNTRY_ACI,
    DEFAULT_GRID_DB,
    DecarbonizationTrajectory,
    GridIntensityDB,
    REGION_ACI,
)
from repro.grid.intervals import (
    IntensitySeries,
    IntervalGridDB,
    default_interval_db,
    read_ci_csv,
    synthetic_diurnal,
    synthetic_seasonal,
)

ALL_KEYS = sorted(COUNTRY_ACI) + sorted(REGION_ACI)


def lookup_args(key):
    """(country, region) arguments that resolve ``key``."""
    return (key, None) if key in COUNTRY_ACI else ("United States", key)


class TestIntensitySeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntensitySeries(values=())
        with pytest.raises(ValueError):
            IntensitySeries(values=(0.1,) * 24, step_minutes=0)
        with pytest.raises(ValueError):
            IntensitySeries(values=(0.1,) * 24, step_minutes=90)
        with pytest.raises(ValueError):  # 23 hourly samples: not a day
            IntensitySeries(values=(0.1,) * 23)
        with pytest.raises(ValueError):
            IntensitySeries(values=(0.1,) * 23 + (-0.1,))

    def test_derived_mean_when_not_declared(self):
        s = IntensitySeries(values=(0.2, 0.4) * 12)
        assert s.annual_mean == pytest.approx(0.3)
        assert s.days == 1

    def test_subhourly_and_multiday(self):
        half_hourly = IntensitySeries(values=(0.3,) * 48, step_minutes=30)
        assert half_hourly.days == 1
        two_days = IntensitySeries(values=(0.3,) * 48, step_minutes=60)
        assert two_days.days == 2

    def test_flat_series_hour_factors_are_exactly_one(self):
        s = IntensitySeries(values=(0.437,) * 24)
        assert s.hour_factors() == (1.0,) * 24

    def test_hour_profile_buckets_by_hour_of_day(self):
        # Two days: hour 0 sees 0.2 then 0.4 -> bucket mean 0.3.
        day1 = [0.2] + [0.3] * 23
        day2 = [0.4] + [0.3] * 23
        s = IntensitySeries(values=tuple(day1 + day2))
        profile = s.hour_profile()
        assert profile[0] == pytest.approx(0.3)
        assert profile[1] == pytest.approx(0.3)

    def test_with_mean_declares_the_exact_target(self):
        s = synthetic_diurnal(1.0, amplitude=0.3)
        target = COUNTRY_ACI["france"]
        rebased = s.with_mean(target)
        assert rebased.annual_mean == target  # bit-identical, not approx
        assert rebased.hour_factors() == pytest.approx(s.hour_factors())

    def test_scaled_scales_mean_with_one_float_op(self):
        s = synthetic_diurnal(0.4, amplitude=0.2)
        assert s.scaled(0.7).annual_mean == 0.4 * 0.7

    @given(st.floats(min_value=0.01, max_value=1.2),
           st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_hour_factors_average_to_one(self, mean, amplitude):
        s = synthetic_diurnal(mean, amplitude=amplitude)
        assert math.fsum(s.hour_factors()) / 24.0 == pytest.approx(1.0)


class TestSyntheticGenerators:
    def test_diurnal_peaks_at_peak_hour(self):
        s = synthetic_diurnal(0.4, amplitude=0.3, peak_hour=19.0)
        profile = s.hour_profile()
        assert max(range(24), key=lambda h: profile[h]) == 19

    def test_zero_amplitude_is_exactly_flat(self):
        s = synthetic_diurnal(0.4, amplitude=0.0)
        assert set(s.values) == {0.4}
        assert s.hour_factors() == (1.0,) * 24

    def test_seasonal_covers_a_year(self):
        s = synthetic_seasonal(0.4, days=365)
        assert len(s) == 365 * 24
        assert s.annual_mean == 0.4

    def test_seasonal_winter_exceeds_summer(self):
        s = synthetic_seasonal(0.4, seasonal_amplitude=0.2, peak_day=15)
        january = math.fsum(s.values[:24 * 31]) / (24 * 31)
        july = math.fsum(s.values[24 * 181:24 * 212]) / (24 * 31)
        assert january > july

    def test_generators_are_deterministic(self):
        assert synthetic_diurnal(0.4).values == synthetic_diurnal(0.4).values
        assert synthetic_seasonal(0.4).values == \
            synthetic_seasonal(0.4).values


class TestReadCiCsv:
    HEADER = "timestamp,actual,forecast"

    @staticmethod
    def lines(header=HEADER, hours=24, start="2025-01-01T00:00:00",
              step_min=60, value=lambda i: 250.0 + i):
        from datetime import datetime, timedelta
        t0 = datetime.fromisoformat(start)
        rows = [header]
        for i in range(hours):
            t = t0 + timedelta(minutes=i * step_min)
            rows.append(f"{t.isoformat()},{value(i)},{value(i) + 1.0}")
        return rows

    def test_parses_ichnos_style_file(self, tmp_path):
        path = tmp_path / "uk-marg-010125.csv"
        path.write_text("\n".join(self.lines()) + "\n", encoding="utf-8")
        s = read_ci_csv(path)
        assert len(s) == 24
        assert s.step_minutes == 60
        assert s.values[0] == 250.0 / 1000.0  # gCO2/kWh -> kg
        assert s.values[5] == 255.0 / 1000.0

    def test_accepts_iterable_of_lines_and_half_hour_steps(self):
        s = read_ci_csv(self.lines(hours=48, step_min=30))
        assert s.step_minutes == 30
        assert len(s) == 48

    def test_value_column_by_name_and_index(self):
        by_name = read_ci_csv(self.lines(), value_column="forecast")
        by_index = read_ci_csv(self.lines(), value_column=2)
        assert by_name.values == by_index.values
        assert by_name.values[0] == 251.0 / 1000.0

    def test_kg_units_passthrough(self):
        s = read_ci_csv(self.lines(value=lambda i: 0.25), units="kg")
        assert s.values[0] == 0.25

    def test_start_minute_from_first_timestamp(self):
        s = read_ci_csv(self.lines(start="2025-01-01T06:00:00"))
        assert s.start_minute == 6 * 60
        # Hour bucketing honors the offset: sample 0 lands in hour 6.
        assert s.hour_profile()[6] == 250.0 / 1000.0

    def test_irregular_interval_raises(self):
        rows = self.lines()
        rows[3] = rows[3].replace("T02:00:00", "T02:17:00")
        with pytest.raises(ParseError, match="irregular"):
            read_ci_csv(rows)

    def test_unknown_column_raises(self):
        with pytest.raises(ValueError, match="not in header"):
            read_ci_csv(self.lines(), value_column="nope")


class TestReadCiCsvErrors:
    """Malformed content is one ParseError naming the file and, where
    one row is at fault, that row — never a traceback from csv,
    datetime or float, and never a nan series."""

    lines = staticmethod(TestReadCiCsv.lines)

    def _write(self, tmp_path, content):
        path = tmp_path / "ci.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text("\n".join(content) + "\n", encoding="utf-8")
        return path

    def test_header_only(self, tmp_path):
        path = self._write(tmp_path, [TestReadCiCsv.HEADER])
        with pytest.raises(ParseError, match="at least two data rows") as err:
            read_ci_csv(path)
        assert str(path) in str(err.value)

    def test_undecodable_bytes(self, tmp_path):
        path = self._write(tmp_path, b"timestamp,actual\n\xff\xfe\x00\x81")
        with pytest.raises(ParseError, match="not a CSV text file") as err:
            read_ci_csv(path)
        assert str(path) in str(err.value)

    def test_short_row(self, tmp_path):
        rows = self.lines()
        rows[5] = rows[5].split(",")[0]
        with pytest.raises(ParseError, match="row 6"):
            read_ci_csv(self._write(tmp_path, rows))

    def test_bad_timestamp(self, tmp_path):
        rows = self.lines()
        rows[2] = "yesterday" + rows[2][rows[2].index(","):]
        with pytest.raises(ParseError, match="row 3: bad timestamp"):
            read_ci_csv(self._write(tmp_path, rows))

    def test_irregular_interval_names_the_row(self, tmp_path):
        rows = self.lines()
        rows[3] = rows[3].replace("T02:00:00", "T02:17:00")
        with pytest.raises(ParseError, match="row 4: irregular"):
            read_ci_csv(self._write(tmp_path, rows))

    @pytest.mark.parametrize("bad", ["-5.0", "nan", "inf", "-inf", "x"])
    def test_negative_or_non_finite_value(self, tmp_path, bad):
        rows = self.lines()
        rows[7] = rows[7].split(",")[0] + f",{bad},1.0"
        with pytest.raises(ParseError, match="row 8") as err:
            read_ci_csv(self._write(tmp_path, rows))
        assert str(tmp_path) in str(err.value)

    def test_partial_day(self, tmp_path):
        with pytest.raises(ParseError, match="whole days"):
            read_ci_csv(self._write(tmp_path, self.lines(hours=23)))

    def test_mixed_utc_offsets(self, tmp_path):
        rows = self.lines()
        rows[2] = rows[2].replace(",", "+00:00,", 1)
        with pytest.raises(ParseError, match="row 3"):
            read_ci_csv(self._write(tmp_path, rows))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.binary(max_size=400),
        st.lists(st.text(alphabet="0123456789-:T.,+ naifZx\"\n\r",
                         max_size=40),
                 max_size=30).map(lambda rows: "\n".join(rows).encode()),
        st.lists(st.sampled_from(["2025-01-01T00:00:00", "2025-01-01T01:00",
                                  "250", "-1", "nan", "1e400", "", "x"]),
                 max_size=80).map(
            lambda cells: ("timestamp,actual\n" + "\n".join(
                ",".join(cells[i:i + 2]) for i in range(0, len(cells), 2))
            ).encode())))
    def test_fuzz_is_a_series_or_a_parse_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "ci.csv"
        path.write_bytes(data)
        try:
            series = read_ci_csv(path)
        except ParseError as exc:
            assert str(path) in str(exc)
            return
        assert all(math.isfinite(v) and v >= 0 for v in series.values)
        assert series.annual_mean > 0


class TestAnnualMeanCollapse:
    """The tentpole contract: collapse == base lookup, bit for bit."""

    def _db(self, amplitude=0.3):
        profiles = {key: synthetic_diurnal(1.0, amplitude=amplitude)
                    for key in ALL_KEYS}
        return IntervalGridDB.from_profiles(DEFAULT_GRID_DB, profiles)

    def test_collapse_equals_base_for_every_key(self):
        db = self._db()
        for key in ALL_KEYS:
            country, region = lookup_args(key)
            assert db.lookup(country, region) == \
                DEFAULT_GRID_DB.lookup(country, region), key

    def test_default_interval_db_collapse(self):
        db = default_interval_db()
        for key in ALL_KEYS:
            country, region = lookup_args(key)
            assert db.lookup(country, region) == \
                DEFAULT_GRID_DB.lookup(country, region), key

    def test_unknown_locations_fall_through_to_base(self):
        db = self._db()
        assert db.lookup("Atlantis") == DEFAULT_GRID_DB.lookup("Atlantis")
        assert db.lookup("United States", "us-atlantis") == \
            COUNTRY_ACI["united states"]
        from repro.errors import UnknownRegionError
        with pytest.raises(UnknownRegionError):
            db.lookup("Atlantis", strict=True)

    def test_from_profiles_rejects_unresolvable_keys(self):
        with pytest.raises(KeyError):
            IntervalGridDB.from_profiles(
                DEFAULT_GRID_DB, {"atlantis": synthetic_diurnal(1.0)})

    @given(st.floats(min_value=0.05, max_value=4.0),
           st.sampled_from(ALL_KEYS))
    @settings(max_examples=50, deadline=None)
    def test_scaled_commutes_with_collapse(self, factor, key):
        """interval.scaled(f).lookup == base.scaled(f).lookup, exactly."""
        db = self._db()
        country, region = lookup_args(key)
        assert db.scaled(factor).lookup(country, region) == \
            DEFAULT_GRID_DB.scaled(factor).lookup(country, region)

    @given(st.integers(min_value=2020, max_value=2040),
           st.sampled_from(ALL_KEYS))
    @settings(max_examples=50, deadline=None)
    def test_trajectory_commutes_with_collapse(self, year, key):
        """grid_for over an interval DB collapses to grid_for over the
        base DB — including pre-base years (factor 1.0)."""
        trajectory = DecarbonizationTrajectory(base_year=2024,
                                               annual_decline=0.07,
                                               floor_frac=0.2)
        db = self._db()
        country, region = lookup_args(key)
        assert trajectory.grid_for(db, year).lookup(country, region) == \
            trajectory.grid_for(DEFAULT_GRID_DB, year).lookup(country,
                                                              region)

    def test_scaling_preserves_hour_shape(self):
        db = self._db()
        scaled = db.scaled(0.5)
        assert scaled.hour_factors("France") == \
            pytest.approx(db.hour_factors("France"))


class TestIntervalSurface:
    def test_series_for_region_wins_over_country(self):
        db = IntervalGridDB.from_profiles(DEFAULT_GRID_DB, {
            "united states": synthetic_diurnal(1.0, amplitude=0.1),
            "us-tva": synthetic_diurnal(1.0, amplitude=0.4),
        })
        tva = db.series_for("United States", "us-tva")
        assert tva is not None and tva.annual_mean == REGION_ACI["us-tva"]
        us = db.series_for("United States")
        assert us is not None and us.annual_mean == \
            COUNTRY_ACI["united states"]
        # A region with a scalar but no series is *flat*, not inherited
        # from the country series (scalar hits shadow coarser series).
        assert db.series_for("United States", "us-california") is None
        assert db.hour_factors("United States", "us-california") == \
            (1.0,) * 24

    def test_lookup_hour_flat_for_seriesless_locations(self):
        db = IntervalGridDB(base=DEFAULT_GRID_DB)
        for hour in (0, 12, 23):
            assert db.lookup_hour("France", hour=hour) == \
                COUNTRY_ACI["france"]
        with pytest.raises(ValueError):
            db.lookup_hour("France", hour=24)

    def test_lookup_hour_tracks_the_profile(self):
        db = IntervalGridDB.from_profiles(
            DEFAULT_GRID_DB,
            {"france": synthetic_diurnal(1.0, amplitude=0.3, peak_hour=19)})
        assert db.lookup_hour("France", hour=19) > \
            db.lookup_hour("France", hour=7)

    def test_with_series_does_not_alias(self):
        base = IntervalGridDB(base=DEFAULT_GRID_DB)
        child = base.with_series("france", synthetic_diurnal(0.056))
        assert "france" not in base.series
        assert child.base.country_aci is not base.base.country_aci

    def test_duck_types_into_fleet_frame_aci(self, dataset):
        """FleetFrame.aci takes an interval DB anywhere an annual DB
        goes — paper-default collapse keeps the column bit-identical."""
        import numpy as np

        from repro.core.vectorized import FleetFrame

        records = dataset.public_records()[:32]
        frame = FleetFrame.from_records(records)
        annual = frame.aci(DEFAULT_GRID_DB)
        interval = frame.aci(default_interval_db())
        np.testing.assert_array_equal(annual, interval)
