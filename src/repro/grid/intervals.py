"""Interval-resolved grid carbon intensity.

:mod:`repro.grid.intensity` models the grid as one annual scalar per
country/region — the paper's resolution.  Ichnos (West et al. 2024)
shows that *interval* CI series (half-hourly national feeds) plus
time-shift what-ifs change workload carbon estimates materially.  This
module supplies the data layer for that time axis:

* :class:`IntensitySeries` — a regular hourly/sub-hourly intensity
  series in kgCO2e/kWh with a *declared* annual mean;
* :func:`read_ci_csv` — ingester for Ichnos-style CI CSV files
  (timestamped rows, gCO2/kWh values);
* :func:`synthetic_diurnal` / :func:`synthetic_seasonal` —
  deterministic generators for grids without public interval feeds;
* :class:`IntervalGridDB` — per-region series layered over a base
  :class:`~repro.grid.intensity.GridIntensityDB`, whose annual-mean
  collapse reproduces the base ``lookup`` bit-identically.

The annual-mean contract
------------------------

Every series carries an explicit ``annual_mean`` rather than deriving
it from the samples on demand: re-summing floats would drift from the
annual scalar the rest of the stack already uses, breaking the
bit-identity contract every engine in this repo is built on.  A series
attached to a base DB via :meth:`IntervalGridDB.from_profiles` is
rebased with :meth:`IntensitySeries.with_mean` so its declared mean
*is* the base scalar — collapse returns that exact float — and
:meth:`IntervalGridDB.scaled` multiplies declared means with the same
single float op as :meth:`GridIntensityDB.scaled`, so scaling and
collapse commute to the last bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.errors import ParseError
from repro.grid.intensity import GridIntensityDB

#: Minutes per day — series lengths must tile whole days.
_DAY_MINUTES = 24 * 60


@dataclass(frozen=True)
class IntensitySeries:
    """A regular interval-indexed carbon-intensity series (kgCO2e/kWh).

    Samples are spaced ``step_minutes`` apart starting at
    ``start_minute`` past midnight; the series must tile whole days so
    every hour-of-day bucket is sampled equally often.  ``annual_mean``
    is the *declared* annual scalar this series collapses to (see the
    module docstring for why it is declared, not derived).
    """

    values: tuple[float, ...]
    step_minutes: int = 60
    annual_mean: float | None = None
    start_minute: int = 0

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("IntensitySeries needs at least one sample")
        if self.step_minutes <= 0 or 60 % self.step_minutes and \
                self.step_minutes % 60:
            raise ValueError(
                f"step_minutes must divide or be a multiple of 60, got "
                f"{self.step_minutes}")
        span = len(self.values) * self.step_minutes
        if span % _DAY_MINUTES:
            raise ValueError(
                f"series must tile whole days: {len(self.values)} samples "
                f"x {self.step_minutes}min = {span}min")
        if any(v < 0 for v in self.values):
            raise ValueError("intensities must be non-negative")
        if self.annual_mean is None:
            object.__setattr__(self, "annual_mean", self.sample_mean())
        if self.annual_mean <= 0:
            raise ValueError(
                f"annual_mean must be positive, got {self.annual_mean}")

    # -- basic reductions ------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    @property
    def days(self) -> int:
        """Whole days the series covers."""
        return len(self.values) * self.step_minutes // _DAY_MINUTES

    def sample_mean(self) -> float:
        """Arithmetic mean of the raw samples (not the declared mean)."""
        return math.fsum(self.values) / len(self.values)

    # -- hour-of-day structure -------------------------------------------

    def hour_profile(self) -> tuple[float, ...]:
        """Mean intensity per hour of day (24 values, kgCO2e/kWh).

        Multi-day series bucket by hour-of-day; sub-hourly steps
        average within the hour.  Because the series tiles whole days,
        every bucket receives the same number of samples.
        """
        sums = [0.0] * 24
        counts = [0] * 24
        minute = self.start_minute
        hours_per_sample = max(1, self.step_minutes // 60)
        for v in self.values:
            for j in range(hours_per_sample):
                hour = ((minute + j * 60) // 60) % 24
                sums[hour] += v
                counts[hour] += 1
            minute += self.step_minutes
        return tuple(s / c for s, c in zip(sums, counts))

    def hour_factors(self) -> tuple[float, ...]:
        """Hour-of-day shape as multiplicative factors (24 values).

        ``factor[h] = hour_profile[h] / profile_mean``.  A flat series
        short-circuits to exactly ``1.0`` everywhere (the sum/divide
        round trip is not bit-exact for arbitrary floats), which is
        what lets the paper-default (annual-mean) path reproduce the
        atemporal sweep bit-for-bit.
        """
        profile = self.hour_profile()
        if all(p == profile[0] for p in profile):
            return (1.0,) * 24
        mean = math.fsum(profile) / 24.0
        return tuple(p / mean for p in profile)

    # -- derivations -----------------------------------------------------

    def with_mean(self, target: float) -> "IntensitySeries":
        """Rebase the series so its declared annual mean is ``target``.

        Samples rescale by ``target / annual_mean``; the declared mean
        becomes *exactly* ``target`` (no float round-trip), which is
        how :meth:`IntervalGridDB.from_profiles` pins the annual-mean
        collapse to the base DB's scalar.
        """
        if target <= 0:
            raise ValueError(f"target mean must be positive, got {target}")
        ratio = target / self.annual_mean
        return IntensitySeries(
            values=tuple(v * ratio for v in self.values),
            step_minutes=self.step_minutes,
            annual_mean=target,
            start_minute=self.start_minute)

    def scaled(self, factor: float) -> "IntensitySeries":
        """Uniformly scale the series (and its declared mean).

        The declared mean multiplies with the same single float op as
        :meth:`GridIntensityDB.scaled` uses per entry, so scaling
        commutes with annual-mean collapse bit-for-bit.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return IntensitySeries(
            values=tuple(v * factor for v in self.values),
            step_minutes=self.step_minutes,
            annual_mean=self.annual_mean * factor,
            start_minute=self.start_minute)


# ---------------------------------------------------------------------------
# Ichnos-style CSV ingestion
# ---------------------------------------------------------------------------

#: Header names recognized as the intensity column, in preference order.
_VALUE_COLUMNS = ("actual", "ci", "carbon intensity", "carbon_intensity",
                  "intensity", "value", "forecast")


def _parse_timestamp(text: str) -> datetime:
    text = text.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)


def read_ci_csv(source, *, value_column: str | int | None = None,
                units: str = "g") -> IntensitySeries:
    """Read an Ichnos-style CI CSV into an :class:`IntensitySeries`.

    Expected shape (as produced by national CI feeds and consumed by
    Ichnos): one header row, a timestamp in the first column, and an
    intensity value column (``actual``/``ci``/``intensity``/
    ``forecast``…) in gCO2e/kWh.  The interval step is inferred from
    the first two timestamps and validated for regularity; values
    convert to kgCO2e/kWh when ``units="g"`` (pass ``units="kg"`` for
    pre-converted files).

    Args:
        source: path to a CSV file, or an iterable of CSV lines.
        value_column: header name or 0-based index of the intensity
            column; default auto-detects from the header.
        units: ``"g"`` (gCO2e/kWh, divided by 1000) or ``"kg"``.

    Raises:
        ParseError: the content is not a usable series — not UTF-8
            text, fewer than two data rows, a short row, an unreadable
            timestamp, a negative or non-finite value, an irregular
            interval, or a series that does not tile whole days.  The
            message names the file and, where one is at fault, the row.
        ValueError: a bad ``units`` or ``value_column`` argument.
        OSError: the file cannot be opened.
    """
    if units not in ("g", "kg"):
        raise ValueError(f"units must be 'g' or 'kg', got {units!r}")
    name = str(source) if isinstance(source, (str, Path)) else "CI CSV"
    try:
        if isinstance(source, (str, Path)):
            with open(source, newline="", encoding="utf-8") as fh:
                rows = _numbered_rows(fh)
        else:
            rows = _numbered_rows(source)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{name}: not a CSV text file ({exc})") from None
    if len(rows) < 3:
        raise ParseError(f"{name}: needs a header and at least two data "
                         f"rows, got {max(len(rows) - 1, 0)}")

    header = [cell.strip().lower() for cell in rows[0][1]]
    if value_column is None:
        index = None
        for column in _VALUE_COLUMNS:
            if column in header:
                index = header.index(column)
                break
        if index is None:
            index = 1 if len(header) > 1 else 0
    elif isinstance(value_column, int):
        index = value_column
    else:
        wanted = value_column.strip().lower()
        if wanted not in header:
            raise ValueError(
                f"column {value_column!r} not in header {header}")
        index = header.index(wanted)

    stamps, values = [], []
    for line, row in rows[1:]:
        where = f"{name}, row {line}"
        if len(row) <= max(index, 0):
            raise ParseError(f"{where}: {len(row)} column(s), the value "
                             f"is in column {index + 1}")
        try:
            stamp = _parse_timestamp(row[0])
        except ValueError:
            raise ParseError(f"{where}: bad timestamp {row[0]!r}") from None
        if stamps and (stamp.tzinfo is None) != (stamps[0].tzinfo is None):
            raise ParseError(f"{where}: mixes timestamps with and without "
                             "a UTC offset")
        try:
            value = float(row[index])
        except ValueError:
            raise ParseError(f"{where}: bad value {row[index]!r}") from None
        if not math.isfinite(value) or value < 0:
            raise ParseError(f"{where}: value {row[index].strip()!r} is "
                             "not a finite non-negative number")
        stamps.append(stamp)
        values.append(value)

    step = (stamps[1] - stamps[0]).total_seconds() / 60.0
    if step <= 0 or step != int(step):
        raise ParseError(f"{name}, row {rows[2][0]}: non-positive or "
                         f"fractional step: {step} minutes")
    step = int(step)
    for i in range(1, len(stamps)):
        got = (stamps[i] - stamps[i - 1]).total_seconds() / 60.0
        if got != step:
            raise ParseError(f"{name}, row {rows[i + 1][0]}: irregular "
                             f"interval: {got}min != {step}min")

    if units == "g":
        values = [v / 1000.0 for v in values]
    start = stamps[0].hour * 60 + stamps[0].minute
    try:
        return IntensitySeries(values=tuple(values), step_minutes=step,
                               start_minute=start)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{name}: {exc}") from None


def _numbered_rows(lines) -> list[tuple[int, list[str]]]:
    """Non-blank CSV rows with the line number each ends on."""
    reader = csv.reader(lines)
    return [(reader.line_num, row) for row in reader
            if row and any(cell.strip() for cell in row)]


# ---------------------------------------------------------------------------
# Deterministic synthetic generators
# ---------------------------------------------------------------------------

def synthetic_diurnal(mean: float, *, amplitude: float = 0.25,
                      peak_hour: float = 19.0, step_minutes: int = 60,
                      days: int = 1) -> IntensitySeries:
    """A deterministic diurnal (24h-cycle) intensity series.

    A raised cosine peaking at ``peak_hour`` (default 19:00 — the
    evening demand ramp, when solar has dropped off and fossil peakers
    carry the load) with relative swing ``amplitude``:
    ``v(h) = mean * (1 + amplitude * cos(2pi (h - peak_hour) / 24))``.
    ``amplitude=0`` produces an exactly flat series (every sample is
    the same float), whose hour factors are exactly 1.0.  The declared
    annual mean is exactly ``mean``.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    samples_per_day = _DAY_MINUTES // step_minutes
    values = []
    for day in range(days):
        for i in range(samples_per_day):
            hour = i * step_minutes / 60.0
            shape = 1.0 + amplitude * math.cos(
                2.0 * math.pi * (hour - peak_hour) / 24.0)
            values.append(mean * shape)
    return IntensitySeries(values=tuple(values), step_minutes=step_minutes,
                           annual_mean=mean)


def synthetic_seasonal(mean: float, *, diurnal_amplitude: float = 0.25,
                       seasonal_amplitude: float = 0.15,
                       peak_hour: float = 19.0, peak_day: float = 15.0,
                       days: int = 365,
                       step_minutes: int = 60) -> IntensitySeries:
    """A deterministic seasonal x diurnal intensity series.

    The diurnal raised cosine of :func:`synthetic_diurnal` modulated by
    an annual cycle peaking at ``peak_day`` (default mid-January —
    winter heating load on the median northern-hemisphere grid):
    ``v = mean * (1 + a_d cos(...hour...)) * (1 + a_s cos(...day...))``.
    Both amplitudes at 0 produce an exactly flat series.  The declared
    annual mean is exactly ``mean``.
    """
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError(
            f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude}")
    if not 0.0 <= seasonal_amplitude < 1.0:
        raise ValueError(
            f"seasonal_amplitude must be in [0, 1), got {seasonal_amplitude}")
    samples_per_day = _DAY_MINUTES // step_minutes
    values = []
    for day in range(days):
        season = 1.0 + seasonal_amplitude * math.cos(
            2.0 * math.pi * (day - peak_day) / days)
        for i in range(samples_per_day):
            hour = i * step_minutes / 60.0
            shape = 1.0 + diurnal_amplitude * math.cos(
                2.0 * math.pi * (hour - peak_hour) / 24.0)
            values.append(mean * shape * season)
    return IntensitySeries(values=tuple(values), step_minutes=step_minutes,
                           annual_mean=mean)


# ---------------------------------------------------------------------------
# The layered interval database
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalGridDB:
    """Per-region interval series layered over annual scalars.

    Resolution mirrors :meth:`GridIntensityDB.lookup` — region key →
    country key → base DB — but region/country keys may now carry an
    :class:`IntensitySeries`.  ``lookup`` collapses a hit to its
    *declared* annual mean, so a DB built with :meth:`from_profiles`
    (which rebases every series onto the base scalar) reproduces
    ``base.lookup`` bit-identically for every key: the duck-typing
    contract that lets :meth:`repro.core.vectorized.FleetFrame.aci`
    and the whole cube stack take an interval DB anywhere an annual DB
    goes, with paper-default results unchanged to the last bit.
    """

    base: GridIntensityDB = field(default_factory=GridIntensityDB)
    series: Mapping[str, IntensitySeries] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "series",
            {k.strip().lower(): v for k, v in self.series.items()})

    @classmethod
    def from_profiles(cls, base: GridIntensityDB,
                      profiles: Mapping[str, IntensitySeries]
                      ) -> "IntervalGridDB":
        """Attach hour/seasonal *shapes* to a base DB's annual scalars.

        Each profile is rebased with :meth:`IntensitySeries.with_mean`
        onto the scalar the base DB resolves for that key (region keys
        try the region layer first, then the country layer), so the
        annual-mean collapse is exact by construction.
        """
        rebased = {}
        for key, profile in profiles.items():
            k = key.strip().lower()
            if k in base.region_aci:
                target = base.region_aci[k]
            elif k in base.country_aci:
                target = base.country_aci[k]
            else:
                raise KeyError(
                    f"profile key {key!r} resolves in neither the region "
                    "nor the country layer of the base DB")
            rebased[k] = profile.with_mean(target)
        return cls(base=base, series=rebased)

    # -- annual-mean collapse (the GridIntensityDB-compatible surface) ---

    def lookup(self, country: str | None = None, region: str | None = None,
               *, strict: bool = False) -> float:
        """Annual-mean ACI, kgCO2e/kWh — same contract as the base DB."""
        found = self.series_for(country, region)
        if found is not None:
            return found.annual_mean
        return self.base.lookup(country, region, strict=strict)

    def knows_region(self, region: str) -> bool:
        key = region.strip().lower()
        return key in self.series or self.base.knows_region(region)

    # -- the time-resolved surface ---------------------------------------

    def series_for(self, country: str | None = None,
                   region: str | None = None) -> IntensitySeries | None:
        """The interval series a location resolves to, if any.

        Region key wins over country key, mirroring ``lookup``; a
        location with no attached series returns ``None`` (callers
        treat that as a flat profile at the annual scalar).
        """
        if region:
            key = region.strip().lower()
            if key in self.series:
                return self.series[key]
            # An unknown *series* key with a known region scalar still
            # falls through to the country series only when the region
            # has no scalar either — scalar hits shadow coarser series.
            if key in self.base.region_aci:
                return None
        if country:
            key = country.strip().lower()
            if key in self.series:
                return self.series[key]
        return None

    def lookup_hour(self, country: str | None = None,
                    region: str | None = None, *, hour: int,
                    strict: bool = False) -> float:
        """ACI for one hour of day (0-23), kgCO2e/kWh.

        Locations without a series are flat: every hour returns the
        annual scalar.
        """
        if not 0 <= hour < 24:
            raise ValueError(f"hour must be in [0, 24), got {hour}")
        found = self.series_for(country, region)
        if found is None:
            return self.base.lookup(country, region, strict=strict)
        return found.hour_profile()[hour]

    def hour_factors(self, country: str | None = None,
                     region: str | None = None) -> tuple[float, ...]:
        """Hour-of-day multiplicative shape for a location (24 values).

        Exactly ``1.0`` everywhere for locations without a series.
        """
        found = self.series_for(country, region)
        if found is None:
            return (1.0,) * 24
        return found.hour_factors()

    # -- derivations -----------------------------------------------------

    def with_series(self, key: str, series: IntensitySeries
                    ) -> "IntervalGridDB":
        """Copy with one series added/replaced (defensive, no aliasing)."""
        updated = dict(self.series)
        updated[key.strip().lower()] = series
        return IntervalGridDB(base=GridIntensityDB(
            country_aci=dict(self.base.country_aci),
            region_aci=dict(self.base.region_aci),
            world_average=self.base.world_average), series=updated)

    def scaled(self, factor: float) -> "IntervalGridDB":
        """Every scalar and every series sample multiplied by ``factor``.

        Declared means scale with the identical float op as the base
        scalars, so ``scaled`` commutes with annual-mean collapse
        bit-for-bit (asserted by the grid property tests).
        """
        return IntervalGridDB(
            base=self.base.scaled(factor),
            series={k: s.scaled(factor) for k, s in self.series.items()})


def default_interval_db(*, amplitude: float = 0.25,
                        seasonal: bool = False) -> IntervalGridDB:
    """The default grid DB with synthetic diurnal shapes on every key.

    A convenience for scenario work when no real CI feeds are on disk:
    every country and region in :data:`~repro.grid.intensity.COUNTRY_ACI`
    / ``REGION_ACI`` gets the same synthetic shape rebased onto its own
    annual scalar, so annual-mean collapse still matches
    ``DEFAULT_GRID_DB.lookup`` exactly.
    """
    from repro.grid.intensity import DEFAULT_GRID_DB

    shape = (synthetic_seasonal(1.0, diurnal_amplitude=amplitude)
             if seasonal else synthetic_diurnal(1.0, amplitude=amplitude))
    profiles = {key: shape for key in (
        list(DEFAULT_GRID_DB.region_aci) + list(DEFAULT_GRID_DB.country_aci))}
    return IntervalGridDB.from_profiles(DEFAULT_GRID_DB, profiles)
