"""The labeled results of scenario sweeps, and their one file format.

A :class:`ScenarioCube` holds both footprints of every scenario over
every system as ``(n_scenarios, n_systems)`` arrays (``nan`` =
uncovered), with the scenario axis labeled by the specs and the system
axis by Top500 ranks.  Reductions go three ways:

* per-scenario → :class:`~repro.analysis.series.CarbonSeries` (the
  unit behind every carbon-versus-rank figure) via :meth:`series`;
* per-scenario totals / coverage counts / deltas against a named
  baseline scenario via :meth:`totals`, :meth:`n_covered`,
  :meth:`delta_totals`;
* per-scenario Monte-Carlo fleet bands via :meth:`band` /
  :meth:`bands`, sampled straight from the cube's arrays — no
  estimate objects.  :meth:`bands` draws every scenario from one
  batched kernel (:func:`repro.uncertainty.mc.mc_band_stack`,
  optionally fanned out over threads) and is
  bit-identical to calling
  :func:`~repro.core.uncertainty.total_with_uncertainty_arrays` per
  scenario; :meth:`band_stack` exposes the raw statistics.

The ``embodied_annualized`` footprint divides embodied carbon by each
scenario's hardware lifetime (the refresh-horizon lever), turning the
one-time footprint into a per-year figure comparable with operational.

A :class:`FactorCube` adds a third axis to a scenario cube without
materializing it: ``value[s, k, i] = base[s, i] × factor[s, k]``.  The
projection engine's years (:class:`~repro.projection.ProjectionCube`)
and the hour-axis engine's windows (:class:`~repro.scenarios.ShiftCube`)
are its two subclasses; every reduction is written once, here.

Every cube kind saves to and loads from one ``.npz`` layout
(``docs/scenarios.md``, "Cube persistence"): the numeric arrays stored
uncompressed, plus a ``meta`` JSON document with the labeled axes and
the specs.  Loading never deserializes Python objects; a file that is
not a valid cube of the requested kind raises
:class:`~repro.errors.ParseError`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.uncertainty import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_MC_SEED,
    UncertaintyBand,
    total_with_uncertainty_arrays,
)
from repro.errors import ParseError
from repro.scenarios.spec import ScenarioSpec, spec_from_dict, spec_to_dict

if TYPE_CHECKING:
    # Loaded by the series reductions only: sweeping and tabulating a
    # cube never imports the analysis (and interpolation) stack.
    from repro.analysis.series import CarbonSeries

__all__ = ["ScenarioCube", "FactorCube", "FOOTPRINTS", "CUBE_FORMAT",
           "CUBE_FORMAT_VERSION"]

#: The reducible footprints of a cube.
FOOTPRINTS = ("operational", "embodied", "embodied_annualized")

#: The ``format`` tag and ``version`` in every cube file's metadata.
CUBE_FORMAT = "repro-cube"
CUBE_FORMAT_VERSION = 2

#: What reading a damaged or foreign file can raise besides ParseError
#: (a missing file's OSError is left to the caller).
_READ_ERRORS = (ValueError, KeyError, TypeError, EOFError, RecursionError,
                zipfile.BadZipFile)


def _npz_path(path) -> str:
    """Normalize the ``.npz`` suffix once for both save and load.

    ``np.savez`` appends ``.npz`` to suffix-less paths but ``np.load``
    opens paths verbatim; normalizing here keeps ``load_npz(p)``
    symmetric with ``save_npz(p)`` for any ``p``.
    """
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


def _read_meta(raw: bytes, kind: str) -> dict:
    """The checked ``meta`` document of a cube file → decoded axes."""
    if raw[:1] == b"\x80":
        raise ParseError(
            "legacy (version 1) cube file, whose Python-object header "
            "this version does not read; re-run the sweep and save it "
            "again")
    doc = json.loads(raw)
    if not isinstance(doc, dict) or doc.get("format") != CUBE_FORMAT:
        raise ParseError("not a repro cube file")
    if doc.get("version") != CUBE_FORMAT_VERSION:
        raise ParseError(
            f"unsupported cube file version {doc.get('version')!r} "
            f"(this version reads {CUBE_FORMAT_VERSION}); re-run the "
            "sweep and save it again")
    if doc.get("kind") != kind:
        raise ParseError(f"file holds a {doc.get('kind')!r}, not a "
                         f"{kind!r}")
    axes = spec_from_dict(doc["axes"])
    specs = tuple(spec_from_dict(s) for s in doc["specs"])
    if not isinstance(axes, dict) or not all(
            isinstance(spec, ScenarioSpec) for spec in specs):
        raise ParseError("malformed axes or specs in the cube header")
    return {**axes, "specs": specs}


def _series(footprint: str, label: str, ranks, row) -> CarbonSeries:
    """A rank-indexed series from one value row (None = uncovered)."""
    from repro.analysis.series import CarbonSeries
    return CarbonSeries(
        footprint="embodied" if footprint.startswith("embodied")
        else footprint,
        scenario=label,
        values={rank: (None if np.isnan(v) else float(v))
                for rank, v in zip(ranks, row)},
    )


def _split(cube) -> tuple[dict, dict]:
    """A cube's dataclass fields → (axes, arrays), ``base`` merged in.

    Arrays are the ndarray fields; every other field that is not None
    is an axis (a JSON document through the spec codec).
    """
    axes, arrays = {}, {}
    for field in dataclasses.fields(cube):
        value = getattr(cube, field.name)
        if field.name == "base":
            base_axes, base_arrays = _split(value)
            axes.update(base_axes)
            arrays.update(base_arrays)
        elif isinstance(value, np.ndarray):
            arrays[field.name] = value
        elif value is not None:
            axes[field.name] = value
    return axes, arrays


def _join(cls, axes: dict, arrays: dict):
    """Inverse of :func:`_split`: rebuild through the constructor."""
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name == "base":
            kwargs["base"] = _join(ScenarioCube, axes, arrays)
        elif field.name in arrays:
            kwargs[field.name] = arrays[field.name]
        elif field.name in axes:
            kwargs[field.name] = axes[field.name]
    return cls(**kwargs)


class _CubeFile:
    """The one ``save_npz``/``load_npz`` pair every cube kind shares;
    the file's ``kind`` is the cube's class name."""

    def save_npz(self, path) -> None:
        """Persist the cube to one ``.npz`` file (exact round trip).

        Arrays are stored uncompressed (``np.savez``); the ``meta``
        member is a UTF-8 JSON document ``{"format", "version",
        "kind", "axes", "specs"}`` packed into a uint8 array, specs
        encoded by :func:`~repro.scenarios.spec.spec_to_dict`.
        ``load_npz(path)`` gives back equal specs and axes and
        bit-identical arrays (asserted in ``tests/scenarios`` and
        ``tests/projection``).
        """
        axes, arrays = _split(self)
        doc = {"format": CUBE_FORMAT, "version": CUBE_FORMAT_VERSION,
               "kind": type(self).__name__,
               "specs": [spec_to_dict(s) for s in axes.pop("specs")],
               "axes": spec_to_dict(axes)}
        meta = np.frombuffer(json.dumps(doc).encode(), dtype=np.uint8)
        np.savez(_npz_path(path), meta=meta, **arrays)

    @classmethod
    def load_npz(cls, path):
        """Reload a cube saved by :meth:`save_npz`.

        Reads arrays and JSON only — never Python objects.  A truncated
        or foreign file, a legacy (version 1) cube, another ``version``
        or a different cube kind raises
        :class:`~repro.errors.ParseError`; a missing file raises the
        usual :class:`OSError`.
        """
        path = _npz_path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                axes = _read_meta(data["meta"].tobytes(), cls.__name__)
                arrays = {name: data[name] for name in data.files
                          if name != "meta"}
            return _join(cls, axes, arrays)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except _READ_ERRORS as exc:
            raise ParseError(
                f"{path}: not a readable cube file ({exc})") from exc


@dataclass(frozen=True)
class ScenarioCube(_CubeFile):
    """Scenario × system carbon values with labeled axes."""

    specs: tuple[ScenarioSpec, ...]
    ranks: tuple[int, ...]
    names: tuple[str | None, ...]
    operational_mt: np.ndarray       # (S, n), nan = uncovered
    operational_unc: np.ndarray      # (S, n), nan where uncovered
    embodied_mt: np.ndarray          # (S, n), nan = uncovered
    embodied_unc: np.ndarray         # (S, n), nan where uncovered
    lifetime_years: np.ndarray       # (S,), 1.0 = no amortization

    def __post_init__(self) -> None:
        shape = (len(self.specs), len(self.ranks))
        for field_name in ("operational_mt", "operational_unc",
                           "embodied_mt", "embodied_unc"):
            arr = getattr(self, field_name)
            if arr.shape != shape:
                raise ValueError(
                    f"{field_name} shape {arr.shape} != {shape}")
        if self.lifetime_years.shape != (len(self.specs),):
            raise ValueError("lifetime_years must be one value per scenario")

    # -- axes ----------------------------------------------------------------

    @property
    def n_scenarios(self) -> int:
        return len(self.specs)

    @property
    def n_systems(self) -> int:
        return len(self.ranks)

    @property
    def scenario_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    def index(self, scenario: "int | str | ScenarioSpec") -> int:
        """Scenario-axis position by index, name, or spec (first match)."""
        if isinstance(scenario, int):
            if not -self.n_scenarios <= scenario < self.n_scenarios:
                raise IndexError(f"scenario index {scenario} out of range")
            return scenario % self.n_scenarios
        name = scenario.name if isinstance(scenario, ScenarioSpec) \
            else scenario
        for i, spec in enumerate(self.specs):
            if spec.name == name:
                return i
        raise KeyError(f"no scenario named {name!r} in cube "
                       f"(have {list(self.scenario_names)})")

    # -- views ---------------------------------------------------------------

    def values(self, footprint: str = "operational") -> np.ndarray:
        """The (S, n) value matrix for one footprint (nan = uncovered)."""
        if footprint == "operational":
            return self.operational_mt
        if footprint == "embodied":
            return self.embodied_mt
        if footprint == "embodied_annualized":
            return self.embodied_mt / self.lifetime_years[:, None]
        raise ValueError(f"unknown footprint {footprint!r}; "
                         f"expected one of {FOOTPRINTS}")

    def uncertainty(self, footprint: str = "operational") -> np.ndarray:
        """Relative uncertainty matrix (lifetime scaling leaves it fixed)."""
        if footprint == "operational":
            return self.operational_unc
        if footprint in ("embodied", "embodied_annualized"):
            return self.embodied_unc
        raise ValueError(f"unknown footprint {footprint!r}; "
                         f"expected one of {FOOTPRINTS}")

    def coverage(self, footprint: str = "operational") -> np.ndarray:
        """(S, n) bool mask of covered systems."""
        return ~np.isnan(self.values(footprint))

    def n_covered(self, scenario: "int | str | ScenarioSpec",
                  footprint: str = "operational") -> int:
        """Covered-system count for one scenario."""
        return int(self.coverage(footprint)[self.index(scenario)].sum())

    # -- reductions ----------------------------------------------------------

    def totals(self, footprint: str = "operational") -> np.ndarray:
        """(S,) fleet totals over covered systems, MT CO2e."""
        return np.nansum(self.values(footprint), axis=1)

    def total(self, scenario: "int | str | ScenarioSpec",
              footprint: str = "operational") -> float:
        """One scenario's fleet total, MT CO2e."""
        return float(np.nansum(self.values(footprint)[self.index(scenario)]))

    def delta_totals(self, baseline: "int | str | ScenarioSpec",
                     footprint: str = "operational") -> np.ndarray:
        """(S,) total changes relative to a named baseline scenario."""
        totals = self.totals(footprint)
        return totals - totals[self.index(baseline)]

    def series(self, scenario: "int | str | ScenarioSpec",
               footprint: str = "operational") -> CarbonSeries:
        """One scenario's rank-indexed series (None = uncovered)."""
        s = self.index(scenario)
        return _series(footprint, self.specs[s].name, self.ranks,
                       self.values(footprint)[s])

    def band(self, scenario: "int | str | ScenarioSpec",
             footprint: str = "operational", *,
             n_samples: int = DEFAULT_MC_SAMPLES,
             seed: int = DEFAULT_MC_SEED) -> UncertaintyBand:
        """Monte-Carlo fleet-total band for one scenario.

        Sampled straight from the cube's value/uncertainty rows via
        :func:`~repro.core.uncertainty.total_with_uncertainty_arrays` —
        bit-identical to sampling the scalar per-scenario loop's
        estimates with the same seed, and to the same scenario's entry
        in the batched :meth:`bands`.
        """
        s = self.index(scenario)
        return total_with_uncertainty_arrays(
            self.values(footprint)[s], self.uncertainty(footprint)[s],
            n_samples=n_samples, seed=seed)

    def band_stack(self, footprint: str = "operational", *,
                   n_samples: int = DEFAULT_MC_SAMPLES,
                   seed: int = DEFAULT_MC_SEED, method: str = "auto",
                   max_workers: int | None = None):
        """All scenarios' band statistics from one batched draw.

        Returns a :class:`repro.uncertainty.mc.BandStack` of shape
        ``(n_scenarios,)``; each cell is bit-identical to the
        per-scenario :meth:`band` call with the same seed (the
        seed-stream contract, ``docs/uncertainty.md``).  ``method``
        forwards to :func:`repro.uncertainty.mc.mc_band_stack` —
        ``"threads"`` fans scenario blocks over a thread pool with
        bit-identical output.
        """
        from repro.uncertainty.mc import mc_band_stack

        return mc_band_stack(self.values(footprint),
                             self.uncertainty(footprint),
                             n_samples=n_samples, seed=seed,
                             method=method, max_workers=max_workers)

    def bands(self, footprint: str = "operational", *,
              n_samples: int = DEFAULT_MC_SAMPLES,
              seed: int = DEFAULT_MC_SEED, method: str = "auto",
              kind: str = "quantile", max_workers: int | None = None,
              ) -> dict[str, UncertaintyBand]:
        """Per-scenario Monte-Carlo bands, keyed by scenario name.

        One batched kernel for the whole cube (no per-scenario RNG
        setups); ``kind="quantile"`` (the default) reproduces the
        per-scenario loop bit-for-bit, ``kind="normal"`` reports the
        ``mean ± 1.645·σ`` normal-approximation band from the same
        draws.
        """
        stack = self.band_stack(footprint, n_samples=n_samples, seed=seed,
                                method=method, max_workers=max_workers)
        return {spec.name: stack.band(i, kind=kind)
                for i, spec in enumerate(self.specs)}

    def table_rows(self, footprint: str = "operational",
                   baseline: "int | str | ScenarioSpec | None" = 0,
                   ) -> list[tuple[str, float, int, float]]:
        """(name, total_mt, n_covered, delta_vs_baseline_pct) rows.

        The delta column is 0.0 for the baseline row itself (and
        everywhere when ``baseline`` is None or its total is zero).
        """
        totals = self.totals(footprint)
        coverage = self.coverage(footprint).sum(axis=1)
        base_total = 0.0
        if baseline is not None:
            base_total = totals[self.index(baseline)]
        rows = []
        for spec, total, n_cov in zip(self.specs, totals, coverage):
            delta = (100.0 * (total - base_total) / base_total
                     if base_total else 0.0)
            rows.append((spec.name, float(total), int(n_cov), delta))
        return rows


class FactorCube(_CubeFile):
    """Scenario × axis-point × system carbon, factorized over the axis.

    ``value[s, k, i] = base[s, i] × factor[s, k]``: ``base`` is the
    ordinary 2-D :class:`ScenarioCube` (swept once) and the K axis
    rides as an operational and an embodied ``(S, K)`` factor matrix —
    O(S·K), not O(S·K·n).  Refresh re-spend scenarios, whose embodied
    factor differs per record, are listed in ``refresh_rows`` with
    dense ``(K, n)`` factor rows in ``emb_respend``.  Uncertainty and
    coverage are axis-invariant.

    Subclasses are frozen dataclasses with a ``base`` field; they
    supply ``op_factors`` / ``emb_factors``, the axis ``labels`` and
    ``_point_index(point)``.
    """

    base: ScenarioCube
    refresh_rows: tuple[int, ...] = ()
    emb_respend: np.ndarray | None = None
    #: Axis position :meth:`bands` reports when no point is given.
    _BANDS_AT = 0
    #: Whether the axis labels must ascend (years do, windows need not).
    _ASCENDING = False

    def __post_init__(self) -> None:
        labels = self.labels
        if not labels or len(set(labels)) != len(labels) or (
                self._ASCENDING and list(labels) != sorted(labels)):
            order = ", strictly ascending" if self._ASCENDING else ""
            raise ValueError(f"{type(self).__name__} axis must be "
                             f"non-empty, distinct{order}: {list(labels)}")
        shape = (self.base.n_scenarios, len(labels))
        for name, arr in (("operational", self.op_factors),
                          ("embodied", self.emb_factors)):
            if arr.shape != shape:
                raise ValueError(
                    f"{name} factor shape {arr.shape} != {shape}")
        if bool(self.refresh_rows) != (self.emb_respend is not None):
            raise ValueError("refresh_rows and emb_respend must agree")
        if self.emb_respend is not None and self.emb_respend.shape != (
                len(self.refresh_rows), len(labels), self.base.n_systems):
            raise ValueError("emb_respend shape mismatch")

    # -- axes ----------------------------------------------------------------

    @property
    def n_scenarios(self) -> int:
        return self.base.n_scenarios

    @property
    def n_systems(self) -> int:
        return self.base.n_systems

    @property
    def specs(self) -> tuple[ScenarioSpec, ...]:
        return self.base.specs

    @property
    def scenario_names(self) -> tuple[str, ...]:
        return self.base.scenario_names

    def index(self, scenario) -> int:
        """Scenario-axis position (index, name, or spec)."""
        return self.base.index(scenario)

    def _factors(self, footprint: str) -> np.ndarray:
        """The (S, K) factors of a footprint.  Refresh rows cannot be
        annualized: their factor is a cumulative spend schedule, and
        dividing it by the lifetime has no per-year meaning."""
        if footprint == "operational":
            return self.op_factors
        if footprint == "embodied_annualized" and self.refresh_rows:
            names = [self.base.specs[s].name for s in self.refresh_rows]
            raise ValueError(
                "embodied_annualized is undefined for refresh-re-spend "
                f"scenarios {names}: the refresh factor is cumulative "
                "spend, not a rate — reduce 'embodied' instead")
        return self.emb_factors

    # -- materialization -----------------------------------------------------

    def values(self, footprint: str = "operational",
               point=None) -> np.ndarray:
        """Carbon values, MT CO2e (``nan`` = uncovered).

        ``(S, K, n)`` for the whole cube, ``(S, n)`` at one axis
        ``point``.  Each cell is one multiply of the base sweep's value
        by its factor — bit-identical to the engines' scalar reference
        loops.
        """
        return self._values_at(
            footprint, None if point is None else self._point_index(point))

    def _values_at(self, footprint: str, k: int | None) -> np.ndarray:
        base = self.base.values(footprint)
        factors = self._factors(footprint)
        if k is None:
            out = base[:, None, :] * factors[:, :, None]
        else:
            out = base * factors[:, k, None]
        if footprint != "operational":
            for r, s in enumerate(self.refresh_rows):
                respend = self.emb_respend[r] if k is None \
                    else self.emb_respend[r, k]
                out[s] = base[s] * respend
        return out

    def uncertainty(self, footprint: str = "operational") -> np.ndarray:
        """Relative uncertainty, ``(S, n)`` — axis-invariant: a factor
        scales every sample of a record's distribution alike (model-form
        risk is not quantified, see ``docs/projection.md``)."""
        return self.base.uncertainty(footprint)

    def coverage(self, footprint: str = "operational") -> np.ndarray:
        """(S, n) bool mask of covered systems (axis-invariant)."""
        return self.base.coverage(footprint)

    def at(self, point) -> ScenarioCube:
        """The slice at one axis point, as an ordinary
        :class:`ScenarioCube` (tables, figures, `cube_sensitivity`)."""
        k = self._point_index(point)
        op = self._values_at("operational", k)
        emb = self._values_at("embodied", k)
        return dataclasses.replace(
            self.base, operational_mt=op, embodied_mt=emb,
            operational_unc=np.where(np.isnan(op), np.nan,
                                     self.base.operational_unc),
            embodied_unc=np.where(np.isnan(emb), np.nan,
                                  self.base.embodied_unc))

    # -- reductions ----------------------------------------------------------

    def totals(self, footprint: str = "operational") -> np.ndarray:
        """(S, K) fleet totals over covered systems, MT CO2e.

        Factorized rows reduce as ``base_total × factor`` — the scalar
        :class:`~repro.projection.growth.CarbonProjection` float order,
        which the paper-defaults anchor test holds bit-identical —
        while refresh rows sum their materialized per-record values.
        """
        out = self.base.totals(footprint)[:, None] * self._factors(footprint)
        if footprint != "operational" and self.refresh_rows:
            base = self.base.values(footprint)
            for r, s in enumerate(self.refresh_rows):
                out[s] = np.nansum(base[s][None, :] * self.emb_respend[r],
                                   axis=1)
        return out

    def total(self, scenario, point,
              footprint: str = "operational") -> float:
        """One (scenario, axis point) fleet total, MT CO2e."""
        return float(self.totals(footprint)[self.index(scenario),
                                            self._point_index(point)])

    def series(self, scenario, point,
               footprint: str = "operational") -> CarbonSeries:
        """One (scenario, axis point) rank-indexed series, labeled
        ``"<scenario>@<point>"`` (None = uncovered)."""
        s, k = self.index(scenario), self._point_index(point)
        return _series(footprint, f"{self.specs[s].name}@{self.labels[k]}",
                       self.base.ranks, self._values_at(footprint, k)[s])

    def band(self, scenario, point, footprint: str = "operational", *,
             n_samples: int = DEFAULT_MC_SAMPLES,
             seed: int = DEFAULT_MC_SEED) -> UncertaintyBand:
        """Monte-Carlo fleet-total band for one (scenario, axis point),
        bit-identical to that cell of :meth:`band_stack`."""
        s = self.index(scenario)
        return total_with_uncertainty_arrays(
            self.values(footprint, point)[s], self.uncertainty(footprint)[s],
            n_samples=n_samples, seed=seed)

    def band_stack(self, footprint: str = "operational", point=None, *,
                   n_samples: int = DEFAULT_MC_SAMPLES,
                   seed: int = DEFAULT_MC_SEED, method: str = "auto",
                   max_workers: int | None = None):
        """Band statistics for the whole cube from one batched draw.

        A :class:`repro.uncertainty.mc.BandStack` of shape ``(S, K)``,
        or ``(S,)`` at one ``point``, every cell bit-identical to
        :meth:`band`.  ``method`` forwards to
        :func:`repro.uncertainty.mc.mc_band_stack` (``"threads"`` fans
        cell blocks over a thread pool, bit-identically).
        """
        from repro.uncertainty.mc import mc_band_stack

        values = self.values(footprint, point)
        unc = self.uncertainty(footprint)
        if point is None:
            unc = np.broadcast_to(unc[:, None, :], values.shape)
        return mc_band_stack(values, unc, n_samples=n_samples, seed=seed,
                             method=method, max_workers=max_workers)

    def bands(self, footprint: str = "operational", point=None, *,
              n_samples: int = DEFAULT_MC_SAMPLES,
              seed: int = DEFAULT_MC_SEED, method: str = "auto",
              kind: str = "quantile", max_workers: int | None = None,
              ) -> dict[str, UncertaintyBand]:
        """Per-scenario bands at one axis point (default: a projection's
        end year, a shift cube's first window), keyed by scenario name;
        one draw kernel, bit-identical to :meth:`band` for
        ``kind="quantile"``."""
        point = self.labels[self._BANDS_AT] if point is None else point
        stack = self.band_stack(footprint, point, n_samples=n_samples,
                                seed=seed, method=method,
                                max_workers=max_workers)
        return {spec.name: stack.band(s, kind=kind)
                for s, spec in enumerate(self.specs)}
