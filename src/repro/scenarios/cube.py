"""The labeled result of a scenario sweep.

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
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from repro.analysis.series import CarbonSeries
from repro.core.uncertainty import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_MC_SEED,
    UncertaintyBand,
    total_with_uncertainty_arrays,
)
from repro.scenarios.spec import ScenarioSpec

__all__ = ["ScenarioCube", "FOOTPRINTS"]

#: The reducible footprints of a cube.
FOOTPRINTS = ("operational", "embodied", "embodied_annualized")


def _npz_path(path) -> str:
    """Normalize the ``.npz`` suffix once for both save and load.

    ``np.savez_compressed`` appends ``.npz`` to suffix-less paths but
    ``np.load`` opens paths verbatim; normalizing here keeps
    ``load_npz(p)`` symmetric with ``save_npz(p)`` for any ``p``.
    """
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


@dataclass(frozen=True)
class ScenarioCube:
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
        row = self.values(footprint)[s]
        base = "embodied" if footprint.startswith("embodied") else footprint
        return CarbonSeries(
            footprint=base,
            scenario=self.specs[s].name,
            values={rank: (None if np.isnan(v) else float(v))
                    for rank, v in zip(self.ranks, row)},
        )

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

    # -- persistence ---------------------------------------------------------

    def save_npz(self, path) -> None:
        """Persist the cube to one ``.npz`` file.

        Large sweeps (10³ scenarios × 10⁵ systems) should not be
        recomputed to be re-read: the value/uncertainty matrices are
        stored as plain (lossless) npz arrays, and the labeled axes —
        specs, ranks, names — as one pickled blob packed into a uint8
        array, so :meth:`load_npz` never needs ``allow_pickle`` for
        the numeric payload.  Round trips are exact:
        ``load_npz(path) == cube`` field for field (asserted in
        ``tests/scenarios``).
        """
        meta = pickle.dumps(
            {"specs": self.specs, "ranks": self.ranks, "names": self.names},
            protocol=pickle.HIGHEST_PROTOCOL)
        np.savez_compressed(
            _npz_path(path),
            meta=np.frombuffer(meta, dtype=np.uint8),
            operational_mt=self.operational_mt,
            operational_unc=self.operational_unc,
            embodied_mt=self.embodied_mt,
            embodied_unc=self.embodied_unc,
            lifetime_years=self.lifetime_years,
        )

    @classmethod
    def load_npz(cls, path) -> "ScenarioCube":
        """Reload a cube saved by :meth:`save_npz` (exact round trip)."""
        with np.load(_npz_path(path)) as data:
            meta = pickle.loads(data["meta"].tobytes())
            return cls(
                specs=tuple(meta["specs"]),
                ranks=tuple(meta["ranks"]),
                names=tuple(meta["names"]),
                operational_mt=data["operational_mt"],
                operational_unc=data["operational_unc"],
                embodied_mt=data["embodied_mt"],
                embodied_unc=data["embodied_unc"],
                lifetime_years=data["lifetime_years"],
            )

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
