"""The hour-axis engine: scenario grids × time-of-day windows.

:mod:`repro.projection.engine` factorized the *year* axis over one
base 2-D sweep; this module does the same for *hours of day*, opening
the carbon-aware scheduling scenario family (Ichnos-style time-shift
what-ifs) on the existing cube stack.

Structure of the kernel
-----------------------

The hour axis is separable when every record in a scenario sees the
same intensity *shape* (one profile per scenario — the spec's own
``hour_profile`` or the sweep default; per-record shapes are a
recorded future fold-in, see ROADMAP).  Then the cube factorizes as

``value[s, w, i] = base[s, i] × hour_factor[s, w]``

where ``base`` is the ordinary 2-D scenario sweep (evaluated once,
in-process, exactly like the year engine) and the hour
factors are an ``(S, W)`` matrix: O(S·W), not O(S·W·n).  Embodied
carbon is hour-invariant — manufacturing doesn't care when the job
runs — so only the operational footprint carries factors.

The per-scenario factor for a window is the *conditional mean* of the
profile's hour factors under the scenario's load distribution::

    factor[s, w] = Σ_{h ∈ w} D_s[h]·f_s[h] / Σ_{h ∈ w} D_s[h]

where ``f_s`` are the profile's 24 hour-of-day factors
(:meth:`~repro.grid.intervals.IntensitySeries.hour_factors`) and
``D_s`` is the load distribution the spec's placement fields imply:
uniform (baseline), uniform over ``load_hours``, uniform over the
``greenest_hours`` k greenest hours, or ``offpeak_shift``'s
partial move of a uniform load into the greenest third of the day.
Windows where the scenario places no load fall back to the unweighted
window mean (the grid is still dirty there even if this workload
isn't).

Bit-compatibility contracts
---------------------------

* Every materialized cell is **bit-identical** to the scalar reference
  loop (:func:`shift_scalar_reference`): one multiply of the scalar
  base estimate by a factor computed by the *same shared pure-Python
  float-op sequence* (``tests/scenarios/test_timeaxis.py``).
* With no profile anywhere (the paper default), every hour factor is
  *exactly* 1.0 — flat profiles short-circuit — so the cube reproduces
  the atemporal :func:`~repro.scenarios.sweep` bit-identically: the
  annual-mean path is unchanged to the last bit.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.embodied import EmbodiedModel
from repro.core.operational import OperationalModel
from repro.core.record import SystemRecord
from repro.core.vectorized import FleetFrame
from repro.grid.intervals import IntensitySeries
from repro.scenarios.cube import FactorCube, ScenarioCube
from repro.scenarios.spec import (
    HourWindow,
    ScenarioGrid,
    ScenarioSpec,
    _as_specs,
)
from repro.scenarios.sweep import sweep, sweep_scalar_reference

__all__ = [
    "HourWindow",
    "ShiftCube",
    "ShiftReference",
    "default_hour_windows",
    "hourly_windows",
    "shift_sweep",
    "shift_scalar_reference",
]

#: Hours counted as "off-peak" by ``offpeak_shift``: the greenest
#: third of the day under the scenario's profile.
OFFPEAK_HOURS: int = 8

#: Fields the hour-axis engine owns; stripped before the base sweep.
_TIME_FIELDS = ("hour_profile", "load_hours", "greenest_hours",
                "offpeak_shift")


def default_hour_windows() -> tuple[HourWindow, ...]:
    """All-hours plus the four six-hour day-part blocks."""
    return (
        HourWindow("all-hours", tuple(range(24))),
        HourWindow.block("night", 0, 6),
        HourWindow.block("morning", 6, 12),
        HourWindow.block("afternoon", 12, 18),
        HourWindow.block("evening", 18, 24),
    )


def hourly_windows() -> tuple[HourWindow, ...]:
    """Twenty-four single-hour windows (the fully resolved W axis)."""
    return tuple(HourWindow(f"h{h:02d}", (h,)) for h in range(24))


# ---------------------------------------------------------------------------
# The shared factor arithmetic (engine AND reference call exactly this)
# ---------------------------------------------------------------------------

def _profile_factors(spec: ScenarioSpec,
                     default_profile: IntensitySeries | None,
                     ) -> tuple[float, ...]:
    """The 24 hour-of-day factors a scenario resolves to.

    The spec's own profile wins; no profile anywhere means flat —
    exactly 1.0 per hour (the paper-default annual-mean path).
    """
    profile = spec.hour_profile if spec.hour_profile is not None \
        else default_profile
    if profile is None:
        return (1.0,) * 24
    return profile.hour_factors()


def _load_distribution(spec: ScenarioSpec,
                       factors: tuple[float, ...]) -> tuple[float, ...]:
    """The load distribution ``D_s`` over hours of day (sums to 1).

    Placement fields are mutually exclusive (spec validation):

    * ``load_hours`` — uniform over the allowed hours;
    * ``greenest_hours`` — uniform over the k greenest hours of the
      resolved profile (ties broken by hour index, deterministic);
    * ``offpeak_shift`` — a uniform load with fraction ``x`` moved
      into the greenest :data:`OFFPEAK_HOURS` hours:
      ``D[h] = (1-x)/24 (+ x/8 off-peak)``;
    * none — uniform.
    """
    if spec.load_hours is not None:
        allowed = set(spec.load_hours)
        weight = 1.0 / len(allowed)
        return tuple(weight if h in allowed else 0.0 for h in range(24))
    if spec.greenest_hours is not None:
        k = spec.greenest_hours
        order = sorted(range(24), key=lambda h: (factors[h], h))
        chosen = set(order[:k])
        weight = 1.0 / k
        return tuple(weight if h in chosen else 0.0 for h in range(24))
    if spec.offpeak_shift is not None:
        x = spec.offpeak_shift
        order = sorted(range(24), key=lambda h: (factors[h], h))
        offpeak = set(order[:OFFPEAK_HOURS])
        base = (1.0 - x) / 24.0
        bonus = x / OFFPEAK_HOURS
        return tuple(base + bonus if h in offpeak else base
                     for h in range(24))
    return (1.0 / 24.0,) * 24


def _window_factor(factors: tuple[float, ...],
                   dist: tuple[float, ...],
                   window: HourWindow) -> float:
    """One scenario's operational multiplier for one window.

    The conditional mean of the hour factors under the load
    distribution, restricted to the window.  Pure Python floats in a
    fixed accumulation order — the engine's ``(S, W)`` table and the
    scalar reference compute every factor through this one function,
    which is what makes their bit-identity checkable.  A flat profile
    short-circuits to exactly 1.0; a window carrying zero load falls
    back to the unweighted window mean.
    """
    if all(f == 1.0 for f in factors):
        return 1.0
    num = math.fsum(dist[h] * factors[h] for h in window.hours)
    den = math.fsum(dist[h] for h in window.hours)
    if den == 0.0:
        return math.fsum(factors[h] for h in window.hours) \
            / len(window.hours)
    return num / den


def _hour_factor_table(specs: Sequence[ScenarioSpec],
                       windows: Sequence[HourWindow],
                       default_profile: IntensitySeries | None,
                       ) -> np.ndarray:
    """The factorized ``(S, W)`` operational hour-factor matrix."""
    table = np.empty((len(specs), len(windows)))
    for s, spec in enumerate(specs):
        factors = _profile_factors(spec, default_profile)
        dist = _load_distribution(spec, factors)
        for w, window in enumerate(windows):
            table[s, w] = _window_factor(factors, dist, window)
    return table


def _strip_time(spec: ScenarioSpec) -> ScenarioSpec:
    """The atemporal residue of a spec (what the base sweep lowers).

    Hour profiles and placement fields resolve on the window axis, not
    at lowering time; everything else stays put so identity-keyed
    lowering caches still hit (specs differing only in time fields
    share one base row via the sweep compiler's dedupe).
    """
    if all(getattr(spec, f) is None for f in _TIME_FIELDS):
        return spec
    return dataclasses.replace(spec, **{f: None for f in _TIME_FIELDS})


def _as_windows(windows) -> tuple[HourWindow, ...]:
    if windows is None:
        return default_hour_windows()
    out = tuple(windows)
    if not out:
        raise ValueError("need at least one hour window")
    names = [w.name for w in out]
    if len(set(names)) != len(names):
        raise ValueError(f"window names must be unique, got {names}")
    return out


# ---------------------------------------------------------------------------
# The (scenario × hour-window × system) result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftCube(FactorCube):
    """Scenario × hour-window × system carbon, factorized over windows.

    A :class:`~repro.scenarios.FactorCube` whose axis is the hour
    windows: ``base`` is the atemporal
    :class:`~repro.scenarios.ScenarioCube` (the ordinary 2-D sweep);
    the window axis rides as the per-scenario ``(S, W)`` operational
    factor matrix.  Embodied carbon is hour-invariant: its factors are
    exactly 1.0, so its values equal the base row in every window.
    Window arguments are an index, a name or an :class:`HourWindow`.
    """

    base: ScenarioCube
    windows: tuple[HourWindow, ...]
    op_hour_factors: np.ndarray            # (S, W)

    labels = property(lambda self: self.window_names)
    op_factors = property(lambda self: self.op_hour_factors)
    emb_factors = property(lambda self: np.ones_like(self.op_hour_factors))

    # -- the window axis -----------------------------------------------------

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def window_names(self) -> tuple[str, ...]:
        return tuple(w.name for w in self.windows)

    def window_index(self, window) -> int:
        """Window-axis position (index, name, or :class:`HourWindow`)."""
        if isinstance(window, HourWindow):
            window = window.name
        if isinstance(window, str):
            for w, candidate in enumerate(self.windows):
                if candidate.name == window:
                    return w
            raise KeyError(f"window {window!r} not in cube "
                           f"(have {list(self.window_names)})")
        w = int(window)
        if not 0 <= w < len(self.windows):
            raise KeyError(f"window index {w} out of range "
                           f"[0, {len(self.windows)})")
        return w

    _point_index = window_index
    #: The cube's one-window slice as an ordinary scenario cube.
    at_window = FactorCube.at

    def shift_savings(self, scenario, footprint: str = "operational",
                      ) -> float:
        """Fractional saving of the scenario's *greenest* window vs
        the first (conventionally all-hours) window — the headline
        "run it in the green hours" statistic."""
        totals = self.totals(footprint)[self.index(scenario)]
        if not totals[0]:
            return float("nan")
        return float(1.0 - min(totals) / totals[0])

    def table_rows(self, footprint: str = "operational",
                   ) -> list[tuple[str, list[float], float]]:
        """(name, per-window totals in kMT, greenest-vs-first multiple)."""
        totals = self.totals(footprint)
        rows = []
        for s, spec in enumerate(self.base.specs):
            per_window = [float(v) / 1e3 for v in totals[s]]
            first = totals[s, 0]
            multiple = float(min(totals[s]) / first) if first \
                else float("nan")
            rows.append((spec.name, per_window, multiple))
        return rows


# ---------------------------------------------------------------------------
# The sweep entry point
# ---------------------------------------------------------------------------

def shift_sweep(records: Sequence[SystemRecord],
                specs: "Iterable[ScenarioSpec] | ScenarioGrid | None" = None,
                *,
                windows: Sequence[HourWindow] | None = None,
                profile: IntensitySeries | None = None,
                operational_model: OperationalModel | None = None,
                embodied_model: EmbodiedModel | None = None,
                frame: FleetFrame | None = None) -> ShiftCube:
    """Sweep a scenario grid over a fleet along an hour-window axis.

    The time-of-day entry point: one base
    :func:`~repro.scenarios.sweep` over the cached frame, then
    per-scenario window factors.

    Args:
        records: the fleet.
        specs: scenario specs or a grid (default: baseline).  Specs
            may carry time fields (``hour_profile``, ``load_hours``,
            ``greenest_hours``, ``offpeak_shift``) — the window axis
            resolves them; everything else lowers into the base sweep.
        windows: the W axis (default: :func:`default_hour_windows` —
            all-hours plus the four day-part blocks; pass
            :func:`hourly_windows` for full resolution).
        profile: default intensity shape for specs without their own
            ``hour_profile``.  ``None`` (the paper default) is flat:
            every factor is exactly 1.0 and the cube reproduces the
            atemporal sweep bit-identically.
        operational_model / embodied_model / frame: forwarded to the
            base sweep.

    Returns:
        A :class:`ShiftCube`, bit-identical to
        :func:`shift_scalar_reference` on the same inputs.
    """
    specs = _as_specs(specs)
    windows = _as_windows(windows)
    with obs.span("shift.sweep", n_scenarios=len(specs),
                  n_windows=len(windows)):
        base_specs = tuple(_strip_time(spec) for spec in specs)
        base = sweep(records, base_specs,
                     operational_model=operational_model,
                     embodied_model=embodied_model,
                     frame=frame)
        with obs.span("shift.factors", n_scenarios=len(specs),
                      n_windows=len(windows)):
            table = _hour_factor_table(specs, windows, profile)
    return ShiftCube(base=base, windows=windows, op_hour_factors=table)


# ---------------------------------------------------------------------------
# The reference semantics: per-scenario, per-window, per-record loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftReference:
    """Materialized reference result (no factorization, no broadcast)."""

    base: ScenarioCube
    windows: tuple[HourWindow, ...]
    operational_mt: np.ndarray   # (S, W, n)
    embodied_mt: np.ndarray      # (S, W, n)


def shift_scalar_reference(records: Sequence[SystemRecord],
                           specs=None, *,
                           windows: Sequence[HourWindow] | None = None,
                           profile: IntensitySeries | None = None,
                           operational_model: OperationalModel | None = None,
                           embodied_model: EmbodiedModel | None = None,
                           ) -> ShiftReference:
    """The reference implementation: loop scenarios, windows, records.

    Base estimates come from the scalar per-record loop
    (:func:`~repro.scenarios.sweep_scalar_reference`); each
    (scenario, window, record) operational cell is then one
    Python-float multiply by the window factor — computed by the same
    shared :func:`_window_factor` sequence the engine tabulates —
    and embodied cells carry the base estimate unchanged.  The
    engine's materialized :meth:`ShiftCube.values` must (and, per
    ``tests/scenarios/test_timeaxis.py``, does) match bit-for-bit.
    """
    specs = _as_specs(specs)
    windows = _as_windows(windows)
    records = list(records)
    base_specs = tuple(_strip_time(spec) for spec in specs)
    base = sweep_scalar_reference(records, base_specs,
                                  operational_model=operational_model,
                                  embodied_model=embodied_model)
    n_scen, n_win, n = len(specs), len(windows), len(records)
    op_values = np.full((n_scen, n_win, n), np.nan)
    emb_values = np.full((n_scen, n_win, n), np.nan)
    for s, spec in enumerate(specs):
        factors = _profile_factors(spec, profile)
        dist = _load_distribution(spec, factors)
        for w, window in enumerate(windows):
            factor = _window_factor(factors, dist, window)
            for i in range(n):
                base_op = base.operational_mt[s, i]
                if not np.isnan(base_op):
                    op_values[s, w, i] = base_op * factor
                base_emb = base.embodied_mt[s, i]
                if not np.isnan(base_emb):
                    emb_values[s, w, i] = base_emb
    return ShiftReference(base=base, windows=windows,
                          operational_mt=op_values,
                          embodied_mt=emb_values)
