"""Declarative scenario specifications and grid builders.

A :class:`ScenarioSpec` names a *what-if* as a set of composable
overrides on the paper's model configuration: grid carbon intensity
(replacement DBs, uniform scales, year-indexed decarbonization
trajectories), facility PUE, utilization assumptions, hardware
lifetime/refresh, and embodied factors (catalog swaps, memory/storage
factor scales, fab yield).  Specs are pure data — they *lower* to
concrete :class:`~repro.core.operational.OperationalModel` /
:class:`~repro.core.embodied.EmbodiedModel` instances against a base
configuration, which is what makes the sweep kernel's bit-identity
contract checkable: the scalar reference loop and the 2-D kernel lower
the same spec to the same models.

:class:`ScenarioGrid` builds multi-axis sweeps: the cartesian product
or the zip of per-axis spec lists, composed pairwise with
:meth:`ScenarioSpec.compose` (override fields last-wins, scale fields
multiply).  The ``*_axis`` helpers construct well-named single-axis
spec lists for the common levers.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.embodied import EmbodiedModel
from repro.core.operational import OperationalModel
from repro.errors import ParseError, ReproError
from repro.grid.intensity import DecarbonizationTrajectory, GridIntensityDB
from repro.grid.intervals import IntensitySeries
from repro.grid.pue import PueModel
from repro.hardware.catalog import HardwareCatalog, UnknownDevicePolicy
from repro.hardware.cpus import CpuSpec
from repro.hardware.gpus import GpuSpec
from repro.hardware.memory import MemorySpec, MemoryType
from repro.hardware.nodes import NodeOverheads
from repro.hardware.storage import StorageClass, StorageSpec

__all__ = [
    "ScenarioSpec",
    "ScenarioGrid",
    "HourWindow",
    "spec_to_dict",
    "spec_from_dict",
    "baseline_spec",
    "aci_scale_axis",
    "decarbonization_axis",
    "pue_axis",
    "utilization_axis",
    "lifetime_axis",
    "growth_axis",
    "refresh_axis",
    "trajectory_axis",
    "hour_profile_axis",
    "load_hours_axis",
    "greenest_hours_axis",
    "offpeak_shift_axis",
]

#: Fields where composition is "the later spec wins".
_OVERRIDE_FIELDS = (
    "grid", "trajectory", "year", "pue", "measured_power_pue",
    "component_power_pue", "measured_power_utilization",
    "component_utilization", "catalog", "fab_yield", "lifetime_years",
    "operational_growth", "embodied_growth", "refresh_embodied",
    "hour_profile", "load_hours", "greenest_hours", "offpeak_shift",
)

#: Multiplicative fields: composing two specs multiplies the factors.
_SCALE_FIELDS = ("aci_scale", "memory_factor_scale", "storage_factor_scale")

# Lowering caches: derived grids/catalogs shared *by identity* across
# specs with equal parameters, so the sweep compiler's id-keyed dedupe
# collapses a cartesian grid to its unique configurations (e.g. a
# 4 ACI × 4 PUE × 4 utilization sweep resolves 4 ACI rows and 1 factor
# table, not 64 of each).  Keyed by base identity + the derivation
# parameters; each entry pins the base object (a freed base's id could
# otherwise be reused and serve another object's derivation) and is
# re-derived on an identity mismatch.  Bounded FIFO.
_DERIVED_CACHE_MAX = 64
_SCALED_GRID_CACHE: dict[
    tuple[int, float], tuple[object, GridIntensityDB]] = {}
_DERIVED_CATALOG_CACHE: dict[
    tuple[int, float | None, float | None],
    tuple[object, HardwareCatalog]] = {}


def validate_growth_rate(field_name: str, value: float) -> float:
    """The shared plausibility bound for annual growth rates.

    One rule for every temporal entry point — spec construction,
    ``project_sweep``'s default-rate arguments, ``project_totals`` —
    mirroring the historical ``CarbonProjection`` bounds.
    """
    if not -0.5 <= value <= 1.0:
        raise ValueError(
            f"implausible {field_name} {value} (expected [-0.5, 1])")
    return value


def _cached(cache: dict, key, source, build):
    entry = cache.get(key)
    if entry is None or entry[0] is not source:
        entry = cache[key] = (source, build())
        while len(cache) > _DERIVED_CACHE_MAX:
            cache.pop(next(iter(cache)))
    return entry[1]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: overrides against a base model configuration.

    Every field defaults to "no override"; a default-constructed spec
    is the identity scenario (lowering returns the base models
    unchanged, and a sweep over it reproduces ``assess_fleet``).

    Attributes:
        name: label carried into :class:`~repro.scenarios.ScenarioCube`
            axes, series and tables.
        description: optional human-readable intent.
        grid: replacement grid-intensity DB (wins over the base).
        aci_scale: multiply every grid intensity (applied to the
            replacement or base grid; composes multiplicatively).
        trajectory: year-indexed decarbonization trajectory; requires
            ``year`` and multiplies into the same grid scale factor.
        year: target year for ``trajectory``.
        pue: replacement PUE model.
        measured_power_pue / component_power_pue: targeted PUE field
            overrides (applied on top of ``pue`` or the base model).
        measured_power_utilization: utilization applied to Top500
            measured power (the calibration lever; base 1.0).
        component_utilization: utilization assumed on the
            component-power path when a record carries none.
        catalog: replacement hardware catalog (e.g. a strict-policy
            one for the unknown-accelerator ablation).
        memory_factor_scale / storage_factor_scale: scale the embodied
            kg/GB factors of every memory/storage spec in the catalog.
        fab_yield: logic-die manufacturing yield override.
        lifetime_years: hardware refresh horizon used by the cube's
            annualized-embodied reduction (embodied ÷ lifetime) and,
            with ``refresh_embodied``, by the temporal engine's
            re-spend schedule.
        operational_growth / embodied_growth: annual compound growth
            rates for the temporal projection engine
            (:func:`repro.projection.project_sweep`); ``None`` defers
            to the sweep's defaults (the paper's 10.3 % / 2 %).
            Atemporal sweeps ignore them.
        refresh_embodied: temporal embodied accounting mode — instead
            of uniform compound growth, each system re-spends its
            embodied carbon every ``lifetime_years`` after its install
            year (entrant intensity growing at ``embodied_growth``).
            Requires ``lifetime_years``; atemporal sweeps ignore it.
        hour_profile: interval-resolved intensity shape
            (:class:`~repro.grid.intervals.IntensitySeries`) for the
            hour-axis engine (:func:`repro.scenarios.shift_sweep`);
            ``None`` defers to the sweep's default profile (flat =
            the paper's annual-mean path).  Atemporal sweeps ignore it.
        load_hours: restrict load placement to these hours of day
            (0-23) — "the job only runs at night".  Hour-axis engine
            only; at most one placement field may be set.
        greenest_hours: place load uniformly in the k greenest hours
            of the resolved profile — the carbon-aware scheduler
            what-if ("run the Top500 workload in the 6 greenest
            hours").  Hour-axis engine only.
        offpeak_shift: move this fraction of an otherwise-uniform load
            into the profile's off-peak (greenest-third) hours — the
            demand-response what-if ("shift 30 % of load off-peak").
            Hour-axis engine only.
    """

    name: str = "baseline"
    description: str = ""

    # -- operational: grid ----------------------------------------------------
    grid: GridIntensityDB | None = None
    aci_scale: float | None = None
    trajectory: DecarbonizationTrajectory | None = None
    year: int | None = None

    # -- operational: facility / utilization ---------------------------------
    pue: PueModel | None = None
    measured_power_pue: float | None = None
    component_power_pue: float | None = None
    measured_power_utilization: float | None = None
    component_utilization: float | None = None

    # -- embodied -------------------------------------------------------------
    catalog: HardwareCatalog | None = None
    memory_factor_scale: float | None = None
    storage_factor_scale: float | None = None
    fab_yield: float | None = None
    lifetime_years: float | None = None

    # -- temporal (projection engine) -----------------------------------------
    operational_growth: float | None = None
    embodied_growth: float | None = None
    refresh_embodied: bool | None = None

    # -- time-of-day (hour-axis engine) ---------------------------------------
    hour_profile: IntensitySeries | None = None
    load_hours: tuple[int, ...] | None = None
    greenest_hours: int | None = None
    offpeak_shift: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a non-empty name")
        for field_name in ("aci_scale", "memory_factor_scale",
                           "storage_factor_scale", "lifetime_years"):
            value = getattr(self, field_name)
            if value is not None and value <= 0:
                raise ValueError(f"{field_name} must be positive, got {value}")
        for field_name in ("measured_power_utilization",
                           "component_utilization"):
            value = getattr(self, field_name)
            if value is not None and not 0.0 < value <= 1.5:
                raise ValueError(
                    f"{field_name} out of range (0, 1.5]: {value}")
        if self.fab_yield is not None and not 0.0 < self.fab_yield <= 1.0:
            raise ValueError(f"fab_yield must be in (0, 1], got {self.fab_yield}")
        for field_name in ("operational_growth", "embodied_growth"):
            value = getattr(self, field_name)
            if value is not None:
                validate_growth_rate(field_name, value)
        if self.refresh_embodied and self.lifetime_years is None:
            raise ValueError(
                f"scenario {self.name!r} sets refresh_embodied but no "
                "lifetime_years to schedule refreshes from")
        placements = [f for f in ("load_hours", "greenest_hours",
                                  "offpeak_shift")
                      if getattr(self, f) is not None]
        if len(placements) > 1:
            raise ValueError(
                f"scenario {self.name!r} sets {placements}: load "
                "placement fields are mutually exclusive")
        if self.load_hours is not None:
            hours = tuple(self.load_hours)
            if not hours or len(set(hours)) != len(hours) or \
                    any(not 0 <= h < 24 for h in hours):
                raise ValueError(
                    f"load_hours must be distinct hours in [0, 24), got "
                    f"{self.load_hours}")
            object.__setattr__(self, "load_hours",
                               tuple(int(h) for h in hours))
        if self.greenest_hours is not None and \
                not 1 <= self.greenest_hours <= 24:
            raise ValueError(
                f"greenest_hours must be in [1, 24], got "
                f"{self.greenest_hours}")
        if self.offpeak_shift is not None and \
                not 0.0 <= self.offpeak_shift <= 1.0:
            raise ValueError(
                f"offpeak_shift must be in [0, 1], got {self.offpeak_shift}")

    # -- lowering -------------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        """True when the spec overrides nothing (pure baseline)."""
        return all(getattr(self, f) is None
                   for f in (*_OVERRIDE_FIELDS, *_SCALE_FIELDS))

    def grid_scale_factor(self) -> float:
        """Combined multiplicative grid factor (trajectory × scale).

        A trajectory needs a year to resolve: either the spec's own
        ``year`` (atemporal sweeps pin one) or the year axis of a
        temporal sweep, which strips the trajectory before lowering
        and applies its factor per year.  Reaching this method with a
        trajectory but no year means the spec was built for the
        temporal engine and handed to an atemporal sweep.
        """
        factor = 1.0
        if self.trajectory is not None:
            if self.year is None:
                raise ValueError(
                    f"scenario {self.name!r} has a decarbonization "
                    "trajectory but no target year; pin `year` or sweep "
                    "it through repro.projection.project_sweep")
            factor *= self.trajectory.factor(self.year)
        if self.aci_scale is not None:
            factor *= self.aci_scale
        return factor

    def derived_catalog(self, base: HardwareCatalog) -> HardwareCatalog:
        """The hardware catalog this scenario implies over ``base``.

        Returns ``base`` itself (identity, enabling factor-table reuse
        in the sweep compiler) when nothing catalog-related is set.
        """
        catalog = self.catalog if self.catalog is not None else base
        if self.memory_factor_scale is None and \
                self.storage_factor_scale is None:
            return catalog

        def build() -> HardwareCatalog:
            memory = catalog.memory
            if self.memory_factor_scale is not None:
                memory = {
                    mt: MemorySpec(mt,
                                   spec.embodied_kg_per_gb * self.memory_factor_scale,
                                   spec.power_w_per_gb)
                    for mt, spec in catalog.memory.items()}
            storage = catalog.storage
            if self.storage_factor_scale is not None:
                storage = {
                    sc: StorageSpec(sc,
                                    spec.embodied_kg_per_gb * self.storage_factor_scale,
                                    spec.power_w_per_tb)
                    for sc, spec in catalog.storage.items()}
            return HardwareCatalog(
                cpus=catalog.cpus, gpus=catalog.gpus, memory=memory,
                storage=storage, node_overheads=catalog.node_overheads,
                unknown_policy=catalog.unknown_policy)

        return _cached(
            _DERIVED_CATALOG_CACHE,
            (id(catalog), self.memory_factor_scale, self.storage_factor_scale),
            catalog, build)

    def operational_model(self, base: OperationalModel) -> OperationalModel:
        """Lower this spec to a concrete operational model over ``base``.

        Deterministic: lowering the same spec against the same base
        twice yields models that resolve every input to the identical
        float — the bit-identity anchor shared by the 2-D kernel and
        the scalar reference loop.
        """
        changes: dict[str, object] = {}
        grid = self.grid if self.grid is not None else base.grid
        factor = self.grid_scale_factor()
        if factor != 1.0:
            source = grid
            grid = _cached(_SCALED_GRID_CACHE, (id(source), factor),
                           source, lambda: source.scaled(factor))
        if grid is not base.grid:
            changes["grid"] = grid
        pue = self.pue if self.pue is not None else base.pue
        pue_fields = {key: value for key, value in
                      (("measured_power_pue", self.measured_power_pue),
                       ("component_power_pue", self.component_power_pue))
                      if value is not None}
        if pue_fields:
            pue = dataclasses.replace(pue, **pue_fields)
        if pue is not base.pue:
            changes["pue"] = pue
        catalog = self.derived_catalog(base.catalog)
        if catalog is not base.catalog:
            changes["catalog"] = catalog
        if self.measured_power_utilization is not None:
            changes["measured_power_utilization"] = \
                self.measured_power_utilization
        if self.component_utilization is not None:
            changes["component_utilization"] = self.component_utilization
        return dataclasses.replace(base, **changes) if changes else base

    def embodied_model(self, base: EmbodiedModel) -> EmbodiedModel:
        """Lower this spec to a concrete embodied model over ``base``."""
        changes: dict[str, object] = {}
        catalog = self.derived_catalog(base.catalog)
        if catalog is not base.catalog:
            changes["catalog"] = catalog
        if self.fab_yield is not None:
            changes["fab_yield"] = self.fab_yield
        return dataclasses.replace(base, **changes) if changes else base

    # -- composition ----------------------------------------------------------

    def compose(self, other: "ScenarioSpec") -> "ScenarioSpec":
        """This spec with ``other`` layered on top.

        Override fields: ``other`` wins where it sets a value.  Scale
        fields (``aci_scale``, ``memory_factor_scale``,
        ``storage_factor_scale``): factors multiply.  Names join with
        ``+`` ("baseline" names compose invisibly).
        """
        kwargs: dict[str, object] = {}
        for field_name in _OVERRIDE_FIELDS:
            value = getattr(other, field_name)
            kwargs[field_name] = value if value is not None \
                else getattr(self, field_name)
        for field_name in _SCALE_FIELDS:
            a, b = getattr(self, field_name), getattr(other, field_name)
            if a is not None and b is not None:
                kwargs[field_name] = a * b
            else:
                kwargs[field_name] = a if b is None else b
        parts = [p for p in (self.name, other.name)
                 if p and p != "baseline"]
        description = " / ".join(d for d in (self.description,
                                             other.description) if d)
        return ScenarioSpec(name="+".join(parts) or "baseline",
                            description=description, **kwargs)

    def __or__(self, other: "ScenarioSpec") -> "ScenarioSpec":
        return self.compose(other)


@dataclass(frozen=True)
class HourWindow:
    """A named set of hours of day (0-23) — one slot of the W axis."""

    name: str
    hours: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("window needs a non-empty name")
        hours = tuple(int(h) for h in self.hours)
        if not hours or len(set(hours)) != len(hours) or \
                any(not 0 <= h < 24 for h in hours):
            raise ValueError(
                f"window {self.name!r} needs distinct hours in [0, 24), "
                f"got {self.hours}")
        object.__setattr__(self, "hours", hours)

    @classmethod
    def block(cls, name: str, start: int, stop: int) -> "HourWindow":
        """A contiguous ``[start, stop)`` block, e.g. night = (0, 6)."""
        if not 0 <= start < stop <= 24:
            raise ValueError(f"need 0 <= start < stop <= 24, got "
                             f"({start}, {stop})")
        return cls(name=name, hours=tuple(range(start, stop)))


def baseline_spec() -> ScenarioSpec:
    """The identity scenario (paper configuration, no overrides)."""
    return ScenarioSpec()


def _as_specs(specs) -> tuple[ScenarioSpec, ...]:
    """Every engine's ``specs`` argument → a non-empty spec tuple.

    Accepts specs or a :class:`ScenarioGrid` to expand; ``None`` is
    the baseline scenario alone.
    """
    if specs is None:
        return (baseline_spec(),)
    out = specs.specs() if isinstance(specs, ScenarioGrid) else tuple(specs)
    if not out:
        raise ValueError("need at least one scenario")
    return out


# ---------------------------------------------------------------------------
# The spec codec: specs ↔ JSON-safe data, through a closed type registry
# ---------------------------------------------------------------------------

#: Every class a spec document may name, by ``$type`` tag.  Nothing
#: outside this table is ever constructed from a document.
_CODEC_CLASSES = {cls.__name__: cls for cls in (
    ScenarioSpec, HourWindow, DecarbonizationTrajectory, GridIntensityDB,
    IntensitySeries, PueModel, HardwareCatalog, CpuSpec, GpuSpec,
    MemorySpec, StorageSpec, NodeOverheads, MemoryType, StorageClass,
    UnknownDevicePolicy)}


def spec_to_dict(value):
    """Encode a spec (or any value built from spec parts) as JSON data.

    Scalars pass through; plain string-keyed dicts become JSON
    objects.  Everything JSON cannot say is tagged with ``$type``:
    tuples, other dicts (e.g. enum-keyed catalog tables, as key/value
    pairs), enums, and the registered dataclasses (their init fields).
    :func:`spec_from_dict` inverts it exactly.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"$type": "tuple", "items": [spec_to_dict(v) for v in value]}
    if isinstance(value, dict):
        if all(isinstance(k, str) and not k.startswith("$") for k in value):
            return {k: spec_to_dict(v) for k, v in value.items()}
        return {"$type": "dict", "items": [[spec_to_dict(k), spec_to_dict(v)]
                                           for k, v in value.items()]}
    tag = type(value).__name__
    if _CODEC_CLASSES.get(tag) is not type(value):
        raise TypeError(f"cannot encode {type(value).__qualname__} in a "
                        "spec document")
    if isinstance(value, enum.Enum):
        return {"$type": tag, "value": value.value}
    return {"$type": tag, **{f.name: spec_to_dict(getattr(value, f.name))
                             for f in dataclasses.fields(value) if f.init}}


def spec_from_dict(data):
    """Decode :func:`spec_to_dict` output, validating as it builds.

    Registered dataclasses are rebuilt through their constructors, so
    every ``__post_init__`` check runs.  Anything else — an unknown
    ``$type`` tag, a field the class does not take, a value its
    validation rejects — raises :class:`~repro.errors.ParseError`.
    """
    try:
        return _decode(data)
    except ParseError:
        raise
    except (ReproError, TypeError, ValueError, KeyError,
            RecursionError) as exc:
        raise ParseError(f"invalid spec document: {exc}") from exc


def _decode(data):
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if not isinstance(data, dict):
        raise ParseError(f"unexpected {type(data).__name__} in a spec "
                         "document")
    tag = data.get("$type")
    if tag is None:
        return {k: _decode(v) for k, v in data.items()}
    if tag == "tuple":
        return tuple(_decode(v) for v in data["items"])
    if tag == "dict":
        return {_decode(k): _decode(v) for k, v in data["items"]}
    cls = _CODEC_CLASSES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ParseError(f"unknown $type tag {tag!r} in a spec document")
    if issubclass(cls, enum.Enum):
        return cls(data["value"])
    return cls(**{k: _decode(v) for k, v in data.items() if k != "$type"})


# ---------------------------------------------------------------------------
# Axis helpers: well-named single-axis spec lists
# ---------------------------------------------------------------------------

def aci_scale_axis(scales: Sequence[float]) -> tuple[ScenarioSpec, ...]:
    """One spec per uniform grid-intensity scale (1.0 = baseline)."""
    return tuple(ScenarioSpec(name=f"aci x{s:g}", aci_scale=s)
                 for s in scales)


def decarbonization_axis(trajectory: DecarbonizationTrajectory,
                         years: Sequence[int]) -> tuple[ScenarioSpec, ...]:
    """One spec per target year along a decarbonization trajectory."""
    return tuple(ScenarioSpec(name=f"grid@{year}", trajectory=trajectory,
                              year=year)
                 for year in years)


def pue_axis(values: Sequence[float], *,
             path: str = "measured") -> tuple[ScenarioSpec, ...]:
    """One spec per PUE value, applied to one energy path.

    Args:
        values: PUE multipliers (validated by ``PueModel`` to [1, 3]).
        path: ``"measured"`` (Top500 power column) or ``"component"``
            (component-rebuilt power).
    """
    if path == "measured":
        return tuple(ScenarioSpec(name=f"pue={v:g}", measured_power_pue=v)
                     for v in values)
    if path == "component":
        return tuple(ScenarioSpec(name=f"comp-pue={v:g}",
                                  component_power_pue=v) for v in values)
    raise ValueError(f"unknown PUE path {path!r}")


def utilization_axis(values: Sequence[float], *,
                     path: str = "component") -> tuple[ScenarioSpec, ...]:
    """One spec per utilization assumption, applied to one energy path."""
    if path == "component":
        return tuple(ScenarioSpec(name=f"util={v:g}",
                                  component_utilization=v) for v in values)
    if path == "measured":
        return tuple(ScenarioSpec(name=f"duty={v:g}",
                                  measured_power_utilization=v)
                     for v in values)
    raise ValueError(f"unknown utilization path {path!r}")


def lifetime_axis(years: Sequence[float]) -> tuple[ScenarioSpec, ...]:
    """One spec per hardware-refresh horizon (annualized embodied)."""
    return tuple(ScenarioSpec(name=f"life={y:g}y", lifetime_years=y)
                 for y in years)


def growth_axis(rates: Sequence[float], *,
                footprint: str = "operational") -> tuple[ScenarioSpec, ...]:
    """One spec per annual growth rate, for the temporal engine.

    The Fig. 10 band lever: sweep the compound growth assumption
    itself (the paper's 10.3 %/2 % are one point of the axis).

    Args:
        rates: annual growth rates (0.103 = the paper's operational).
        footprint: ``"operational"`` or ``"embodied"`` — which
            footprint's growth the axis varies.
    """
    if footprint == "operational":
        return tuple(ScenarioSpec(name=f"grow={r:+.1%}",
                                  operational_growth=r) for r in rates)
    if footprint == "embodied":
        return tuple(ScenarioSpec(name=f"emb-grow={r:+.1%}",
                                  embodied_growth=r) for r in rates)
    raise ValueError(f"unknown growth footprint {footprint!r}")


def refresh_axis(lifetimes: Sequence[float]) -> tuple[ScenarioSpec, ...]:
    """One spec per refresh horizon with embodied re-spend enabled.

    Temporal-engine semantics: each system re-purchases its embodied
    carbon every ``lifetime`` years after its install year (see
    :mod:`repro.projection.engine`); the same ``lifetime_years`` field
    still drives the cube's ``embodied_annualized`` reduction.
    """
    return tuple(ScenarioSpec(name=f"refresh@{y:g}y", lifetime_years=y,
                              refresh_embodied=True)
                 for y in lifetimes)


def hour_profile_axis(profiles: Sequence[IntensitySeries],
                      names: Sequence[str] | None = None,
                      ) -> tuple[ScenarioSpec, ...]:
    """One spec per intensity shape, for the hour-axis engine.

    The model-form lever of the time axis: sweep the assumed diurnal
    shape itself (flat vs mild vs strong swing) while everything else
    holds still.  Atemporal sweeps ignore the profile, so the base
    2-D sweep dedupes to one lowering.
    """
    if names is None:
        names = tuple(f"profile-{i}" for i in range(len(profiles)))
    if len(names) != len(profiles):
        raise ValueError("need one name per profile")
    return tuple(ScenarioSpec(name=name, hour_profile=profile)
                 for name, profile in zip(names, profiles))


def load_hours_axis(hour_sets: Sequence[Sequence[int]],
                    names: Sequence[str] | None = None,
                    ) -> tuple[ScenarioSpec, ...]:
    """One spec per allowed-hours set ("the job only runs at night")."""
    if names is None:
        names = tuple(
            f"hours={min(hours):02d}-{max(hours):02d}"
            for hours in hour_sets)
    if len(names) != len(hour_sets):
        raise ValueError("need one name per hour set")
    return tuple(ScenarioSpec(name=name, load_hours=tuple(hours))
                 for name, hours in zip(names, hour_sets))


def greenest_hours_axis(ks: Sequence[int]) -> tuple[ScenarioSpec, ...]:
    """One spec per carbon-aware scheduling budget.

    ``k=24`` is the uniform baseline; ``k=6`` is the paper-adjacent
    "run the Top500 workload in the 6 greenest hours" what-if.
    """
    return tuple(ScenarioSpec(name=f"greenest-{k}", greenest_hours=k)
                 for k in ks)


def offpeak_shift_axis(fractions: Sequence[float],
                       ) -> tuple[ScenarioSpec, ...]:
    """One spec per demand-response shift fraction (0.0 = baseline)."""
    return tuple(ScenarioSpec(name=f"shift={f:.0%}", offpeak_shift=f)
                 for f in fractions)


def trajectory_axis(trajectories: Sequence[DecarbonizationTrajectory],
                    names: Sequence[str] | None = None,
                    ) -> tuple[ScenarioSpec, ...]:
    """One spec per decarbonization trajectory, year left open.

    Unlike :func:`decarbonization_axis` (which pins one target year
    per spec for atemporal sweeps), these specs carry the trajectory
    *unresolved* — the temporal engine's year axis supplies the year,
    so one spec yields a whole grid-decline curve.
    """
    if names is None:
        names = tuple(f"decarb={t.annual_decline:g}/yr"
                      for t in trajectories)
    if len(names) != len(trajectories):
        raise ValueError("need one name per trajectory")
    return tuple(ScenarioSpec(name=name, trajectory=trajectory)
                 for name, trajectory in zip(names, trajectories))


# ---------------------------------------------------------------------------
# Grid builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioGrid:
    """A multi-axis scenario sweep: composed cartesian or zip of axes."""

    axes: tuple[tuple[ScenarioSpec, ...], ...]
    mode: str = "cartesian"

    def __post_init__(self) -> None:
        if not self.axes or any(not axis for axis in self.axes):
            raise ValueError("every grid axis needs at least one spec")
        if self.mode not in ("cartesian", "zip"):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        if self.mode == "zip":
            lengths = {len(axis) for axis in self.axes}
            if len(lengths) > 1:
                raise ValueError(
                    f"zip grid needs equal-length axes, got {sorted(lengths)}")

    @classmethod
    def cartesian(cls, *axes: Sequence[ScenarioSpec]) -> "ScenarioGrid":
        """Full cross product of the axes (ablation grids, Fig. 9)."""
        return cls(axes=tuple(tuple(axis) for axis in axes))

    @classmethod
    def zipped(cls, *axes: Sequence[ScenarioSpec]) -> "ScenarioGrid":
        """Positional pairing of equal-length axes (trajectories)."""
        return cls(axes=tuple(tuple(axis) for axis in axes), mode="zip")

    def specs(self) -> tuple[ScenarioSpec, ...]:
        """The composed scenario list, sweep order."""
        combos = itertools.product(*self.axes) if self.mode == "cartesian" \
            else zip(*self.axes)
        return tuple(functools.reduce(ScenarioSpec.compose, combo)
                     for combo in combos)

    def __iter__(self):
        return iter(self.specs())

    def __len__(self) -> int:
        if self.mode == "zip":
            return len(self.axes[0])
        return functools.reduce(lambda acc, axis: acc * len(axis),
                                self.axes, 1)
