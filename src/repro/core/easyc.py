"""The EasyC facade: the paper's Figure-1 tool.

``EasyC`` bundles the operational and embodied models and exposes the
assessment workflow the paper runs over the Top 500:

* :meth:`EasyC.assess` — one system → :class:`SystemAssessment` with
  whichever estimates the visible data supports (uncovered models are
  ``None``, never an exception);
* :meth:`EasyC.assess_fleet` — a whole list of systems through the
  columnar batch engine;
* :meth:`EasyC.coverage_check` — the cheap requirements-only probe used
  by the coverage analysis (no model evaluation).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.estimate import CarbonEstimate, SystemAssessment
from repro.core.metrics import RequirementCheck, check_embodied, check_operational
from repro.core.operational import OperationalModel
from repro.core.embodied import EmbodiedModel
from repro.core.record import SystemRecord
from repro.errors import InsufficientDataError


@dataclass(frozen=True)
class EasyC:
    """Carbon-footprint assessment with a handful of key data metrics.

    Construction with no arguments gives the paper's configuration
    (default grid DB, PUE model, hardware catalog, mainstream-GPU proxy
    for unknown accelerators).
    """

    operational_model: OperationalModel = field(default_factory=OperationalModel)
    embodied_model: EmbodiedModel = field(default_factory=EmbodiedModel)

    # -- single system -------------------------------------------------------

    def assess(self, record: SystemRecord) -> SystemAssessment:
        """Assess one system; uncovered footprints come back as ``None``."""
        return SystemAssessment(
            rank=record.rank,
            name=record.name,
            operational=self.try_operational(record),
            embodied=self.try_embodied(record),
        )

    def try_operational(self, record: SystemRecord) -> CarbonEstimate | None:
        """Operational estimate, or ``None`` if the data cannot support one."""
        try:
            return self.operational_model.estimate(record)
        except InsufficientDataError:
            return None

    def try_embodied(self, record: SystemRecord) -> CarbonEstimate | None:
        """Embodied estimate, or ``None`` if the data cannot support one."""
        try:
            return self.embodied_model.estimate(record)
        except InsufficientDataError:
            return None

    # -- fleet ----------------------------------------------------------------

    def assess_fleet(self, records: Iterable[SystemRecord],
                     *, engine: str = "vectorized",
                     frame: "object | None" = None) -> list[SystemAssessment]:
        """Assess every system in a fleet.

        The default ``engine="vectorized"`` routes through the columnar
        :class:`~repro.core.vectorized.FleetFrame` engine — the scalar
        models remain the semantic reference (``engine="scalar"`` loops
        them directly) and the two produce identical assessments,
        asserted in ``tests/properties``.  Pass ``frame`` (a
        pre-extracted FleetFrame) when sweeping many model
        configurations over one fleet.
        """
        records = list(records)
        if engine == "vectorized":
            from repro.core.vectorized import assess_fleet_frame
            return assess_fleet_frame(records, self.operational_model,
                                      self.embodied_model, frame=frame)
        if engine == "scalar":
            return [self.assess(r) for r in records]
        raise ValueError(f"unknown engine {engine!r}; "
                         "expected 'vectorized' or 'scalar'")

    # -- coverage probe ---------------------------------------------------------

    @staticmethod
    def coverage_check(record: SystemRecord) -> tuple[RequirementCheck, RequirementCheck]:
        """(operational, embodied) requirement checks without evaluation.

        This is the predicate the coverage figures (Figs. 4-6) are built
        from; tests assert it agrees with actual model evaluability.
        """
        return check_operational(record), check_embodied(record)
