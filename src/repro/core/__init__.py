"""EasyC core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.record.SystemRecord` — a system as visible under
  a data scenario.
* :class:`~repro.core.easyc.EasyC` — the assessment facade.
* :class:`~repro.core.operational.OperationalModel` /
  :class:`~repro.core.embodied.EmbodiedModel` — the two footprint models.
* :class:`~repro.core.estimate.CarbonEstimate` /
  :class:`~repro.core.estimate.SystemAssessment` — results.
* :mod:`~repro.core.metrics` — the 7 key data metrics and coverage rules.
* :func:`~repro.core.equivalences.equivalences` — everyday restatements.
* :class:`~repro.core.vectorized.FleetFrame` and the ``batch_*``
  functions — the columnar evaluation engine (the scalar models remain
  the semantic reference; see ``docs/performance.md``).
"""

from repro._lazy import attach

# ``equivalences`` is both a submodule and the function re-exported
# under the same name.  Binding it eagerly (the module is stdlib-only)
# keeps ``repro.core.equivalences`` the function even after an explicit
# ``import repro.core.equivalences``, which would otherwise leave the
# submodule in the package namespace where no lazy lookup can fix it.
from repro.core.equivalences import Equivalence, equivalences

__getattr__, __dir__, __all__ = attach(__name__, {
    "record": ("SystemRecord", "TOP500_DATA_ITEMS"),
    "metrics": ("KeyMetric", "REQUIRED_METRICS", "OPTIONAL_METRICS",
                "RequirementCheck", "check_operational", "check_embodied",
                "missing_metrics", "metric_present"),
    "estimate": ("CarbonEstimate", "CarbonKind", "EstimateMethod",
                 "SystemAssessment"),
    "operational": ("OperationalModel",),
    "embodied": ("EmbodiedModel", "fab_carbon_per_cm2", "die_embodied_kg"),
    "easyc": ("EasyC",),
    "equivalences": ("Equivalence", "equivalences"),
    "vectorized": ("FleetFrame", "fleet_frame", "batch_operational_mt",
                   "batch_embodied_mt"),
})
