"""Data layer: the paper's reference results + the synthetic Top500.

Two sources:

* :mod:`repro.data.paper_table` — the paper's appendix Table II
  (per-system carbon for all 500 systems under three scenarios),
  transcribed and parsed.  The *reference path*: exact reproduction of
  the paper's totals, series, and sensitivity numbers.
* :mod:`repro.data.top500` + :mod:`repro.data.truth` +
  :mod:`repro.data.missingness` — the synthetic list the *model path*
  runs EasyC on end-to-end, with missingness calibrated to Table I /
  Figure 2 and coverage calibrated to the paper's counts.

:mod:`repro.data.synth_fleet` scales the synthetic list to arbitrary
fleet sizes (deterministic replicate-and-perturb) for the 10⁵-system
scaling benchmarks.
"""

from repro._lazy import attach

# ``synth_fleet`` is both a submodule and the function re-exported under
# the same name; it is bound eagerly for the reason ``repro.core`` binds
# ``equivalences`` eagerly.  Everything else resolves on first access, so
# loading the default list never imports the generator (``truth``) or the
# paper's Table II.
from repro.data.synth_fleet import synth_fleet

__getattr__, __dir__, __all__ = attach(__name__, {
    "paper_table": ("PaperSystem", "ScenarioValues", "load_paper_table",
                    "coverage_counts", "totals_mt"),
    "top500": ("Top500Dataset", "TrueSystem", "generate_top500",
               "default_dataset", "DEFAULT_SEED"),
    "truth": ("rmax_for_rank", "accel_probability"),
    "missingness": ("MissingnessPlan", "build_plan"),
    "synth_fleet": ("synth_fleet",),
})
