"""repro — reproduction of *Modeling the Carbon Footprint of HPC: The
Top 500 and EasyC* (Rao & Chien, SC Workshops '25).

Quick start::

    from repro import EasyC, SystemRecord

    easyc = EasyC()
    record = SystemRecord(rank=1, rmax_tflops=1.7e6, rpeak_tflops=2.7e6,
                          country="United States", power_kw=29_000)
    assessment = easyc.assess(record)
    print(assessment.operational.value_mt, "MT CO2e / year")

Full study (the paper's workflow)::

    from repro.study import run_default_study
    result = run_default_study()
    print(result.public_coverage.operational.n_covered)   # 490

Reference results (the paper's appendix Table II)::

    from repro.data import load_paper_table, totals_mt
    print(totals_mt()["operational_interpolated"])        # ≈1.39e6 MT

Scenario sweeps (declarative what-ifs, one 2-D kernel)::

    from repro import scenarios
    cube = run_default_study().scenario_sweep(
        scenarios.ScenarioGrid.cartesian(
            scenarios.aci_scale_axis((1.0, 0.8)),
            scenarios.utilization_axis((0.65, 0.95))))
    print(cube.totals("operational"))                     # (4,) MT CO2e
"""

from repro._lazy import attach
from repro._version import __version__

# Re-exports resolve on first access (PEP 562): importing any repro
# submodule — the CLI above all — must not drag in numpy and the
# study pipeline just because the package ``__init__`` runs first.
__getattr__, __dir__, _exports = attach(__name__, {
    "core": ("EasyC", "SystemRecord", "CarbonEstimate", "CarbonKind",
             "EstimateMethod", "SystemAssessment",
             "OperationalModel", "EmbodiedModel", "equivalences"),
    "study": ("Top500CarbonStudy", "StudyResult", "run_default_study"),
})
__all__ = ["__version__", *_exports]
