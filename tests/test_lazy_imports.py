"""The package ``__init__``\\ s stay lazy, and their re-exports stay exact.

A cold ``repro --help`` must not pay for numpy, ``concurrent.futures`` or
the study pipeline; every name the packages re-export must still resolve to
the very object its defining submodule holds.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro
import repro.core

#: Modules a bare ``import repro.cli`` / ``repro --help`` must not load.
HEAVY = ("numpy", "concurrent.futures", "repro.study")


def _modules_after(code: str) -> set[str]:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return set(out.stdout.split())


@pytest.mark.parametrize("code", [
    "import repro.cli",
    "import contextlib, io, repro.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), "
    "contextlib.suppress(SystemExit):\n"
    "    repro.cli.main(['--help'])",
], ids=["import", "help"])
def test_cli_cold_path_skips_heavy_modules(code):
    loaded = _modules_after(code)
    assert "repro.cli" in loaded
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))


def test_scenario_sweep_command_loads_no_parallel_code():
    """The serial kernels are the whole cold path: a CLI sweep must
    not import the fan-out substrate at all — the band fan-out's
    module and thread pool, the deadline scope, the daemon and its
    fault points."""
    loaded = _modules_after(
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    repro.cli.main(['scenarios', '--grid', 'acceptance'])")
    assert "repro.scenarios.sweep" in loaded
    fanout = sorted(name for name in loaded
                    if name in ("concurrent.futures", "repro.deadline",
                                "repro.uncertainty.mc", "repro.serve")
                    or name.startswith("repro.serve."))
    assert fanout == []


#: Where each re-exported name is defined: package -> submodule -> names.
SOURCES = {
    "repro": {
        "repro._version": ("__version__",),
        "repro.core.easyc": ("EasyC",),
        "repro.core.record": ("SystemRecord",),
        "repro.core.estimate": ("CarbonEstimate", "CarbonKind",
                                "EstimateMethod", "SystemAssessment"),
        "repro.core.operational": ("OperationalModel",),
        "repro.core.embodied": ("EmbodiedModel",),
        "repro.core.equivalences": ("equivalences",),
        "repro.study": ("Top500CarbonStudy", "StudyResult",
                        "run_default_study"),
    },
    "repro.core": {
        "repro.core.record": ("SystemRecord", "TOP500_DATA_ITEMS"),
        "repro.core.metrics": ("KeyMetric", "REQUIRED_METRICS",
                               "OPTIONAL_METRICS", "RequirementCheck",
                               "check_operational", "check_embodied",
                               "missing_metrics", "metric_present"),
        "repro.core.estimate": ("CarbonEstimate", "CarbonKind",
                                "EstimateMethod", "SystemAssessment"),
        "repro.core.operational": ("OperationalModel",),
        "repro.core.embodied": ("EmbodiedModel", "fab_carbon_per_cm2",
                                "die_embodied_kg"),
        "repro.core.easyc": ("EasyC",),
        "repro.core.equivalences": ("Equivalence", "equivalences"),
        "repro.core.vectorized": ("FleetFrame", "fleet_frame",
                                  "batch_operational_mt",
                                  "batch_embodied_mt"),
    },
}

_CASES = [(package, module, name)
          for package, modules in SOURCES.items()
          for module, names in modules.items() for name in names]


@pytest.mark.parametrize("package", sorted(SOURCES))
def test_sources_cover_all(package):
    names = [n for names in SOURCES[package].values() for n in names]
    assert sorted(names) == sorted(importlib.import_module(package).__all__)


@pytest.mark.parametrize("package,module,name", _CASES,
                         ids=[f"{p}.{n}" for p, _, n in _CASES])
def test_reexport_is_the_defining_object(package, module, name):
    pkg = importlib.import_module(package)
    assert getattr(pkg, name) is getattr(importlib.import_module(module), name)
    assert name in dir(pkg)


def test_equivalences_stays_the_function_after_submodule_import():
    import repro.core.equivalences
    from repro.core.equivalences import equivalences

    assert callable(repro.core.equivalences)
    assert repro.core.equivalences is equivalences
    assert repro.equivalences is equivalences


def test_star_import_binds_every_name():
    for package in (repro, repro.core):
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.core.no_such_name  # noqa: B018
