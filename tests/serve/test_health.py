"""One doctor, three consumers: the shared report and its renderings.

The stable-schema contract: ``repro doctor --json``, the human table,
and the daemon's ``/readyz`` all render the *same*
:func:`repro.serve.health.doctor_report` dict, and that dict's
top-level keys only ever grow.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.cli import main
from repro.serve.health import (
    SCHEMA_VERSION,
    doctor_report,
    render_doctor_table,
)

#: The frozen v2 key set — a rename or removal here is a breaking
#: change and must bump SCHEMA_VERSION; additions are always allowed.
_V2_KEYS = {"schema_version", "version", "faults", "cache_tier",
            "counters"}

#: Keys version 1 carried for the process fan-out, removed in v2.
_V1_ONLY_KEYS = {"pool", "shm", "ladder", "janitor"}

#: The cache_tier section's own frozen keys (same grow-only rule).
_CACHE_TIER_KEYS = {"l2_dir", "l2_entries", "l2_bytes", "l2_max_bytes",
                    "l2_poisoned", "l2_evictions"}


#: Runs in a fresh interpreter, so no earlier test has already started
#: a child process or multiprocessing's resource tracker; prints the
#: number of live children the two doctor calls left behind.
_PROBE_CHILDREN = """
import glob, multiprocessing, os
from repro.serve.health import doctor_report
doctor_report()
doctor_report(cache_dir=os.environ["PROBE_CACHE_DIR"])
pids = {p.pid for p in multiprocessing.active_children()}
for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
    with open(path) as fh:
        pids.update(fh.read().split())
print(len(pids))
"""


class TestDoctorReport:
    def test_v2_keys_all_present(self):
        report = doctor_report()
        assert _V2_KEYS <= set(report)
        assert not _V1_ONLY_KEYS & set(report)
        assert report["schema_version"] == SCHEMA_VERSION == 2

    def test_json_serializable_round_trip(self):
        report = doctor_report()
        assert json.loads(json.dumps(report)) == report

    def test_section_shapes(self):
        report = doctor_report()
        assert set(report["faults"]) == {"active_rules"}
        assert isinstance(report["faults"]["active_rules"], int)
        assert isinstance(report["counters"], dict)

    def test_cache_tier_section_shape(self):
        report = doctor_report()
        assert _CACHE_TIER_KEYS <= set(report["cache_tier"])
        # Unconfigured: no directory, zero usage, but the counters are
        # still the process-lifetime truth.
        assert report["cache_tier"]["l2_dir"] is None
        assert report["cache_tier"]["l2_entries"] == 0

    def test_cache_tier_reports_configured_directory(self, tmp_path):
        from repro.serve.cachetier import DiskCacheL2
        DiskCacheL2(tmp_path).put("ab" * 32, '{"x": 1}')
        report = doctor_report(cache_dir=str(tmp_path),
                               cache_max_bytes=1 << 20)
        tier = report["cache_tier"]
        assert tier["l2_dir"] == str(tmp_path)
        assert tier["l2_entries"] == 1
        assert tier["l2_bytes"] > 0
        assert tier["l2_max_bytes"] == 1 << 20

    def test_cache_tier_env_fallback(self, tmp_path, monkeypatch):
        from repro.serve.health import CACHE_DIR_ENV
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert doctor_report()["cache_tier"]["l2_dir"] == str(tmp_path)

    def test_counters_reflect_activity(self):
        obs.inc("serve.test_health_probe")
        report = doctor_report()
        assert report["counters"]["serve.test_health_probe"] >= 1

    def test_report_spawns_no_pool_and_no_process(self, tmp_path):
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PROBE_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", _PROBE_CHILDREN],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0"

    def test_active_fault_rules_counted(self, monkeypatch):
        from repro.serve import faults
        monkeypatch.setenv(faults.FAULT_SPEC_ENV,
                           "raise@cache-load, kill@batch=0")
        assert doctor_report()["faults"]["active_rules"] == 2


class TestRenderTable:
    def test_table_renders_every_section(self, tmp_path):
        report = doctor_report(cache_dir=str(tmp_path))
        text = render_doctor_table(report)
        assert "repro doctor — service state" in text
        assert "fault plan   : none" in text
        assert "cache L2" in text
        assert "activity (process lifetime)" in text

    def test_cache_tier_renders(self, tmp_path):
        report = doctor_report()
        assert "cache L2     : not configured" in \
            render_doctor_table(report)
        report = doctor_report(cache_dir=str(tmp_path))
        assert f"cache L2     : {tmp_path}" in render_doctor_table(report)


class TestRenderPrometheus:
    def test_counters_render_as_prometheus_text(self):
        from repro.serve.health import render_prometheus
        text = render_prometheus({"serve.requests": 3,
                                  "pool.tasks": 2.0,
                                  "weird name-1": 1.5})
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 3" in text
        assert "repro_pool_tasks_total 2" in text           # integral float
        assert "repro_weird_name_1_total 1.5" in text       # sanitized
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        from repro.serve.health import render_prometheus
        assert render_prometheus({}) == ""


class TestDoctorCli:
    def test_json_flag_emits_the_stable_schema(self, capsys):
        assert main(["doctor", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert _V2_KEYS <= set(report)
        assert not _V1_ONLY_KEYS & set(report)

    def test_default_is_the_human_table(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "repro doctor — service state" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
