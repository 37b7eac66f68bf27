"""Profile aggregation + the three CLI surfaces (profile/--trace/doctor).

CLI tests drive :func:`repro.cli.main` in-process over the small
built-in fleets so the suite stays fast; the acceptance-grid coverage
claim itself is exercised by the CI leg that runs
``repro profile -- scenarios --grid acceptance``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import cli, obs
from repro.obs import __main__ as obs_main
from repro.obs import tracing


@pytest.fixture(autouse=True)
def _no_ambient_trace(monkeypatch):
    monkeypatch.delenv(tracing.TRACE_ENV, raising=False)


def _rec(name, span_id, dur_s, parent_id=None):
    return {"type": "span", "name": name, "ts": 0.0, "dur_s": dur_s,
            "pid": 1, "span_id": span_id, "parent_id": parent_id,
            "attrs": {}}


class TestSummarize:
    def test_self_subtracts_direct_children_only(self):
        records = [
            _rec("leaf", "1-3", 2.0, parent_id="1-2"),
            _rec("mid", "1-2", 5.0, parent_id="1-1"),
            _rec("root", "1-1", 10.0),
        ]
        stats = obs.summarize(records)
        assert stats["root"] == {"count": 1, "cum_s": 10.0, "self_s": 5.0}
        assert stats["mid"] == {"count": 1, "cum_s": 5.0, "self_s": 3.0}
        assert stats["leaf"] == {"count": 1, "cum_s": 2.0, "self_s": 2.0}

    def test_repeated_names_aggregate(self):
        records = [_rec("hit", f"1-{i}", 1.0) for i in range(4)]
        stats = obs.summarize(records)
        assert stats["hit"]["count"] == 4
        assert stats["hit"]["cum_s"] == pytest.approx(4.0)

    def test_clock_skew_never_goes_negative(self):
        # A child measured longer than its parent (clock granularity)
        # must clamp self to zero, not report negative work.
        records = [
            _rec("child", "1-2", 3.0, parent_id="1-1"),
            _rec("parent", "1-1", 2.0),
        ]
        assert obs.summarize(records)["parent"]["self_s"] == 0.0

    def test_root_total_and_coverage(self):
        records = [
            _rec("child", "1-2", 2.0, parent_id="1-1"),
            _rec("root-a", "1-1", 4.0),
            _rec("root-b", "1-9", 1.0),
        ]
        assert obs.root_total_s(records) == pytest.approx(5.0)
        assert obs.span_coverage(records, 10.0) == pytest.approx(0.5)
        assert obs.span_coverage(records, 0.0) == 0.0


class TestRenderTable:
    def test_empty_records(self):
        assert "no spans recorded" in obs.render_table([])

    def test_table_rows_and_footer(self):
        records = [
            _rec("fast", "1-2", 1.0, parent_id="1-1"),
            _rec("slow", "1-1", 9.0),
        ]
        text = obs.render_table(records, wall_s=10.0)
        lines = text.splitlines()
        assert "span" in lines[0] and "self(s)" in lines[0]
        # Sorted by self time: slow (8.0 self) before fast (1.0).
        assert lines[1].startswith("slow")
        assert lines[2].startswith("fast")
        assert any(line.startswith("total (self)") for line in lines)
        assert "span coverage: 90.0% of 10.000s wall time" in text


    def test_root_self_time_is_reported_as_unattributed(self):
        """Coverage counts a root span's self time; the line under it
        says how much of the wall time child spans explain."""
        records = [
            _rec("child", "1-2", 0.1, parent_id="1-1"),
            _rec("root", "1-1", 1.0),
        ]
        text = obs.render_table(records, wall_s=1.0)
        assert "span coverage: 100.0% of 1.000s wall time" in text
        assert "attributed to child spans: 10.0%; " \
            "unattributed (root self time): 90.0%" in text


class TestProfileCommand:
    def test_profile_wraps_a_subcommand(self, capsys):
        code = cli.main(["profile", "--", "fleet", "access-like"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fleet: access-like" in out          # wrapped output first
        assert "profile: repro fleet access-like" in out
        assert "cli.fleet" in out                    # the root span
        assert "span coverage:" in out

    def test_profile_needs_a_command(self, capsys):
        assert cli.main(["profile"]) == 2
        assert "needs a command" in capsys.readouterr().err

    def test_profile_cannot_wrap_itself(self, capsys):
        assert cli.main(["profile", "--", "profile", "--", "doctor"]) == 2
        assert "cannot wrap itself" in capsys.readouterr().err

    def test_profile_propagates_exit_code(self, capsys):
        # --mc-samples without --bands is a usage error (2) in the
        # wrapped command; profile must return it, not swallow it.
        code = cli.main(["profile", "--", "scenarios", "--fleet",
                        "access-like", "--mc-samples", "10"])
        assert code == 2


class TestTraceFlag:
    def test_trace_writes_validating_jsonl(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = cli.main(["scenarios", "--fleet", "access-like",
                         "--aci-scale", "1.0,0.8", "--trace", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"span(s) written to {path}" in out
        assert "cli.scenarios" in out
        assert obs_main.main([str(path)]) == 0      # schema-valid JSONL
        names = {json.loads(line)["name"]
                 for line in path.read_text().splitlines()}
        assert "cli.scenarios" in names
        assert "sweep.kernel" in names

    def test_trace_env_restored_afterwards(self, tmp_path):
        assert os.environ.get(tracing.TRACE_ENV) is None
        cli.main(["scenarios", "--fleet", "access-like",
                  "--aci-scale", "1.0", "--trace",
                  str(tmp_path / "t.jsonl")])
        assert os.environ.get(tracing.TRACE_ENV) is None

    def test_tracing_never_changes_the_rendered_table(self, capsys,
                                                      tmp_path):
        argv = ["scenarios", "--fleet", "access-like",
                "--aci-scale", "1.0,0.8", "--pue", "1.0,1.2"]
        assert cli.main(list(argv)) == 0
        plain = capsys.readouterr().out
        assert cli.main(argv + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out
        # The sweep table is a prefix of the traced output; the trace
        # summary only appends.
        assert traced.startswith(plain)


class TestGridFlag:
    def test_grid_conflicts_with_explicit_axes(self, capsys):
        code = cli.main(["scenarios", "--fleet", "access-like",
                         "--grid", "acceptance", "--pue", "1.0"])
        assert code == 2
        assert "drop the explicit axis" in capsys.readouterr().err

    def test_grid_acceptance_sweeps_64_scenarios(self, capsys):
        code = cli.main(["scenarios", "--fleet", "access-like",
                         "--grid", "acceptance"])
        out = capsys.readouterr().out
        assert code == 0
        assert "64 scenarios" in out


class TestDoctorActivity:
    def test_doctor_prints_the_activity_section(self, capsys):
        # Guarantee at least one counter exists (suite order-agnostic).
        obs.inc("test.doctor_probe")
        assert cli.main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "activity (process lifetime)" in out
        assert "test.doctor_probe" in out


class TestValidatorCli:
    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "ok.jsonl"
        with obs.capture() as trace:
            with obs.span("v.one"):
                pass
        path.write_text(json.dumps(trace.records[0]) + "\n")
        assert obs_main.main([str(path)]) == 0
        assert "1 valid span record(s)" in capsys.readouterr().out

    def test_invalid_record_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "name": 7}\n')
        assert obs_main.main([str(path)]) == 1
        assert "missing field" in capsys.readouterr().err

    def test_not_json_fails(self, capsys, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json at all\n")
        assert obs_main.main([str(path)]) == 1
        assert "not JSON" in capsys.readouterr().err

    def test_min_spans_enforced(self, capsys, tmp_path):
        path = tmp_path / "few.jsonl"
        with obs.capture() as trace:
            with obs.span("v.only"):
                pass
        path.write_text(json.dumps(trace.records[0]) + "\n")
        assert obs_main.main([str(path), "--min-spans", "5"]) == 1
        assert "expected at least 5" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys, tmp_path):
        assert obs_main.main([str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err
