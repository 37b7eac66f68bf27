"""The span tracer: sinks, nesting, the schema.

The contracts under test are the ones ``docs/observability.md``
promises: disabled is a shared no-op, capture/file sinks see exactly
the spans they should, and every emitted record validates against
:data:`repro.obs.tracing.SPAN_FIELDS`.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import tracing


@pytest.fixture(autouse=True)
def _no_ambient_trace(monkeypatch):
    monkeypatch.delenv(tracing.TRACE_ENV, raising=False)


class TestDisabledPath:
    def test_inactive_without_any_sink(self):
        assert not obs.tracing_active()

    def test_span_returns_the_shared_noop(self):
        assert obs.span("a", x=1) is tracing._NOOP_SPAN
        assert obs.span("b") is tracing._NOOP_SPAN

    def test_noop_span_is_reentrant(self):
        with obs.span("outer"):
            with obs.span("inner"):
                assert obs.current_span_id() is None

    def test_env_flip_is_seen_immediately(self, monkeypatch, tmp_path):
        assert not obs.tracing_active()
        monkeypatch.setenv(tracing.TRACE_ENV, str(tmp_path / "t.jsonl"))
        assert obs.tracing_active()
        monkeypatch.setenv(tracing.TRACE_ENV, "")
        assert not obs.tracing_active()


class TestCapture:
    def test_records_one_valid_span(self):
        with obs.capture() as trace:
            with obs.span("unit.work", n=3):
                time.sleep(0.001)
        assert len(trace) == 1
        record = trace.records[0]
        assert obs.validate_record(record) == []
        assert record["name"] == "unit.work"
        assert record["attrs"] == {"n": 3}
        assert record["parent_id"] is None
        assert record["dur_s"] > 0

    def test_nesting_links_parent_ids(self):
        with obs.capture() as trace:
            with obs.span("outer"):
                outer_id = obs.current_span_id()
                with obs.span("inner"):
                    assert obs.current_span_id() != outer_id
        # Children close (and record) before their parents.
        inner, outer = trace.records
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer["span_id"] == outer_id
        assert outer["parent_id"] is None

    def test_captures_stack(self):
        with obs.capture() as outer_trace:
            with obs.span("before-inner"):
                pass
            with obs.capture() as inner_trace:
                with obs.span("both"):
                    pass
        assert outer_trace.names() == {"before-inner", "both"}
        assert inner_trace.names() == {"both"}

    def test_by_name_and_names(self):
        with obs.capture() as trace:
            for _ in range(3):
                with obs.span("repeat"):
                    pass
            with obs.span("once"):
                pass
        assert len(trace.by_name("repeat")) == 3
        assert trace.names() == {"repeat", "once"}

    def test_capture_closes_even_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert not obs.tracing_active()


class TestFileSink:
    def test_writes_valid_jsonl(self, monkeypatch, tmp_path):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv(tracing.TRACE_ENV, str(path))
        with obs.span("file.one", k="v"):
            pass
        with obs.span("file.two"):
            pass
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert obs.validate_record(record) == []
        assert json.loads(lines[0])["attrs"] == {"k": "v"}

    def test_file_and_capture_both_receive(self, monkeypatch, tmp_path):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv(tracing.TRACE_ENV, str(path))
        with obs.capture() as trace:
            with obs.span("both.sinks"):
                pass
        assert trace.names() == {"both.sinks"}
        assert json.loads(path.read_text().splitlines()[0])["name"] \
            == "both.sinks"

    def test_one_handle_per_path_for_many_spans(self, monkeypatch,
                                                tmp_path):
        """The sink opens a path once and then appends one flushed line
        per span, from any thread."""
        import builtins
        import threading

        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return builtins.open(*args, **kwargs)

        path = tmp_path / "many.jsonl"
        monkeypatch.setattr(tracing, "open", counting_open, raising=False)
        monkeypatch.setenv(tracing.TRACE_ENV, str(path))

        def emit(n):
            for i in range(n):
                with obs.span("many", i=i):
                    pass

        threads = [threading.Thread(target=emit, args=(100,))
                   for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            emit(100)
            for thread in threads:
                thread.join()
        finally:
            tracing._HANDLES.pop(str(path)).close()
        assert opened == [str(path)]
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 500
        assert all(obs.validate_record(json.loads(line)) == []
                   for line in lines)
        assert sorted(json.loads(line)["attrs"]["i"] for line in lines) \
            == sorted(list(range(100)) * 5)

    def test_handles_closed_at_exit(self, tmp_path):
        """A traced process leaves no open handle to interpreter
        teardown, where ``ResourceWarning`` would print it after the
        process's own output."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        path = tmp_path / "exit.jsonl"
        env = dict(os.environ, REPRO_TRACE=str(path),
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-W", "always::ResourceWarning", "-c",
             "from repro import obs\n"
             "with obs.span('exit.one'):\n    pass\n"
             "print('done')"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert (done.stdout, done.stderr) == ("done\n", "")
        assert json.loads(path.read_text())["name"] == "exit.one"

    def test_unwritable_path_never_raises(self, monkeypatch, tmp_path):
        # Telemetry must not take down the assessment: a directory is
        # unopenable for append, the span silently drops.
        monkeypatch.setenv(tracing.TRACE_ENV, str(tmp_path))
        with obs.span("dropped"):
            pass

    def test_unwritable_path_warns_once_on_stderr(self, monkeypatch,
                                                  tmp_path, capsys):
        """An unwritable sink says so once per path; the traced work
        returns what it returns untraced."""
        from repro.core.vectorized import batch_operational_mt
        from repro.data import synth_fleet

        records = synth_fleet(20, seed=1)
        untraced = batch_operational_mt(records)
        obs.reset_warnings()
        monkeypatch.setenv(tracing.TRACE_ENV, str(tmp_path))
        for _ in range(3):
            traced = batch_operational_mt(records)
            with obs.span("dropped"):
                pass
        assert np.array_equal(traced, untraced, equal_nan=True)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert str(tmp_path) in lines[0] and "REPRO_TRACE" in lines[0]

        other = tmp_path / "missing-dir" / "trace.jsonl"
        monkeypatch.setenv(tracing.TRACE_ENV, str(other))
        with obs.span("dropped"):
            pass
        assert str(other) in capsys.readouterr().err
        obs.reset_warnings()
        monkeypatch.setenv(tracing.TRACE_ENV, str(tmp_path))
        with obs.span("dropped"):
            pass
        assert str(tmp_path) in capsys.readouterr().err


class TestSchema:
    def _valid(self):
        with obs.capture() as trace:
            with obs.span("schema.probe"):
                pass
        return trace.records[0]

    def test_valid_record_has_no_problems(self):
        assert obs.validate_record(self._valid()) == []

    def test_json_roundtrip_stays_valid(self):
        record = json.loads(json.dumps(self._valid()))
        assert obs.validate_record(record) == []

    def test_non_object_rejected(self):
        assert obs.validate_record([1, 2]) \
            == ["record is list, not an object"]

    def test_missing_field_rejected(self):
        record = self._valid()
        del record["span_id"]
        assert "missing field 'span_id'" in obs.validate_record(record)

    def test_wrong_type_rejected(self):
        record = self._valid()
        record["pid"] = "forty-two"
        assert any("pid=" in p for p in obs.validate_record(record))

    def test_bool_is_not_an_int(self):
        record = self._valid()
        record["pid"] = True
        assert any("type bool" in p for p in obs.validate_record(record))

    def test_negative_duration_rejected(self):
        record = self._valid()
        record["dur_s"] = -0.5
        assert any("negative" in p for p in obs.validate_record(record))

    def test_wrong_type_field_rejected(self):
        record = self._valid()
        record["type"] = "metric"
        assert any("is not 'span'" in p for p in obs.validate_record(record))

    def test_span_ids_are_unique_and_pid_scoped(self):
        with obs.capture() as trace:
            for _ in range(5):
                with obs.span("id.probe"):
                    pass
        ids = [r["span_id"] for r in trace.records]
        assert len(set(ids)) == 5
        assert all(sid.split("-")[0] == str(trace.records[0]["pid"])
                   for sid in ids)
