"""Fuzzing the ``REPRO_*`` environment knobs at the process boundary.

``REPRO_TRACE`` (the span sink's path), ``REPRO_FAULT_SPEC`` (the fault
plan) and ``REPRO_SERVE_CACHE_DIR`` (the L2 directory ``repro doctor``
reads) come from the environment, where anything can be set.  For any
value, ``repro fleet``, ``repro doctor`` and a ``repro serve`` boot must
either run correctly or say what is wrong on stderr: never a traceback,
never a hang.

Every value is drawn with all three knobs set at once, in a fresh
interpreter whose working directory is a throwaway directory; paths
are kept inside it (a trace path can create files).
"""

from __future__ import annotations

import functools
import json
import os
import signal
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.serve.faults import FaultPlan

SRC = Path(__file__).resolve().parents[1] / "src"

#: Printable text without NUL (which no environment value can hold)
#: and without lone surrogates (which no environment value can encode).
_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\x00"), max_size=24)


def _relative(text: str) -> str:
    """``text`` as a path that stays inside the working directory."""
    return text.lstrip("/").replace("..", "__")


#: Paths that exist or fail in known ways, relative to the working
#: directory (``file`` is a regular file there, ``dir`` a directory).
_PATHS = st.one_of(
    st.sampled_from(["", ".", "dir", "file", "file/below", "dir/new.jsonl",
                     "missing/deeper/t.jsonl", "x" * 300, "/dev/full",
                     "/proc/self/no-such-entry", " ", "\n"]),
    _TEXT.map(_relative))

_SPEC_ENTRY = st.builds(
    "{}@{}{}{}".format,
    st.sampled_from(["hang", "kill", "raise", "fail", "HANG", "boom", ""]),
    st.sampled_from(["request", "batch", "cache-load", "kernel", ""]),
    st.sampled_from(["", "=0", "=3", "=-1", "=x", "=99999999999999999999"]),
    st.sampled_from(["", ":0", ":5ms", ":0.1s", ":nan", ":inf", ":-1",
                     ":1e999", ":", ":abc"]))
_SPECS = st.one_of(st.lists(_SPEC_ENTRY, max_size=3).map(",".join), _TEXT)

_KNOBS = st.fixed_dictionaries({
    "REPRO_TRACE": _PATHS,
    "REPRO_FAULT_SPEC": _SPECS,
    "REPRO_SERVE_CACHE_DIR": _PATHS,
})

_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])

#: Values that once failed: a cache directory name longer than NAME_MAX
#: (``repro doctor`` died in ``Path.is_dir``), and a ``nan`` hang.
_KNOWN = {"REPRO_TRACE": "dir", "REPRO_FAULT_SPEC": "hang@request:nan",
          "REPRO_SERVE_CACHE_DIR": "x" * 300}


def _env(knobs: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(knobs)
    return env


@functools.cache
def _reference_fleet_stdout() -> str:
    """``repro fleet doe-like`` with no ``REPRO_*`` knob set."""
    return subprocess.run(
        [sys.executable, "-m", "repro", "fleet", "doe-like"], env=_env({}),
        capture_output=True, text=True, check=True, timeout=60).stdout


def _workdir() -> tempfile.TemporaryDirectory:
    tmp = tempfile.TemporaryDirectory(prefix="repro-knobs-")
    (Path(tmp.name) / "file").write_text("not a directory\n")
    (Path(tmp.name) / "dir").mkdir()
    return tmp


def _no_traceback(stderr: str) -> None:
    assert "Traceback" not in stderr, stderr


@_SETTINGS
@given(knobs=_KNOBS)
@example(knobs=_KNOWN)
def test_fleet_and_doctor_survive_any_knobs(knobs):
    with _workdir() as cwd:
        env = _env(knobs)
        fleet = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "doe-like"], cwd=cwd,
            env=env, capture_output=True, text=True, timeout=60)
        _no_traceback(fleet.stderr)
        assert fleet.returncode == 0, fleet.stderr
        assert fleet.stdout == _reference_fleet_stdout()

        doctor = subprocess.run(
            [sys.executable, "-m", "repro", "doctor", "--json"], cwd=cwd,
            env=env, capture_output=True, text=True, timeout=60)
        _no_traceback(doctor.stderr)
        assert doctor.returncode == 0, doctor.stderr
        report = json.loads(doctor.stdout)
        assert report["schema_version"] == 2
        assert isinstance(report["faults"]["active_rules"], int)
        assert report["cache_tier"]["l2_entries"] == 0


@settings(_SETTINGS, max_examples=5)
@given(knobs=_KNOBS)
@example(knobs=_KNOWN)
def test_serve_boots_and_drains_under_any_knobs(knobs):
    with _workdir() as cwd:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=cwd, env=_env(knobs), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            ready_line = process.stdout.readline()
            assert "listening on http://127.0.0.1:" in ready_line, \
                ready_line + process.stderr.read()
            port = int(ready_line.split("http://127.0.0.1:", 1)[1].split()[0])
            url = f"http://127.0.0.1:{port}/readyz"
            with urllib.request.urlopen(url, timeout=30) as response:
                assert response.status == 200
                assert json.loads(response.read())["ready"] is True
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            assert "drained, exiting" in process.stdout.read()
            _no_traceback(process.stderr.read())
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            process.stdout.close()
            process.stderr.close()


@pytest.mark.parametrize("duration", ["nan", "inf", "1e999", "-1", "-5ms"])
def test_hang_duration_must_be_finite_and_non_negative(duration):
    """A ``nan`` sleep would put an unordered timer on the daemon's loop."""
    with pytest.warns(RuntimeWarning, match="finite"):
        plan = FaultPlan.parse(f"hang@request:{duration}")
    assert plan.rules == ()


def test_valid_hang_durations_parse():
    plan = FaultPlan.parse("hang@request=0:0,hang@batch:250ms,hang@request:2s")
    assert [rule.arg_s for rule in plan.rules] == [0.0, 0.25, 2.0]
