"""The exit contract of ``python -m repro``.

The entry point ends the process with ``os._exit`` once the command is
done, skipping interpreter teardown.  These tests run the real entry
point in a fresh interpreter and hold what a caller of the command can
see: exit codes, complete output on a file and on a closed pipe, the
traceback of a crash, the trace file's root span, and no temp files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _env(**extra: str) -> dict[str, str]:
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _repro(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    kwargs.setdefault("capture_output", True)
    kwargs.setdefault("env", _env())
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          timeout=120, **kwargs)


@pytest.mark.parametrize("argv,code", [
    (["fleet", "doe-like"], 0),
    (["--help"], 0),
    (["no-such-command"], 2),
    (["assess", "--country", "Germany", "--rmax-tflops", "5000"], 1),
], ids=["success", "help", "usage-error", "assess-uncovered"])
def test_exit_code(argv, code):
    done = _repro(argv)
    assert done.returncode == code, done.stderr
    assert done.stdout or code == 2
    if code == 2:
        assert done.stderr.startswith(b"usage: repro")
    else:
        assert done.stderr == b""


def test_output_redirected_to_a_file_is_complete(tmp_path):
    out = tmp_path / "report.txt"
    with open(out, "wb") as fh:
        done = _repro(["report"], stdout=fh, capture_output=False,
                      stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, b"")
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        assert main(["report"]) == 0
    assert out.read_text(encoding="utf-8") == expected.getvalue()


#: Runs the entry point as ``-m`` does, with ``main`` replaced.
_PATCHED_ENTRY = (
    "import runpy, repro.cli\n"
    "def main(argv=None):\n"
    "    print('partial output')\n"
    "    {body}\n"
    "repro.cli.main = main\n"
    "runpy.run_module('repro', run_name='__main__')\n")


def test_uncaught_exception_prints_its_traceback_and_exits_1():
    done = subprocess.run(
        [sys.executable, "-c",
         _PATCHED_ENTRY.format(body="raise RuntimeError('boom')")],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == "partial output\n"
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert done.stderr.endswith("RuntimeError: boom\n")


def test_system_exit_with_a_message_prints_it_and_exits_1():
    done = subprocess.run(
        [sys.executable, "-c",
         _PATCHED_ENTRY.format(body="raise SystemExit('bad input')")],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == \
        (1, "partial output\n", "bad input\n")


def test_traced_run_writes_its_root_span(tmp_path):
    trace = tmp_path / "trace.jsonl"
    done = _repro(["fleet", "doe-like"], env=_env(REPRO_TRACE=str(trace)))
    assert (done.returncode, done.stderr) == (0, b"")
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    roots = [r for r in records if r["parent_id"] is None]
    assert [r["name"] for r in roots] == ["cli.fleet"]
    assert trace.read_text().endswith("\n")


def test_no_temp_files_left_behind(tmp_path):
    tmp, cwd = tmp_path / "tmp", tmp_path / "cwd"
    tmp.mkdir()
    cwd.mkdir()
    for argv in (["report"], ["scenarios", "--grid", "acceptance"]):
        done = _repro(argv, cwd=cwd, env=_env(TMPDIR=str(tmp)))
        assert (done.returncode, done.stderr) == (0, b"")
    assert list(tmp.iterdir()) == []
    assert list(cwd.iterdir()) == []


def test_closed_pipe_exits_1_without_a_traceback():
    """``repro ... | head -n 1``: the reader leaves after one line.

    A 3,600-scenario table prints ~220 KB, more than a pipe and the
    writer's buffer hold, so the writer is still writing when the
    reader closes its end.
    """
    axis = ",".join(f"{1 + i / 100:.2f}" for i in range(60))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "scenarios", "--fleet", "doe-like",
         "--aci-scale", axis, "--pue", axis],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"Scenario sweep")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert stderr == b""
