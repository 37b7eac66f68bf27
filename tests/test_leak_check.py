"""The conftest leak check fires on a leaked child and a leaked temp file.

A throwaway suite under a ``serve/`` directory runs with a copy of
``tests/conftest.py`` in a separate pytest process: each leaking test
must error at teardown with the leak named, the leaked ``sleep`` must be
killed, and a test that cleans up after itself must pass.
"""

from __future__ import annotations

import os
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

LEAKY_SUITE = textwrap.dedent("""
    import subprocess

    LEAKED = []

    def test_leaks_a_child():
        LEAKED.append(subprocess.Popen(["sleep", "60"]))

    def test_leaked_child_was_killed():
        assert LEAKED[0].wait(timeout=5) is not None

    def test_leaks_a_temp_file(tmp_path):
        (tmp_path / "l2").mkdir()
        (tmp_path / "l2" / ".tmp-x").write_bytes(b"half-written")

    def test_cleans_up(tmp_path):
        subprocess.run(["true"], check=True)
        (tmp_path / "entry.rc").write_bytes(b"whole")
""")


def test_leak_check_fires_on_leaked_child_and_temp_file(pytester,
                                                        monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    pytester.makeconftest((TESTS / "conftest.py").read_text())
    (pytester.path / "serve").mkdir()
    (pytester.path / "serve" / "test_leaky.py").write_text(LEAKY_SUITE)

    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")

    result.assert_outcomes(passed=4, errors=2)
    result.stdout.fnmatch_lines([
        "*ERROR at teardown of test_leaks_a_child*",
        "*leaked child process *",
        "*ERROR at teardown of test_leaks_a_temp_file*",
        "*leaked temp file l2/.tmp-x*",
    ])
