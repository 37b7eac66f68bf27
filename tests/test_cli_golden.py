"""Golden stdout digests of the cold CLI commands.

The six commands perfbench's ``cli-cold`` workload times, plus the band
variants of ``scenarios`` and ``project``, each run in a fresh
interpreter.  The digests were recorded before the default Top500 list
came from a committed snapshot and the study became lazy; any change to
a byte any of these commands prints fails here.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROJECT = ["project", "--scenarios", "--op-growth", "0.05,0.103",
            "--decarbonize", "0,0.05"]

#: ``name: (argv, sha256 of stdout)``.
GOLDEN = {
    "help": (["--help"],
             "219826b291caa153c381650ab542b5beb7ee3c6610e2992f0797dc60e8cb64a8"),
    "fleet": (["fleet", "doe-like"],
              "e0ff291a62bf586ff66180c8a41238981277a6a860ec901b68e2aaed5c390e52"),
    "scenarios": (["scenarios", "--grid", "acceptance"],
                  "1d33c5e0b591f4686e11cd791caa22f96826b9a8e14c6e09a0900add4df11d30"),
    "project": (_PROJECT,
                "b3a18ffdda80a7928ca5f4944a11d8107720eceda46a926f3832a7d8cf7f5196"),
    "shift": (["shift"],
              "2ae0378443856d98522fc140138d7aacbfd465c0a20e44626869c5c8eb611a7f"),
    "report": (["report"],
               "418c44b29d81b2e05daab763c819862bb2eb737f729b63910a730a1e0b9c92e3"),
    "scenarios-bands": (["scenarios", "--grid", "acceptance", "--bands"],
                        "c4cc011a5477c16e2bccdc0cc7d6e60d9229a9bcea72efd80ec226faf152445c"),
    "project-bands": (_PROJECT + ["--bands"],
                      "da8c68114304871bee2dcd3e5bca76493f5da1ab2c3332b70d7e2c194c1e5e86"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_stdout_digest(name):
    argv, digest = GOLDEN[name]
    # argparse wraps --help to $COLUMNS (80 when stdout is a pipe).
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                         capture_output=True, check=True, timeout=120)
    assert hashlib.sha256(out.stdout).hexdigest() == digest, \
        out.stdout.decode("utf-8", "replace")[:2000]
