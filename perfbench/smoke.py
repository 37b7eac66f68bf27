"""The benchmark's own test: a minimal-size run of every workload.

    python3 perfbench/smoke.py

Run from the repository root.  For each workload it runs ``run.py
--smoke`` untraced and traced and asserts that every metric declared in
``BENCHMARK.json`` prints with its declared unit and a finite value,
that every output check passes, and that no operation failed.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, notes = run(workload, trace)
            label = f"{workload} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, label
            checks = json.loads(next(n for n in notes
                                     if n.startswith("# checks "))[9:])
            bad = [name for name, ok in checks.items() if not ok]
            assert not bad, f"{label}: failed checks {bad}"
            assert result["correct"] is True, label
            assert result["failed"] == 0, f"{label}: {result['failed']} failed"
            assert result["attempted"] >= 1, label
            metrics = result["metrics"]
            missing = sorted(set(declared[trace]) - set(metrics))
            assert not missing, f"{label}: missing {missing}"
            for name, unit in declared[trace].items():
                got = metrics[name]
                assert got["unit"] == unit, f"{label}: {name} unit {got}"
                assert isinstance(got["value"], (int, float)) and \
                    math.isfinite(got["value"]), f"{label}: {name} {got}"
            print(f"ok  {label}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
