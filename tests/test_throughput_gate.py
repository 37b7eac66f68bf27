"""The CI benchmark gate refuses results that are not fresh measurements.

``benchmarks/check_throughput_regression.py`` compares a run's
``results/BENCH_*.json`` with the committed baselines.  A benchmark
that fails before writing leaves the committed file in place; the gate
must then fail rather than compare the baseline with itself.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_throughput_regression",
    _ROOT / "benchmarks" / "check_throughput_regression.py")
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

THROUGHPUT = {
    "speedup_vs_scalar_engine": 5.0,
    "scenario_sweep": {"speedup_vs_batch_loop": 10.0},
    "projection_sweep": {"speedup_vs_per_year_loop": 8.0},
    "shift_sweep": {"speedup_vs_per_window_loop": 6.0},
    "mc_bands": {"speedup_vs_band_loop": 7.0},
}
SERVE = {
    "warm_vs_cold_speedup": 30.0,
    "coalesced": {"speedup_vs_serial": 2.0},
    "keepalive": {"speedup_vs_close": 1.5},
    "l2_warm_restart": {"speedup_vs_cold": 20.0, "hit_ms": {"p50": 1.0}},
}
SCALING = {"cpu_count": 2, "gate_shape": "fleet-batch",
           "curve": [{"shape": "fleet-batch", "threads_vs_serial": 1.2}]}


def _dump(path: Path, data: dict, note: str) -> str:
    path.write_text(json.dumps({**data, "note": note}), encoding="utf-8")
    return str(path)


def _args(tmp_path: Path, current_note: str = "fresh") -> dict[str, str]:
    """Baselines and freshly measured (equal-valued) current files."""
    files = {}
    for name, data in (("throughput", THROUGHPUT), ("serve", SERVE),
                       ("scaling", SCALING)):
        files[f"{name}_base"] = _dump(tmp_path / f"{name}_base.json", data,
                                      "committed")
        files[name] = _dump(tmp_path / f"{name}.json", data, current_note)
    return files


def _run(files: dict[str, str]) -> int:
    return gate.main([
        files["throughput_base"], files["throughput"],
        "--serve-baseline", files["serve_base"],
        "--serve-current", files["serve"],
        "--scaling-baseline", files["scaling_base"],
        "--scaling-current", files["scaling"]])


def test_fresh_results_pass(tmp_path, capsys):
    assert _run(_args(tmp_path)) == 0
    assert "gate passed" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["throughput", "serve", "scaling"])
def test_missing_current_file_fails(tmp_path, capsys, kind):
    files = _args(tmp_path)
    Path(files[kind]).unlink()
    assert _run(files) == 1
    assert "no readable current result" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["throughput", "serve", "scaling"])
def test_current_identical_to_baseline_fails(tmp_path, capsys, kind):
    files = _args(tmp_path)
    Path(files[kind]).write_bytes(Path(files[f"{kind}_base"]).read_bytes())
    assert _run(files) == 1
    assert "byte-identical" in capsys.readouterr().err


@pytest.mark.parametrize("kind,drop", [
    ("throughput", ("mc_bands", "speedup_vs_band_loop")),
    ("serve", ("keepalive", "speedup_vs_close")),
    ("serve", ("l2_warm_restart", "hit_ms")),
    ("scaling", ("curve", 0, "threads_vs_serial")),
])
def test_current_lacking_a_gated_metric_fails(tmp_path, capsys, kind, drop):
    """Even with the baseline lacking it too: a gated metric the run
    did not measure is a failure, not a skip."""
    files = _args(tmp_path)
    for path in (files[kind], files[f"{kind}_base"]):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        node = data
        for part in drop[:-1]:
            node = node[part]
        del node[drop[-1]]
        Path(path).write_text(json.dumps(data), encoding="utf-8")
    Path(files[kind]).write_text(
        Path(files[kind]).read_text(encoding="utf-8") + "\n",
        encoding="utf-8")
    assert _run(files) == 1
    assert "missing from current measurement" in capsys.readouterr().err
