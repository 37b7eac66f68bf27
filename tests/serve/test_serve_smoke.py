"""Black-box daemon smoke: real process, real signals, exit 0.

This mirrors the CI serve-smoke job: start ``python -m repro serve``
as a subprocess, wait for readiness, run one assess and one
64-scenario sweep (cache hit on repeat), check one acceptance-grid
bands request band by band against the per-fleet reference draw, and
repeat one inline-systems sweep (answered from the raw-body memo and
the cache the second time), then SIGTERM it and require a clean drain
— exit code 0, with the drain line on stdout.  The keep-alive variant
drives the daemon with a persistent-connection client, asserting
connection reuse never changes a byte.  The L2-budget variant churns
a disk cache of a few KiB with distinct sweeps: it must evict, scan
the directory less often than it writes, drain cleanly and leave at
most the budget plus its high-water slack and one entry.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _request(port, path, body=None):
    url = f"http://127.0.0.1:{port}{path}"
    if body is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url, data=json.dumps(body).encode("utf-8"), method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


def _wait_ready(port):
    deadline = time.monotonic() + 30
    while True:
        try:
            status, _, body = _request(port, "/readyz")
            if status == 200 and json.loads(body)["ready"]:
                return
        except (urllib.error.URLError, ConnectionError):
            pass
        assert time.monotonic() < deadline, "daemon never became ready"
        time.sleep(0.1)


def _check_bands(port, body):
    """``/v1/bands`` over a built-in fleet: every scenario's band is the
    frozen per-fleet reference draw over that scenario's sweep row."""
    from repro.fleets import BUILTIN_FLEETS
    from repro.scenarios import sweep
    from repro.serve.batcher import build_specs, parse_request
    from repro.uncertainty.mc import band_scalar_reference

    status, _, payload = _request(port, "/v1/bands", body)
    assert status == 200
    answer = json.loads(payload)
    parsed = parse_request("bands", body, default_deadline_s=30.0,
                           max_deadline_s=60.0)
    cube = sweep(list(BUILTIN_FLEETS[body["fleet"]].systems),
                 build_specs(parsed))
    values = cube.values(parsed.footprint)
    unc = cube.uncertainty(parsed.footprint)
    assert [row["name"] for row in answer["scenarios"]] \
        == [spec.name for spec in cube.specs]
    for i, row in enumerate(answer["scenarios"]):
        ref = band_scalar_reference(values[i], unc[i],
                                    n_samples=parsed.n_samples,
                                    seed=parsed.seed)
        assert row["band"] == {"mean_mt": ref.mean_mt,
                               "std_mt": ref.std_mt, "p5_mt": ref.p5_mt,
                               "p50_mt": ref.p50_mt, "p95_mt": ref.p95_mt}


@pytest.mark.timeout(60)
def test_serve_smoke_sigterm_drains_to_exit_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULT_SPEC", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=REPO_ROOT, env=env)
    try:
        ready_line = process.stdout.readline()
        assert "listening on http://127.0.0.1:" in ready_line, ready_line
        port = int(ready_line.strip().rsplit(":", 1)[1])

        deadline = time.monotonic() + 30
        while True:
            try:
                status, _, body = _request(port, "/readyz")
                break
            except (urllib.error.URLError, ConnectionError):
                assert time.monotonic() < deadline, "readyz never came up"
                time.sleep(0.1)
        assert status == 200
        assert json.loads(body)["ready"] is True

        status, headers, first = _request(port, "/v1/assess",
                                          {"fleet": "doe-like"})
        assert status == 200 and headers["X-Repro-Cache"] == "miss"
        status, headers, again = _request(port, "/v1/assess",
                                          {"fleet": "doe-like"})
        assert status == 200 and headers["X-Repro-Cache"] == "hit"
        assert again == first

        status, _, sweep = _request(port, "/v1/sweep",
                                    {"fleet": "doe-like",
                                     "grid": "acceptance"})
        assert status == 200
        assert json.loads(sweep)["n_scenarios"] == 64

        _check_bands(port, {"fleet": "doe-like", "grid": "acceptance",
                            "seed": 17})

        inline = {"systems": [
            {"rank": i + 1, "name": f"s{i}", "country": "Germany",
             "rmax_tflops": 900.0 + i, "rpeak_tflops": 1200.0 + i,
             "power_kw": 800.0 + i} for i in range(3)],
            "axes": {"pue": [1.0, 1.2]}}
        status, headers, first = _request(port, "/v1/sweep", inline)
        assert status == 200 and headers["X-Repro-Cache"] == "miss"
        status, headers, again = _request(port, "/v1/sweep", inline)
        assert status == 200 and headers["X-Repro-Cache"] == "hit"
        assert again == first
        assert json.loads(first)["fleet"] == "inline"

        process.send_signal(signal.SIGTERM)
        exit_code = process.wait(timeout=30)
        assert exit_code == 0
        assert "drained, exiting" in process.stdout.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


@pytest.mark.timeout(120)
def test_serve_smoke_keepalive_client_then_clean_drain(tmp_path):
    cache_dir = tmp_path / "l2"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULT_SPEC", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=REPO_ROOT, env=env)
    try:
        ready_line = process.stdout.readline()
        assert "listening on http://127.0.0.1:" in ready_line, ready_line
        port = int(ready_line.split("http://127.0.0.1:", 1)[1].split()[0])

        _wait_ready(port)

        # Fresh-connection references (urllib sends Connection: close).
        request_body = {"fleet": "doe-like", "axes": {"pue": [1.0, 1.2]}}
        status, _, reference = _request(port, "/v1/sweep", request_body)
        assert status == 200

        # Keep-alive client: several requests over ONE connection must
        # be byte-identical to the fresh-connection response.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for _ in range(4):
                conn.request("POST", "/v1/sweep",
                             body=json.dumps(request_body).encode(),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                assert response.headers["Connection"] == "keep-alive"
                assert response.read() == reference
        finally:
            conn.close()

        process.send_signal(signal.SIGTERM)
        exit_code = process.wait(timeout=30)
        assert exit_code == 0
        assert "drained, exiting" in process.stdout.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    # The drain leaves no half-written L2 temp file.
    assert [name for name in os.listdir(cache_dir)
            if name.startswith(".tmp-")] == []


@pytest.mark.timeout(120)
def test_serve_smoke_l2_budget_churn_then_clean_drain(tmp_path):
    cache_dir = tmp_path / "l2"
    budget = 4096
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULT_SPEC", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir), "--cache-l2-bytes", str(budget)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=REPO_ROOT, env=env)
    try:
        ready_line = process.stdout.readline()
        assert "listening on http://127.0.0.1:" in ready_line, ready_line
        port = int(ready_line.split("http://127.0.0.1:", 1)[1].split()[0])

        _wait_ready(port)

        largest = 0
        for i in range(20):
            status, headers, body = _request(port, "/v1/sweep", {
                "fleet": "doe-like",
                "axes": {"pue": [1.0, 1.01 + i / 100]}})
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            largest = max(largest, 65 + len(body))  # checksum line + body

        _, _, body = _request(port, "/metrics")
        counters = json.loads(body)["counters"]
        assert counters["serve.cache_l2_puts"] == 20
        assert counters["serve.cache_l2_evictions"] > 0
        assert counters["serve.cache_l2_scans"] < counters[
            "serve.cache_l2_puts"]

        process.send_signal(signal.SIGTERM)
        exit_code = process.wait(timeout=30)
        assert exit_code == 0
        assert "drained, exiting" in process.stdout.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    names = os.listdir(cache_dir)
    assert [name for name in names if name.startswith(".tmp-")] == []
    on_disk = sum((cache_dir / name).stat().st_size for name in names)
    assert on_disk <= budget + budget // 8 + largest
