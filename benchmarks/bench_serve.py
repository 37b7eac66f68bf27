"""Serving benchmark: latency, throughput, and the serving-layer ratios.

Not a paper figure — the engineering baseline for the ``repro serve``
daemon.  Four claims are measured and recorded in
``results/BENCH_serve.json`` (and gated by
``check_throughput_regression.py --serve-baseline``):

* **warm vs cold**: a repeated request is served from the
  checksum-validated result cache, so its latency is HTTP + cache
  lookup, not a kernel run.  The gated metric is the ratio
  ``warm_vs_cold_speedup`` (machine-normalized: both sides measured in
  one process on one machine).
* **coalescing**: N concurrent same-fleet requests batch into shared
  kernel calls; the gated ``coalesced.speedup_vs_serial`` compares the
  wall clock of N concurrent requests against the same N issued
  back-to-back, and the recorded p50/p95 per-request latencies track
  the tail cost of riding in a batch.
* **keep-alive**: the same stream of cached-hit requests over one
  persistent connection vs one fresh ``Connection: close`` connection
  per request — ``keepalive.speedup_vs_close`` is the connection
  setup/teardown cost the persistent loop removes.
* **L2 warm restart**: a fresh daemon lifetime over a shared
  ``--cache-dir`` answers a previous lifetime's question from the disk
  tier without re-running the sweep kernel (asserted on the
  ``kernel.cells`` counter) — ``l2_warm_restart.speedup_vs_cold``.

Correctness rides along: every coalesced response is asserted
byte-identical to the response the serial run produced for the same
body — the bit-identity contract, measured at the HTTP layer — and
every keep-alive / L2 response byte-identical to its
fresh-connection cold reference.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import http.client
import json
import statistics
import time
import urllib.request

from repro import obs
from repro.serve import AssessmentServer, ServeConfig

FLEET = "eurohpc-like"

#: The cold/warm probe: band statistics are the most expensive request
#: kind, so the cache-hit ratio is measured against real kernel work.
_BANDS_BODY = {"fleet": FLEET, "grid": "acceptance",
               "n_samples": 2000, "seed": 17}

#: Eight distinct sweep questions over one fleet — what a dashboard
#: fan-in looks like, and the coalescing window's natural prey.
_SWEEP_BODIES = [
    {"fleet": FLEET, "axes": {"pue": [round(1.0 + 0.05 * i, 2),
                                      round(1.1 + 0.05 * i, 2)],
                              "utilization": [0.5, 0.8]}}
    for i in range(8)
]


def _post(port, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"), method="POST")
    started = time.perf_counter()
    with urllib.request.urlopen(request, timeout=120) as response:
        payload = response.read()
        return (response.status, response.headers.get("X-Repro-Cache"),
                payload, time.perf_counter() - started)


def _with_server(scenario, **config_kwargs):
    """Boot a fresh daemon, run ``scenario(server, post)``, tear down."""

    async def runner():
        server = AssessmentServer(ServeConfig(port=0, **config_kwargs))
        await server.start()
        loop = asyncio.get_running_loop()
        # Dedicated client threads: the batcher runs kernels on the
        # loop's default executor, which concurrent blocking posts
        # would otherwise starve.
        clients = concurrent.futures.ThreadPoolExecutor(
            max_workers=len(_SWEEP_BODIES))

        def post(body, path="/v1/sweep"):
            return loop.run_in_executor(clients, _post,
                                        server.port, path, body)

        try:
            return await scenario(server, post)
        finally:
            await server.stop()
            clients.shutdown(wait=False)

    return asyncio.run(runner())


def _percentiles(samples):
    ordered = sorted(samples)
    return {
        "p50": statistics.median(ordered) * 1e3,
        "p95": ordered[min(len(ordered) - 1,
                           round(0.95 * (len(ordered) - 1)))] * 1e3,
    }


def _measure_warm_vs_cold():
    async def scenario(server, post):
        status, cache, _, cold_s = await post(_BANDS_BODY, "/v1/bands")
        assert status == 200 and cache == "miss"
        warm = []
        for _ in range(15):
            status, cache, _, elapsed = await post(_BANDS_BODY, "/v1/bands")
            assert status == 200 and cache == "hit"
            warm.append(elapsed)
        return cold_s, warm

    return _with_server(scenario)


def _measure_requests(concurrent: bool):
    """Wall clock + per-request latencies + payloads for the 8 sweeps."""

    async def scenario(server, post):
        started = time.perf_counter()
        if concurrent:
            results = await asyncio.gather(
                *(post(body) for body in _SWEEP_BODIES))
        else:
            results = [await post(body) for body in _SWEEP_BODIES]
        wall_s = time.perf_counter() - started
        assert all(status == 200 and cache == "miss"
                   for status, cache, _, _ in results)
        payloads = [payload for _, _, payload, _ in results]
        latencies = [elapsed for _, _, _, elapsed in results]
        return wall_s, latencies, payloads

    return _with_server(scenario)


_KEEPALIVE_N = 40

#: The keep-alive / L2 probe body: cheap enough to prime
#: once, then every timed request is a cache hit — the regime where
#: connection and protocol overhead dominates and the ratios are
#: about the serving layer, not the kernel.
_HIT_BODY = {"fleet": FLEET, "axes": {"pue": [1.0, 1.2]}}


def _timed_keepalive_run(port, reference):
    """N requests over ONE persistent connection; returns seconds."""
    payload = json.dumps(_HIT_BODY).encode("utf-8")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        started = time.perf_counter()
        for _ in range(_KEEPALIVE_N):
            conn.request("POST", "/v1/sweep", body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200 and body == reference
        return time.perf_counter() - started
    finally:
        conn.close()


def _timed_close_run(port, reference):
    """The same N requests, one fresh connection each; returns seconds."""
    payload = json.dumps(_HIT_BODY).encode("utf-8")
    started = time.perf_counter()
    for _ in range(_KEEPALIVE_N):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("POST", "/v1/sweep", body=payload,
                         headers={"Content-Type": "application/json",
                                  "Connection": "close"})
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200 and body == reference
        finally:
            conn.close()
    return time.perf_counter() - started


def _measure_keepalive():
    """Persistent vs per-request connections on pure cache hits."""

    async def scenario(server, post):
        status, cache, reference, _ = await post(_HIT_BODY)
        assert status == 200 and cache == "miss"
        loop = asyncio.get_running_loop()
        keepalive_s = min([await loop.run_in_executor(
            None, _timed_keepalive_run, server.port, reference)
            for _ in range(3)])
        close_s = min([await loop.run_in_executor(
            None, _timed_close_run, server.port, reference)
            for _ in range(3)])
        return keepalive_s, close_s

    return _with_server(scenario)


def _measure_l2_warm_restart(cache_dir):
    """Cold compute in lifetime A; L2 hits in (simulated) lifetime B."""

    async def first_life(server, post):
        status, cache, payload, cold_s = await post(_HIT_BODY)
        assert status == 200 and cache == "miss"
        return payload, cold_s

    payload, cold_s = _with_server(first_life, cache_dir=str(cache_dir))

    async def second_life(server, post):
        cells_before = obs.get_counter("kernel.cells")
        hits = []
        for _ in range(15):
            # A fresh lifetime has an empty L1; clearing it between
            # repeats keeps every timed request on the restart path
            # (disk read + checksum verify), not the L1 fast path.
            server.cache.l1.clear()
            status, cache, body, elapsed = await post(_HIT_BODY)
            assert status == 200 and cache == "hit-l2"
            assert body == payload      # byte-identical across restart
            hits.append(elapsed)
        # The whole point: the sweep kernel never ran again.
        assert obs.get_counter("kernel.cells") == cells_before
        return hits

    hits = _with_server(second_life, cache_dir=str(cache_dir))
    return cold_s, hits, payload


def test_serve_warm_cold_and_coalescing(results_dir, tmp_path):
    cold_s, warm_samples = _measure_warm_vs_cold()
    warm = _percentiles(warm_samples)
    warm_vs_cold = cold_s * 1e3 / warm["p50"]
    # A cache hit must beat re-running the band kernel.
    assert warm_vs_cold > 1.0, (cold_s, warm)

    best = None
    for _ in range(3):
        run = _measure_requests(concurrent=True)
        if best is None or run[0] < best[0]:
            best = run
    coalesced_wall_s, latencies, coalesced_payloads = best

    serial_best = None
    for _ in range(3):
        run = _measure_requests(concurrent=False)
        if serial_best is None or run[0] < serial_best[0]:
            serial_best = run
    serial_wall_s, _, serial_payloads = serial_best

    # The contract the speedup is allowed to exist under: coalesced
    # bytes == serial bytes, request for request.
    assert coalesced_payloads == serial_payloads

    keepalive_s, close_s = _measure_keepalive()
    keepalive_speedup = close_s / keepalive_s
    # The acceptance bound: reusing the connection must beat paying
    # TCP setup + teardown per request by a wide margin.
    assert keepalive_speedup >= 1.3, (keepalive_s, close_s)

    l2_cold_s, l2_hits, _ = _measure_l2_warm_restart(tmp_path / "l2")
    l2_hit = _percentiles(l2_hits)
    l2_speedup = l2_cold_s * 1e3 / l2_hit["p50"]
    assert l2_speedup > 1.0, (l2_cold_s, l2_hit)

    baseline = {
        "benchmark": "bench_serve",
        "fleet": FLEET,
        "cold_ms": cold_s * 1e3,
        "warm_hit_ms": warm,
        "warm_vs_cold_speedup": warm_vs_cold,
        "coalesced": {
            "n_requests": len(_SWEEP_BODIES),
            "wall_ms": coalesced_wall_s * 1e3,
            "latency_ms": _percentiles(latencies),
            "throughput_rps": len(_SWEEP_BODIES) / coalesced_wall_s,
            "serial_wall_ms": serial_wall_s * 1e3,
            "speedup_vs_serial": serial_wall_s / coalesced_wall_s,
        },
        "keepalive": {
            "n_requests": _KEEPALIVE_N,
            "keepalive_wall_ms": keepalive_s * 1e3,
            "close_wall_ms": close_s * 1e3,
            "keepalive_rps": _KEEPALIVE_N / keepalive_s,
            "close_rps": _KEEPALIVE_N / close_s,
            "speedup_vs_close": keepalive_speedup,
        },
        "l2_warm_restart": {
            "cold_ms": l2_cold_s * 1e3,
            "hit_ms": l2_hit,
            "speedup_vs_cold": l2_speedup,
        },
    }
    path = results_dir / "BENCH_serve.json"
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"\nserve: cold {baseline['cold_ms']:.1f}ms, warm p50 "
          f"{warm['p50']:.2f}ms ({warm_vs_cold:.0f}x), coalesced "
          f"{baseline['coalesced']['throughput_rps']:.0f} req/s "
          f"({baseline['coalesced']['speedup_vs_serial']:.2f}x vs serial), "
          f"keep-alive {keepalive_speedup:.2f}x vs close, L2 restart "
          f"{l2_speedup:.0f}x vs cold")
