"""The daemon end-to-end over real HTTP on a loopback socket.

Each test boots a fresh :class:`AssessmentServer` on an ephemeral port
inside its own event loop and talks to it with blocking urllib clients
on executor threads — the same traffic shape real clients produce.
The three refusal codes (``deadline-exceeded``, ``queue-full``,
``breaker-open``) are each driven by fault injection, and every cached
or coalesced response is asserted byte-identical to its serial
reference.
"""

from __future__ import annotations

import asyncio
import json
import select
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.fleets import BUILTIN_FLEETS
from repro.serve import faults
from repro.serve import AssessmentServer, ServeConfig
from repro.serve.batcher import evaluate_group, parse_request


def _get(port, path):
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def _post(port, path, body):
    return _post_raw(port, path, json.dumps(body).encode("utf-8"))


def _post_raw(port, path, data: bytes):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def run_server(scenario, config=None):
    """Boot a fresh server, run ``scenario(server, get, post)``, stop."""

    async def runner():
        server = AssessmentServer(config or ServeConfig(port=0))
        await server.start()
        loop = asyncio.get_running_loop()

        def get(path):
            return loop.run_in_executor(None, _get, server.port, path)

        def post(path, body):
            return loop.run_in_executor(None, _post, server.port, path, body)

        try:
            await scenario(server, get, post)
        finally:
            await server.stop()

    asyncio.run(runner())


def _error_code(body: bytes) -> str:
    return json.loads(body)["error"]["code"]


def _serial_reference(body: dict, kind: str = "sweep") -> bytes:
    """What a lone, serial evaluation of this request returns."""
    parsed = parse_request(kind, body, default_deadline_s=30.0,
                           max_deadline_s=300.0)
    records = BUILTIN_FLEETS[body["fleet"]].systems
    payload = evaluate_group(records, [parsed],
                             serial_only=True, budget_s=None)[0]
    return payload.encode("utf-8")


class TestEndpoints:
    def test_health_ready_metrics(self):
        async def scenario(server, get, post):
            status, _, body = await get("/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["breaker"] == "closed"

            status, _, body = await get("/readyz")
            assert status == 200
            ready = json.loads(body)
            assert ready["ready"] is True
            # /readyz embeds the doctor schema (v2) plus the serve
            # section.
            assert {"schema_version", "faults", "cache_tier",
                    "counters", "serve"} <= set(ready)
            assert ready["schema_version"] == 2

            await post("/v1/assess", {"fleet": "doe-like"})
            status, _, body = await get("/metrics")
            assert status == 200
            assert json.loads(body)["counters"]["serve.requests"] >= 1

        run_server(scenario)

    def test_routing_and_malformed_requests(self):
        async def scenario(server, get, post):
            status, _, body = await get("/nope")
            assert status == 404 and _error_code(body) == "not-found"
            status, _, body = await post("/v1/nope", {})
            assert status == 404
            status, _, body = await post("/v1/assess", {"bogus": 1})
            assert status == 400 and _error_code(body) == "bad-request"

            def raw_post():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{server.port}/v1/assess",
                    data=b"{not json", method="POST")
                try:
                    with urllib.request.urlopen(request, timeout=30) as r:
                        return r.status, r.read()
                except urllib.error.HTTPError as err:
                    return err.code, err.read()

            loop = asyncio.get_running_loop()
            status, body = await loop.run_in_executor(None, raw_post)
            assert status == 400 and b"invalid JSON" in body

        run_server(scenario)


def _raw_exchange(port: int, data: bytes) -> bytes:
    """Send raw bytes; read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _drip_exchange(port: int, head: bytes, lines: list[bytes],
                   interval_s: float) -> tuple[bytes, float, int]:
    """Send ``head``, then one line per ``interval_s`` until the server
    answers; returns ``(response, seconds to answer, lines sent)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        start = time.monotonic()
        sock.sendall(head)
        sent = 0
        while sent < len(lines) and not select.select(
                [sock], [], [], interval_s)[0]:
            sock.sendall(lines[sent])
            sent += 1
        select.select([sock], [], [], 30)
        elapsed = time.monotonic() - start
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks), elapsed, sent


def _status_and_body(response: bytes) -> tuple[int, bytes]:
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


class TestFraming:
    """Broken HTTP framing gets one structured error, then a close.

    The oversized lines stay just past the 64 KiB stream limit, so the
    server has read every byte before it closes (unread bytes would
    turn the close into a reset that can swallow the response).
    """

    def _exchange(self, data: bytes) -> tuple[int, bytes]:
        result = {}

        async def scenario(server, get, post):
            loop = asyncio.get_running_loop()
            result["response"] = await loop.run_in_executor(
                None, _raw_exchange, server.port, data)
            # The daemon is still healthy afterwards.
            status, _, _ = await get("/healthz")
            assert status == 200

        run_server(scenario)
        return _status_and_body(result["response"])

    def test_negative_content_length_is_a_400(self):
        status, body = self._exchange(
            b"POST /v1/assess HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -5\r\n\r\n{}")
        assert status == 400 and _error_code(body) == "bad-request"
        assert b"Content-Length" in body

    def test_conflicting_duplicate_content_length_is_a_400(self):
        status, body = self._exchange(
            b"POST /v1/assess HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2\r\nContent-Length: 7\r\n\r\n{}")
        assert status == 400 and b"Content-Length" in body

    def test_oversized_header_line_is_a_431(self):
        status, body = self._exchange(
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (70 << 10)
            + b"\r\n\r\n")
        assert status == 431 and _error_code(body) == "bad-request"

    def test_drip_fed_headers_time_out_with_a_408(self):
        """One header line every 0.2 s never completes the block: the
        whole block gets ``keepalive_idle_s``, not each line."""
        lines = [b"X-Drip-%d: y\r\n" % i for i in range(15)]
        result = {}

        async def scenario(server, get, post):
            loop = asyncio.get_running_loop()
            result["exchange"] = await loop.run_in_executor(
                None, _drip_exchange, server.port,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n", lines, 0.2)
            status, _, _ = await get("/healthz")
            assert status == 200

        run_server(scenario, ServeConfig(port=0, keepalive_idle_s=0.5))
        response, elapsed, sent = result["exchange"]
        status, body = _status_and_body(response)
        assert status == 408 and _error_code(body) == "bad-request"
        assert b"Connection: close" in response
        assert elapsed < 1.5 and sent < len(lines) // 2

    def test_oversized_request_line_is_a_414(self):
        status, body = self._exchange(
            b"GET /" + b"a" * (70 << 10) + b" HTTP/1.1\r\n\r\n")
        assert status == 414 and _error_code(body) == "bad-request"


class TestCacheBehavior:
    def test_hit_is_byte_identical_and_header_flagged(self):
        async def scenario(server, get, post):
            status, headers, first = await post("/v1/assess",
                                                {"fleet": "doe-like"})
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            status, headers, second = await post("/v1/assess",
                                                 {"fleet": "doe-like"})
            assert status == 200 and headers["X-Repro-Cache"] == "hit"
            assert first == second

        run_server(scenario)

    def test_poisoned_entry_recomputed_not_served(self):
        async def scenario(server, get, post):
            body = {"fleet": "doe-like", "axes": {"pue": [1.0, 1.2]}}
            _, _, first = await post("/v1/sweep", body)
            for key in list(server.cache.l1._entries):
                assert server.cache.l1.poison(key)
            before = obs.get_counter("serve.cache_poisoned")
            status, headers, again = await post("/v1/sweep", body)
            assert status == 200
            assert headers["X-Repro-Cache"] == "miss"   # recomputed
            assert again == first                       # and identical
            assert obs.get_counter("serve.cache_poisoned") == before + 1

        run_server(scenario)

    def test_l2_warm_restart_hit_without_rerunning_kernel(self, tmp_path):
        """A fresh daemon lifetime over the same --cache-dir serves the
        previous lifetime's answer byte-identically from L2 — without
        running a single batch."""
        body = {"fleet": "doe-like", "axes": {"pue": [1.0, 1.2]}}
        captured = {}

        async def first_life(server, get, post):
            status, headers, payload = await post("/v1/sweep", body)
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            captured["payload"] = payload

        run_server(first_life,
                   ServeConfig(port=0, cache_dir=str(tmp_path)))

        async def second_life(server, get, post):
            status, headers, payload = await post("/v1/sweep", body)
            assert status == 200
            assert headers["X-Repro-Cache"] == "hit-l2"
            assert payload == captured["payload"]
            assert server.batcher.batch_no == 0     # no kernel work
            # The promoted entry now hits L1.
            status, headers, payload = await post("/v1/sweep", body)
            assert headers["X-Repro-Cache"] == "hit"
            assert payload == captured["payload"]
            # /readyz reports the configured tier.
            _, _, ready = await get("/readyz")
            tier = json.loads(ready)["cache_tier"]
            assert tier["l2_dir"] == str(tmp_path)
            assert tier["l2_entries"] == 1

        run_server(second_life,
                   ServeConfig(port=0, cache_dir=str(tmp_path)))

    def test_readyz_without_l2_ignores_the_doctor_env_dir(
            self, tmp_path, monkeypatch):
        """A daemon with no ``--cache-dir`` has no L2, whatever the
        doctor's ``REPRO_SERVE_CACHE_DIR`` fallback names."""
        from repro.serve.health import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        server = AssessmentServer(ServeConfig(port=0))
        assert server.cache.l2 is None
        tier = server._readyz()["cache_tier"]
        assert tier["l2_dir"] is None
        assert tier["l2_max_bytes"] == 0
        assert tier["l2_entries"] == 0

    def test_readyz_reads_l2_counts_without_listing(self, tmp_path,
                                                     monkeypatch):
        """A readiness probe costs the same over any L2 size: it reads
        the counts the daemon's L2 keeps and never lists the
        directory."""
        import hashlib

        from repro.serve.cachetier import DiskCacheL2

        writer = DiskCacheL2(tmp_path, max_bytes=1 << 30)
        for i in range(5_000):
            writer.put(hashlib.sha256(str(i).encode()).hexdigest(), "{}")
        server = AssessmentServer(ServeConfig(port=0,
                                              cache_dir=str(tmp_path),
                                              cache_l2_bytes=1 << 30))
        scans = []
        real = server.cache.l2._scan
        monkeypatch.setattr(server.cache.l2, "_scan",
                            lambda: scans.append(1) or real())
        before = obs.get_counter("serve.cache_l2_scans")
        for _ in range(100):
            tier = server._readyz()["cache_tier"]
        assert scans == []
        assert obs.get_counter("serve.cache_l2_scans") == before
        assert tier["l2_entries"] == 5_000
        assert tier["l2_bytes"] == 5_000 * (65 + 2)
        assert tier["l2_max_bytes"] == 1 << 30

    def test_l2_scans_counter_reaches_metrics(self, tmp_path):
        async def scenario(server, get, post):
            status, _, _ = await post("/v1/sweep", {
                "fleet": "doe-like", "axes": {"pue": [1.0, 1.1]}})
            assert status == 200
            _, _, metrics = await get("/metrics")
            counters = json.loads(metrics)["counters"]
            assert counters["serve.cache_l2_scans"] >= 1
            _, _, text = await get("/metrics?format=prometheus")
            assert b"repro_serve_cache_l2_scans_total" in text

        run_server(scenario, ServeConfig(port=0, cache_dir=str(tmp_path)))

    def test_cache_load_fault_degrades_to_miss(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "raise@cache-load")

        async def scenario(server, get, post):
            before = obs.get_counter("serve.cache_faults")
            _, headers, first = await post("/v1/assess",
                                           {"fleet": "doe-like"})
            assert headers["X-Repro-Cache"] == "miss"
            status, headers, second = await post("/v1/assess",
                                                 {"fleet": "doe-like"})
            # The injected load failure downgrades the hit to a miss —
            # a recompute, never an outage, and never different bytes.
            assert status == 200
            assert headers["X-Repro-Cache"] == "miss"
            assert second == first
            assert obs.get_counter("serve.cache_faults") > before

        run_server(scenario)


class TestCoalescing:
    def test_concurrent_requests_match_serial_references(self, monkeypatch):
        # Batch 0 hangs briefly so the remaining requests queue behind
        # it and coalesce into one later batch.
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "hang@batch=0:300ms")
        bodies = [
            {"fleet": "doe-like", "axes": {"pue": [1.0, 1.15, 1.3]}},
            {"fleet": "doe-like", "axes": {"utilization": [0.5, 0.8]}},
            {"fleet": "doe-like", "axes": {"aci_scale": [1.0, 0.8],
                                           "pue": [1.0, 1.2]},
             "footprint": "embodied"},
            {"fleet": "doe-like", "axes": {"lifetime": [4.0, 6.0]}},
        ]
        references = [_serial_reference(body) for body in bodies]

        async def scenario(server, get, post):
            coalesced_before = obs.get_counter("serve.requests_coalesced")
            first = post("/v1/sweep", bodies[0])
            await asyncio.sleep(0.1)        # batch 0 is now hanging
            rest = [post("/v1/sweep", body) for body in bodies[1:]]
            results = await asyncio.gather(first, *rest)
            for (status, headers, payload), reference in zip(results,
                                                             references):
                assert status == 200
                assert headers["X-Repro-Cache"] == "miss"
                assert payload == reference
            assert obs.get_counter("serve.requests_coalesced") \
                > coalesced_before

        run_server(scenario)

    def test_mixed_kinds_coalesce_correctly(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "hang@batch=0:300ms")
        sweep_body = {"fleet": "access-like", "axes": {"pue": [1.0, 1.2]}}
        bands_body = {"fleet": "access-like",
                      "axes": {"utilization": [0.5, 0.8]},
                      "n_samples": 150, "seed": 11}
        references = [_serial_reference(sweep_body, "sweep"),
                      _serial_reference(bands_body, "bands")]

        async def scenario(server, get, post):
            first = post("/v1/sweep", sweep_body)
            await asyncio.sleep(0.1)
            second = post("/v1/bands", bands_body)
            results = await asyncio.gather(first, second)
            for (status, _, payload), reference in zip(results, references):
                assert status == 200
                assert payload == reference

        run_server(scenario)


class TestRefusalCodes:
    """Each structured refusal, driven by fault injection."""

    def test_deadline_exceeded_504(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "hang@batch:400ms")

        async def scenario(server, get, post):
            before = obs.get_counter("serve.deadline_expired")
            status, headers, body = await post(
                "/v1/sweep", {"fleet": "doe-like",
                              "axes": {"pue": [1.0, 1.2]},
                              "deadline_s": 0.15})
            assert status == 504
            error = json.loads(body)["error"]
            assert error["code"] == "deadline-exceeded"
            assert "0.15s budget" in error["message"]
            assert "Retry-After" not in headers   # retrying won't help
            assert obs.get_counter("serve.deadline_expired") > before

        run_server(scenario)

    def test_queue_full_429_sheds_the_oldest(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "hang@batch:800ms")
        config = ServeConfig(port=0, max_queue=1, batch_max=1)

        async def scenario(server, get, post):
            body = {"fleet": "doe-like"}
            first = post("/v1/assess", body)
            await asyncio.sleep(0.25)       # batch 0 hanging with A
            second = post("/v1/sweep", {"fleet": "doe-like",
                                        "axes": {"pue": [1.0]}})
            await asyncio.sleep(0.2)        # B is the lone waiter
            third = post("/v1/sweep", {"fleet": "doe-like",
                                       "axes": {"pue": [1.2]}})
            results = await asyncio.gather(first, second, third)
            statuses = [status for status, _, _ in results]
            assert statuses == [200, 429, 200]
            _, headers, shed_body = results[1]
            error = json.loads(shed_body)["error"]
            assert error["code"] == "queue-full"
            assert error["retry_after_s"] >= 0.05
            assert float(headers["Retry-After"]) >= 0.05

        run_server(scenario, config)

    def test_breaker_opens_and_503s(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "raise@batch")
        config = ServeConfig(port=0, breaker_degrade_after=1,
                             breaker_open_after=2, breaker_cooldown_s=60.0)

        async def scenario(server, get, post):
            body = {"fleet": "doe-like"}
            status, _, _ = await post("/v1/assess", body)
            assert status == 500            # injected batch failure
            assert server.breaker.state == "degraded"
            status, _, _ = await post("/v1/assess", body)
            assert status == 500
            assert server.breaker.state == "open"

            status, headers, refused = await post("/v1/assess", body)
            assert status == 503
            error = json.loads(refused)["error"]
            assert error["code"] == "breaker-open"
            assert 0.0 < error["retry_after_s"] <= 60.0
            assert float(headers["Retry-After"]) > 0.0

            status, _, ready = await get("/readyz")
            assert status == 503
            assert json.loads(ready)["ready"] is False
            # Liveness is unaffected: the process is healthy, the
            # substrate is not.
            status, _, _ = await get("/healthz")
            assert status == 200

        run_server(scenario, config)

    def test_injected_request_fault_is_a_500(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "raise@request=1")

        async def scenario(server, get, post):
            status, _, _ = await post("/v1/assess", {"fleet": "doe-like"})
            assert status == 200            # request index 0: untouched
            status, _, body = await post("/v1/assess",
                                         {"fleet": "doe-like"})
            assert status == 500
            assert _error_code(body) == "injected-fault"

        run_server(scenario)


class TestBreakerRecovery:
    def test_half_open_probe_recovers_the_service(self, monkeypatch):
        # Two poisoned batches open the breaker; after the cooldown the
        # clean probe batch (the spec only fires twice) re-closes it.
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "raise@batch=0, "
                                                  "raise@batch=1")
        config = ServeConfig(port=0, breaker_degrade_after=1,
                             breaker_open_after=2, breaker_close_after=1,
                             breaker_cooldown_s=0.2)

        async def scenario(server, get, post):
            for _ in range(2):
                status, _, _ = await post("/v1/assess",
                                          {"fleet": "doe-like"})
                assert status == 500
            assert server.breaker.state == "open"
            await asyncio.sleep(0.25)       # past the cooldown
            status, _, _ = await post("/v1/assess", {"fleet": "doe-like"})
            assert status == 200            # the probe succeeded
            assert server.breaker.state == "closed"

        run_server(scenario, config)


class TestFanOutRouting:
    """The daemon's sweeps never fan out; its one fan-out is the band
    stack, and a degraded breaker pins that to the serial kernel."""

    _SWEEP = {"fleet": "doe-like", "axes": {"pue": [1.0, 1.1, 1.2, 1.3]}}
    _BANDS = {"fleet": "doe-like", "axes": {"pue": [1.0, 1.2, 1.4]},
              "n_samples": 400, "seed": 5}

    def test_computed_sweep_builds_no_pool(self):
        async def scenario(server, get, post):
            dispatched = obs.get_counter("fanout.blocks_dispatched")
            status, headers, body = await post("/v1/sweep", self._SWEEP)
            assert status == 200
            assert headers["X-Repro-Cache"] == "miss"
            assert body == _serial_reference(self._SWEEP)
            assert obs.get_counter("fanout.blocks_dispatched") == dispatched

        run_server(scenario)

    def test_degraded_breaker_runs_bands_serially(self, monkeypatch):
        from repro.uncertainty import mc

        # Every band stack is now big enough for "auto" to fan out.
        monkeypatch.setattr(mc, "_FANOUT_MIN_DRAWS", 0)
        reference = _serial_reference(self._BANDS, kind="bands")

        async def scenario(server, get, post):
            for _ in range(server.config.breaker_degrade_after):
                server.breaker.record_failure()
            assert server.breaker.state == "degraded"
            dispatched = obs.get_counter("fanout.blocks_dispatched")
            status, headers, body = await post("/v1/bands", self._BANDS)
            assert status == 200
            assert headers["X-Repro-Cache"] == "miss"
            assert body == reference
            assert obs.get_counter("fanout.blocks_dispatched") == dispatched

        run_server(scenario)


class TestDrain:
    def test_drain_refuses_new_work_and_finishes(self):
        async def scenario(server, get, post):
            status, _, _ = await post("/v1/assess", {"fleet": "doe-like"})
            assert status == 200
            drains_before = obs.get_counter("serve.drains")
            await server.drain()
            assert server.draining
            assert obs.get_counter("serve.drains") == drains_before + 1
            # The listener is closed; the admission gate (exercised
            # directly — there is no socket anymore) refuses politely.
            status, _, body, _ = await server._route(
                "POST", "/v1/assess", b'{"fleet": "doe-like"}')
            assert status == 503
            error = json.loads(body)["error"]
            assert error["code"] == "breaker-open"
            assert "draining" in error["message"]

        run_server(scenario)


def _inline_body(n: int = 2, *, tag: int = 0) -> dict:
    """A small inline fleet; ``tag`` nudges one power to make it new."""
    return {"systems": [{"rank": i + 1, "name": f"s{i}", "country": "Germany",
                         "rmax_tflops": 900.0 + 10 * i,
                         "rpeak_tflops": 1200.0 + 10 * i,
                         "power_kw": 800.0 + i + 1e-3 * tag}
                        for i in range(n)],
            "axes": {"pue": [1.0, 1.2]}}


@pytest.fixture()
def parse_calls(monkeypatch):
    """Count the daemon's calls to ``parse_request``."""
    from repro.serve import app

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return parse_request(*args, **kwargs)

    monkeypatch.setattr(app, "parse_request", counting)
    return calls


class TestBodyMemo:
    """A repeated inline body skips parsing; answers never change."""

    def test_repeat_is_byte_identical_and_parses_once(self, parse_calls):
        body = _inline_body()

        async def scenario(server, get, post):
            hits = obs.get_counter("serve.body_memo_hits")
            misses = obs.get_counter("serve.body_memo_misses")
            status, headers, first = await post("/v1/sweep", body)
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            for _ in range(3):
                status, headers, again = await post("/v1/sweep", body)
                assert status == 200 and headers["X-Repro-Cache"] == "hit"
                assert again == first
            assert len(parse_calls) == 1
            assert obs.get_counter("serve.body_memo_hits") == hits + 3
            assert obs.get_counter("serve.body_memo_misses") == misses + 1
            # The entry is the cache key alone: no systems, no records.
            key, = server._body_memo.values()
            assert isinstance(key, str)
            # Both counters reach /readyz and the Prometheus export.
            _, _, ready = await get("/readyz")
            counters = json.loads(ready)["counters"]
            assert {"serve.body_memo_hits",
                    "serve.body_memo_misses"} <= set(counters)
            _, _, text = await get("/metrics?format=prometheus")
            assert b"repro_serve_body_memo_hits_total" in text
            assert b"repro_serve_body_memo_misses_total" in text

        run_server(scenario)

    def test_builtin_fleet_bodies_are_not_memoized(self, parse_calls):
        async def scenario(server, get, post):
            for _ in range(2):
                status, _, _ = await post("/v1/assess", {"fleet": "doe-like"})
                assert status == 200
            assert len(parse_calls) == 2
            assert not server._body_memo

        run_server(scenario)

    def test_open_breaker_and_drain_refuse_a_memoized_body(self):
        body = _inline_body()
        config = ServeConfig(port=0, breaker_open_after=2,
                             breaker_degrade_after=1,
                             breaker_cooldown_s=60.0)

        async def scenario(server, get, post):
            status, _, _ = await post("/v1/sweep", body)
            assert status == 200 and len(server._body_memo) == 1
            for _ in range(2):
                server.breaker.record_failure()
            assert server.breaker.state == "open"
            status, _, refused = await post("/v1/sweep", body)
            assert status == 503
            assert _error_code(refused) == "breaker-open"

            await server.drain()
            status, _, refused, _ = await server._route(
                "POST", "/v1/sweep", json.dumps(body).encode("utf-8"))
            assert status == 503
            assert "draining" in json.loads(refused)["error"]["message"]

        run_server(scenario, config)

    def test_malformed_bodies_never_enter_the_memo(self, parse_calls):
        bad_value = _inline_body()
        bad_value["systems"][0]["power_kw"] = -5.0
        bad_field = _inline_body()
        bad_field["systems"][0]["warp_factor"] = 9
        bodies = [b"{not json", json.dumps(bad_field).encode("utf-8"),
                  json.dumps(bad_value).encode("utf-8")]

        async def scenario(server, get, post):
            loop = asyncio.get_running_loop()
            for data in bodies:
                for _ in range(2):
                    status, _, error = await loop.run_in_executor(
                        None, _post_raw, server.port, "/v1/sweep", data)
                    assert status == 400
                    assert _error_code(error) == "bad-request"
            assert not server._body_memo
            # The two bodies that decode are parsed on every repeat.
            assert len(parse_calls) == 4

        run_server(scenario)

    def test_whitespace_and_key_order_share_one_cache_key(self):
        body = _inline_body()
        compact = json.dumps(body, separators=(",", ":")).encode("utf-8")
        shuffled = dict(body, systems=[dict(reversed(list(item.items())))
                                       for item in body["systems"]])
        spaced = json.dumps(dict(reversed(list(shuffled.items()))),
                            indent=2).encode("utf-8")
        assert compact != spaced

        async def scenario(server, get, post):
            loop = asyncio.get_running_loop()
            status, headers, first = await loop.run_in_executor(
                None, _post_raw, server.port, "/v1/sweep", compact)
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            status, headers, second = await loop.run_in_executor(
                None, _post_raw, server.port, "/v1/sweep", spaced)
            assert status == 200 and headers["X-Repro-Cache"] == "hit"
            assert second == first
            keys = list(server._body_memo.values())
            assert len(keys) == 2 and keys[0] == keys[1]

        run_server(scenario)

    def test_memo_hit_after_invalidate_reparses_identically(
            self, parse_calls):
        body = _inline_body()

        async def scenario(server, get, post):
            _, _, first = await post("/v1/sweep", body)
            server.cache.l1.clear()
            server.warm.invalidate()
            hits = obs.get_counter("serve.body_memo_hits")
            misses = obs.get_counter("serve.body_memo_misses")
            status, headers, again = await post("/v1/sweep", body)
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            assert again == first
            # A memo hit that misses the cache parses the body again.
            assert len(parse_calls) == 2
            assert obs.get_counter("serve.body_memo_hits") == hits + 1
            assert obs.get_counter("serve.body_memo_misses") == misses

        run_server(scenario)


class TestWarmStateBound:
    def test_unique_inline_fleets_do_not_grow_the_warm_state(self):
        from repro.serve import app

        async def scenario(server, get, post):
            evictions = obs.get_counter("serve.warm_evictions")
            answers = []
            for tag in range(40):
                status, _, payload = await post("/v1/sweep",
                                                _inline_body(tag=tag))
                assert status == 200
                answers.append(payload)
            assert len(server.warm._fleets) <= 8
            assert not server._fleet_hashes  # builtin names only
            assert len(server._body_memo) <= app._BODY_MEMO_MAX
            assert obs.get_counter("serve.warm_evictions") \
                >= evictions + 40 - 8

            # The first fleet was evicted: asking again (past the result
            # cache) rebuilds it once and answers byte-identically.
            server.cache.l1.clear()
            rebuilds = obs.get_counter("serve.warm_rebuilds")
            status, headers, again = await post("/v1/sweep",
                                                _inline_body(tag=0))
            assert status == 200 and headers["X-Repro-Cache"] == "miss"
            assert again == answers[0]
            assert obs.get_counter("serve.warm_rebuilds") == rebuilds + 1

        run_server(scenario)
