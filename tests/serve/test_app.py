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
import socket
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.fleets import BUILTIN_FLEETS
from repro.parallel import faults
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
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"), method="POST",
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
            # /readyz embeds the doctor schema plus the serve section.
            assert {"schema_version", "pool", "shm", "ladder",
                    "counters", "serve"} <= set(ready)
            assert "janitor" not in ready    # probes never sweep

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


class TestJanitorTask:
    def test_periodic_janitor_sweeps_orphans(self, monkeypatch):
        from repro.parallel import shm as shm_mod
        sweeps = []
        monkeypatch.setattr(shm_mod, "sweep_orphaned_segments",
                            lambda *a, **k: sweeps.append(1) or ())
        config = ServeConfig(port=0, janitor_interval_s=0.05)

        async def scenario(server, get, post):
            runs_before = obs.get_counter("serve.janitor_runs")
            await asyncio.sleep(0.2)
            assert sweeps, "janitor never invoked the orphan sweep"
            assert obs.get_counter("serve.janitor_runs") > runs_before

        run_server(scenario, config)


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
