"""The assessment daemon: a stdlib-only asyncio HTTP/1.1 server.

``repro serve`` keeps the expensive state of an assessment — fleet
records, their extracted :class:`~repro.core.vectorized.FleetFrame`\\ s,
the spawned worker pool, recent results — warm across requests, so the
cost structure the library amortizes within one Python lifetime
amortizes across *clients*.  The HTTP layer stays stdlib-asyncio but
speaks real HTTP/1.1: **persistent connections** (a bounded
per-connection request loop with an idle timeout, honoring a client's
``Connection: close``) and **chunked streaming** for large response
bodies, so a benchmark client no longer pays a TCP setup + teardown
per request.

Endpoints::

    GET  /healthz    liveness: 200 while the event loop runs
    GET  /readyz     readiness: 200 unless breaker-open or draining;
                     body embeds the shared doctor report (plus the
                     replica-tier aggregate when running under
                     ``--workers N``)
    GET  /metrics    the obs counter snapshot as JSON; Prometheus text
                     exposition via ``?format=prometheus`` or
                     ``Accept: text/plain``
    POST /v1/assess  one fleet's totals/coverage (identity scenario)
    POST /v1/sweep   scenario-axes sweep (totals per scenario)
    POST /v1/bands   sweep + per-scenario Monte-Carlo band statistics

Every refusal is a structured error (``{"error": {"code", "message",
"retry_after_s"}}``) with the matching HTTP status: 400 bad request
(including a negative or conflicting ``Content-Length``), 413 body too
large, 414 / 431 request or header line past the stream limit, 429
queue-full (with ``Retry-After``), 503 breaker-open/draining, 504
deadline-exceeded, 500 otherwise.  Framing errors close the
connection after the response.  Response bodies are byte-for-byte
cacheable; cache status travels in the ``X-Repro-Cache`` header
(``hit`` from the in-process L1, ``hit-l2`` from the shared disk
tier, ``miss``) so a cached body stays identical to the computed one.

The result cache is two-level when ``--cache-dir`` is configured
(:mod:`repro.serve.cachetier`): the in-process LRU stays L1, and a
checksummed file-per-digest directory becomes L2 — shared by every
replica in a tier and surviving daemon restarts.

SIGTERM starts a graceful drain: readiness drops, new requests are
refused (503 ``draining``), admitted work finishes, a final
``serve.drain`` span is emitted through the (line-flushed) trace sink,
and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.errors import ServeError
from repro.parallel import faults
from repro.serve.admission import AdmissionQueue
from repro.serve.batcher import (
    BatchEntry,
    Batcher,
    RequestError,
    cache_key,
    fleet_content_hash,
    fleet_records,
    parse_request,
)
from repro.serve.cache import ResultCache, canonical_digest
from repro.serve.cachetier import DiskCacheL2, TieredResultCache
from repro.serve.health import (
    PROMETHEUS_CONTENT_TYPE,
    doctor_report,
    render_prometheus,
)
from repro.serve.lifecycle import (
    CircuitBreaker,
    WarmState,
    read_tier_status,
    write_replica_status,
)

__all__ = ["ServeConfig", "AssessmentServer", "serve"]

_MAX_BODY_BYTES = 1 << 20  # inline fleets are records, not datasets

#: Chunk size for streamed (Transfer-Encoding: chunked) bodies.
_STREAM_CHUNK_BYTES = 64 << 10


@dataclass(frozen=True)
class ServeConfig:
    """Operator knobs for one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 8321                  # 0 = ephemeral (tests)
    max_queue: int = 64               # admission bound (then shed-oldest)
    batch_max: int = 16               # coalescing width per batch
    default_deadline_s: float = 30.0
    max_deadline_s: float = 300.0
    cache_entries: int = 256
    janitor_interval_s: float = 30.0
    breaker_degrade_after: int = 2
    breaker_open_after: int = 5
    breaker_close_after: int = 2
    breaker_cooldown_s: float = 5.0
    # -- persistent connections ------------------------------------------
    keepalive_idle_s: float = 5.0     # close a silent connection
    keepalive_max_requests: int = 100  # then ask the client to reconnect
    stream_threshold_bytes: int = 1 << 16  # chunk bodies above this
    # -- shared L2 result cache ------------------------------------------
    cache_dir: "str | None" = None    # None = L1 only (PR-8 behavior)
    cache_l2_bytes: int = 64 << 20
    # -- replica tier (set by the repro.serve.replicas supervisor) -------
    workers: int = 1
    replica_index: int = 0
    tier_dir: "str | None" = None
    inherit_socket_fd: "int | None" = None  # pre-bound listener (no REUSEPORT)
    reuseport: bool = False           # bind our own SO_REUSEPORT listener

    def __post_init__(self) -> None:
        if self.default_deadline_s > self.max_deadline_s:
            raise ValueError("default_deadline_s exceeds max_deadline_s")
        if self.keepalive_max_requests < 1:
            raise ValueError("keepalive_max_requests must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                414: "URI Too Long", 429: "Too Many Requests",
                431: "Request Header Fields Too Large",
                500: "Internal Server Error", 503: "Service Unavailable",
                504: "Gateway Timeout"}

#: ServeError code → HTTP status.
_ERROR_STATUS = {"deadline-exceeded": 504, "queue-full": 429,
                 "breaker-open": 503}


class AssessmentServer:
    """One daemon instance: HTTP front, admission, batcher, janitor."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.breaker = CircuitBreaker(
            degrade_after=self.config.breaker_degrade_after,
            open_after=self.config.breaker_open_after,
            close_after=self.config.breaker_close_after,
            cooldown_s=self.config.breaker_cooldown_s)
        self.warm = WarmState()
        l2 = (DiskCacheL2(self.config.cache_dir,
                          max_bytes=self.config.cache_l2_bytes)
              if self.config.cache_dir else None)
        self.cache = TieredResultCache(
            ResultCache(max_entries=self.config.cache_entries), l2)
        self.admission = AdmissionQueue(max_depth=self.config.max_queue,
                                        batch_max=self.config.batch_max)
        self.batcher = Batcher(self.admission, self.breaker, self.warm,
                               self.cache)
        self.draining = False
        self._request_no = 0
        self._fleet_hashes: dict[str, str] = {}
        self._server: "asyncio.base_events.Server | None" = None
        self._tasks: list[asyncio.Task] = []
        self._drained = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`; resolves ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        cfg = self.config
        if cfg.inherit_socket_fd is not None:
            # Fallback accept-sharing: the supervisor bound + listened
            # once and every replica accepts from the inherited fd.
            sock = socket.socket(fileno=cfg.inherit_socket_fd)
            sock.setblocking(False)
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock)
        elif cfg.reuseport:
            # Kernel load-balancing: each replica binds its own
            # SO_REUSEPORT listener on the (already resolved) port.
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((cfg.host, cfg.port))
            sock.listen(128)
            sock.setblocking(False)
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, cfg.host, cfg.port)
        self._tasks = [
            asyncio.create_task(self.batcher.run(), name="repro-batcher"),
            asyncio.create_task(self._janitor(), name="repro-janitor"),
        ]
        self._publish_replica_status()

    async def stop(self) -> None:
        """Immediate teardown (tests); :meth:`drain` is the polite exit."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    async def drain(self) -> None:
        """Graceful SIGTERM exit: finish admitted work, then stop.

        Readiness drops immediately (new requests → 503 ``draining``),
        everything already admitted runs to completion, the final
        ``serve.drain`` span flushes through the line-buffered trace
        sink, and :meth:`serve_forever` returns so the process can
        exit 0.
        """
        if self.draining:
            return
        self.draining = True
        obs.inc("serve.drains")
        self._publish_replica_status()
        while self.admission.depth or self.batcher.in_flight:
            await asyncio.sleep(0.01)
        with obs.span("serve.drain", batches=self.batcher.batch_no):
            pass
        await self.stop()
        self._drained.set()

    async def serve_forever(self) -> None:
        """Run until :meth:`drain` completes (the CLI entry point)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.drain()))
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await self._drained.wait()

    async def _janitor(self) -> None:
        """Periodic crash-hygiene: sweep segments orphaned by dead
        owners (the counterpart of the at-first-pool-build sweep, for a
        process that may outlive many pools)."""
        from repro.parallel import shm as shm_mod
        while True:
            await asyncio.sleep(self.config.janitor_interval_s)
            obs.inc("serve.janitor_runs")
            try:
                shm_mod.sweep_orphaned_segments()
            except Exception:
                # Hygiene must never take down the service.
                pass
            # Refresh this replica's tier status so a breaker flip
            # eventually reaches the aggregate view even without
            # a lifecycle event.
            self._publish_replica_status()

    def _publish_replica_status(self) -> None:
        """Atomically publish this replica's readiness (tier mode only)."""
        if self.config.tier_dir is None or self._server is None:
            return
        write_replica_status(
            self.config.tier_dir, self.config.replica_index,
            pid=os.getpid(), port=self.port,
            ready=not self.draining and self.breaker.state != "open")

    # -- HTTP front ----------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """The per-connection request loop (HTTP/1.1 keep-alive).

        A connection serves requests until the client asks for
        ``Connection: close``, stays idle past ``keepalive_idle_s``,
        hits ``keepalive_max_requests`` (bounding per-connection state
        the same way every other resource here is bounded), sends
        malformed framing, or the daemon starts draining.
        """
        obs.inc("serve.connections")
        served = 0
        try:
            while True:
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(),
                        timeout=self.config.keepalive_idle_s)
                except asyncio.TimeoutError:
                    break
                except ValueError:
                    # Request line past the stream limit (see the
                    # header-line case in _handle_request).
                    await self._send_response(
                        writer, 414, {}, _error_body(
                            "bad-request", "request line too long"),
                        close=True)
                    break
                if not request_line.strip():
                    break          # EOF or a client closing politely
                if served:
                    obs.inc("serve.keepalive_reuses")
                (status, headers, body, abort,
                 close_conn) = await self._handle_request(reader,
                                                          request_line)
                if abort:
                    return     # fault-injected client death: no bytes
                served += 1
                if served >= self.config.keepalive_max_requests \
                        or self.draining:
                    close_conn = True
                await self._send_response(writer, status, headers, body,
                                          close=close_conn)
                if close_conn:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
            self, reader: asyncio.StreamReader, request_line: bytes,
            ) -> tuple[int, dict[str, str], bytes, bool, bool]:
        """Parse one framed request; returns ``(..., abort, close)``.

        ``close`` is True when the client asked for it (``Connection:
        close``, or an HTTP/1.0 request without ``keep-alive``) or the
        framing went wrong — after a parse error the byte stream can no
        longer be trusted to start a next request.
        """
        close_conn = False
        accept = ""
        try:
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return 400, {}, _error_body(
                    "bad-request", "malformed request line"), False, True
            method, path = parts[0], parts[1]
            version = parts[2] if len(parts) > 2 else "HTTP/1.1"
            close_conn = version.upper() == "HTTP/1.0"
            content_length: int | None = None
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # A line past the stream limit: the reader has
                    # dropped bytes, so the framing is lost for good.
                    return 431, {}, _error_body(
                        "bad-request", "request header line too long"), \
                        False, True
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        length = -1
                    if length < 0 or content_length not in (None, length):
                        return 400, {}, _error_body(
                            "bad-request", "bad Content-Length"), False, True
                    content_length = length
                elif name == "connection":
                    token = value.strip().lower()
                    if token == "close":
                        close_conn = True
                    elif token == "keep-alive":
                        close_conn = False
                elif name == "accept":
                    accept = value.strip().lower()
            content_length = content_length or 0
            if content_length > _MAX_BODY_BYTES:
                return 413, {}, _error_body(
                    "bad-request", "request body too large"), False, True
            raw = (await reader.readexactly(content_length)
                   if content_length else b"")
        except (asyncio.IncompleteReadError, UnicodeDecodeError):
            return 400, {}, _error_body("bad-request",
                                        "truncated request"), False, True
        status, headers, body, abort = await self._route(
            method, path, raw, accept=accept)
        return status, headers, body, abort, close_conn

    async def _route(self, method: str, path: str, raw: bytes, *,
                     accept: str = "",
                     ) -> tuple[int, dict[str, str], bytes, bool]:
        path, _, query = path.partition("?")
        if method == "GET":
            if path == "/healthz":
                return 200, {}, _json_body(self._healthz()), False
            if path == "/readyz":
                report = self._readyz()
                return (200 if report["ready"] else 503), {}, \
                    _json_body(report), False
            if path == "/metrics":
                if "format=prometheus" in query.split("&") \
                        or "text/plain" in accept:
                    text = render_prometheus()
                    return 200, {"Content-Type": PROMETHEUS_CONTENT_TYPE}, \
                        text.encode("utf-8"), False
                return 200, {}, _json_body(
                    {"counters": obs.metrics_snapshot()}), False
            return 404, {}, _error_body("not-found", f"no route {path}"), False
        if method != "POST":
            return 405, {}, _error_body("bad-request",
                                        f"unsupported method {method}"), False
        kind = {"/v1/assess": "assess", "/v1/sweep": "sweep",
                "/v1/bands": "bands"}.get(path)
        if kind is None:
            return 404, {}, _error_body("not-found", f"no route {path}"), False
        return await self._assessment(kind, raw)

    async def _send_response(self, writer: asyncio.StreamWriter, status: int,
                             headers: dict[str, str], body: bytes, *,
                             close: bool) -> None:
        """Write one response; chunk-stream bodies above the threshold.

        Streaming keeps a keep-alive connection reusable for bodies of
        unknown-at-header-time size and bounds the per-write buffer; the
        payload bytes on the wire are identical either way.
        """
        if len(body) > self.config.stream_threshold_bytes:
            obs.inc("serve.responses_streamed")
            writer.write(_render_head(status, headers, close=close,
                                      chunked=True))
            for offset in range(0, len(body), _STREAM_CHUNK_BYTES):
                chunk = body[offset:offset + _STREAM_CHUNK_BYTES]
                writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
        else:
            writer.write(_render_response(status, headers, body, close=close))
        await writer.drain()

    def _healthz(self) -> dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "breaker": self.breaker.state,
            "draining": self.draining,
            "queue_depth": self.admission.depth,
            "batches": self.batcher.batch_no,
        }

    def _readyz(self) -> dict[str, Any]:
        ready = not self.draining and self.breaker.state != "open"
        report = doctor_report(sweep=False,
                               cache_dir=self.config.cache_dir,
                               cache_max_bytes=self.config.cache_l2_bytes)
        report["serve"] = self._healthz()
        report["serve"]["admission"] = self.admission.stats()
        report["ready"] = ready
        if self.config.tier_dir is not None:
            # Any replica answers for the whole tier: the aggregate is
            # read from the shared status directory, so a prober can
            # hit whichever replica the kernel picks.
            tier = read_tier_status(self.config.tier_dir)
            tier["workers"] = (tier.get("supervisor") or {}).get(
                "workers", self.config.workers)
            tier["replica_index"] = self.config.replica_index
            report["replica_tier"] = tier
        return report

    async def _assessment(self, kind: str, raw: bytes,
                          ) -> tuple[int, dict[str, str], bytes, bool]:
        request_no = self._request_no
        self._request_no += 1
        obs.inc("serve.requests")

        # Serve-layer fault point, interpreted in-process: a hang burns
        # the request's own deadline budget without blocking the loop;
        # a kill models the client's connection dying (response
        # abandoned); raise/fail surface as a structured 500.
        rule = faults.matching("request", index=request_no)
        if rule is not None:
            if rule.action == "hang":
                await asyncio.sleep(rule.arg_s if rule.arg_s is not None
                                    else 30.0)
            elif rule.action == "kill":
                obs.inc("serve.fault_aborts")
                return 0, {}, b"", True
            else:
                exc = faults.InjectedFault("request",
                                           detail=f"request={request_no}")
                return 500, {}, _error_body("injected-fault", str(exc)), False

        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {}, _error_body("bad-request",
                                        f"invalid JSON body: {exc}"), False
        try:
            parsed = parse_request(
                kind, body,
                default_deadline_s=self.config.default_deadline_s,
                max_deadline_s=self.config.max_deadline_s)
            self.breaker.check_admission(self.draining)
            fleet_key = parsed.fleet_name or \
                "inline:" + canonical_digest(list(parsed.systems or ()))
            records = await self.warm.records_for(
                fleet_key, lambda: fleet_records(parsed))
            fleet_hash = self._fleet_hashes.get(fleet_key)
            if fleet_hash is None:
                fleet_hash = fleet_content_hash(records)
                self._fleet_hashes[fleet_key] = fleet_hash
            key = cache_key(parsed, fleet_hash)
            cached, tier = self._cache_lookup(key)
            if cached is not None:
                return 200, {"X-Repro-Cache":
                             "hit" if tier == "l1" else "hit-l2"}, \
                    cached.encode("utf-8"), False
            entry = BatchEntry(parsed, records, fleet_key, fleet_hash, key)
            self.admission.offer(entry)
            payload = await entry.future
            return 200, {"X-Repro-Cache": "miss"}, \
                payload.encode("utf-8"), False
        except RequestError as exc:
            return 400, {}, _error_body("bad-request", str(exc)), False
        except ServeError as exc:
            status = _ERROR_STATUS.get(exc.code, 500)
            headers = {}
            if exc.retry_after_s is not None:
                headers["Retry-After"] = f"{exc.retry_after_s:.3f}"
            return status, headers, _error_body(
                exc.code, str(exc), retry_after_s=exc.retry_after_s), False
        except Exception as exc:
            obs.inc("serve.internal_errors")
            return 500, {}, _error_body(
                "internal", f"{type(exc).__name__}: {exc}"), False

    def _cache_lookup(self, key: str) -> "tuple[str | None, str | None]":
        try:
            return self.cache.get_with_tier(key)
        except faults.InjectedFault:
            # An injected (or real) load failure is a miss, never an
            # outage: the batch recomputes and overwrites the entry.
            return None, None


def _json_body(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _error_body(code: str, message: str, *,
                retry_after_s: "float | None" = None) -> bytes:
    error: dict[str, Any] = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = retry_after_s
    return json.dumps({"error": error}).encode("utf-8")


def _render_head(status: int, headers: dict[str, str], *, close: bool,
                 chunked: bool, content_length: "int | None" = None) -> bytes:
    extra = dict(headers)
    content_type = extra.pop("Content-Type", "application/json")
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
             f"Content-Type: {content_type}"]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {content_length}")
    lines.append(f"Connection: {'close' if close else 'keep-alive'}")
    lines.extend(f"{name}: {value}" for name, value in extra.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _render_response(status: int, headers: dict[str, str],
                     body: bytes, *, close: bool = True) -> bytes:
    return _render_head(status, headers, close=close, chunked=False,
                        content_length=len(body)) + body


async def _serve_async(config: ServeConfig) -> int:
    server = AssessmentServer(config)
    await server.start()
    if config.tier_dir is None:
        print(f"repro serve: listening on http://{config.host}:{server.port}",
              flush=True)
    else:
        # Replica mode: the supervisor owns the listening line (one per
        # tier); replicas announce themselves for the supervisor's log.
        print(f"repro serve: replica {config.replica_index} ready "
              f"on port {server.port}", flush=True)
    await server.serve_forever()
    print("repro serve: drained, exiting", flush=True)
    return 0


def serve(config: ServeConfig | None = None) -> int:
    """Run the daemon until SIGTERM/SIGINT drain (the CLI entry)."""
    try:
        return asyncio.run(_serve_async(config or ServeConfig()))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0
