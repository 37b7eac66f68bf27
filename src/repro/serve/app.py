"""The assessment daemon: a stdlib-only asyncio HTTP/1.1 server.

``repro serve`` keeps the expensive state of an assessment — fleet
records, their extracted :class:`~repro.core.vectorized.FleetFrame`\\ s,
recent results — warm across requests, so the
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
                     body embeds the shared doctor report
    GET  /metrics    the obs counter snapshot as JSON; Prometheus text
                     exposition via ``?format=prometheus`` or
                     ``Accept: text/plain``
    POST /v1/assess  one fleet's totals/coverage (identity scenario)
    POST /v1/sweep   scenario-axes sweep (totals per scenario)
    POST /v1/bands   sweep + per-scenario Monte-Carlo band statistics

Every refusal is a structured error (``{"error": {"code", "message",
"retry_after_s"}}``) with the matching HTTP status: 400 bad request
(including a negative or conflicting ``Content-Length``), 408 header
block still incomplete ``keepalive_idle_s`` after the request line,
413 body too large, 414 / 431 request or header line past the stream
limit, 429 queue-full (with ``Retry-After``), 503
breaker-open/draining, 504 deadline-exceeded, 500 otherwise.  Framing
errors close the connection after the response.  Response bodies are
byte-for-byte cacheable; cache status travels in the
``X-Repro-Cache`` header (``hit`` from the in-process L1, ``hit-l2``
from the shared disk tier, ``miss``) so a cached body stays identical
to the computed one.

A POST runs fault point → admission → raw-body memo → parse → fleet
identity → cache (``docs/serving.md``, "The request path"): a repeated
inline-fleet body is answered from its memoized cache key without
being decoded, validated or digested again.

The result cache is two-level when ``--cache-dir`` is configured
(:mod:`repro.serve.cachetier`): the in-process LRU stays L1, and a
checksummed file-per-digest directory becomes L2 — surviving daemon
restarts, and safe to share between daemons on one host.

SIGTERM starts a graceful drain: readiness drops, new requests are
refused (503 ``draining``), admitted work finishes, a final
``serve.drain`` span is emitted through the (line-flushed) trace sink,
and the process exits 0.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.errors import ServeError
from repro.serve import faults
from repro.serve.admission import AdmissionQueue
from repro.serve.batcher import (
    BatchEntry,
    Batcher,
    ParsedRequest,
    RequestError,
    cache_key,
    fleet_content_hash,
    fleet_records,
    parse_request,
)
from repro.serve.cache import ResultCache
from repro.serve.cachetier import DiskCacheL2, TieredResultCache
from repro.serve.health import (
    PROMETHEUS_CONTENT_TYPE,
    doctor_report,
    render_prometheus,
)
from repro.serve.lifecycle import CircuitBreaker, WarmState

__all__ = ["ServeConfig", "AssessmentServer", "serve"]

_MAX_BODY_BYTES = 1 << 20  # inline fleets are records, not datasets

#: Chunk size for streamed (Transfer-Encoding: chunked) bodies.
_STREAM_CHUNK_BYTES = 64 << 10

#: Inline-fleet bodies remembered by the raw-body memo (LRU).  An
#: entry is the body's digest and its cache key.
_BODY_MEMO_MAX = 32


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
    breaker_degrade_after: int = 2
    breaker_open_after: int = 5
    breaker_close_after: int = 2
    breaker_cooldown_s: float = 5.0
    # -- persistent connections ------------------------------------------
    keepalive_idle_s: float = 5.0     # close a silent connection
    keepalive_max_requests: int = 100  # then ask the client to reconnect
    stream_threshold_bytes: int = 1 << 16  # chunk bodies above this
    # -- L2 result cache -------------------------------------------------
    cache_dir: "str | None" = None    # None = L1 only (PR-8 behavior)
    cache_l2_bytes: int = 64 << 20

    def __post_init__(self) -> None:
        """Reject out-of-range knobs here, before any socket or task
        exists, so a bad command line is one error line, not a
        traceback from inside the event loop."""
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in 0-65535, got {self.port}")
        for name, low in (("max_queue", 1), ("batch_max", 1),
                          ("cache_entries", 1),
                          ("keepalive_max_requests", 1),
                          ("cache_l2_bytes", 1),
                          ("stream_threshold_bytes", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, "
                                 f"got {getattr(self, name)}")
        for name in ("default_deadline_s", "max_deadline_s",
                     "keepalive_idle_s"):
            value = getattr(self, name)
            if not value > 0:        # also rejects NaN
                raise ValueError(f"{name} must be > 0 seconds, "
                                 f"got {value}")
        if self.default_deadline_s > self.max_deadline_s:
            raise ValueError("default_deadline_s exceeds max_deadline_s")


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 408: "Request Timeout",
                413: "Payload Too Large",
                414: "URI Too Long", 429: "Too Many Requests",
                431: "Request Header Fields Too Large",
                500: "Internal Server Error", 503: "Service Unavailable",
                504: "Gateway Timeout"}

#: ServeError code → HTTP status.
_ERROR_STATUS = {"deadline-exceeded": 504, "queue-full": 429,
                 "breaker-open": 503}


class AssessmentServer:
    """One daemon instance: HTTP front, admission, batcher."""

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
        #: builtin fleet name -> content hash (one entry per name).
        self._fleet_hashes: dict[str, str] = {}
        #: (kind, sha256 of the raw body) -> cache key, for inline-fleet
        #: bodies only.
        self._body_memo: "OrderedDict[tuple[str, bytes], str]" = \
            OrderedDict()
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
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self._tasks = [
            asyncio.create_task(self.batcher.run(), name="repro-batcher"),
        ]

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
                    # A timeout scope, not wait_for: no task per request.
                    async with asyncio.timeout(self.config.keepalive_idle_s):
                        request_line = await reader.readline()
                except TimeoutError:
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
        longer be trusted to start a next request.  The whole header
        block shares one ``keepalive_idle_s`` deadline, so a client
        dripping header lines cannot hold the connection open.
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
            async with asyncio.timeout(self.config.keepalive_idle_s):
                while True:
                    try:
                        line = await reader.readline()
                    except ValueError:
                        # A line past the stream limit: the reader has
                        # dropped bytes, so the framing is lost for good.
                        return 431, {}, _error_body(
                            "bad-request",
                            "request header line too long"), False, True
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    name = name.strip().lower()
                    if name == "content-length":
                        try:
                            length = int(value.strip())
                        except ValueError:
                            length = -1
                        if length < 0 \
                                or content_length not in (None, length):
                            return 400, {}, _error_body(
                                "bad-request", "bad Content-Length"), \
                                False, True
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
        except TimeoutError:
            return 408, {}, _error_body(
                "bad-request", "request headers not received in time"), \
                False, True
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
        # The daemon's own L2 (the one ``__init__`` built, if any),
        # from its running counts: a probe never lists the directory.
        report = doctor_report(daemon_l2=self.cache.l2)
        report["serve"] = self._healthz()
        report["serve"]["admission"] = self.admission.stats()
        report["ready"] = ready
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
            self.breaker.check_admission(self.draining)
            # The memo: a repeated inline body skips JSON decoding,
            # validation, digests and record construction, and goes
            # straight to the cache with its memoized key.  An entry is
            # only that key, so a memo hit that misses the cache parses
            # the body again like any other miss.
            memo_key = (kind, hashlib.sha256(raw).digest())
            memoized = self._body_memo.get(memo_key)
            if memoized is not None:
                self._body_memo.move_to_end(memo_key)
                obs.inc("serve.body_memo_hits")
                cached, tier = self._cache_lookup(memoized)
                if cached is not None:
                    return _cache_hit(cached, tier)
            parsed, key = self._parse(kind, raw)
            if memoized is None and parsed.fleet_name is None:
                obs.inc("serve.body_memo_misses")
            cached, tier = self._cache_lookup(key)
            if cached is not None:
                self._remember(memo_key, parsed, key)
                return _cache_hit(cached, tier)
            records = await self.warm.records_for(
                parsed.fleet_key, lambda: fleet_records(parsed))
            self._remember(memo_key, parsed, key)
            entry = BatchEntry(parsed, records, key)
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

    def _parse(self, kind: str, raw: bytes) -> tuple[ParsedRequest, str]:
        """Decode, validate and key one request body (RequestError on
        anything malformed)."""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"invalid JSON body: {exc}") from None
        parsed = parse_request(
            kind, body,
            default_deadline_s=self.config.default_deadline_s,
            max_deadline_s=self.config.max_deadline_s)
        return parsed, cache_key(parsed, self._fleet_identity(parsed))

    def _fleet_identity(self, parsed: ParsedRequest) -> str:
        """The fleet part of the cache key: an inline fleet's key, or a
        builtin fleet's content hash (computed once per name)."""
        if parsed.fleet_name is None:
            return parsed.fleet_key
        fleet_hash = self._fleet_hashes.get(parsed.fleet_name)
        if fleet_hash is None:
            fleet_hash = fleet_content_hash(fleet_records(parsed))
            self._fleet_hashes[parsed.fleet_name] = fleet_hash
        return fleet_hash

    def _remember(self, memo_key: tuple[str, bytes], parsed: ParsedRequest,
                  key: str) -> None:
        """Memoize the cache key of an inline body that parsed and
        resolved (a builtin-fleet body parses in microseconds)."""
        if parsed.fleet_name is not None:
            return
        self._body_memo[memo_key] = key
        self._body_memo.move_to_end(memo_key)
        while len(self._body_memo) > _BODY_MEMO_MAX:
            self._body_memo.popitem(last=False)

    def _cache_lookup(self, key: str) -> "tuple[str | None, str | None]":
        try:
            return self.cache.get_with_tier(key)
        except faults.InjectedFault:
            # An injected (or real) load failure is a miss, never an
            # outage: the batch recomputes and overwrites the entry.
            return None, None


def _json_body(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _cache_hit(cached: str, tier: "str | None",
               ) -> tuple[int, dict[str, str], bytes, bool]:
    return 200, {"X-Repro-Cache": "hit" if tier == "l1" else "hit-l2"}, \
        cached.encode("utf-8"), False


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


def unusable_cache_dir(config: ServeConfig, exc: OSError) -> int:
    """Report a ``--cache-dir`` that cannot be a directory: one stderr
    line, exit status 2."""
    print(f"repro serve: --cache-dir {config.cache_dir!r} is not "
          f"a usable directory: {exc.strerror or exc}", file=sys.stderr)
    return 2


async def _serve_async(config: ServeConfig) -> int:
    try:
        server = AssessmentServer(config)
    except OSError as exc:
        # Building the server builds the L2 tier, which creates its
        # directory: a path that cannot be one is a usage error.
        return unusable_cache_dir(config, exc)
    try:
        await server.start()
    except OSError as exc:
        # A bound port or an unusable host is a usage error, like an
        # out-of-range option: one stderr line and exit 2.  asyncio's
        # bind message repeats the address, so print the errno's text
        # (resolver errors carry negative codes and their own text).
        reason = (os.strerror(exc.errno) if (exc.errno or 0) > 0
                  else exc.strerror or str(exc))
        print(f"repro serve: cannot listen on {config.host}:{config.port}: "
              f"{reason}", file=sys.stderr)
        return 2
    print(f"repro serve: listening on http://{config.host}:{server.port}",
          flush=True)
    await server.serve_forever()
    print("repro serve: drained, exiting", flush=True)
    return 0


def serve(config: ServeConfig | None = None) -> int:
    """Run the daemon until SIGTERM/SIGINT drain (the CLI entry)."""
    try:
        return asyncio.run(_serve_async(config or ServeConfig()))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0
