"""Workload ``serve-mixed``: a dashboard querying ``repro serve``.

An open loop with seeded Poisson arrivals against one daemon started
with a fresh ``--cache-dir``, over at most ``nproc`` keep-alive
connections (one sender thread each, raw sockets).  Requests come in
blocks of ``len(BLOCK)`` with a fixed class composition, shuffled per
block from the seed:

* ``hot``: a set of ``N_HOT`` requests that fits in the daemon's L1
  result cache (``HOT_INLINE`` of them over one inline fleet of
  ``INLINE_N`` systems, whose body is parsed and digested every time);
* ``warm``: ``N_WARM`` requests, more than L1 holds, visited in a cycle
  so each is answered from the L2 cache on disk;
* unique computed requests: fresh axis values over the built-in fleets,
  acceptance-grid ``/v1/bands`` with a fresh seed, and inline fleets.

The fixed-rate phase at ``RATE_RPS`` is followed by the ``max_rate_rps``
ladder.  Latency is timed from each request's due time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import queue
import random
import re
import socket
import threading
import time

from common import (Ctx, Result, children_of, cpu_seconds, cpu_times,
                    describe, median, peak_rss_mb, python, steal_share, tail)

FLEETS = ("access-like", "doe-like", "eurohpc-like")
N_HOT = 32
HOT_INLINE = 4
N_WARM = 320
INLINE_N = 300
RATE_RPS = 25.0
#: One block of arrivals: class names with their exact counts.  The
#: counts put every reported median and tail inside one class's bulk
#: rather than on the boundary between two classes: sorted by latency,
#: computed requests run sweep < inline < bands, so ``computed_p50_ms``
#: is the middle of the inline fleets and ``computed_tail_ms`` falls
#: among the bands; cached requests run hot < warm < hot-inline, and the
#: hot-inline share is small enough that ``cached_tail_ms`` is set by
#: its uncontended bulk.  Computed requests are kept to a tenth, so the
#: daemon is mostly idle at the fixed rate and the tails (set by the
#: bands) measure the work, not contention between requests.
BLOCK = (["hot"] * 22 + ["warm"] * 6 + ["hot-inline"]
         + ["sweep", "inline", "bands"])
#: Share of ``--seconds`` spent in the fixed-rate phase; the ladder
#: gets the rest.
FIXED_SHARE = 0.6
#: max_rate_rps ladder: RATE_RPS * LADDER_STEP**k for k in 0..LADDER_TOP.
LADDER_STEP = 1.05
LADDER_TOP = 48
PROBE_BLOCKS = 5
#: A rung passes when its tail latency stays within this limit ...
LATENCY_LIMIT_MS = 500.0
#: ... and at most this share of its requests wait for a connection when
#: the schedule ends (a growing backlog).
BACKLOG_FRACTION = 0.1
#: Sender lag beyond this bound makes a run invalid (the generator, not
#: the daemon, fell behind).
LAG_BOUND_MS = 50.0
#: The fixed-rate phase is measured again (at most ``STEAL_RETRIES``
#: times, time allowing) when the hypervisor took more than this share
#: of the CPU during it: an open loop on a few cores turns a few percent
#: of stolen time into a 2-4x latency jump that says nothing about the
#: program.
STEAL_BOUND = 0.03
STEAL_RETRIES = 2
REQUEST_TIMEOUT_S = 20.0


# ---------------------------------------------------------------------------
# HTTP/1.1 over a raw keep-alive socket
# ---------------------------------------------------------------------------

class Conn:
    def __init__(self, port: int):
        self.port = port
        self.sock = None
        self.buf = b""
        self.requests = 0

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buf = b""

    def _recv(self) -> bytes:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("connection closed")
        return data

    def request(self, method: str, path: str, body: bytes = b""):
        """One round trip; returns ``(status, headers, body)``."""
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                 timeout=REQUEST_TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)
        self.requests += 1
        while b"\r\n\r\n" not in self.buf:
            self.buf += self._recv()
        raw_head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = raw_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding") == "chunked":
            payload = b""
            while True:
                while b"\r\n" not in self.buf:
                    self.buf += self._recv()
                size_line, self.buf = self.buf.split(b"\r\n", 1)
                size = int(size_line, 16)
                while len(self.buf) < size + 2:
                    self.buf += self._recv()
                payload += self.buf[:size]
                self.buf = self.buf[size + 2:]
                if size == 0:
                    break
        else:
            length = int(headers.get("content-length", "0"))
            while len(self.buf) < length:
                self.buf += self._recv()
            payload, self.buf = self.buf[:length], self.buf[length:]
        if headers.get("connection") == "close":
            self.close()
        return status, headers, payload


# ---------------------------------------------------------------------------
# The request mix
# ---------------------------------------------------------------------------

class Mix:
    """Seeded request bodies; ``key`` identifies a cache entry."""

    def __init__(self, seed: int, inline_records: list[dict]):
        self.rng = random.Random(seed)
        self.inline = inline_records
        self.next_unique = 0
        self.hot = [self._sweep(("hot", i)) for i in range(N_HOT - HOT_INLINE)]
        inline_body = {"systems": inline_records}
        self.hot_inline = [
            ("/v1/sweep", _dumps(dict(inline_body,
                                      axes={"pue": [1.0, 1.1 + 0.05 * i]})),
             ("hot-inline", i))
            for i in range(HOT_INLINE)]
        self.warm = [self._sweep(("warm", i)) for i in range(N_WARM)]
        self.warm_next = 0

    def _sweep(self, key):
        """A small sweep over a built-in fleet, its axes drawn from ``key``."""
        rng = random.Random(f"{key}-{self.rng.random()}")
        axes = {"aci_scale": [1.0, round(rng.uniform(0.5, 0.99), 6)],
                "pue": [round(rng.uniform(1.0, 1.6), 6)],
                "utilization": [round(rng.uniform(0.4, 0.99), 6)]}
        body = {"fleet": FLEETS[rng.randrange(len(FLEETS))], "axes": axes}
        return "/v1/sweep", _dumps(body), key

    def priming(self):
        """Warm first, so the hot set is what L1 holds when the phase
        starts and the warm cycle begins at its least recent entry."""
        return self.warm + self.hot + self.hot_inline

    def take(self, cls: str):
        if cls == "hot":
            return self.hot[self.rng.randrange(len(self.hot))]
        if cls == "hot-inline":
            return self.hot_inline[self.rng.randrange(HOT_INLINE)]
        if cls == "warm":
            item = self.warm[self.warm_next % N_WARM]
            self.warm_next += 1
            return item
        self.next_unique += 1
        key = ("unique", self.next_unique)
        if cls == "sweep":
            return self._sweep(key)
        if cls == "bands":
            body = {"fleet": FLEETS[self.next_unique % len(FLEETS)],
                    "grid": "acceptance",
                    "seed": self.rng.randrange(1, 2 ** 31)}
            return "/v1/bands", _dumps(body), key
        # A fresh inline fleet: one record's power nudged, so the content
        # hash (and the frame) differ from every earlier fleet.
        systems = [dict(r) for r in self.inline]
        systems[0]["power_kw"] = systems[0]["power_kw"] * (
            1.0 + 1e-6 * self.next_unique)
        return "/v1/sweep", _dumps({"systems": systems,
                                    "axes": {"pue": [1.0, 1.2]}}), key

    def schedule(self, n_blocks: int, rate: float):
        """``n_blocks`` blocks of arrivals at Poisson rate ``rate``."""
        items, t = [], 0.0
        for _ in range(n_blocks):
            block = list(BLOCK)
            self.rng.shuffle(block)
            for cls in block:
                t += self.rng.expovariate(rate)
                items.append((t, cls, self.take(cls)))
        return items


def _dumps(body) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _inline_records(seed: int) -> list[dict]:
    """``INLINE_N`` seeded records as JSON objects (``repro.data``)."""
    import repro.data

    out = []
    for record in repro.data.synth_fleet(INLINE_N, seed=seed):
        item = {}
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if value is None:
                continue
            item[field.name] = getattr(value, "value", value)
        out.append(item)
    return out


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------

_LISTEN = re.compile(rb"listening on http://[\d.]+:(\d+)")


def start_daemon(ctx: Ctx, name: str):
    """Spawn ``repro serve``; returns ``(proc, port, listen_s, ready_s)``."""
    home = ctx.runenv.fresh_dir(name)
    cache_dir = home / "l2"
    log = home / "daemon.log"
    t0 = time.perf_counter()
    with open(log, "wb") as out:
        proc = ctx.runenv.procs.spawn(
            [python(), "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            env=ctx.runenv.env(home), cwd=ctx.root, stdout=out,
            stderr=out)
    deadline = time.monotonic() + 60.0
    port = None
    while port is None:
        match = _LISTEN.search(log.read_bytes())
        if match:
            port = int(match.group(1))
            break
        if proc.poll() is not None or time.monotonic() > deadline:
            return proc, None, None, None
        time.sleep(0.002)
    t_listen = time.perf_counter()
    conn = Conn(port)
    while True:
        try:
            status, _, _ = conn.request("GET", "/readyz")
        except OSError:
            status = None
            conn.close()
        if status == 200:
            break
        if proc.poll() is not None or time.monotonic() > deadline:
            return proc, None, None, None
        time.sleep(0.005)
    t_ready = time.perf_counter()
    conn.close()
    return proc, port, t_listen - t0, t_ready - t_listen


def counters(port: int) -> dict:
    conn = Conn(port)
    try:
        status, _, body = conn.request("GET", "/metrics")
    finally:
        conn.close()
    return json.loads(body)["counters"] if status == 200 else {}


# ---------------------------------------------------------------------------
# Open-loop load generation
# ---------------------------------------------------------------------------

def open_loop(port: int, items, n_conns: int, tracer=None):
    """Send ``items`` (``(due_offset, cls, (path, body, key))``) on time.

    The calling thread keeps the schedule; ``n_conns`` sender threads
    each own one keep-alive connection.  Returns per-request records
    and the backlog (requests waiting for a connection) at the moment
    the last one was due.  With a ``tracer``, every other request is
    recorded as a ``serve.client_request`` span (the tracing overhead is
    the latency difference between the halves).
    """
    work: queue.Queue = queue.Queue()
    records = [None] * len(items)

    def sender() -> None:
        conn = Conn(port)
        try:
            while True:
                job = work.get()
                if job is None:
                    return
                idx, due, enqueued = job
                _, cls, (path, body, key) = items[idx]
                send = time.perf_counter()
                try:
                    status, headers, payload = conn.request("POST", path, body)
                    reused = conn.requests > 1
                except (OSError, ValueError) as exc:
                    conn.close()
                    status, headers, payload = None, {}, repr(exc).encode()
                    reused = False
                end = time.perf_counter()
                if tracer is not None and idx % 2:
                    tracer.add("serve.client_request", send, end)
                records[idx] = {"idx": idx, "cls": cls, "key": key, "due": due,
                                "lag": enqueued - due, "send": send,
                                "end": end, "status": status,
                                "cache": headers.get("x-repro-cache"),
                                "body": payload, "reused": reused}
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(n_conns)]
    for th in threads:
        th.start()
    start = time.perf_counter() + 0.01
    for idx, (offset, _, _) in enumerate(items):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        work.put((idx, due, time.perf_counter()))
    backlog = work.qsize()
    for _ in threads:
        work.put(None)
    for th in threads:
        th.join(timeout=REQUEST_TIMEOUT_S * 2 + 10)
    return records, backlog


def closed_loop(port: int, items, n_conns: int):
    """Send ``items`` as fast as ``n_conns`` connections allow."""
    return open_loop(port, [(0.0, cls, item) for _, cls, item in items],
                     n_conns)[0]


def _ok(rec) -> bool:
    return rec is not None and rec["status"] == 200


def _latency_ms(rec) -> float:
    return (rec["end"] - rec["due"]) * 1e3


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

def run(ctx: Ctx) -> Result:
    res = Result()
    n_conns = max(1, min(os.cpu_count() or 1, 4))

    # -- setup: spawn -> first /readyz 200, several times; keep the last
    n_setup = 1 if ctx.smoke else 3
    setups, listens, readies = [], [], []
    proc = port = None
    for k in range(n_setup):
        if proc is not None:
            code = ctx.runenv.procs.stop(proc)
            res.check("daemon-clean-exit", code == 0)
        proc, port, listen_s, ready_s = start_daemon(ctx, f"daemon-{k}")
        res.attempted += 1
        if port is None:
            res.failed += 1
            res.check("daemon-ready", False)
            return res
        setups.append(listen_s + ready_s)
        listens.append(listen_s)
        readies.append(ready_s)
    res.e2e["setup_s"] = median(setups)

    mix = Mix(ctx.seed, _inline_records(ctx.seed))
    first: dict = {}           # key -> first computed body
    mismatched_cache = 0

    def absorb(records):
        nonlocal mismatched_cache
        for rec in records:
            if not _ok(rec):
                continue
            if rec["cache"] == "miss":
                first.setdefault(rec["key"], rec["body"])
        for rec in records:
            if _ok(rec) and rec["cache"] in ("hit", "hit-l2"):
                if first.get(rec["key"]) != rec["body"]:
                    mismatched_cache += 1

    # -- priming (untimed): every hot and warm request once
    prime_items = [(0.0, "prime", item) for item in mix.priming()]
    primed = closed_loop(port, prime_items, n_conns)
    absorb(primed)
    res.check("priming", all(_ok(r) for r in primed))

    # -- fixed-rate phase
    n_blocks = 2 if ctx.smoke else max(
        1, int(RATE_RPS * ctx.seconds * FIXED_SHARE / len(BLOCK)))
    steals = []
    while True:
        items = mix.schedule(n_blocks, RATE_RPS)
        before = counters(port)
        cpu0, host0 = cpu_seconds(proc.pid), cpu_times()
        records, backlog = open_loop(port, items, n_conns,
                                     ctx.tracer if ctx.trace else None)
        cpu1 = cpu_seconds(proc.pid)
        steals.append(steal_share(host0, cpu_times()))
        after = counters(port)
        absorb(records)
        res.attempted += len(records)
        res.failed += sum(1 for r in records if not _ok(r))
        if (ctx.smoke or not steals[-1] > STEAL_BOUND
                or len(steals) > STEAL_RETRIES
                or ctx.time_left() < 3 * ctx.seconds + 30):
            break
    rss = peak_rss_mb(proc.pid)
    daemon_children = len(children_of(proc.pid))

    done = [r for r in records if _ok(r)]
    lat = [_latency_ms(r) for r in done]
    cached = [_latency_ms(r) for r in done if r["cache"] in ("hit", "hit-l2")]
    computed = [_latency_ms(r) for r in done if r["cache"] == "miss"]
    res.e2e["latency_p50_ms"] = median(lat)
    res.e2e["latency_tail_ms"] = tail(lat)[0]
    res.e2e["cached_p50_ms"] = median(cached)
    res.e2e["cached_tail_ms"] = tail(cached)[0]
    res.e2e["computed_p50_ms"] = median(computed)
    res.e2e["computed_tail_ms"] = tail(computed)[0]
    res.e2e["cpu_ms_per_op"] = (cpu1 - cpu0) * 1e3 / max(len(records), 1)
    res.e2e["peak_rss_mb"] = rss
    lags = sorted(r["lag"] * 1e3 for r in records if r is not None)
    lag_p99 = lags[min(len(lags) - 1, int(0.99 * len(lags)))] if lags else 0.0
    res.info.update({
        "latency": describe(lat), "cached": describe(cached),
        "computed": describe(computed), "setup_samples_s": setups,
        "client_lag_p99_ms": lag_p99, "client_backlog_end": backlog,
        "requests": len(records), "rate_rps": RATE_RPS,
        "fixed_phase_steal": steals,
        "connections": n_conns,
        "by_class": {c: describe([_latency_ms(r) for r in done
                                  if r["cls"] == c]) for c in set(BLOCK)},
        "cache_tiers": {t: sum(1 for r in done if r["cache"] == t)
                        for t in ("hit", "hit-l2", "miss")}})
    if lag_p99 > LAG_BOUND_MS:
        res.valid = False
        res.info["invalid"] = f"generator lag p99 {lag_p99:.1f} ms"

    # -- the max_rate_rps ladder
    ladder_budget = 2.0 if ctx.smoke else ctx.seconds * (1 - FIXED_SHARE)
    max_rate, probes = ladder(port, mix, n_conns, ladder_budget,
                              1 if ctx.smoke else PROBE_BLOCKS, absorb)
    res.e2e["max_rate_rps"] = max_rate
    res.info["ladder"] = probes

    # -- output checks (untimed)
    res.check("cached-byte-identical", mismatched_cache == 0)
    res.info["cached_mismatches"] = mismatched_cache
    import repro.serve as serve_api

    check_rng = random.Random(ctx.seed + 1)
    computed_recs = [r for r in done if r["cache"] == "miss"]
    sample = check_rng.sample(computed_recs, min(len(computed_recs),
                                                 4 if ctx.smoke else 8))
    lone_ok = True
    for rec in sample:
        path, body, _ = items[rec["idx"]][2]
        parsed = _parse(serve_api, path, body)
        lone = serve_api.evaluate_group(serve_api.fleet_records(parsed),
                                        [parsed], serial_only=True,
                                        budget_s=None)[0]
        lone_ok &= lone.encode("utf-8") == rec["body"]
    res.check("computed-equals-lone-serial", lone_ok)

    if ctx.trace:
        res.layers["serve.listen_s"] = median(listens)
        res.layers["serve.ready_s"] = median(readies)
        res.layers["client.lag_p99_ms"] = lag_p99
        res.layers["client.backlog_end"] = backlog
        res.layers["daemon.cpu_ms_per_req"] = res.e2e["cpu_ms_per_op"]
        res.layers["daemon.rss_mb"] = rss
        res.layers["daemon.children"] = daemon_children
        d = {k: after.get(k, 0) - before.get(k, 0)
             for k in set(after) | set(before)}
        entries = (d.get("serve.batches", 0)
                   + d.get("serve.requests_coalesced", 0)
                   + d.get("serve.batch_fleet_groups", 0))
        res.layers["serve.batch_size_mean"] = entries / max(
            d.get("serve.batches", 0), 1)
        res.layers["serve.requests_shed"] = d.get("serve.requests_shed", 0)
        res.layers["serve.deadline_expired"] = d.get(
            "serve.deadline_expired", 0)
        res.layers["serve.keepalive_reuse_ratio"] = (
            sum(1 for r in done if r["reused"]) / max(len(done), 1))
        hits = d.get("serve.cache_hits", 0)
        l2_hits = d.get("serve.cache_l2_hits", 0)
        res.layers["serve.cache_hit_ratio"] = (hits + l2_hits) / max(
            d.get("serve.requests", 0), 1)
        res.layers["serve.cache_l2_hit_ratio"] = l2_hits / max(
            l2_hits + d.get("serve.cache_l2_misses", 0), 1)
        halves = [[_latency_ms(r) for i, r in enumerate(records)
                   if _ok(r) and r["cache"] in ("hit", "hit-l2")
                   and i % 2 == parity] for parity in (0, 1)]
        res.layers["serve.trace_overhead_ms"] = (median(halves[1])
                                                 - median(halves[0]))
        replay(ctx, res, serve_api, zip(prime_items, primed), items, records)

    code = ctx.runenv.procs.stop(proc)
    res.check("daemon-clean-exit", code == 0)
    return res


def ladder(port, mix, n_conns, budget_s, blocks, absorb):
    """Highest rung whose probe meets the latency limit without backlog.

    Bisects the ladder from its middle; rung 0 (the fixed rate) passes
    by construction of the workload, and a probe far from capacity gives
    a clear verdict, so the noisy verdicts near capacity only move the
    last steps.  Returns ``(rate, probes)``.
    """
    deadline = time.monotonic() + budget_s
    probes = []
    lo, hi = 0, LADDER_TOP + 1
    while hi - lo > 1 and time.monotonic() < deadline:
        mid = (lo + hi) // 2
        rate = RATE_RPS * LADDER_STEP ** mid
        items = mix.schedule(blocks, rate)
        records, backlog = open_loop(port, items, n_conns)
        absorb(records)
        ok = all(_ok(r) for r in records)
        lat = [_latency_ms(r) for r in records if _ok(r)]
        t = tail(lat)[0] if lat else float("inf")
        verdict = (ok and t <= LATENCY_LIMIT_MS
                   and backlog <= BACKLOG_FRACTION * len(items))
        probes.append({"rate": round(rate, 2), "tail_ms": round(t, 2),
                       "backlog": backlog, "pass": verdict})
        if verdict:
            lo = mid
        else:
            hi = mid
        # Let the daemon drain whatever the probe left queued.
        time.sleep(0.05)
    return RATE_RPS * LADDER_STEP ** lo, probes


def _parse(serve_api, path: str, body: bytes):
    return serve_api.parse_request(path.rsplit("/", 1)[1], json.loads(body),
                                   default_deadline_s=30.0,
                                   max_deadline_s=300.0)


def replay(ctx: Ctx, res: Result, serve_api, primed, items, records) -> None:
    """Per-layer serve costs, replayed in-process from the request log.

    The replay cache starts as the daemon's did: holding the primed
    responses, in priming order.
    """
    from repro.serve import DiskCacheL2, ResultCache, TieredResultCache

    tracer = ctx.tracer
    l2_dir = ctx.runenv.fresh_dir("replay-l2")
    cache = TieredResultCache(ResultCache(max_entries=256),
                              DiskCacheL2(l2_dir))
    for (_, _, (path, body, _)), rec in primed:
        if _ok(rec):
            parsed = _parse(serve_api, path, body)
            fleet_hash = serve_api.fleet_content_hash(
                serve_api.fleet_records(parsed))
            cache.put(serve_api.cache_key(parsed, fleet_hash),
                      rec["body"].decode("utf-8"))
    parse_ms, key_ms, get_ms, put_ms, eval_ms, overhead = [], [], [], [], [], []
    evaluated = 0
    for idx, rec in enumerate(records):
        if not _ok(rec):
            continue
        path, body, _ = items[idx][2]
        tracer.op += 1
        with tracer.span("serve.request"):
            t0 = time.perf_counter()
            with tracer.span("serve.parse"):
                parsed = _parse(serve_api, path, body)
            t1 = time.perf_counter()
            with tracer.span("serve.key"):
                fleet = serve_api.fleet_records(parsed)
                key = serve_api.cache_key(
                    parsed, serve_api.fleet_content_hash(fleet))
            t2 = time.perf_counter()
            with tracer.span("serve.cache_get"):
                got, _ = cache.get_with_tier(key)
            t3 = time.perf_counter()
            if got is None:
                payload = rec["body"].decode("utf-8")
                if evaluated < 24:
                    evaluated += 1
                    with tracer.span("serve.evaluate"):
                        e0 = time.perf_counter()
                        serve_api.evaluate_group(fleet, [parsed],
                                                 serial_only=True,
                                                 budget_s=None)
                        eval_ms.append((time.perf_counter() - e0) * 1e3)
                with tracer.span("serve.cache_put"):
                    p0 = time.perf_counter()
                    cache.put(key, payload)
                    put_ms.append((time.perf_counter() - p0) * 1e3)
        parse_ms.append((t1 - t0) * 1e3)
        key_ms.append((t2 - t1) * 1e3)
        get_ms.append((t3 - t2) * 1e3)
        if rec["cache"] in ("hit", "hit-l2"):
            overhead.append((rec["end"] - rec["send"]) * 1e3
                            - (t3 - t0) * 1e3)
    res.layers["serve.parse_ms"] = median(parse_ms)
    res.layers["serve.key_ms"] = median(key_ms)
    res.layers["serve.evaluate_ms"] = median(eval_ms)
    res.layers["serve.cache_get_ms"] = median(get_ms)
    res.layers["serve.cache_put_ms"] = median(put_ms)
    res.layers["serve.http_overhead_ms"] = median(overhead)
