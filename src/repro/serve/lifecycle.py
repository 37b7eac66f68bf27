"""Breaker, drain, and warm-state management for the daemon.

Three concerns that all answer "should this service accept work, and
on what substrate":

* :class:`CircuitBreaker` — protects the service: repeated
  batch-level infrastructure failures first trip it to **degraded**
  (new batches pin the band kernel to its serial path), then to
  **open**
  (new requests refused outright with a cooldown-derived
  ``Retry-After``).  After the cooldown one probe batch is allowed
  (half-open, still serial); enough consecutive successes close it.
* draining — the SIGTERM flag.  Not a breaker state: draining is a
  *decision*, not a failure, and it is one-way.
* :class:`WarmState` — the fleet records (and through them the
  identity-keyed :func:`~repro.core.vectorized.fleet_frame` cache)
  kept alive between requests, with **single-flight** rebuild: after a
  batch failure invalidates it, exactly one rebuilder runs per
  fleet while concurrent requests await its result, so a crash never
  triggers a thundering herd of frame extractions.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path
from typing import Any

from repro import obs
from repro.errors import BreakerOpenError

__all__ = ["CircuitBreaker", "WarmState",
           "BREAKER_CLOSED", "BREAKER_DEGRADED", "BREAKER_OPEN",
           "write_replica_status", "write_supervisor_status",
           "read_tier_status"]

BREAKER_CLOSED = "closed"
BREAKER_DEGRADED = "degraded"
BREAKER_OPEN = "open"


class CircuitBreaker:
    """Failure-counting service breaker: closed → degraded → open."""

    def __init__(self, *, degrade_after: int = 2, open_after: int = 5,
                 close_after: int = 2, cooldown_s: float = 5.0):
        if not 1 <= degrade_after <= open_after:
            raise ValueError(
                f"need 1 <= degrade_after ({degrade_after}) <= "
                f"open_after ({open_after})")
        self.degrade_after = degrade_after
        self.open_after = open_after
        self.close_after = close_after
        self.cooldown_s = cooldown_s
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        self._opened_at: "float | None" = None

    @property
    def state(self) -> str:
        return self._state

    @property
    def serial_only(self) -> bool:
        """True when new batches must run on the serial floor."""
        return self._state != BREAKER_CLOSED

    def check_admission(self, draining: bool) -> None:
        """Refuse new work while open (or draining), else return.

        An open breaker past its cooldown flips to degraded — the
        half-open probe: the next admitted batch runs serial-only and
        its outcome decides whether the service recovers or re-opens.
        """
        if draining:
            raise BreakerOpenError(state="draining")
        if self._state != BREAKER_OPEN:
            return
        elapsed = time.monotonic() - (self._opened_at or 0.0)
        if elapsed >= self.cooldown_s:
            self._state = BREAKER_DEGRADED
            self._consecutive_successes = 0
            obs.inc("serve.breaker_half_open")
            return
        raise BreakerOpenError(
            state=BREAKER_OPEN,
            retry_after_s=max(self.cooldown_s - elapsed, 0.0))

    def record_failure(self) -> None:
        """One batch failed on infrastructure (not on its own inputs)."""
        self._consecutive_successes = 0
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.open_after:
            if self._state != BREAKER_OPEN:
                obs.inc("serve.breaker_opened")
            self._state = BREAKER_OPEN
            self._opened_at = time.monotonic()
        elif self._consecutive_failures >= self.degrade_after:
            if self._state == BREAKER_CLOSED:
                obs.inc("serve.breaker_degraded")
            self._state = BREAKER_DEGRADED

    def record_success(self) -> None:
        """One batch completed; enough in a row re-closes the breaker."""
        self._consecutive_failures = 0
        if self._state == BREAKER_CLOSED:
            return
        self._consecutive_successes += 1
        if self._consecutive_successes >= self.close_after:
            self._state = BREAKER_CLOSED
            self._consecutive_successes = 0
            obs.inc("serve.breaker_closed")


class WarmState:
    """Per-fleet warm records with single-flight (re)build.

    Holding the *same* records tuple across requests is what keeps the
    identity-keyed frame cache warm — two requests for ``"doe-like"``
    must resolve to the same record objects or every request pays a
    fresh frame extraction.
    """

    def __init__(self):
        self._fleets: dict[str, tuple] = {}
        self._locks: dict[str, asyncio.Lock] = {}

    def peek(self, key: str):
        """The warm records for ``key``, or None (no build)."""
        return self._fleets.get(key)

    async def records_for(self, key: str, build) -> tuple:
        """The warm records for ``key``, building at most once.

        ``build`` is a zero-arg callable returning the records tuple
        (cheap — record construction, not frame extraction).  Callers
        racing on a cold key all await one build (single-flight); the
        winner's tuple is what everyone — including future requests —
        shares.
        """
        records = self._fleets.get(key)
        if records is not None:
            obs.inc("serve.warm_hits")
            return records
        lock = self._locks.setdefault(key, asyncio.Lock())
        async with lock:
            records = self._fleets.get(key)
            if records is not None:
                obs.inc("serve.warm_hits")
                return records
            obs.inc("serve.warm_rebuilds")
            records = tuple(build())
            self._fleets[key] = records
            return records

    def invalidate(self, key: "str | None" = None) -> None:
        """Drop warm records (one fleet, or everything).

        Called after infrastructure failures, so no request keeps
        serving state built before the failure; the next request
        triggers exactly one rebuild (single-flight).
        """
        if key is None:
            self._fleets.clear()
        else:
            self._fleets.pop(key, None)
        obs.inc("serve.warm_invalidations")


# ---------------------------------------------------------------------------
# Replica-tier status files
# ---------------------------------------------------------------------------
#
# The tier's shared ground truth is a directory of tiny JSON files —
# one per replica plus one for the supervisor — written atomically
# (write-then-rename, like every other crash-adjacent file in the
# repo) so a reader sees a complete old status, a complete new one,
# or nothing.  Any replica's ``/readyz`` aggregates them; the
# supervisor polls them to report tier readiness; a crashed writer
# leaves at worst a stale file whose ``alive`` probe exposes it.

def _write_status(path: Path, payload: dict[str, Any]) -> None:
    tmp = path.with_name(f".tmp-{path.name}.{os.getpid()}")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        # Status files are observability, never control flow: an
        # unwritable tier dir degrades the aggregate view, not the
        # service.
        try:
            tmp.unlink()
        except OSError:
            pass


def write_replica_status(tier_dir: "str | os.PathLike", index: int, *,
                         pid: int, port: int, ready: bool) -> None:
    """Publish one replica's readiness into the tier status dir."""
    _write_status(Path(tier_dir) / f"replica-{index}.json",
                  {"index": index, "pid": pid, "port": port,
                   "ready": bool(ready)})


def write_supervisor_status(tier_dir: "str | os.PathLike", *, pid: int,
                            workers: int, respawns: dict[int, int],
                            reuseport: bool) -> None:
    """Publish the supervisor's view (respawn counts live here: the
    supervisor is the only process that witnesses a replica die)."""
    _write_status(Path(tier_dir) / "supervisor.json",
                  {"pid": pid, "workers": workers,
                   "respawns": {str(i): int(n)
                                for i, n in sorted(respawns.items())},
                   "reuseport": bool(reuseport)})


def _alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        pass
    return True


def read_tier_status(tier_dir: "str | os.PathLike") -> dict[str, Any]:
    """The aggregated tier view: every replica's status + supervisor.

    Unreadable or half-present files are simply skipped — the
    aggregate is a best-effort observation of a directory that other
    processes are writing concurrently.
    """
    root = Path(tier_dir)
    replicas: list[dict[str, Any]] = []
    supervisor: "dict[str, Any] | None" = None
    try:
        names = sorted(os.listdir(root))
    except OSError:
        names = []
    for name in names:
        if not name.endswith(".json") or name.startswith(_TMP_STATUS):
            continue
        try:
            payload = json.loads((root / name).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if name == "supervisor.json":
            supervisor = payload
        elif name.startswith("replica-"):
            payload["alive"] = _alive(int(payload.get("pid", -1)))
            replicas.append(payload)
    replicas.sort(key=lambda status: status.get("index", -1))
    return {
        "replicas": replicas,
        "supervisor": supervisor,
        "n_ready": sum(1 for status in replicas
                       if status.get("ready") and status["alive"]),
    }


_TMP_STATUS = ".tmp-"
