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
  batch failure invalidates it, exactly one rebuild runs per fleet
  and every concurrent request shares its result, so a crash never
  triggers a thundering herd of frame extractions.  It is an LRU at
  the frame cache's size: records past it would have lost their
  frames anyway, and unique inline fleets must not grow it forever.
"""

from __future__ import annotations

import time
from collections import OrderedDict

from repro import obs
from repro.errors import BreakerOpenError

__all__ = ["CircuitBreaker", "WarmState",
           "BREAKER_CLOSED", "BREAKER_DEGRADED", "BREAKER_OPEN"]

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
    fresh frame extraction.  At most ``_FRAME_CACHE_MAX`` fleets stay
    warm; the least recently used one is dropped first
    (``serve.warm_evictions``).
    """

    def __init__(self):
        self._fleets: "OrderedDict[str, tuple]" = OrderedDict()

    def peek(self, key: str):
        """The warm records for ``key``, or None (no build)."""
        return self._fleets.get(key)

    async def records_for(self, key: str, build) -> tuple:
        """The warm records for ``key``, building at most once.

        ``build`` is a zero-arg callable returning the records tuple
        (cheap — record construction, not frame extraction).  It runs
        on the event loop with no await around it, so callers racing
        on a cold key cannot interleave with it: the first builds, the
        rest find its tuple (single-flight without a lock), and that
        tuple is what every future request shares.
        """
        records = self._fleets.get(key)
        if records is not None:
            self._fleets.move_to_end(key)
            obs.inc("serve.warm_hits")
            return records
        # Imported here, not at the top: the kernel module costs tens of
        # milliseconds of daemon start-up, and a cold build is followed
        # by a sweep that loads it anyway.
        from repro.core.vectorized import _FRAME_CACHE_MAX

        obs.inc("serve.warm_rebuilds")
        records = tuple(build())
        self._fleets[key] = records
        while len(self._fleets) > _FRAME_CACHE_MAX:
            self._fleets.popitem(last=False)
            obs.inc("serve.warm_evictions")
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
