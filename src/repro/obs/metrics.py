"""Process-lifetime counters and the event ring buffer.

Counters are always on: unlike spans they cost one dict update at
*block* granularity (a dispatch, a cache lookup), so there is no
disabled path to protect.  The registry is flat — dotted names,
numeric values — and read three ways:

* :func:`metrics_snapshot` → the "activity" section of ``repro
  doctor`` and the metrics block of profile output;
* :func:`events` → a bounded history of structured events;
* tests, which pin exact counts for deterministic paths.

The counter namespace (kept in ``docs/observability.md``):

==================================  =============================================
``fanout.blocks_dispatched``        band cell blocks submitted to the thread pool
``fanout.deadline_scope_exceeded``  deadline scopes found spent
``cache.frame_hits/_misses``        FleetFrame cache outcomes
``cache.lowering_hits/_misses``     scenario lowering-cache outcomes
``kernel.cells``                    (system × quantity) cells evaluated
``mc.draws``                        Monte-Carlo draws consumed
==================================  =============================================

All helpers are threadsafe under one lock; the hot-path cost is a
dict ``get`` + add.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

__all__ = [
    "inc",
    "get_counter",
    "metrics_snapshot",
    "reset_metrics",
    "record_event",
    "events",
    "reset_warnings",
]

_LOCK = threading.Lock()
_COUNTERS: dict[str, float] = {}

#: Bounded event history, small enough to never matter.  Each entry is
#: a plain dict with at least ``kind``.
_EVENT_CAP = 64
_EVENTS: deque[dict[str, Any]] = deque(maxlen=_EVENT_CAP)


def inc(name: str, value: float = 1) -> None:
    """Add ``value`` (default 1) to counter ``name``, creating it at 0."""
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + value


def get_counter(name: str) -> float:
    """Current value of one counter (0 if never incremented)."""
    with _LOCK:
        return _COUNTERS.get(name, 0)


def metrics_snapshot() -> dict[str, float]:
    """A sorted copy of every counter — safe to mutate, JSON-safe."""
    with _LOCK:
        return dict(sorted(_COUNTERS.items()))


def record_event(kind: str, **fields: Any) -> None:
    """Append one structured event to the bounded history."""
    with _LOCK:
        _EVENTS.append({"kind": kind, **fields})


def events(kind: str | None = None) -> list[dict[str, Any]]:
    """The recorded events (newest last), optionally filtered by kind."""
    with _LOCK:
        items = list(_EVENTS)
    if kind is None:
        return items
    return [e for e in items if e.get("kind") == kind]


def reset_metrics() -> None:
    """Zero every counter and drop the event history (test hook)."""
    with _LOCK:
        _COUNTERS.clear()
        _EVENTS.clear()


def reset_warnings() -> None:
    """Re-arm every warn-once registry in the library (test hook).

    Warn-once sets keep a knob consulted on every call from spamming
    (``envflags``, the fault-plan parser).  Suites that assert those
    warnings fire call this instead of reaching into private sets.
    """
    from repro import envflags
    from repro.parallel import faults

    envflags._WARNED.clear()
    faults._WARNED.clear()
