"""Process-lifetime counters.

Counters are always on: unlike spans they cost one dict update at
*block* granularity (a dispatch, a cache lookup), so there is no
disabled path to protect.  The registry is flat — dotted names,
numeric values — and read two ways:

* :func:`metrics_snapshot` → the "activity" section of ``repro
  doctor`` and the metrics block of profile output;
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

__all__ = [
    "inc",
    "get_counter",
    "metrics_snapshot",
    "reset_metrics",
    "reset_warnings",
]

_LOCK = threading.Lock()
_COUNTERS: dict[str, float] = {}


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


def reset_metrics() -> None:
    """Zero every counter (test hook)."""
    with _LOCK:
        _COUNTERS.clear()


def reset_warnings() -> None:
    """Re-arm the library's warn-once registries (test hook).

    The fault-plan parser warns once per malformed entry and the trace
    sink once per unwritable path, so a spec consulted on every request
    or a span emitted per kernel call does not spam.  Suites that
    assert a warning fires call this.
    """
    from repro.obs import tracing
    from repro.serve import faults

    faults.reset_warnings()
    tracing.reset_warnings()
