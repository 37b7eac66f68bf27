"""Deterministic fault injection for the serving daemon.

The ``repro serve`` daemon promises recovery from failure modes that
are not reproducible on demand — a request that stalls, a batch that
fails, a cache entry that cannot be read.  This module makes them
*injectable*: the serving layer consults named **fault points**, and a
:class:`FaultPlan` parsed from the ``REPRO_FAULT_SPEC`` environment
variable decides deterministically whether each consultation fires.

Spec grammar (comma-separated entries)::

    ACTION@POINT[=SELECTOR][:ARG]

    hang@request=0:200ms  request 0 stalls 200 ms inside its handling
    kill@request=2        request 2's connection is dropped unanswered
    raise@batch=1         batch 1 fails with InjectedFault
    raise@cache-load      every cache lookup raises (treated as a miss)

Fault points, all consulted by :mod:`repro.serve` with
:func:`matching` — the daemon *interprets* the action in its own
process rather than executing it:

* ``request`` — ``hang`` becomes an ``asyncio`` sleep inside request
  handling (driving the deadline path without blocking the loop),
  ``kill`` abandons the response, ``raise``/``fail`` answer a
  structured 500;
* ``batch`` — ``hang`` sleeps before the batch runs; every other
  action fails the batch's members and counts toward the breaker;
* ``cache-load`` — a cache lookup raises, which the cache treats as a
  miss and recomputes.

``SELECTOR`` for ``request`` / ``batch`` is the daemon's running
request/batch ordinal.  Actions: ``kill``, ``hang`` (``ARG`` seconds,
default 30), ``raise`` / ``fail`` (synonyms).

Parsing never raises: malformed entries warn once and are dropped, so
a typo in the spec cannot take down the process it was meant to test.
The plan is re-parsed whenever the environment value changes.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

__all__ = ["FAULT_SPEC_ENV", "InjectedFault", "FaultRule", "FaultPlan",
           "active_plan", "matching"]

FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

_ACTIONS = ("kill", "hang", "raise", "fail")
_POINTS = ("request", "batch", "cache-load")


class InjectedFault(RuntimeError):
    """The exception an injected ``raise``/``fail`` rule surfaces as.

    The serving layer treats it like any other infrastructure failure
    (the breaker counts it; it never masks a real bug).
    """

    def __init__(self, point: str, detail: str = ""):
        self.point = point
        super().__init__(
            f"injected fault at {point!r}" + (f" ({detail})" if detail
                                              else ""))


@dataclass(frozen=True)
class FaultRule:
    """One parsed spec entry."""

    action: str                 # kill | hang | raise | fail
    point: str                  # request | batch | cache-load
    selector: int | None = None  # ordinal, or None = every consultation
    arg_s: float | None = None   # hang duration

    def matches(self, point: str, index: int | None) -> bool:
        return (self.point == point
                and (self.selector is None or self.selector == index))


def _parse_duration(text: str) -> float:
    """``"5s"`` / ``"250ms"`` / ``"1.5"`` → seconds."""
    text = text.strip().lower()
    if text.endswith("ms"):
        return float(text[:-2]) / 1000.0
    if text.endswith("s"):
        return float(text[:-1])
    return float(text)


def _parse_entry(entry: str) -> FaultRule:
    action, _, rest = entry.partition("@")
    action = action.strip().lower()
    if action not in _ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    if not rest:
        raise ValueError("missing fault point after '@'")
    arg_s: float | None = None
    if ":" in rest:
        rest, _, arg = rest.partition(":")
        arg_s = _parse_duration(arg)
    selector: int | None = None
    if "=" in rest:
        rest, _, sel = rest.partition("=")
        selector = int(sel)
    point = rest.strip().lower()
    if point not in _POINTS:
        raise ValueError(f"unknown fault point {point!r}")
    return FaultRule(action=action, point=point, selector=selector,
                     arg_s=arg_s)


@dataclass(frozen=True)
class FaultPlan:
    """Every rule parsed from one spec string."""

    rules: tuple[FaultRule, ...]

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec, warning about (and dropping) malformed entries."""
        rules: list[FaultRule] = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            try:
                rules.append(_parse_entry(entry))
            except ValueError as exc:
                _warn_once(spec, entry, str(exc))
        return cls(rules=tuple(rules))


_WARNED: set[tuple[str, str]] = set()


def reset_warnings() -> None:
    """Warn again about entries already reported (test hook)."""
    _WARNED.clear()


def _warn_once(spec: str, entry: str, problem: str) -> None:
    key = (spec, entry)
    if key not in _WARNED:
        _WARNED.add(key)
        warnings.warn(
            f"{FAULT_SPEC_ENV}: dropping malformed entry {entry!r} "
            f"({problem})", RuntimeWarning, stacklevel=3)


# Parsed-plan cache, keyed by the raw env value so a changed spec (or a
# cleared one) re-parses while the per-dispatch cost stays two dict
# lookups.
_CACHE: dict[str, FaultPlan] = {}
_EMPTY = FaultPlan(rules=())


def active_plan() -> FaultPlan:
    """The plan for the current ``REPRO_FAULT_SPEC`` value (cached)."""
    spec = os.environ.get(FAULT_SPEC_ENV, "")
    if not spec.strip():
        return _EMPTY
    plan = _CACHE.get(spec)
    if plan is None:
        plan = _CACHE[spec] = FaultPlan.parse(spec)
    return plan


def matching(point: str, *, index: int | None = None) -> "FaultRule | None":
    """The first rule matching ``point``, *without* executing it.

    The daemon translates the action into its own failure mode (see
    the module docstring).  Returns ``None`` when nothing matches — the
    common, free case.
    """
    plan = active_plan()
    for rule in plan.rules:
        if rule.matches(point, index):
            return rule
    return None
