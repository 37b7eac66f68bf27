"""Request deadline scopes for the Monte-Carlo band kernel.

The serving daemon bounds every batch by its tightest member's
remaining budget.  :func:`deadline_scope` records that budget in a
context variable; the band kernel in :mod:`repro.uncertainty.mc`
calls :func:`check_deadline` before every stream window (on every
method — a thread block runs in a copy of its caller's context), so
work past the budget is abandoned with
:class:`repro.errors.DeadlineExceededError` rather than merely
finishing late.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from collections.abc import Iterator

from repro import obs
from repro.errors import DeadlineExceededError

__all__ = ["deadline_scope", "scope_remaining_s", "check_deadline"]

#: ``(absolute monotonic deadline, original budget_s)`` of the
#: innermost active scope (or None).  A contextvar so scopes nest
#: correctly across the serving daemon's executor threads — each
#: request's engine call runs inside a copied context carrying exactly
#: its own budget.
_DEADLINE: contextvars.ContextVar["tuple[float, float] | None"] = \
    contextvars.ContextVar("repro_deadline", default=None)


@contextlib.contextmanager
def deadline_scope(budget_s: float | None) -> Iterator[None]:
    """Bound the band kernel inside the scope to ``budget_s`` seconds.

    Nested scopes take the tighter of the two deadlines.  ``None`` is a
    no-op scope (no budget).
    """
    if budget_s is None:
        yield
        return
    new_deadline = time.monotonic() + budget_s
    current = _DEADLINE.get()
    if current is not None and current[0] <= new_deadline:
        # The enclosing scope is already tighter; keep it.
        yield
        return
    token = _DEADLINE.set((new_deadline, budget_s))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def scope_remaining_s() -> float | None:
    """Seconds left in the innermost deadline scope (None = no scope)."""
    scope = _DEADLINE.get()
    return None if scope is None else scope[0] - time.monotonic()


def check_deadline(label: str) -> None:
    """Raise (and count) once the innermost scope's budget is spent.

    Raises:
        repro.errors.DeadlineExceededError: carrying ``label`` and the
            scope's original budget.
    """
    scope = _DEADLINE.get()
    if scope is not None and scope[0] <= time.monotonic():
        obs.inc("fanout.deadline_scope_exceeded")
        raise DeadlineExceededError(label=label, budget_s=scope[1])
