"""Supervised fan-out: retries, deadlines, and a degradation ladder.

The one process fan-out in this codebase — the Monte-Carlo band
stack in :mod:`repro.uncertainty.mc` — routes through two layers here,
so a worker failure costs a retry rather than the caller's whole
computation:

* :func:`supervised_map` dispatches each task block as its own future;
  a worker crash discards only the *lost* blocks (completed results
  are kept) and re-dispatches them against a rebuilt pool with bounded
  attempts and deterministic exponential backoff (:class:`RetryPolicy`
  — jitter-free, because every block is a pure function of its inputs
  and bit-identity must survive the retry); a block missing its
  deadline kills the pool (hung workers never return), counts as a
  crash, and retries.
* :func:`run_ladder` degrades *across* rungs — ``shm → serial`` — when
  the shm rung keeps failing (segment creation failing, attach
  raising, retries exhausted).  Both rungs produce bit-identical
  results by contract, so degrading trades only wall clock, never
  correctness.  After :data:`LATCH_AFTER` failures a rung latches off
  for the rest of the process (one :class:`DegradedFanOutWarning`), so
  a flaky host stops paying the failed-dispatch tax;
  ``REPRO_FORCE_METHOD`` (``shm`` or ``serial``) pins one rung for
  operators who already know their host.

Fault points from :mod:`repro.parallel.faults` are consulted in the
worker wrapper, which is how the chaos suite
(``tests/parallel/test_faults.py``) drives every one of these paths
deterministically in CI.  See ``docs/robustness.md`` for the contract.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import time
import warnings
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, TypeVar

from repro import obs
from repro.envflags import env_float, env_int
from repro.errors import (
    BlockTimeoutError,
    DeadlineExceededError,
    FanOutError,
    FanOutExhaustedError,
    LadderExhaustedError,
)
from repro.parallel import faults
from repro.parallel import pool as pool_mod

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "RetryPolicy",
    "DegradedFanOutWarning",
    "supervised_map",
    "run_ladder",
    "default_policy",
    "deadline_scope",
    "scope_remaining_s",
    "latched_rungs",
    "rung_failures",
    "reset_ladder_state",
    "FORCE_METHOD_ENV",
    "ATTEMPTS_ENV",
    "TIMEOUT_ENV",
    "BACKOFF_ENV",
]

#: Pin one ladder rung (``shm`` / ``serial``) process-wide.
FORCE_METHOD_ENV = "REPRO_FORCE_METHOD"
#: Per-block attempt budget override (positive integer).
ATTEMPTS_ENV = "REPRO_FANOUT_ATTEMPTS"
#: Per-block deadline override, seconds (``0`` disables deadlines).
TIMEOUT_ENV = "REPRO_FANOUT_TIMEOUT_S"
#: First-retry backoff override, seconds.
BACKOFF_ENV = "REPRO_FANOUT_BACKOFF_S"

#: Failures at one rung before it latches off for this process.
LATCH_AFTER: int = 3

#: Default per-block deadline.  Generous — the largest recorded block
#: (half of a 64-cell × 5,000-system × 1,000-draw band stack) completes
#: in about a second, so a block holding a core for ten minutes is
#: wedged, not slow.
DEFAULT_TIMEOUT_S: float = 600.0
DEFAULT_ATTEMPTS: int = 3
DEFAULT_BACKOFF_S: float = 0.05
_BACKOFF_FACTOR: float = 2.0
_BACKOFF_CAP_S: float = 2.0


class DegradedFanOutWarning(RuntimeWarning):
    """A fan-out rung latched off after repeated failures."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry behavior for one dispatch.

    ``attempts`` is the per-block budget (an attempt is one submission
    of that block, whether it crashed, hung, or was collateral damage
    of a pool that broke under it).  Backoff between retry rounds is
    ``backoff_s * backoff_factor**(round - 1)``, capped at
    ``_BACKOFF_CAP_S`` — exponential and jitter-free, so a failing run
    replays identically.  ``timeout_s`` is the per-block deadline;
    ``None`` disables hung-worker detection (discouraged).
    """

    attempts: int = DEFAULT_ATTEMPTS
    backoff_s: float = DEFAULT_BACKOFF_S
    backoff_factor: float = _BACKOFF_FACTOR
    timeout_s: float | None = DEFAULT_TIMEOUT_S

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff_s < 0:
            raise ValueError(
                f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive or None, got {self.timeout_s}")


def default_policy() -> RetryPolicy:
    """The policy every library dispatch uses, after env overrides.

    ``REPRO_FANOUT_ATTEMPTS`` / ``REPRO_FANOUT_TIMEOUT_S`` /
    ``REPRO_FANOUT_BACKOFF_S`` override the defaults through
    :func:`repro.envflags.env_int` / :func:`~repro.envflags.env_float`
    (malformed or out-of-bound values warn once and fall back, like
    every other tuning knob).  A timeout of ``0`` disables deadlines.
    """
    attempts = env_int(ATTEMPTS_ENV, DEFAULT_ATTEMPTS, minimum=1)
    timeout = env_float(TIMEOUT_ENV, DEFAULT_TIMEOUT_S, minimum=0.0)
    backoff = env_float(BACKOFF_ENV, DEFAULT_BACKOFF_S, minimum=0.0)
    return RetryPolicy(attempts=attempts, backoff_s=backoff,
                       timeout_s=timeout if timeout else None)


# ---------------------------------------------------------------------------
# Request deadline scopes
# ---------------------------------------------------------------------------

#: ``(absolute monotonic deadline, original budget_s)`` of the
#: innermost active scope (or None).  A contextvar so scopes nest
#: correctly across the serving daemon's executor threads — each
#: request's engine call runs inside a copied context carrying exactly
#: its own budget.
_DEADLINE: contextvars.ContextVar["tuple[float, float] | None"] = \
    contextvars.ContextVar("repro_deadline", default=None)


@contextlib.contextmanager
def deadline_scope(budget_s: float | None) -> Iterator[None]:
    """Bound every supervised dispatch inside the scope to ``budget_s``.

    The serving layer's request-deadline hook: within the scope,
    :func:`supervised_map` clamps each round's block deadline to the
    remaining budget, skips retry backoff it can no longer afford, and
    — once the budget is spent — kills the pool (a hung worker must
    not outlive the request that asked for it) and raises
    :class:`repro.errors.DeadlineExceededError` instead of retrying.
    The serial inline path checks the budget between blocks.  Nested
    scopes take the tighter of the two deadlines.  ``None`` is a no-op
    scope (no budget).
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


def _budget_spent(label: str) -> DeadlineExceededError:
    """Build (and count) the budget-exhausted error for one dispatch.

    The pool is killed *before* this is raised wherever a worker might
    still be holding a block — a hung worker must never outlive the
    request whose budget it burned.
    """
    obs.inc("fanout.deadline_scope_exceeded")
    scope = _DEADLINE.get()
    return DeadlineExceededError(
        label=label, budget_s=scope[1] if scope is not None else 0.0)


@dataclass
class _TracedSlice:
    """A block result traveling with the spans recorded while computing
    it (worker collect mode) — unwrapped by the dispatching process."""

    value: Any
    spans: list


def _run_block(fn: Callable[[T], R], task: T, block: int,
               attempt: int, traced: bool = False) -> "R | _TracedSlice":
    """Worker wrapper: consult the ``block`` fault point, then run.

    Module-level so it pickles; this is the *only* place the dispatcher
    adds to the worker body, which keeps the supervised path's results
    byte-for-byte those of calling ``fn`` inline.  The fault point
    fires *before* any tracing machinery so chaos semantics are
    identical traced and untraced.  With ``traced`` the block's spans
    are buffered and shipped home inside a :class:`_TracedSlice`; the
    computation itself is untouched either way.
    """
    faults.fire("block", index=block, attempt=attempt)
    if not traced:
        return fn(task)
    with obs.collect() as buffered:
        with obs.span("fanout.block", block=block, attempt=attempt):
            value = fn(task)
    return _TracedSlice(value=value, spans=buffered)


def _unwrap(value: Any, round_id: "str | None") -> Any:
    """Unpack a worker result, emitting its spans under the round."""
    if isinstance(value, _TracedSlice):
        obs.emit_collected(value.spans, round_id)
        return value.value
    return value


def supervised_map(fn: Callable[[T], R], tasks: Sequence[T], *,
                   max_workers: int | None = None,
                   policy: RetryPolicy | None = None,
                   label: str = "fan-out") -> list[R]:
    """Map ``fn`` over task blocks with supervision, preserving order.

    Every block is a pure function of its inputs, so the result equals
    ``[fn(t) for t in tasks]``; a worker crash or hang costs one retry
    round for the *lost* blocks instead of the whole batch.  Falls back to an inline loop
    when no pool is available.  Ordinary exceptions raised *by* ``fn``
    propagate unchanged — supervision never retries a deterministic
    task error, which would mask a real bug.

    Raises:
        repro.errors.FanOutExhaustedError: when blocks keep crashing or
            hanging after ``policy.attempts`` submissions each.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    policy = policy or default_policy()
    results: list[Any] = [None] * len(tasks)
    pending = list(range(len(tasks)))
    attempts = [0] * len(tasks)
    last_failure: Exception | None = None
    round_no = 0

    while pending:
        over_budget = tuple(i for i in pending
                            if attempts[i] >= policy.attempts)
        if over_budget:
            pool_mod.kill_pool()
            obs.record_event("fanout-exhausted", label=label,
                             blocks=list(over_budget),
                             attempts=policy.attempts,
                             error=repr(last_failure))
            raise FanOutExhaustedError(
                label=label, blocks=over_budget,
                attempts=policy.attempts) from last_failure
        scope_left = scope_remaining_s()
        if scope_left is not None and scope_left <= 0:
            pool_mod.kill_pool()
            raise _budget_spent(label) from last_failure
        pool = pool_mod.get_pool(max_workers)
        if pool is None or len(tasks) <= 1:
            # Serial is the floor of every ladder: run the remaining
            # blocks inline (no fault wrapper — kill/hang faults model
            # *worker* failures, and there is no worker here).  No
            # span wrapper either: the caller's spans already enclose
            # this, and the inline path must stay byte-identical.  The
            # deadline scope is still honored *between* blocks — serial
            # work past the budget is abandoned, not merely slow.
            for i in pending:
                left = scope_remaining_s()
                if left is not None and left <= 0:
                    raise _budget_spent(label)
                results[i] = fn(tasks[i])
            return results
        if round_no:
            pause = min(
                policy.backoff_s * policy.backoff_factor ** (round_no - 1),
                _BACKOFF_CAP_S)
            if scope_left is not None:
                # Never sleep past the request's budget; the expiry
                # check at the top of the next round converts whatever
                # is left into a DeadlineExceededError.
                pause = min(pause, scope_left)
            time.sleep(max(pause, 0.0))
            obs.inc("fanout.blocks_retried", len(pending))
        obs.inc("fanout.rounds")
        traced = obs.tracing_active()
        with obs.span("fanout.round", label=label, round=round_no,
                      blocks=len(pending)):
            round_id = obs.current_span_id()
            try:
                futures = {i: pool.submit(_run_block, fn, tasks[i], i,
                                          attempts[i], traced)
                           for i in pending}
            except Exception as exc:
                # The pool died between probe and submit (it can only
                # have been broken from under us): count an attempt so
                # a pool that keeps dying at submit cannot loop forever.
                last_failure = exc
                for i in pending:
                    attempts[i] += 1
                pool_mod.kill_pool()
                round_no += 1
                continue
            for i in pending:
                attempts[i] += 1
            obs.inc("fanout.blocks_dispatched", len(pending))
            deadline = (None if policy.timeout_s is None
                        else time.monotonic() + policy.timeout_s)
            scope = _DEADLINE.get()
            if scope is not None:
                # The request budget clamps the round deadline, so a
                # hung worker can never wedge a request past it.
                deadline = (scope[0] if deadline is None
                            else min(deadline, scope[0]))
            infrastructure_failed = False
            for i in list(pending):
                future = futures[i]
                try:
                    remaining = (None if deadline is None
                                 else max(deadline - time.monotonic(), 0.0))
                    results[i] = _unwrap(future.result(timeout=remaining),
                                         round_id)
                    pending.remove(i)
                except FutureTimeoutError:
                    left = scope_remaining_s()
                    if left is not None and left <= 0:
                        # The *request's* budget expired, not the
                        # per-block deadline: this is an abandonment,
                        # not a retryable hang.  Kill the pool (the
                        # block may still be wedged in a worker) and
                        # surface the deadline to the caller.
                        for other in futures.values():
                            other.cancel()
                        pool_mod.kill_pool()
                        raise _budget_spent(label) from None
                    last_failure = BlockTimeoutError(
                        label=label, block=i,
                        timeout_s=policy.timeout_s or 0.0)
                    obs.inc("fanout.deadline_misses")
                    obs.record_event(
                        "fanout-failure", label=label, block=i,
                        error=f"BlockTimeoutError: block {i} missed its "
                              f"{policy.timeout_s or 0.0:g}s deadline")
                    infrastructure_failed = True
                    break
                except BrokenProcessPool as exc:
                    last_failure = exc
                    obs.record_event(
                        "fanout-failure", label=label, block=i,
                        error=f"{type(exc).__name__}: {exc}")
                    infrastructure_failed = True
                    break
                except Exception:
                    # A deterministic task error: retrying would
                    # reproduce it bit-identically, so propagate it
                    # unchanged.
                    for other in futures.values():
                        other.cancel()
                    raise
            if infrastructure_failed:
                # Harvest blocks that finished cleanly before the
                # failure was noticed — their results are results; only
                # genuinely lost blocks pay the retry.
                for j in list(pending):
                    future = futures[j]
                    if future.done() and not future.cancelled():
                        try:
                            results[j] = _unwrap(
                                future.result(timeout=0), round_id)
                            pending.remove(j)
                        except Exception:
                            pass  # lost with the pool; stays pending
                obs.inc("fanout.blocks_lost", len(pending))
                pool_mod.kill_pool()
                round_no += 1
    return results


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------

#: Exceptions that count as *infrastructure* failure at a rung.  A
#: rung raising anything else (a genuine task bug) propagates — the
#: ladder must never convert a correctness error into a silent retry
#: on a slower path.
_RUNG_FAILURES_CAUGHT = (FanOutError, pool_mod.WorkerCrashError,
                         faults.InjectedFault, BrokenProcessPool,
                         OSError, MemoryError)

_FAILURE_COUNTS: dict[str, int] = {}
_LATCHED: set[str] = set()
_WARNED_FORCE: set[str] = set()


def latched_rungs() -> tuple[str, ...]:
    """Rungs latched off for this process (diagnostics / ``repro doctor``)."""
    return tuple(sorted(_LATCHED))


def rung_failures() -> dict[str, int]:
    """Current per-rung failure counts (resets on rung success)."""
    return dict(_FAILURE_COUNTS)


def reset_ladder_state() -> None:
    """Clear latches and failure counts (tests; operator recovery)."""
    _FAILURE_COUNTS.clear()
    _LATCHED.clear()


def _forced_method() -> str | None:
    raw = os.environ.get(FORCE_METHOD_ENV)
    if not raw:
        return None
    value = raw.strip().lower()
    if value in ("shm", "serial"):
        return value
    if raw not in _WARNED_FORCE:
        _WARNED_FORCE.add(raw)
        warnings.warn(
            f"{FORCE_METHOD_ENV}={raw!r} is not one of shm/serial; "
            "ignoring it", RuntimeWarning, stacklevel=3)
    return None


def _failure_history(name: str) -> str:
    """The counted-failure history for one rung, formatted for the
    latch warning: which errors hit which blocks, oldest first."""
    mine = [event for event in obs.events("rung-failure")
            if event.get("rung") == name]
    parts = []
    for event in mine[-LATCH_AFTER:]:
        text = event.get("error", "unknown error")
        blocks = event.get("blocks")
        if blocks:
            text += f" [block(s) {', '.join(str(b) for b in blocks)}]"
        parts.append(text)
    return "; ".join(parts)


def _record_failure(name: str, label: str, exc: Exception) -> None:
    count = _FAILURE_COUNTS.get(name, 0) + 1
    _FAILURE_COUNTS[name] = count
    obs.inc("ladder.failures")
    obs.record_event(
        "rung-failure", rung=name, label=label,
        error=f"{type(exc).__name__}: {exc}",
        blocks=list(getattr(exc, "blocks", ()) or ()))
    if count >= LATCH_AFTER and name not in _LATCHED:
        _LATCHED.add(name)
        obs.inc("ladder.latches")
        history = _failure_history(name) or f"{label}: {exc}"
        warnings.warn(
            f"parallel rung {name!r} failed {count} time(s) "
            f"(history: {history}); latching it off for this process — "
            "evaluation continues on slower-but-correct rungs "
            f"(override with {FORCE_METHOD_ENV}, or call "
            "repro.parallel.resilience.reset_ladder_state())",
            DegradedFanOutWarning, stacklevel=4)


def run_ladder(rungs: Sequence[tuple[str, Callable[[], Any]]], *,
               label: str = "fan-out") -> Any:
    """Run the first rung that produces a result, degrading on failure.

    ``rungs`` is an ordered sequence of ``(name, thunk)`` — fastest
    first, ``"serial"`` last.  A thunk may *decline* by returning
    ``None`` (substrate unavailable: not a failure, nothing is
    counted); it *fails* by raising an infrastructure error (counted
    toward the rung's latch, execution degrades to the next rung).
    Every rung must produce bit-identical results — the ladder trades
    wall clock, never output.

    ``REPRO_FORCE_METHOD`` pins one rung by name when that rung is in
    the ladder: only it runs, failures propagate, nothing latches.

    Raises:
        repro.errors.LadderExhaustedError: every rung declined (the
            final rung must not — give it an always-available serial
            thunk).
    """
    rungs = list(rungs)
    forced = _forced_method()
    if forced is not None and any(name == forced for name, _ in rungs):
        rungs = [(name, thunk) for name, thunk in rungs if name == forced]
        name, thunk = rungs[0]
        with obs.span("fanout.rung", rung=name, label=label, forced=True):
            result = thunk()
        if result is None:
            raise LadderExhaustedError(label=label, rungs=(name,))
        return result

    tried: list[str] = []
    last_exc: Exception | None = None
    for position, (name, thunk) in enumerate(rungs):
        is_last = position == len(rungs) - 1
        if name in _LATCHED and not is_last:
            continue
        tried.append(name)
        try:
            with obs.span("fanout.rung", rung=name, label=label):
                result = thunk()
        except _RUNG_FAILURES_CAUGHT as exc:
            if is_last:
                raise
            _record_failure(name, label, exc)
            last_exc = exc
            continue
        if result is not None:
            if name in _FAILURE_COUNTS:
                _FAILURE_COUNTS[name] = 0
            return result
        obs.inc("ladder.declines")
    raise LadderExhaustedError(label=label,
                               rungs=tuple(tried)) from last_exc
