"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause.  The
subclasses distinguish the three failure domains that matter to users:

* bad input data (:class:`DataError` and friends),
* a model that cannot produce an estimate from the visible fields
  (:class:`InsufficientDataError` — this one is *expected* in normal
  operation: it is how EasyC and the GHG-protocol calculator signal
  "no coverage" for a system), and
* misconfiguration of the models themselves (:class:`ConfigError`),
* the parallel substrate giving up after supervised recovery
  (:class:`FanOutError` and friends — raised only once retries and the
  shm → serial degradation ladder are both exhausted; see
  ``docs/robustness.md``), and
* the assessment service refusing or abandoning a request
  (:class:`ServeError` and friends — each subclass names one refusal
  path of the ``repro serve`` daemon and carries a stable ``code``
  slug, so clients can branch on the *reason* instead of parsing
  messages; see ``docs/serving.md``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class DataError(ReproError):
    """Raised when input data is malformed or internally inconsistent."""


class UnknownDeviceError(DataError):
    """Raised when a hardware catalog lookup finds no matching device."""

    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        super().__init__(f"unknown {kind}: {name!r}")


class UnknownRegionError(DataError):
    """Raised when a grid-intensity lookup finds no matching region."""

    def __init__(self, region: str):
        self.region = region
        super().__init__(f"unknown grid region: {region!r}")


class InsufficientDataError(ReproError):
    """A carbon model could not be evaluated from the visible fields.

    This is the *coverage* signal: catching it is how the pipeline
    decides a system is "not covered" under a given data scenario.
    ``missing`` lists the metric names whose absence blocked the
    estimate.
    """

    def __init__(self, missing: tuple[str, ...], detail: str = ""):
        self.missing = tuple(missing)
        msg = f"insufficient data; missing metrics: {', '.join(missing) or '(unspecified)'}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class InterpolationError(ReproError):
    """Raised when peer interpolation cannot find enough complete peers."""


class ConfigError(ReproError):
    """Raised when a model is constructed with invalid parameters."""


class ParseError(DataError):
    """Raised when embedded paper data cannot be parsed."""


class FanOutError(ReproError):
    """Base class for parallel fan-out failures that survived recovery.

    The supervised dispatcher (:mod:`repro.parallel.resilience`)
    retries crashed and hung blocks and degrades through the
    shm → serial ladder before raising; an escaped
    ``FanOutError`` therefore means every recovery path was exhausted.
    ``label`` names the dispatch that failed (e.g. ``"mc-bands"``).
    """

    def __init__(self, message: str, *, label: str = "fan-out"):
        self.label = label
        super().__init__(message)


class BlockTimeoutError(FanOutError):
    """A dispatched block missed its deadline (hung worker).

    Recorded as the cause of the retry round that killed the pool;
    escapes only when the block keeps hanging through every attempt.
    """

    def __init__(self, *, label: str = "fan-out", block: int,
                 timeout_s: float):
        self.block = block
        self.timeout_s = timeout_s
        super().__init__(
            f"{label}: block {block} missed its {timeout_s:g}s deadline "
            "(worker presumed hung; pool killed)", label=label)


class FanOutExhaustedError(FanOutError):
    """Blocks kept failing after every allowed attempt.

    ``blocks`` are the task-block indices still incomplete, ``attempts``
    the per-block attempt budget that was spent on each.
    """

    def __init__(self, *, label: str = "fan-out",
                 blocks: tuple[int, ...], attempts: int):
        self.blocks = tuple(blocks)
        self.attempts = attempts
        super().__init__(
            f"{label}: block(s) {', '.join(map(str, blocks))} still "
            f"failing after {attempts} attempt(s) each", label=label)


class LadderExhaustedError(FanOutError):
    """Every rung of a degradation ladder declined or failed.

    ``rungs`` records the rung names in the order they were tried.
    Reaching this means even the final (serial) rung did not run —
    a configuration problem (e.g. ``REPRO_FORCE_METHOD`` forcing a
    rung the host cannot provide), not a transient fault.
    """

    def __init__(self, *, label: str = "fan-out",
                 rungs: tuple[str, ...]):
        self.rungs = tuple(rungs)
        super().__init__(
            f"{label}: no rung of the degradation ladder produced a "
            f"result (tried: {', '.join(rungs) or '(none)'})", label=label)


class ServeError(ReproError):
    """Base class for assessment-service refusals and abandonments.

    Every subclass names one distinct way the ``repro serve`` daemon
    can decline to finish a request, with a stable machine-readable
    ``code`` slug (serialized into the error response body) and an
    optional ``retry_after_s`` hint — ``None`` means retrying is not
    expected to help (e.g. the request's own deadline expired).
    """

    code = "serve-error"

    def __init__(self, message: str, *, retry_after_s: float | None = None):
        self.retry_after_s = retry_after_s
        super().__init__(message)


class DeadlineExceededError(ServeError):
    """A request (or supervised dispatch) ran out of its time budget.

    Raised by the supervised dispatcher when a
    :func:`repro.parallel.resilience.deadline_scope` budget expires
    mid-fan-out (the pool is killed first, so a hung worker can never
    wedge the caller past the budget), and by the serving layer when a
    queued request's deadline passes before or during its batch.
    """

    code = "deadline-exceeded"

    def __init__(self, *, label: str = "request", budget_s: float):
        self.label = label
        self.budget_s = budget_s
        super().__init__(
            f"{label}: deadline exceeded after its {budget_s:g}s budget")


class QueueFullError(ServeError):
    """The admission queue shed this request under load.

    The serving layer bounds how much work it will hold; when the
    bound is hit the *oldest* waiting request is shed (it has burned
    the most of its deadline already) with a ``retry_after_s`` derived
    from the observed batch latency.
    """

    code = "queue-full"

    def __init__(self, *, depth: int, retry_after_s: float):
        self.depth = depth
        super().__init__(
            f"admission queue full at depth {depth}; request shed "
            f"(retry after ~{retry_after_s:g}s)",
            retry_after_s=retry_after_s)


class BreakerOpenError(ServeError):
    """The service circuit breaker is refusing new work.

    ``state`` is the breaker/lifecycle state that refused the request:
    ``"open"`` (repeated failures even on the serial floor) or
    ``"draining"`` (SIGTERM received; in-flight work finishing).
    """

    code = "breaker-open"

    def __init__(self, *, state: str, retry_after_s: float | None = None):
        self.state = state
        super().__init__(
            f"service is {state}; not accepting new assessment work",
            retry_after_s=retry_after_s)
