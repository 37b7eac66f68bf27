"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause.  The
subclasses distinguish the failure domains that matter to users:

* bad input data (:class:`DataError` and friends),
* a model that cannot produce an estimate from the visible fields
  (:class:`InsufficientDataError` — this one is *expected* in normal
  operation: it is how EasyC and the GHG-protocol calculator signal
  "no coverage" for a system),
* misconfiguration of the models themselves (:class:`ConfigError`),
  and
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
    """Raised when input that should have a known layout does not.

    Embedded paper data that fails to parse, and saved files that are
    not what their reader expects: a truncated, foreign, legacy or
    wrong-kind cube file (``ScenarioCube.load_npz`` and its siblings),
    or a spec document with an unknown type tag or invalid fields
    (:func:`repro.scenarios.spec_from_dict`).
    """


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
    """A request (or the band kernel under it) ran out of its budget.

    Raised by :func:`repro.deadline.check_deadline` once a
    :func:`~repro.deadline.deadline_scope` budget is spent —
    between the requests of a serve batch and before every window of
    the Monte-Carlo band kernel — and by the serving layer when a
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
