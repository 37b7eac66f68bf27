"""Zero-dependency span tracer for every engine and the daemon.

A *span* is one timed region of work — a frame extraction, a sweep
kernel, a Monte-Carlo statistics block — recorded as a flat dict and
shipped to whichever sinks are active when it closes.  The design
constraints, in order:

* **Disabled is free.**  :func:`span` returns a shared no-op context
  manager after one cheap check when nothing is listening; the hot
  paths carry no timing, no allocation, no contextvar traffic.  A
  bench smoke test (``benchmarks/bench_obs.py``) holds this line.
* **Tracing never changes results.**  Spans only observe; the chaos
  suite asserts bit-identity of traced and untraced runs under every
  ``REPRO_FAULT_SPEC`` entry.
* **Threads participate.**  The current span is a context variable, so
  work submitted through ``contextvars.copy_context().run`` (the band
  fan-out's thread blocks, the daemon's executor calls) nests under
  the span that submitted it — one coherent tree.

Sinks, each receiving every span when it closes:

* every active in-memory :class:`Trace` opened by :func:`capture`;
* the JSON-lines file named by ``REPRO_TRACE`` (one append handle per
  path, one write and one flush per span — concurrent processes
  interleave whole lines).  A path that cannot be written warns once
  on stderr and drops its spans.

Span records are self-describing dicts (see :data:`SPAN_FIELDS`);
``python -m repro.obs <path>`` validates an emitted JSONL file against
that schema.  ``docs/observability.md`` documents the span taxonomy.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "TRACE_ENV",
    "SPAN_FIELDS",
    "Trace",
    "span",
    "capture",
    "close_sinks",
    "current_span_id",
    "tracing_active",
    "validate_record",
]

#: Path of the JSON-lines trace sink; empty/unset disables the file sink.
TRACE_ENV = "REPRO_TRACE"

#: Required fields of one span record and their types — the schema the
#: CI leg validates emitted traces against (``python -m repro.obs``).
SPAN_FIELDS: dict[str, type | tuple[type, ...]] = {
    "type": str,            # always "span"
    "name": str,            # taxonomy name, e.g. "sweep.kernel"
    "ts": (int, float),     # wall-clock start, seconds since the epoch
    "dur_s": (int, float),  # monotonic duration (perf_counter delta)
    "pid": int,             # emitting process
    "span_id": str,         # "<pid>-<seq>", unique across processes
    "parent_id": (str, type(None)),  # enclosing span, None for roots
    "attrs": dict,          # caller-supplied JSON-safe attributes
}

#: Innermost open span in this execution context (nesting).
_CURRENT: ContextVar[str | None] = ContextVar("repro_obs_current",
                                             default=None)

#: Open in-memory captures (a stack; all of them receive every span).
_CAPTURES: list["Trace"] = []

_SEQ_LOCK = threading.Lock()
_SEQ = 0

_FILE_LOCK = threading.Lock()

#: One append handle per trace path, opened by its first span and
#: kept for the process (guarded by ``_FILE_LOCK``).  Every record is
#: flushed as it is written, so nothing waits in a buffer at exit;
#: the handles are closed by :func:`close_sinks`, at interpreter exit
#: or by ``python -m repro`` before it ends the process.
#: A trace file replaced while the process runs is not followed.
_HANDLES: dict[str, Any] = {}

#: Trace paths whose write failed (each warned about once).
_UNWRITABLE: set[str] = set()


class Trace:
    """An in-memory sink: the list of span records seen while open."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self.records)

    def by_name(self, name: str) -> list[dict[str, Any]]:
        """All records with the given span name, in emission order."""
        return [r for r in self.records if r["name"] == name]

    def names(self) -> set[str]:
        """The distinct span names seen."""
        return {r["name"] for r in self.records}


def _next_span_id() -> str:
    global _SEQ
    with _SEQ_LOCK:
        _SEQ += 1
        seq = _SEQ
    return f"{os.getpid()}-{seq}"


def tracing_active() -> bool:
    """Whether any sink would receive a span opened right now.

    This is the disabled-path gate: one list truthiness check, one
    environ lookup.  The environ read is *not* cached so tests (and
    operators) can flip ``REPRO_TRACE`` at any point — matching how
    every other ``REPRO_*`` knob behaves.
    """
    return bool(_CAPTURES) or bool(os.environ.get(TRACE_ENV))


class _NoopSpan:
    """The shared disabled-path span: no state, re-entrant, free."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "span_id", "parent_id",
                 "_ts", "_t0", "_token")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self.span_id = _next_span_id()
        self.parent_id = _CURRENT.get()
        self._token = _CURRENT.set(self.span_id)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        dur = time.perf_counter() - self._t0
        _CURRENT.reset(self._token)
        _emit({
            "type": "span",
            "name": self.name,
            "ts": self._ts,
            "dur_s": dur,
            "pid": os.getpid(),
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": self.attrs,
        })


def span(name: str, **attrs: Any) -> "_Span | _NoopSpan":
    """A context manager timing one named region of work.

    Attributes must be JSON-serializable (counts, names, sizes).  When
    no sink is active this returns a shared no-op object — callers
    never need to guard instrumentation behind their own flag.
    """
    if not tracing_active():
        return _NOOP_SPAN
    return _Span(name, attrs)


def current_span_id() -> str | None:
    """The innermost open span's id (None outside any span)."""
    return _CURRENT.get()


def _emit(record: dict[str, Any]) -> None:
    for trace in _CAPTURES:
        trace.records.append(record)
    path = os.environ.get(TRACE_ENV)
    if path:
        _write_line(path, record)


def _write_line(path: str, record: dict[str, Any]) -> None:
    line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
    with _FILE_LOCK:
        fh = _HANDLES.get(path)
        try:
            if fh is None:
                fh = _HANDLES[path] = open(path, "a", encoding="utf-8")
            # One write per record: POSIX append mode keeps
            # concurrent writers' lines whole, so multi-process
            # traces stay valid JSONL without cross-process locking.
            fh.write(line)
            fh.flush()
        except OSError as exc:
            # Telemetry must never take down an assessment: an
            # unwritable trace path drops its records (the run is
            # unaffected), and says so once per path on stderr.  A
            # handle that failed is dropped; the next span reopens.
            if _HANDLES.pop(path, None) is not None:
                try:
                    fh.close()
                except OSError:
                    pass
            if path not in _UNWRITABLE:
                _UNWRITABLE.add(path)
                print(f"repro: cannot write {TRACE_ENV}={path!r} "
                      f"({exc.strerror or exc}); spans are not recorded",
                      file=sys.stderr)


@atexit.register
def close_sinks() -> None:
    """Close every ``REPRO_TRACE`` handle; a later span reopens its file.

    Registered with :mod:`atexit`, so no handle is left to interpreter
    teardown, where it is freed in whatever order the modules go and
    ``ResourceWarning`` may report it on stderr after the process's own
    output.  ``python -m repro`` ends its process with ``os._exit``,
    which runs no ``atexit`` hook, so it calls this itself first.
    """
    with _FILE_LOCK:
        while _HANDLES:
            _, fh = _HANDLES.popitem()
            try:
                fh.close()
            except OSError:
                pass


def reset_warnings() -> None:
    """Warn again about trace paths already reported (test hook)."""
    _UNWRITABLE.clear()


@contextmanager
def capture() -> Iterator[Trace]:
    """Collect every span closed inside the block into a :class:`Trace`.

    Captures stack: nested captures each see the spans emitted while
    they are open.  Opening a capture *activates* tracing on its own —
    no environment variable needed for programmatic use.
    """
    trace = Trace()
    _CAPTURES.append(trace)
    try:
        yield trace
    finally:
        _CAPTURES.remove(trace)


def validate_record(record: Any) -> list[str]:
    """Schema problems with one decoded span record ([] when valid)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    for field, types in SPAN_FIELDS.items():
        if field not in record:
            problems.append(f"missing field {field!r}")
            continue
        value = record[field]
        expected = types if isinstance(types, tuple) else (types,)
        # bool is an int subclass; a boolean pid/ts is still malformed.
        if isinstance(value, bool) and bool not in expected:
            problems.append(f"{field}={value!r} has type bool")
        elif not isinstance(value, expected):
            ok = tuple(t.__name__ for t in expected)
            problems.append(
                f"{field}={value!r} is not of type {'/'.join(ok)}")
    if record.get("type") not in (None, "span"):
        problems.append(f"type={record['type']!r} is not 'span'")
    if isinstance(record.get("dur_s"), (int, float)) \
            and not isinstance(record.get("dur_s"), bool) \
            and record["dur_s"] < 0:
        problems.append(f"dur_s={record['dur_s']!r} is negative")
    return problems
