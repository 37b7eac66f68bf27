"""``repro.obs`` — spans, counters, and profiling for every engine.

The observability substrate the serving daemon and multi-host backends
will report through.  Three pieces:

* :mod:`repro.obs.tracing` — nested span tracer (contextvars, monotonic
  clocks, ``REPRO_TRACE`` JSONL sink);
* :mod:`repro.obs.metrics` — always-on process-lifetime counters;
* :mod:`repro.obs.profile` — self/cumulative aggregation and the table
  ``repro profile`` prints.

Contracts (asserted by ``tests/obs`` and the chaos suite): tracing
never changes numeric output, and the disabled path is a no-op fast
branch.  See ``docs/observability.md``.
"""

from repro.obs.metrics import (
    get_counter,
    inc,
    metrics_snapshot,
    reset_metrics,
    reset_warnings,
)
from repro.obs.profile import (
    render_table,
    root_total_s,
    span_coverage,
    summarize,
)
from repro.obs.tracing import (
    SPAN_FIELDS,
    TRACE_ENV,
    Trace,
    capture,
    current_span_id,
    span,
    tracing_active,
    validate_record,
)

__all__ = [
    "TRACE_ENV",
    "SPAN_FIELDS",
    "Trace",
    "span",
    "capture",
    "current_span_id",
    "tracing_active",
    "validate_record",
    "inc",
    "get_counter",
    "metrics_snapshot",
    "reset_metrics",
    "reset_warnings",
    "summarize",
    "root_total_s",
    "span_coverage",
    "render_table",
]
