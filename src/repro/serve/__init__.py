"""The hardened assessment service (``repro serve``).

A stdlib-only asyncio daemon that keeps fleet state warm between
requests and coalesces concurrent assess/sweep/band requests into
single batched kernel calls — with per-request deadlines, bounded
admission (shed-oldest, 429 + ``Retry-After``), a circuit breaker,
checksum-validated result
caching, crash-safe warm-state rebuild, and graceful SIGTERM drain.

One asyncio process serves persistent HTTP/1.1 connections with
chunked streaming, over a two-level result cache
(``repro.serve.cachetier``) whose disk L2 survives restarts.

See ``docs/serving.md`` for the operational story.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.app import AssessmentServer, ServeConfig, serve
from repro.serve.cachetier import DiskCacheL2, TieredResultCache, l2_stats
from repro.serve.batcher import (
    ACCEPTANCE_GRID_AXES,
    BatchEntry,
    Batcher,
    ParsedRequest,
    RequestError,
    build_specs,
    cache_key,
    evaluate_group,
    fleet_content_hash,
    fleet_records,
    parse_request,
)
from repro.serve.cache import ResultCache, canonical_digest
from repro.serve.health import (
    SCHEMA_VERSION,
    doctor_report,
    render_doctor_table,
    render_prometheus,
)
from repro.serve.lifecycle import (
    BREAKER_CLOSED,
    BREAKER_DEGRADED,
    BREAKER_OPEN,
    CircuitBreaker,
    WarmState,
)

__all__ = [
    "ACCEPTANCE_GRID_AXES",
    "AdmissionQueue",
    "AssessmentServer",
    "BatchEntry",
    "Batcher",
    "BREAKER_CLOSED",
    "BREAKER_DEGRADED",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "DiskCacheL2",
    "ParsedRequest",
    "RequestError",
    "ResultCache",
    "SCHEMA_VERSION",
    "ServeConfig",
    "TieredResultCache",
    "WarmState",
    "build_specs",
    "cache_key",
    "canonical_digest",
    "doctor_report",
    "evaluate_group",
    "fleet_content_hash",
    "fleet_records",
    "l2_stats",
    "parse_request",
    "render_doctor_table",
    "render_prometheus",
    "serve",
]
