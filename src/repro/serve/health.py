"""One doctor, three consumers: CLI, ``/healthz``, ``/readyz``.

``repro doctor`` (human table), ``repro doctor --json`` (machine
probes), and the serving daemon's health endpoints must never drift
apart — an external prober acting on ``/readyz`` and an operator
reading the doctor table have to be looking at the same facts.  So the
probe logic lives here once, as :func:`doctor_report`, and every
consumer renders the same dictionary.

The JSON schema is **stable**: keys are only ever added, never renamed
or removed (asserted by ``tests/serve/test_health.py``).  Top-level
keys::

    schema_version  int   — bumped only on breaking changes (currently 1)
    version         str   — the repro package version
    pool            {available, disabled} — ``available`` is predicted
                    by :func:`repro.parallel.pool.pool_status`; no
                    probe ever builds a pool
    shm             {available, registry_dir, live_segments}
    ladder          {latched: [rung...], failures: {rung: count}}
    faults          {active_rules}
    cache_tier      {l2_dir, l2_entries, l2_bytes, l2_max_bytes,
                     l2_poisoned, l2_evictions}
    janitor         {swept: [segment...]} — only when sweep=True
    counters        {name: value}         — the obs counter snapshot

``sweep=True`` additionally runs the orphaned-segment janitor (the
CLI's behavior, and the daemon's periodic task); ``/readyz`` polls with
``sweep=False`` so a probe every few seconds never touches the
registry directory.

The ``cache_tier`` section describes the shared L2 result cache
(``docs/serving.md``): the daemon reports its configured directory;
the CLI resolves ``--cache-dir`` or ``REPRO_SERVE_CACHE_DIR`` so an
operator inspecting a host sees the same facts a replica reports.

This module also renders the counter registry in Prometheus text
exposition format (:func:`render_prometheus`) for the ``/metrics``
endpoint's ``?format=prometheus`` / ``Accept: text/plain`` path.
"""

from __future__ import annotations

import os
from typing import Any

from repro import __version__, obs

__all__ = ["SCHEMA_VERSION", "CACHE_DIR_ENV", "PROMETHEUS_CONTENT_TYPE",
           "doctor_report", "render_doctor_table", "render_prometheus"]

#: Default L2 cache directory for `repro doctor` probes (the daemon
#: reports its configured ``--cache-dir`` instead).
CACHE_DIR_ENV = "REPRO_SERVE_CACHE_DIR"

#: Bumped only when a key is renamed or removed (never for additions).
SCHEMA_VERSION = 1


def doctor_report(*, registry_dir: "str | None" = None,
                  sweep: bool = False,
                  cache_dir: "str | None" = None,
                  cache_max_bytes: "int | None" = None) -> dict[str, Any]:
    """The parallel-substrate health report as one plain-data dict.

    Everything in it is JSON-serializable (asserted in tests), so the
    same object feeds ``repro doctor --json``, the human table, and
    the daemon's health endpoints.
    """
    from repro.parallel import faults as faults_mod
    from repro.parallel import pool as pool_mod
    from repro.parallel import resilience
    from repro.parallel import shm as shm_mod

    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "pool": {
            # A probe, never a spawn: asking must not build the pool.
            "available": bool(pool_mod.pool_status(None)["available"]),
            "disabled": bool(pool_mod.processes_disabled()),
        },
        "shm": {
            "available": bool(shm_mod.shm_available()),
            "registry_dir": str(shm_mod.registry_path().parent),
            "live_segments": len(shm_mod.live_owned_segments()),
        },
        "ladder": {
            "latched": sorted(resilience.latched_rungs()),
            "failures": {name: int(count) for name, count
                         in sorted(resilience.rung_failures().items())},
        },
        "faults": {
            "active_rules": len(faults_mod.active_plan().rules),
        },
        "cache_tier": _cache_tier_section(cache_dir=cache_dir,
                                          cache_max_bytes=cache_max_bytes),
        "counters": {name: value for name, value
                     in obs.metrics_snapshot().items()},
    }
    if sweep:
        swept = shm_mod.sweep_orphaned_segments(registry_dir=registry_dir)
        report["janitor"] = {"swept": list(swept)}
    return report


def _cache_tier_section(*, cache_dir: "str | None",
                        cache_max_bytes: "int | None") -> dict[str, Any]:
    """The shared-L2 view: directory, usage, and lifetime counters."""
    from repro.serve.cachetier import l2_stats

    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    stats = l2_stats(cache_dir, cache_max_bytes)
    return {
        "l2_dir": stats["directory"],
        "l2_entries": int(stats["entries"]),
        "l2_bytes": int(stats["bytes"]),
        "l2_max_bytes": int(stats["max_bytes"]),
        "l2_poisoned": int(obs.get_counter("serve.cache_l2_poisoned")),
        "l2_evictions": int(obs.get_counter("serve.cache_l2_evictions")),
    }


def render_doctor_table(report: dict[str, Any]) -> str:
    """The human ``repro doctor`` rendering of one report dict."""
    lines = ["repro doctor — parallel substrate", ""]
    pool = report["pool"]
    lines.append(f"  process pool : "
                 f"{'available' if pool['available'] else 'unavailable'}"
                 f"{' (disabled by env)' if pool['disabled'] else ''}")
    shm = report["shm"]
    lines.append(f"  shared memory: "
                 f"{'available' if shm['available'] else 'unavailable'}")
    lines.append(f"  registry dir : {shm['registry_dir']}")
    lines.append(f"  live segments: {shm['live_segments']} "
                 f"owned by this process")
    latched = report["ladder"]["latched"]
    lines.append(f"  ladder state : "
                 f"{('latched: ' + ', '.join(latched)) if latched else 'clean'}")
    n_rules = report["faults"]["active_rules"]
    lines.append(f"  fault plan   : "
                 f"{f'{n_rules} rule(s) active' if n_rules else 'none'}")
    tier = report.get("cache_tier")
    if tier is not None:
        if tier["l2_dir"] is None:
            lines.append("  cache L2     : not configured")
        else:
            lines.append(
                f"  cache L2     : {tier['l2_dir']} — "
                f"{tier['l2_entries']} entr"
                f"{'y' if tier['l2_entries'] == 1 else 'ies'}, "
                f"{tier['l2_bytes']} B used, "
                f"{tier['l2_poisoned']} poisoned, "
                f"{tier['l2_evictions']} evicted")
    janitor = report.get("janitor")
    if janitor is not None:
        swept = janitor["swept"]
        if swept:
            lines.append(f"  janitor      : unlinked {len(swept)} orphaned "
                         f"segment(s): {', '.join(swept)}")
        else:
            lines.append("  janitor      : no orphaned segments")

    lines.append("")
    lines.append("repro doctor — activity (process lifetime)")
    lines.append("")
    counters = report["counters"]
    if counters:
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}} = {value:g}")
    else:
        lines.append("  no activity recorded yet")
    return "\n".join(lines)


#: The content type Prometheus scrapers negotiate for (text exposition
#: format 0.0.4 — https://prometheus.io/docs/instrumenting/exposition_formats/).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _prometheus_name(counter: str) -> str:
    """``serve.cache_l2_hits`` → ``repro_serve_cache_l2_hits_total``.

    Every obs counter is monotonically increasing, so they all map to
    the Prometheus *counter* type with the conventional ``_total``
    suffix; non-alphanumeric characters collapse to ``_``.
    """
    sanitized = "".join(c if c.isalnum() else "_" for c in counter)
    return f"repro_{sanitized}_total"


def render_prometheus(counters: "dict[str, float] | None" = None) -> str:
    """The counter registry in Prometheus text exposition format.

    The JSON ``/metrics`` stays the default (and byte-stable for the
    existing probes); this rendering is opt-in via content negotiation.
    Values render via ``repr``-free formatting: integers stay integral,
    floats keep their precision.
    """
    if counters is None:
        counters = obs.metrics_snapshot()
    lines = []
    for name in sorted(counters):
        metric = _prometheus_name(name)
        value = counters[name]
        rendered = str(int(value)) if float(value).is_integer() \
            else repr(float(value))
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {rendered}")
    return "\n".join(lines) + "\n" if lines else ""
