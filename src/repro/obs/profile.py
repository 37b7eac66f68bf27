"""Span aggregation and the self/cumulative profile table.

Consumes span records (from a :class:`~repro.obs.tracing.Trace` or a
decoded ``REPRO_TRACE`` JSONL file) and renders the per-span-name
table behind ``repro profile -- <subcommand>`` and the ``--trace``
summaries:

* **cum** — total wall time spent inside spans of that name (children
  included);
* **self** — cum minus the time attributed to *direct* child spans,
  i.e. the time the name spent doing its own work.

Thread-block spans nest under the span that submitted them (the
current span is a context variable the fan-out copies into each
block).  Note that spans running concurrently (the band fan-out's
thread blocks) each accrue their own wall time, so cum totals can
legitimately exceed the parent process's elapsed time —
the table reports per-span sums, the coverage line compares *root*
spans only against wall clock.  Coverage is not attribution: a root
span's self time is covered but explained by no child span, so the
line under it splits coverage into time attributed to child spans and
unattributed root self time.
"""

from __future__ import annotations

from typing import Any

__all__ = ["summarize", "root_total_s", "span_coverage", "render_table"]


def _child_time(records: list[dict[str, Any]]) -> dict[str, float]:
    """Summed duration of each span's direct children, by span id."""
    child_time: dict[str, float] = {}
    for rec in records:
        parent = rec.get("parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + rec["dur_s"]
    return child_time


def summarize(records: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per-name aggregates: ``{name: {count, cum_s, self_s}}``.

    ``self_s`` subtracts only *direct* children (linked by
    ``parent_id``), so a grandchild's time is debited from its own
    parent, not from the grandparent.
    """
    child_time = _child_time(records)
    stats: dict[str, dict[str, float]] = {}
    for rec in records:
        entry = stats.setdefault(rec["name"],
                                 {"count": 0, "cum_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["cum_s"] += rec["dur_s"]
        own = rec["dur_s"] - child_time.get(rec["span_id"], 0.0)
        entry["self_s"] += max(own, 0.0)
    return stats


def root_total_s(records: list[dict[str, Any]]) -> float:
    """Total duration of root spans (no parent) — the covered wall time."""
    return sum(r["dur_s"] for r in records if r.get("parent_id") is None)


def _root_self_s(records: list[dict[str, Any]]) -> float:
    """Self time of root spans: covered wall time no child span explains.

    A root span's self time is time the run spent inside the command
    but outside every instrumented region; the profile reports it as
    unattributed, beside the coverage that includes it.
    """
    child_time = _child_time(records)
    return sum(max(r["dur_s"] - child_time.get(r["span_id"], 0.0), 0.0)
               for r in records if r.get("parent_id") is None)


def span_coverage(records: list[dict[str, Any]], wall_s: float) -> float:
    """Fraction of ``wall_s`` accounted for by root spans (0..1+)."""
    if wall_s <= 0:
        return 0.0
    return root_total_s(records) / wall_s


def render_table(records: list[dict[str, Any]],
                 wall_s: float | None = None) -> str:
    """The profile table: one row per span name, slowest-self first."""
    if not records:
        return "no spans recorded (is the traced path instrumented?)"
    stats = summarize(records)
    rows = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])
    name_w = max(len("span"), max(len(name) for name in stats))
    lines = [
        f"{'span':<{name_w}}  {'count':>7}  {'self(s)':>9}  "
        f"{'cum(s)':>9}  {'self%':>6}",
    ]
    total_self = sum(entry["self_s"] for entry in stats.values()) or 1.0
    for name, entry in rows:
        pct = 100.0 * entry["self_s"] / total_self
        lines.append(
            f"{name:<{name_w}}  {int(entry['count']):>7}  "
            f"{entry['self_s']:>9.4f}  {entry['cum_s']:>9.4f}  "
            f"{pct:>5.1f}%")
    lines.append(f"{'total (self)':<{name_w}}  {'':>7}  "
                 f"{total_self:>9.4f}")
    if wall_s is not None and wall_s > 0:
        coverage = span_coverage(records, wall_s)
        unattributed = _root_self_s(records) / wall_s
        lines.append(f"span coverage: {100.0 * coverage:.1f}% of "
                     f"{wall_s:.3f}s wall time")
        lines.append(f"attributed to child spans: "
                     f"{100.0 * (coverage - unattributed):.1f}%; "
                     f"unattributed (root self time): "
                     f"{100.0 * unattributed:.1f}%")
    return "\n".join(lines)
